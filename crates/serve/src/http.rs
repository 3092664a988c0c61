//! A minimal, hand-rolled HTTP/1.1 layer — just enough protocol for the
//! prediction service, with hard limits on every dimension an untrusted peer
//! controls (request-line length, header count and size, body size).
//!
//! Supported: `GET`/`POST` with `Content-Length` bodies, keep-alive (the
//! HTTP/1.1 default) and `Connection: close`. Not supported (rejected, not
//! ignored): chunked transfer encoding. There are no external dependencies —
//! the offline-shim constraint rules out hyper et al., and the service needs
//! only this subset.

use std::io::{self, BufRead, Write};

/// Upper bound on one header (or request) line, bytes.
pub const MAX_LINE_BYTES: usize = 16 * 1024;
/// Upper bound on the number of headers.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body, bytes (a fused super-graph of ~100k nodes
/// serialises well under this).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-cased as received.
    pub method: String,
    /// Request target (`/predict`), query string included if any.
    pub target: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(header, _)| header == name).map(|(_, value)| value.as_str())
    }

    /// True when the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|value| value.eq_ignore_ascii_case("close"))
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one `\r\n`- (or `\n`-) terminated line with a hard length cap.
fn read_line_capped(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(invalid("connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| invalid("header line is not valid UTF-8"))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(invalid(format!("header line exceeds {MAX_LINE_BYTES} bytes")));
                }
            }
            Err(error) => return Err(error),
        }
    }
}

/// Parses one request from the stream. `Ok(None)` is a clean EOF (the peer
/// closed a keep-alive connection between requests).
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] for protocol violations (the caller should
/// answer 400 and close) and ordinary I/O errors otherwise.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(request_line) = read_line_capped(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None) => (method, target, version),
        _ => return Err(invalid(format!("malformed request line `{request_line}`"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported protocol version `{version}`")));
    }
    let method = method.to_ascii_uppercase();
    let target = target.to_owned();

    let mut headers = Vec::new();
    loop {
        let line = read_line_capped(reader)?
            .ok_or_else(|| invalid("connection closed inside the header block"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(invalid(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request { method, target, headers, body: Vec::new() };
    if request.header("transfer-encoding").is_some() {
        return Err(invalid("chunked transfer encoding is not supported"));
    }
    // Conflicting Content-Length headers are the classic request-smuggling
    // vector (RFC 7230 §3.3.3 requires rejection): a proxy honouring one
    // length and this server the other would desync the connection.
    if request.headers.iter().filter(|(name, _)| name == "content-length").count() > 1 {
        return Err(invalid("multiple content-length headers"));
    }
    if let Some(length) = request.header("content-length") {
        let length: usize =
            length.parse().map_err(|_| invalid(format!("bad content-length `{length}`")))?;
        if length > MAX_BODY_BYTES {
            return Err(invalid(format!("body of {length} bytes exceeds {MAX_BODY_BYTES}")));
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(Some(request))
}

/// The reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Content type of JSON responses (every route except `/metrics`).
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition served at `/metrics`.
pub const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4";

/// Writes one response. `retry_after` adds a `Retry-After` header (used with
/// 503 so well-behaved clients back off).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u32>,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: {}\r\n",
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(seconds) = retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str("\r\n");
    // One write for head + body: a small response split across two TCP
    // segments trips the Nagle / delayed-ACK interaction (~40 ms stalls per
    // exchange on keep-alive connections).
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let request = parse(raw).unwrap().expect("one request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/predict");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"hello");
        assert!(!request.wants_close());
    }

    #[test]
    fn bare_lf_lines_and_connection_close_are_accepted() {
        let raw = b"GET /metrics HTTP/1.1\nConnection: close\n\n";
        let request = parse(raw).unwrap().expect("one request");
        assert_eq!(request.method, "GET");
        assert!(request.wants_close());
        assert!(request.body.is_empty());
    }

    #[test]
    fn eof_before_a_request_is_a_clean_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn protocol_violations_are_invalid_data() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: trouble\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 38\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
        ] {
            let error = parse(raw).expect_err("must be rejected");
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn truncated_bodies_error_instead_of_hanging() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(parse(raw).is_err());
    }

    #[test]
    fn responses_have_the_advertised_length_and_connection_header() {
        let mut out = Vec::new();
        write_response(&mut out, 503, CONTENT_TYPE_JSON, b"{\"error\":\"busy\"}", false, Some(1))
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));
    }

    #[test]
    fn metrics_responses_carry_the_exposition_content_type() {
        let mut out = Vec::new();
        write_response(&mut out, 200, CONTENT_TYPE_METRICS, b"m_total 1\n", true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("m_total 1\n"));
    }
}
