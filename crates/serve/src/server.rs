//! The TCP/HTTP frontend: routes requests from sockets into a
//! [`ServiceHandle`].
//!
//! Routes:
//!
//! | Route            | Meaning                                              |
//! |------------------|------------------------------------------------------|
//! | `POST /predict`   | Predict one design (graph payload or kernel name).   |
//! | `GET /metrics`    | Prometheus-style text exposition of every metric.    |
//! | `GET /debug/slow` | Recent requests over the slow-latency threshold.     |
//! | `GET /healthz`    | Liveness probe.                                      |
//! | `POST /shutdown`  | Graceful stop: the accept loop exits, `wait` returns.|
//!
//! Status mapping: 400 malformed request or payload, 404 unknown route, 405
//! wrong method on a known route, 503 with `Retry-After` when the admission
//! queue sheds (or the service is stopping), 500 when the model itself fails
//! on an admitted request.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, write_response, Request, CONTENT_TYPE_JSON, CONTENT_TYPE_METRICS};
use crate::protocol::{ErrorResponse, PredictRequest, PredictResponse};
use crate::service::{ServeError, ServiceHandle};

/// How long a connection may sit idle mid-request before being dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A running HTTP frontend over a prediction service.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`; port 0 picks an ephemeral
    /// port) and starts accepting connections on a background thread. Each
    /// connection gets its own handler thread; back-pressure comes from the
    /// service's admission queue, not from the accept loop.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(service: ServiceHandle, addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("hls-gnn-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &service, &shutdown, local))
                .expect("spawning the accept thread")
        };
        Ok(HttpServer { addr: local, shutdown, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (a `POST /shutdown` arrived or
    /// [`HttpServer::shutdown`] was called from another thread via a clone of
    /// the flag). Returns once the accept loop has exited; the service itself
    /// keeps running and is stopped by its owner.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting connections and joins the accept thread. In-flight
    /// connection handlers finish their current exchange.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        poke(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Unblocks a listener stuck in `accept` by dialling it once.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(
    listener: &TcpListener,
    service: &ServiceHandle,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = service.clone();
        let shutdown = Arc::clone(shutdown);
        let spawned =
            std::thread::Builder::new().name("hls-gnn-serve-conn".to_owned()).spawn(move || {
                let _ = handle_connection(stream, &service, &shutdown, addr);
            });
        if spawned.is_err() {
            // Out of threads: shed at the accept level and keep serving.
            continue;
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &ServiceHandle,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Request/response exchanges are latency-bound small messages; without
    // NODELAY, Nagle batching against delayed ACKs adds ~40 ms per exchange.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // peer closed a keep-alive connection
            Err(error) if error.kind() == io::ErrorKind::InvalidData => {
                let body = error_body(&error.to_string());
                write_response(&mut writer, 400, CONTENT_TYPE_JSON, body.as_bytes(), false, None)?;
                return Ok(());
            }
            Err(error) => return Err(error),
        };
        let keep_alive = !request.wants_close();
        let reply = route(service, shutdown, addr, &request);
        write_response(
            &mut writer,
            reply.status,
            reply.content_type,
            reply.body.as_bytes(),
            keep_alive,
            reply.retry_after,
        )?;
        if !keep_alive || shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorResponse { error: message.to_owned() })
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_owned())
}

/// One routed response: status, content type, body, optional `Retry-After`.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: Option<u32>,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply { status, content_type: CONTENT_TYPE_JSON, body, retry_after: None }
    }
}

/// Dispatches one request.
fn route(
    service: &ServiceHandle,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
    request: &Request,
) -> Reply {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            Reply::json(200, format!("{{\"status\":\"ok\",\"model\":{:?}}}", service.model_name()))
        }
        ("GET", "/debug/slow") => match serde_json::to_string_pretty(&service.slow_requests()) {
            Ok(body) => Reply::json(200, body),
            Err(error) => Reply::json(500, error_body(&error.to_string())),
        },
        ("GET", "/metrics") => Reply {
            status: 200,
            content_type: CONTENT_TYPE_METRICS,
            body: service.render_metrics(),
            retry_after: None,
        },
        ("POST", "/predict") => predict_route(service, request),
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            poke(addr); // unblock the accept loop so `wait` returns
            Reply::json(200, "{\"status\":\"shutting down\"}".to_owned())
        }
        (_, "/predict" | "/shutdown" | "/metrics" | "/debug/slow" | "/healthz") => {
            Reply::json(405, error_body("wrong method for this route"))
        }
        (_, target) => Reply::json(404, error_body(&format!("no such route `{target}`"))),
    }
}

fn predict_route(service: &ServiceHandle, request: &Request) -> Reply {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Reply::json(400, error_body("request body is not valid UTF-8")),
    };
    let parsed: PredictRequest = match serde_json::from_str(text) {
        Ok(parsed) => parsed,
        Err(error) => {
            return Reply::json(400, error_body(&format!("malformed predict request: {error}")))
        }
    };
    match service.predict_request(&parsed) {
        Ok((name, served)) => {
            let response = PredictResponse {
                name,
                request_id: served.request_id,
                prediction: served.prediction,
                cached: served.cached,
                coalesced: served.coalesced,
                latency_us: u64::try_from(served.latency.as_micros()).unwrap_or(u64::MAX),
            };
            match serde_json::to_string(&response) {
                Ok(body) => Reply::json(200, body),
                Err(error) => Reply::json(500, error_body(&error.to_string())),
            }
        }
        Err(error) => {
            let status = match &error {
                ServeError::Overloaded { .. } | ServeError::ShuttingDown => 503,
                ServeError::BadRequest(_) => 400,
                ServeError::Model(_) => 500,
            };
            let mut reply = Reply::json(status, error_body(&error.to_string()));
            reply.retry_after = (status == 503).then_some(1);
            reply
        }
    }
}
