//! Offline stand-in for `serde_json`: serialises the [`serde::Value`] tree of
//! the offline serde stand-in to JSON text and parses it back.
//!
//! Numbers are written with Rust's shortest round-trip float formatting
//! (`{:?}`) or as exact integers, so `f32`/`f64` model weights and `u64` seeds
//! survive a text round trip bit-exactly. Non-finite floats serialise as
//! `null`, mirroring the conventional JSON treatment.
//!
//! The reader takes untrusted input (HTTP request bodies among it), so it is
//! bounded by construction:
//! - decoding is linear in the input: a string is copied one run of plain
//!   bytes at a time, up to the next `"` or `\`;
//! - arrays and objects nest at most [`MAX_DEPTH`] levels; deeper input is
//!   an [`Error`], not a stack overflow;
//! - a `\u` escape takes exactly four hex digits; a UTF-16 surrogate pair
//!   (as Python's `json.dumps` writes non-BMP characters) decodes to one
//!   character, and a lone surrogate decodes to U+FFFD.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// The deepest nesting of arrays and objects [`from_str`] accepts. The
/// documents the workspace writes (snapshots, graphs, catalogs, reports) are
/// far shallower.
pub const MAX_DEPTH: usize = 128;

/// Serialisation/deserialisation error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialises a value to compact JSON.
///
/// # Errors
/// Infallible for the value shapes the stand-in produces; the `Result` keeps
/// the real serde_json signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialises a value to human-readable, two-space-indented JSON.
///
/// # Errors
/// Infallible for the value shapes the stand-in produces.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(T::from_value(&value)?)
}

// --- Writer ----------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Float(v) => {
            if v.is_finite() {
                // `{:?}` is Rust's shortest representation that parses back to
                // the identical f64.
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            write_seq(items.iter(), b"[]", out, indent, depth, |item, out, indent, depth| {
                write_value(item, out, indent, depth);
            })
        }
        Value::Object(fields) => {
            write_seq(
                fields.iter(),
                b"{}",
                out,
                indent,
                depth,
                |(key, value), out, indent, depth| {
                    write_string(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(value, out, indent, depth);
                },
            );
        }
    }
}

fn write_seq<I, F>(
    items: I,
    brackets: &[u8; 2],
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(I::Item, &mut String, Option<usize>, usize),
{
    out.push(brackets[0] as char);
    let count = items.len();
    if count == 0 {
        out.push(brackets[1] as char);
        return;
    }
    for (index, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(item, out, indent, depth + 1);
        if index + 1 < count {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(brackets[1] as char);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- Parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Consumes the opening bracket of an array or object one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// Consumes the closing bracket of the innermost open array or object.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(Value::Array(items));
                }
                other => return Err(Error::new(format!("expected `,` or `]`, found {other:?}"))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.open(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(Value::Object(fields));
                }
                other => return Err(Error::new(format!("expected `,` or `}}`, found {other:?}"))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"` or `\` in one
            // step. Both delimiters are ASCII, so the run ends on a char
            // boundary and is valid UTF-8 on its own.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(
                std::str::from_utf8(&rest[..run])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            let delimiter = rest[run];
            self.pos += run + 1;
            if delimiter == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.pos += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => out.push(self.parse_unicode_escape()?),
                other => {
                    return Err(Error::new(format!("invalid escape {:?}", other.map(char::from))))
                }
            }
        }
    }

    /// Decodes the code unit of a `\u` escape whose four hex digits start at
    /// `pos`. A high surrogate directly followed by an escaped low surrogate
    /// is one character; any other surrogate becomes U+FFFD.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let low = self.parse_hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair encodes a scalar"));
            }
            // Not a low surrogate: that escape decodes on its own.
            self.pos = resume;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Reads exactly four ASCII hex digits as one UTF-16 code unit.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &digit in digits {
            let value = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| Error::new(format!("invalid \\u escape at byte {}", self.pos)))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(signed) = text.parse::<i64>() {
                    return Ok(Value::Int(signed));
                }
            } else if let Ok(unsigned) = text.parse::<u64>() {
                return Ok(Value::UInt(unsigned));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(from_str::<i32>("-3").unwrap(), -3);
        assert_eq!(from_str::<f64>(&to_string(&0.1f64).unwrap()).unwrap(), 0.1);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &v in &[1.0f64 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7, 0.0] {
            let back: f64 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not round trip");
        }
        for &v in &[0.1f32, 3.4e38, -7.77e-12] {
            let back: f32 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not round trip");
        }
    }

    #[test]
    fn u64_seeds_keep_full_precision() {
        let seed = u64::MAX - 12345;
        let back: u64 = from_str(&to_string(&seed).unwrap()).unwrap();
        assert_eq!(back, seed);
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = vec![vec![1.5f64, -2.0], vec![0.0]];
        let json = to_string_pretty(&value).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_str::<f64>("{not json").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(from_str::<String>("\"open").is_err());
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn strings_mixing_runs_escapes_and_multibyte_text_round_trip() {
        let ascii = "plain ascii run ".repeat(64);
        let escapes = "\" \\ / \n \r \t \u{8} \u{c}";
        let controls: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        let multibyte = "é ß ж → € 漢字 😀 𝄞";
        let strings = [
            String::new(),
            ascii.clone(),
            escapes.to_owned(),
            controls.clone(),
            multibyte.to_owned(),
            format!("{ascii}{escapes}{multibyte}{controls}{ascii}"),
            format!("{multibyte}\"{multibyte}\\{ascii}"),
            "\\\\\"\"".to_owned(),
        ];
        let document = Value::Object(
            strings
                .iter()
                .enumerate()
                .map(|(index, s)| {
                    (
                        s.clone(),
                        Value::Array(vec![Value::Str(s.clone()), Value::UInt(index as u64)]),
                    )
                })
                .chain([(String::new(), Value::Str(String::new()))])
                .collect(),
        );
        for json in [to_string(&document).unwrap(), to_string_pretty(&document).unwrap()] {
            assert_eq!(from_str::<Value>(&json).unwrap(), document, "{json}");
        }
        for s in &strings {
            assert_eq!(&from_str::<String>(&to_string(s).unwrap()).unwrap(), s);
        }
    }

    #[test]
    fn a_megabyte_string_decodes_in_linear_time() {
        // A decoder that rescans the rest of the input per character needs
        // about a minute here even optimised; a linear one needs
        // milliseconds, even unoptimised.
        let text = "ab\\\"cd é ".repeat(100_000);
        let json = to_string(&text).unwrap();
        assert!(json.len() > 1_000_000);
        let start = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, text);
        assert!(elapsed.as_secs_f64() < 2.0, "decoding 1 MB took {elapsed:?}");
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_rejected_past_it() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        let mixed = |depth: usize| {
            let open: String =
                (0..depth).map(|level| if level % 2 == 0 { "[" } else { "{\"k\":" }).collect();
            let close: String =
                (0..depth).rev().map(|level| if level % 2 == 0 { "]" } else { "}" }).collect();
            format!("{open}0{close}")
        };
        for document in [arrays, objects, mixed] {
            assert!(from_str::<Value>(&document(MAX_DEPTH)).is_ok());
            let error = from_str::<Value>(&document(MAX_DEPTH + 1)).unwrap_err();
            assert!(error.to_string().contains("nesting deeper than 128"), "{error}");
        }
        // Siblings do not add depth: the limit is on nesting, not on count.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 4].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
        // A bomb far past the limit is an error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            from_str::<String>(r#""\u0041\u00e9\u00E9\u20ac""#).unwrap(),
            "A\u{e9}\u{e9}\u{20ac}"
        );
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00G1""#, r#""\u004""#] {
            assert!(from_str::<String>(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // Python's `json.dumps("😀 𝄞")` with the default `ensure_ascii=True`.
        let python = r#""\ud83d\ude00 \ud834\udd1e""#;
        assert_eq!(from_str::<String>(python).unwrap(), "😀 𝄞");
        assert_eq!(from_str::<String>(r#""\udbff\udfff""#).unwrap(), "\u{10ffff}");
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_character() {
        for (json, expected) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(from_str::<String>(json).unwrap(), expected, "{json}");
        }
    }
}
