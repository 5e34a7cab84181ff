//! Hand-rolled HTTP/1.1 over `std::net` — the serve counterpart of the
//! dependency-free `json.rs` in `silo-sim`: exactly what the daemon
//! needs and nothing more.
//!
//! One request per connection (`Connection: close` everywhere), plain
//! and chunked responses, hard limits on every dimension an untrusted
//! peer controls (request-line length, header count/size, body size).
//! Parse failures map to typed [`HttpError`]s carrying the status code
//! the handler should answer with.

use std::fmt;
use std::io::{BufRead, Write};

/// Largest accepted request line or single header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Largest accepted header count.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body (scenario files are a few KiB).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A request-parsing failure, carrying the HTTP status to answer with.
#[derive(Debug)]
pub struct HttpError {
    /// Response status code (400, 413, 505, ...).
    pub status: u16,
    /// Human-readable reason, returned in the error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

/// A parsed request: method, split path/query, lower-cased header
/// names, and the complete body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (upper-case as sent).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// `key=value` pairs of the query string, undecoded, in order.
    pub query: Vec<(String, String)>,
    /// Headers with ASCII-lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: String,
}

impl Request {
    /// First header named `name` (give it lower-cased), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter named `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one line terminated by `\n`, stripping the `\r\n` / `\n`
/// terminator, with a length cap.
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = std::io::Read::read(reader, &mut byte)
            .map_err(|e| HttpError::new(400, format!("read failed: {e}")))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        if byte[0] == b'\n' {
            break;
        }
        if buf.len() >= MAX_LINE {
            return Err(HttpError::new(431, "header line too long"));
        }
        buf.push(byte[0]);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::new(400, "non-UTF-8 header bytes"))
}

/// Reads and parses one full request from `reader`.
///
/// # Errors
///
/// Returns an [`HttpError`] with the status the caller should answer:
/// 400 for malformed syntax, 413 for an oversized body, 431 for
/// oversized headers, 505 for non-1.x versions.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line lacks a path"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line lacks a version"))?;
    if parts.next().is_some() {
        return Err(HttpError::new(400, "malformed request line"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, format!("unsupported {version}")));
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (p.to_string(), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::new(400, format!("bad content-length '{v}'")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body)
        .map_err(|e| HttpError::new(400, format!("short body: {e}")))?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::new(400, "non-UTF-8 request body"))?;

    Ok(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

fn head(status: u16, content_type: &str) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\n\
         Server: silo-serve/{}\r\n\
         Content-Type: {content_type}\r\n\
         Connection: close\r\n",
        reason(status),
        silo_types::VERSION,
    )
}

/// Writes a complete fixed-length response.
///
/// # Errors
///
/// Propagates socket write errors (the peer hung up).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        w,
        "{}Content-Length: {}\r\n\r\n{body}",
        head(status, content_type),
        body.len(),
    )?;
    w.flush()
}

/// Starts a chunked response; follow with [`write_chunk`] calls and one
/// [`finish_chunked`].
///
/// # Errors
///
/// Propagates socket write errors.
pub fn start_chunked(w: &mut impl Write, status: u16, content_type: &str) -> std::io::Result<()> {
    write!(
        w,
        "{}Transfer-Encoding: chunked\r\n\r\n",
        head(status, content_type)
    )?;
    w.flush()
}

/// Writes one chunk of a chunked response (empty data is skipped — an
/// empty chunk would terminate the stream).
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_chunk(w: &mut impl Write, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n{data}\r\n", data.len())?;
    w.flush()
}

/// Terminates a chunked response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn finish_chunked(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::json_escape;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            "POST /jobs?priority=3&stream HTTP/1.1\r\n\
             Host: localhost\r\n\
             X-Client: alice\r\n\
             Content-Length: 11\r\n\
             \r\n\
             cores = 16\n",
        )
        .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_param("priority"), Some("3"));
        assert_eq!(req.query_param("stream"), Some(""));
        assert_eq!(req.header("x-client"), Some("alice"));
        assert_eq!(req.body, "cores = 16\n");
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse("GET /status HTTP/1.1\r\n\r\n").expect("valid");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/status");
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn rejects_malformed_requests_with_the_right_status() {
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x HTTP/2\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Declared body longer than the stream.
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(&huge).unwrap_err().status, 413);
    }

    #[test]
    fn oversized_header_lines_are_431() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 10));
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn responses_carry_the_version_header_and_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", "{\"ok\":true}").expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains(&format!("Server: silo-serve/{}", silo_types::VERSION)));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200, "application/x-ndjson").expect("start");
        write_chunk(&mut out, "row1\n").expect("chunk");
        write_chunk(&mut out, "").expect("empty chunk skipped");
        write_chunk(&mut out, "row2\n").expect("chunk");
        finish_chunked(&mut out).expect("finish");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(
            text.ends_with("5\r\nrow1\n\r\n5\r\nrow2\n\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
