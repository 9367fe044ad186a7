//! Minimal HTTP/1.1 over `std::net` — just enough for the campaign API.
//!
//! The build container has no registry access, so there is no hyper/axum;
//! this is the same philosophy as the stubs/ crates: a small, correct
//! subset. One request per connection (`Connection: close` on every
//! response), bounded header and body sizes (oversized requests are
//! rejected, not buffered — the server's first overload defence is refusing
//! to read without bound), and a plain response writer.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection socket read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/v1/submit`.
    pub path: String,
    /// Decoded `key=value` query pairs, in order. (No percent-decoding —
    /// the campaign API's values are plain identifiers.)
    pub query: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps to the response the caller
/// should send.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line or headers → 400.
    Bad(String),
    /// Head or body over the size caps → 413.
    TooLarge(String),
    /// Socket error / timeout / early close → drop the connection.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Read and parse one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Read until the blank line ending the head, never past MAX_HEAD_BYTES.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge(format!(
                "request head over {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request head",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Bad("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Bad("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Bad("request line has no target".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Bad("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge(format!(
            "body of {content_length} bytes over the {MAX_BODY_BYTES} cap"
        )));
    }
    // Body bytes already read past the head, then the remainder.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// Content type.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, key: &str, value: String) -> Self {
        self.headers.push((key.to_string(), value));
        self
    }

    /// Override the content type.
    pub fn with_content_type(mut self, ct: &'static str) -> Self {
        self.content_type = ct;
        self
    }

    /// Serialize and write the response; the connection always closes.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            s // keep alive until reader is done
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        drop(writer.join().unwrap());
        req
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = round_trip(
            b"POST /v1/submit?tenant=alice&dry= HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/submit");
        assert_eq!(req.query_param("tenant"), Some("alice"));
        assert_eq!(req.query_param("dry"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_not_buffered() {
        let raw = format!(
            "POST /v1/submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match round_trip(raw.as_bytes()) {
            Err(RequestError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_request_line_is_bad() {
        match round_trip(b"\r\n\r\n") {
            Err(RequestError::Bad(_)) => {}
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn response_serializes_with_connection_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::json(429, "{\"error\":\"queue full\"}".to_string())
                .with_header("Retry-After", "2".to_string())
                .write_to(&mut stream)
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        server.join().unwrap();
        assert!(
            out.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{out}"
        );
        assert!(out.contains("Connection: close\r\n"));
        assert!(out.contains("Retry-After: 2\r\n"));
        assert!(out.ends_with("{\"error\":\"queue full\"}"));
    }
}
