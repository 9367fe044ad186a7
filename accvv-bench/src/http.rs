//! A minimal HTTP/1.1 client for the campaign server: one request per
//! connection, which is what the server speaks (`Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// Send one request and read the whole response.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}
