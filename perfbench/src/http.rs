//! A minimal HTTP/1.0 client for the server's `POST /query` endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Post `query` and return the status code and body. The socket's read
/// timeout is the request deadline plus slack, so a stuck server cannot
/// hang the client; the caller still checks the deadline itself.
pub fn post_query(addr: SocketAddr, query: &str, timeout_ms: u64) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let limit = Some(Duration::from_millis(timeout_ms + 1000));
    conn.set_read_timeout(limit).map_err(|e| e.to_string())?;
    conn.set_write_timeout(limit).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "POST /query HTTP/1.0\r\nHost: {addr}\r\nContent-Length: {}\r\nX-Timeout-Ms: {timeout_ms}\r\n\r\n",
        query.len()
    );
    conn.write_all(head.as_bytes())
        .and_then(|()| conn.write_all(query.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    // Read to end of stream: the server closes after the response, so the
    // client never holds the connection in TIME_WAIT.
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header terminator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", head.lines().next()))?;
    Ok((status, body.to_string()))
}
