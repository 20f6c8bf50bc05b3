//! The benchmark's own HTTP/1.1 client: one keep-alive connection,
//! `TCP_NODELAY`, `Content-Length` framing, nothing else.
//!
//! It is deliberately independent of the repository's client
//! (`si_service::http::http_request`, which opens a connection per call),
//! so rewriting that client can never change the load this benchmark
//! offers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection to a server.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    response: Vec<u8>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    /// Opens the connection.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut client = Client {
            addr,
            stream: None,
            request: Vec::with_capacity(4096),
            response: Vec::with_capacity(64 * 1024),
        };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        // Far above any op the workloads issue: a stall this long is a
        // hang, and the run fails instead of waiting forever.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one `POST` and reads the whole response. Returns the status
    /// and the body, which stays valid until the next call.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, &[u8])> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(&self.request)?;
        let (status, keep_alive, body_start) = read_response(stream, &mut self.response)?;
        if !keep_alive {
            self.stream = None;
        }
        Ok((status, &self.response[body_start..]))
    }
}

/// Reads one response into `buf` (head followed by exactly the body).
/// Returns `(status, keep_alive, body_start)`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(u16, bool, usize)> {
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut len = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| invalid("bad Content-Length"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let len = len.ok_or_else(|| invalid("response without Content-Length"))?;
    let body_start = head_end + 4;
    let total = body_start + len;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    if buf.len() > total {
        return Err(invalid("bytes after the response body"));
    }
    Ok((status, keep_alive, body_start))
}
