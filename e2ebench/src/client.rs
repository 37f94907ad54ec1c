//! A minimal keep-alive HTTP/1.1 client for the analysts of the cold workloads.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one request on the kept-alive connection and read the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if !body.is_empty() {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        head.push_str(body);
        self.stream.write_all(head.as_bytes())?;

        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed before the response head".into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| invalid("response head is not UTF-8".into()))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line: {head:?}")))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("response has no Content-Length".into()))?;
        while self.buf.len() < header_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed inside the response body".into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[header_end..header_end + length].to_vec())
            .map_err(|_| invalid("response body is not UTF-8".into()))?;
        self.buf.drain(..header_end + length);
        Ok((status, body))
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}
