//! A hand-rolled, std-only HTTP/1.1 request parser and response writer.
//!
//! This module is the wire half of `linx serve` (see [`crate::serve`]): it turns
//! raw bytes read from a [`std::net::TcpStream`] into [`HttpRequest`] values and
//! renders [`HttpResponse`] values back into bytes. It deliberately implements
//! the *small* subset of RFC 9112 the daemon needs, and rejects everything else
//! with a typed error that maps onto a status code:
//!
//! * malformed syntax (bad request line, bad header, obs-fold continuation
//!   lines, non-numeric or conflicting `Content-Length`, any
//!   `Transfer-Encoding`, a body larger than the cap) → **400**;
//! * an oversized request line, header section, or header count → **431**.
//!
//! The parser is incremental: [`parse_request`] is called with whatever bytes
//! have accumulated so far and returns `Ok(None)` ("read more") until a full
//! request — head *and* body — is buffered. On success it also returns the
//! number of bytes consumed, so pipelined requests left in the buffer are
//! parsed on the next call without re-reading from the socket.
//!
//! ## Documented caps
//!
//! | limit                | cap                                  | on breach |
//! |----------------------|--------------------------------------|-----------|
//! | request line bytes   | 8 KiB ([`MAX_REQUEST_LINE_BYTES`])   | 431       |
//! | header section bytes | 32 KiB ([`MAX_HEADER_BYTES`])        | 431       |
//! | header count         | 64 ([`MAX_HEADERS`])                 | 431       |
//! | body bytes           | 1 MiB by default ([`ServeConfig`])   | 400       |
//!
//! The caps exist so that a misbehaving client can never make the server
//! buffer unbounded memory; after any breach the connection is closed. The
//! body cap is the only one a deployment sets: [`parse_request`] takes it,
//! from `ServeConfig::max_body_bytes` (`--max-body-bytes`).
//!
//! [`ServeConfig`]: crate::serve::ServeConfig
//!
//! `Transfer-Encoding` (including `chunked`) is **not** supported: bodies must
//! be delimited by a single `Content-Length` no larger than the body cap. This
//! keeps the parser total — every input either parses, needs more bytes, or
//! yields a 400/431 — which is the property the `serve_http` proptest suite
//! pins down.

use std::fmt;

/// Maximum bytes in the request line (`GET /path HTTP/1.1`).
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;
/// Maximum bytes in the whole header section, terminator included.
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Maximum number of header fields.
pub const MAX_HEADERS: usize = 64;

/// Why a buffer failed to parse as an HTTP/1.1 request.
///
/// Every variant maps to exactly one response status via
/// [`HttpParseError::status`]; the serve layer converts that into a typed JSON
/// error body and closes the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpParseError {
    /// Syntactically invalid request (bad request line, bad header, bad or
    /// conflicting `Content-Length`, any `Transfer-Encoding`, oversized body).
    BadRequest(String),
    /// Request line, header section, or header count over its cap.
    TooLarge(String),
}

impl HttpParseError {
    /// The response status this parse failure maps to: 400 or 431.
    pub fn status(&self) -> u16 {
        match self {
            HttpParseError::BadRequest(_) => 400,
            HttpParseError::TooLarge(_) => 431,
        }
    }

    /// The machine-readable error code used in the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpParseError::BadRequest(_) => "bad_request",
            HttpParseError::TooLarge(_) => "headers_too_large",
        }
    }

    /// The human-readable detail message.
    pub fn message(&self) -> &str {
        match self {
            HttpParseError::BadRequest(m) | HttpParseError::TooLarge(m) => m,
        }
    }
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message(), self.status())
    }
}

/// A fully parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Request method, verbatim (`GET`, `POST`, ...). Methods are
    /// case-sensitive per RFC 9110; dispatch treats unknown methods as 405.
    pub method: String,
    /// Request target, verbatim (path plus optional `?query`).
    pub target: String,
    /// Protocol version: `"HTTP/1.1"` or `"HTTP/1.0"`.
    pub version: String,
    /// Header fields in arrival order, names verbatim.
    pub headers: Vec<(String, String)>,
    /// Message body (empty unless a `Content-Length` was present).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The path component of the target (everything before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The query component of the target (everything after the first `?`),
    /// or `None` when the target has no query.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// First header value matching `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this exchange.
    ///
    /// HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.version == "HTTP/1.0",
        }
    }
}

fn is_token_char(b: u8) -> bool {
    matches!(b,
        b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9'
        | b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~')
}

fn bad(msg: impl Into<String>) -> HttpParseError {
    HttpParseError::BadRequest(msg.into())
}

/// Find the header-section terminator `\r\n\r\n`; returns the index one past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Incrementally parse one HTTP/1.1 request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller should
///   drop the first `consumed` bytes and may find a pipelined successor behind
///   them.
/// * `Ok(None)` — the buffer holds a syntactically plausible prefix; read more.
/// * `Err(e)` — the bytes can never become a valid request with a body of at
///   most `max_body_bytes`; answer with [`HttpParseError::status`] and close
///   the connection.
pub fn parse_request(
    buf: &[u8],
    max_body_bytes: usize,
) -> Result<Option<(HttpRequest, usize)>, HttpParseError> {
    let head_end = match find_head_end(buf) {
        Some(i) => i,
        None => {
            // Not terminated yet: enforce caps against the partial prefix so a
            // client streaming an endless header section is cut off early.
            if !buf.contains(&b'\n') && buf.len() > MAX_REQUEST_LINE_BYTES {
                return Err(HttpParseError::TooLarge(format!(
                    "request line exceeds {} byte cap",
                    MAX_REQUEST_LINE_BYTES
                )));
            }
            if buf.len() > MAX_HEADER_BYTES {
                return Err(HttpParseError::TooLarge(format!(
                    "header section exceeds {} byte cap",
                    MAX_HEADER_BYTES
                )));
            }
            return Ok(None);
        }
    };
    if head_end > MAX_HEADER_BYTES {
        return Err(HttpParseError::TooLarge(format!(
            "header section exceeds {} byte cap",
            MAX_HEADER_BYTES
        )));
    }

    // Split the head into CRLF-terminated lines. `head` excludes the blank line.
    let head = &buf[..head_end - 4];
    let mut lines = Vec::new();
    let mut rest = head;
    loop {
        match rest.windows(2).position(|w| w == b"\r\n") {
            Some(i) => {
                lines.push(&rest[..i]);
                rest = &rest[i + 2..];
            }
            None => {
                lines.push(rest);
                break;
            }
        }
    }
    let request_line = lines[0];
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(HttpParseError::TooLarge(format!(
            "request line exceeds {} byte cap",
            MAX_REQUEST_LINE_BYTES
        )));
    }
    if lines.len() - 1 > MAX_HEADERS {
        return Err(HttpParseError::TooLarge(format!(
            "more than {} header fields",
            MAX_HEADERS
        )));
    }

    // Request line: METHOD SP TARGET SP VERSION, single spaces, no bare CR/LF.
    let parts: Vec<&[u8]> = request_line.split(|&b| b == b' ').collect();
    if parts.len() != 3 {
        return Err(bad("request line is not `METHOD TARGET VERSION`"));
    }
    let (method_b, target_b, version_b) = (parts[0], parts[1], parts[2]);
    if method_b.is_empty() || !method_b.iter().all(|&b| is_token_char(b)) {
        return Err(bad("invalid method token"));
    }
    if target_b.is_empty() || target_b.iter().any(|&b| b <= b' ' || b == 0x7f) {
        return Err(bad("invalid request target"));
    }
    let version = match version_b {
        b"HTTP/1.1" => "HTTP/1.1",
        b"HTTP/1.0" => "HTTP/1.0",
        _ => {
            return Err(bad(
                "unsupported protocol version (HTTP/1.0 or HTTP/1.1 only)",
            ))
        }
    };

    let mut headers = Vec::with_capacity(lines.len() - 1);
    for line in &lines[1..] {
        if line.is_empty() {
            return Err(bad("empty header line inside header section"));
        }
        if line[0] == b' ' || line[0] == b'\t' {
            // RFC 9112 §5.2: obs-fold is obsolete and MUST be rejected.
            return Err(bad("obsolete line folding in header section"));
        }
        let colon = match line.iter().position(|&b| b == b':') {
            Some(i) => i,
            None => return Err(bad("header line without `:`")),
        };
        let name_b = &line[..colon];
        if name_b.is_empty() || !name_b.iter().all(|&b| is_token_char(b)) {
            return Err(bad("invalid header field name"));
        }
        let value_b = trim_ows(&line[colon + 1..]);
        if value_b
            .iter()
            .any(|&b| (b < 0x20 && b != b'\t') || b == 0x7f)
        {
            return Err(bad("control byte in header field value"));
        }
        headers.push((
            String::from_utf8_lossy(name_b).into_owned(),
            String::from_utf8_lossy(value_b).into_owned(),
        ));
    }

    // Body framing. Transfer-Encoding (chunked included) is out of scope: the
    // daemon only accepts Content-Length bodies under the documented cap.
    if headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
    {
        return Err(bad(
            "Transfer-Encoding is not supported; send a Content-Length body",
        ));
    }
    let mut body_len: u64 = 0;
    let mut seen_cl: Option<u64> = None;
    for (n, v) in &headers {
        if n.eq_ignore_ascii_case("content-length") {
            let parsed: u64 = v
                .parse()
                .map_err(|_| bad("Content-Length is not a non-negative integer"))?;
            match seen_cl {
                Some(prev) if prev != parsed => {
                    return Err(bad("conflicting Content-Length headers"));
                }
                _ => seen_cl = Some(parsed),
            }
            body_len = parsed;
        }
    }
    if body_len > max_body_bytes as u64 {
        return Err(bad(format!(
            "body of {} bytes exceeds {} byte cap",
            body_len, max_body_bytes
        )));
    }
    let body_len = body_len as usize;
    let total = head_end + body_len;
    if buf.len() < total {
        return Ok(None);
    }

    let request = HttpRequest {
        method: String::from_utf8_lossy(method_b).into_owned(),
        target: String::from_utf8_lossy(target_b).into_owned(),
        version: version.to_string(),
        headers,
        body: buf[head_end..total].to_vec(),
    };
    Ok(Some((request, total)))
}

fn trim_ows(mut b: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = b {
        b = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = b {
        b = rest;
    }
    b
}

/// The reason phrase for the status codes the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response under construction: status, extra headers, body.
///
/// [`HttpResponse::encode`] renders the wire bytes, always emitting
/// `Content-Length` and a `Connection` header so clients never have to guess
/// at framing.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Response status code.
    pub status: u16,
    /// Additional headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value for the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
        }
    }

    /// A typed JSON error body: `{"error":{"code":...,"message":...}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        let body = format!(
            "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
            json_escape(code),
            json_escape(message)
        );
        HttpResponse::json(status, body)
    }

    /// Append an extra header (e.g. `Retry-After`).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Render the response as wire bytes, with `Connection: close` iff `close`.
    pub fn encode(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                reason_phrase(self.status)
            )
            .as_bytes(),
        );
        out.extend_from_slice(format!("Content-Type: {}\r\n", self.content_type).as_bytes());
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{}: {}\r\n", n, v).as_bytes());
        }
        out.extend_from_slice(
            if close {
                "Connection: close\r\n"
            } else {
                "Connection: keep-alive\r\n"
            }
            .as_bytes(),
        );
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<(HttpRequest, usize)>, HttpParseError> {
        parse_request(bytes, 1024 * 1024)
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, consumed) = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(consumed, 34);
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_with_body_and_reports_consumed_bytes() {
        let raw = b"POST /v1/explore HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdEXTRA";
        let (req, consumed) = parse(raw).unwrap().unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(consumed, raw.len() - 5);
    }

    #[test]
    fn incomplete_head_and_incomplete_body_ask_for_more() {
        assert!(parse(b"GET / HTTP/1.1\r\nHost:").unwrap().is_none());
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc")
            .unwrap()
            .is_none());
    }

    #[test]
    fn query_strings_split_off_the_path() {
        let (req, _) = parse(b"GET /v1/jobs/3?verbose=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path(), "/v1/jobs/3");
        assert_eq!(req.query(), Some("verbose=1"));
        assert_eq!(req.target, "/v1/jobs/3?verbose=1");
    }

    #[test]
    fn transfer_encoding_is_rejected_with_400() {
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_body_is_rejected_at_the_documented_cap() {
        let err = parse_request(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n", 8).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("8 byte cap"), "{}", err);
    }

    #[test]
    fn oversized_request_line_yields_431_even_before_termination() {
        let long = vec![b'a'; MAX_REQUEST_LINE_BYTES + 1];
        let err = parse(&long).unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn too_many_headers_yield_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            raw.extend_from_slice(format!("H{i}: {i}\r\n").as_bytes());
        }
        assert!(parse(&[&raw[..], b"\r\n"].concat()).unwrap().is_some());
        raw.extend_from_slice(b"Extra: 1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn obs_fold_and_bad_tokens_are_400() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(parse(b"G ET / HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
    }

    #[test]
    fn response_encoding_frames_the_body() {
        let resp = HttpResponse::error(429, "quota_exceeded", "tenant over cap")
            .with_header("Retry-After", "1");
        let wire = String::from_utf8(resp.encode(true)).unwrap();
        assert!(wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(wire.contains("Content-Length: 63\r\n"));
        assert!(wire.contains("Retry-After: 1\r\n"));
        assert!(wire.contains("Connection: close\r\n"));
        assert!(wire.ends_with(
            "{\"error\":{\"code\":\"quota_exceeded\",\"message\":\"tenant over cap\"}}"
        ));
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
