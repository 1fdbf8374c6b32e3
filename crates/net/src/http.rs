//! A minimal HTTP/1.1 implementation over `std::net` — just enough
//! protocol for the Dash serving endpoints and their clients, with no
//! external dependencies (the build environment has no registry
//! access, and the serving surface is three fixed routes).
//!
//! Supported: request-line + header parsing (incremental, over a
//! growing byte buffer — the front-end feeds it whatever segments
//! have arrived), `Content-Length` bodies, persistent connections
//! (`keep-alive` is the HTTP/1.1 default; `Connection: close`
//! honored), and percent-decoded query strings with repeated keys
//! (`?kw=a&kw=b`). Every response, however large, is framed by
//! `Content-Length`: the server always holds the whole body before it
//! writes. Not supported, by design: `Transfer-Encoding` (a request
//! body is read by its `Content-Length`, a response carrying one is
//! refused), TLS.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on header bytes and body bytes — a malformed or hostile
/// peer cannot make the server buffer unboundedly.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component (`/search`).
    pub path: String,
    /// Percent-decoded query parameters in request order; keys repeat
    /// (`?kw=a&kw=b` yields two `kw` entries).
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeated query parameter, in order.
    pub fn params(&self, key: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// Why a request failed to parse — carries the HTTP status the server
/// answers with before closing the connection (`400` for malformed
/// framing, `413` for bodies or headers past the buffering bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header or target (`400`).
    Malformed(String),
    /// Declared body or accumulated headers exceed the buffering
    /// bounds (`413`).
    TooLarge(String),
}

impl ParseError {
    /// The HTTP status this error is answered with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::TooLarge(_) => 413,
        }
    }

    /// The human-readable message (the response body).
    pub fn message(&self) -> &str {
        match self {
            ParseError::Malformed(m) | ParseError::TooLarge(m) => m,
        }
    }
}

fn malformed(msg: impl Into<String>) -> ParseError {
    ParseError::Malformed(msg.into())
}

/// A fully parsed request head (request line + headers), plus how many
/// buffer bytes it consumed — the connection state machine transitions
/// from `ReadingHead` to `ReadingBody` on this, then waits until
/// `head_len + content_length` bytes have arrived.
#[derive(Debug, Clone)]
pub struct ParsedHead {
    /// Request method, uppercase.
    pub method: String,
    /// Raw request target (path + query, undecoded).
    pub target: String,
    /// Whether the connection stays open after the response.
    pub keep_alive: bool,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// Bytes of the head, including the blank line.
    pub head_len: usize,
}

/// Index one past the blank line ending the head, if present. Accepts
/// `\r\n\r\n`, `\n\n` and mixed endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut at = 0;
    while at < buf.len() {
        if buf[at] != b'\n' {
            at += 1;
            continue;
        }
        match buf.get(at + 1) {
            Some(b'\n') => return Some(at + 2),
            Some(b'\r') if buf.get(at + 2) == Some(&b'\n') => return Some(at + 3),
            _ => at += 1,
        }
    }
    None
}

/// Incrementally parses a request head from the front of `buf`.
/// `Ok(None)` means the head is not complete yet — read more bytes and
/// try again.
///
/// # Errors
///
/// [`ParseError`] on malformed request lines or headers, and on heads
/// or declared bodies past the buffering bounds (detected as early as
/// possible: an endless header stream errors before the blank line
/// ever arrives).
pub fn parse_head(buf: &[u8]) -> Result<Option<ParsedHead>, ParseError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ParseError::TooLarge("headers too large".into()));
        }
        return Ok(None);
    };
    if head_len > MAX_HEADER_BYTES {
        return Err(ParseError::TooLarge("headers too large".into()));
    }
    let text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| malformed("request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => return Err(malformed(format!("malformed request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported version: {version:?}")));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    for header in lines {
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(malformed(format!("malformed header: {header:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| malformed(format!("bad content-length: {value:?}")))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(ParseError::TooLarge("body too large".into()));
                }
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    Ok(Some(ParsedHead {
        method,
        target,
        keep_alive,
        content_length,
        head_len,
    }))
}

/// Assembles the final [`Request`] once the body bytes have arrived
/// (decodes the target's path and query).
///
/// # Errors
///
/// [`ParseError::Malformed`] on undecodable targets.
pub fn build_request(head: &ParsedHead, body: Vec<u8>) -> Result<Request, ParseError> {
    let (path, query) = split_target(&head.target).map_err(|e| malformed(e.to_string()))?;
    Ok(Request {
        method: head.method.clone(),
        path,
        query,
        body,
        keep_alive: head.keep_alive,
    })
}

/// One HTTP response: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text error response with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: message.as_bytes().to_vec(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response to the exact bytes the socket carries: a
/// `Content-Length` head, then the body. The pre-serialized response
/// cache stores precisely this rendering, so a cache hit is one
/// buffer, one write.
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    render_parts(
        response.status,
        response.content_type,
        &response.body,
        keep_alive,
    )
}

/// Room for a response head: the longest status line, content type
/// and length this server writes fit several times over.
const HEAD_ROOM: usize = 256;

/// [`render_response`] from its parts: the head is formatted on the
/// stack, so the one allocation is the returned buffer, of exactly the
/// response's size.
pub(crate) fn render_parts(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = [0u8; HEAD_ROOM];
    let mut room = &mut head[..];
    write!(
        room,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        connection,
    )
    .expect("a response head fits HEAD_ROOM");
    let head_len = HEAD_ROOM - room.len();
    let mut out = Vec::with_capacity(head_len + body.len());
    out.extend_from_slice(&head[..head_len]);
    out.extend_from_slice(body);
    out
}

/// Reads the status line + headers + body of one HTTP *response* (the
/// client half of the exchange). Returns the status code and body,
/// framed by `Content-Length` (absent means empty).
///
/// # Errors
///
/// `InvalidData` on malformed framing, including any
/// `Transfer-Encoding` (this protocol never sends one, and reading its
/// body as empty would misframe the connection); propagates I/O
/// errors.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if read_line_bounded(reader, &mut line)? == 0 {
        return Err(invalid("connection closed before response"));
    }
    let mut parts = line.split_whitespace();
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| invalid(&format!("bad status code: {code:?}")))?,
        _ => return Err(invalid(&format!("malformed status line: {line:?}"))),
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if read_line_bounded(reader, &mut header)? == 0 {
            return Err(invalid("connection closed inside response headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad response content-length"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(invalid("response body too large"));
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(invalid("unsupported response transfer-encoding"));
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// Splits a request target into its decoded path and query pairs.
fn split_target(target: &str) -> io::Result<(String, Vec<(String, String)>)> {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut pairs = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        pairs.push((percent_decode(key)?, percent_decode(value)?));
    }
    Ok((percent_decode(path)?, pairs))
}

/// Percent-decodes one URL component (`%XX` escapes and `+` as space).
pub fn percent_decode(s: &str) -> io::Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'%' => {
                let hex = s
                    .get(at + 1..at + 3)
                    .ok_or_else(|| invalid("truncated percent escape"))?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| invalid(&format!("bad percent escape: %{hex}")))?;
                out.push(byte);
                at += 3;
            }
            b'+' => {
                out.push(b' ');
                at += 1;
            }
            byte => {
                out.push(byte);
                at += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| invalid("decoded component is not UTF-8"))
}

/// Percent-encodes one URL component (everything but unreserved chars).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &byte in s.as_bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char);
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// `read_line` with the header-size bound applied per line.
fn read_line_bounded(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<usize> {
    let mut limited = reader.by_ref().take(MAX_HEADER_BYTES as u64 + 1);
    let n = limited.read_line(line)?;
    if n > MAX_HEADER_BYTES {
        return Err(invalid("line too long"));
    }
    Ok(n)
}

pub(crate) fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        for s in ["plain", "two words", "kw=a&b", "ünïcode", "100%"] {
            assert_eq!(percent_decode(&percent_encode(s)).unwrap(), s);
        }
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
    }

    #[test]
    fn target_splitting_decodes_repeated_keys() {
        let (path, query) = split_target("/search?kw=thai%20curry&kw=burger&k=2").unwrap();
        assert_eq!(path, "/search");
        assert_eq!(
            query,
            vec![
                ("kw".to_string(), "thai curry".to_string()),
                ("kw".to_string(), "burger".to_string()),
                ("k".to_string(), "2".to_string()),
            ]
        );
    }

    #[test]
    fn head_parsing_is_incremental() {
        let full = b"GET /search?kw=a HTTP/1.1\r\nHost: dash\r\nContent-Length: 3\r\n\r\nxyz";
        // Every strict prefix short of the blank line parses to None.
        for cut in 0..full.len() - 4 {
            if find_head_end(&full[..cut]).is_none() {
                assert!(parse_head(&full[..cut]).unwrap().is_none(), "cut={cut}");
            }
        }
        let head = parse_head(full).unwrap().expect("complete head");
        assert_eq!(head.method, "GET");
        assert_eq!(head.target, "/search?kw=a");
        assert_eq!(head.content_length, 3);
        assert!(head.keep_alive);
        assert_eq!(head.head_len, full.len() - 3);
        let request = build_request(&head, full[head.head_len..].to_vec()).unwrap();
        assert_eq!(request.path, "/search");
        assert_eq!(request.param("kw"), Some("a"));
        assert_eq!(request.body, b"xyz");
    }

    #[test]
    fn head_parsing_accepts_bare_lf_endings() {
        let head = parse_head(b"GET /stats HTTP/1.1\nHost: dash\n\n")
            .unwrap()
            .expect("complete");
        assert_eq!(head.method, "GET");
        assert_eq!(head.head_len, 32);
    }

    #[test]
    fn malformed_heads_are_typed_errors() {
        assert_eq!(parse_head(b"NOT-HTTP\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(
            parse_head(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err().status(),
            400
        );
        assert_eq!(
            parse_head(b"GET /x HTTP/1.1\r\nBadHeader\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        let oversized = format!("GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1u64 << 40);
        assert_eq!(parse_head(oversized.as_bytes()).unwrap_err().status(), 413);
        // A header stream that never ends errors before buffering
        // past the bound.
        let endless = vec![b'a'; MAX_HEADER_BYTES + 2];
        assert_eq!(parse_head(&endless).unwrap_err().status(), 413);
    }

    #[test]
    fn http_10_defaults_to_close() {
        let head = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!head.keep_alive);
        let head = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(head.keep_alive);
        let head = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!head.keep_alive);
    }

    #[test]
    fn small_responses_render_with_content_length() {
        let bytes = render_response(&Response::json("{}".into()), true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let closed = render_response(&Response::error(503, "busy"), false);
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("Connection: close"));
    }

    #[test]
    fn large_responses_render_with_content_length() {
        let body = "x".repeat(50_000);
        let bytes = render_response(&Response::json(body.clone()), true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Content-Length: 50000\r\n"));
        assert!(!text.contains("Transfer-Encoding"));
        assert_eq!(text.split_once("\r\n\r\n").unwrap().1, body);
    }

    #[test]
    fn responses_read_back_by_length_and_transfer_encoding_is_refused() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(rx);
        let body = "y".repeat(50_000);
        tx.write_all(&render_response(&Response::json(body.clone()), true))
            .unwrap();
        assert_eq!(
            read_response(&mut reader).unwrap(),
            (200, body.into_bytes())
        );
        tx.write_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n",
        )
        .unwrap();
        let refused = read_response(&mut reader).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData, "{refused}");
    }
}
