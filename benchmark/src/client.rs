//! The benchmark's HTTP client: one keep-alive connection, at most one
//! request outstanding on it, the answer read to its last byte. It
//! shares no code with `dash_net::client`, so a change there cannot
//! move the measured latency.
//!
//! The socket is nonblocking and the client polls it, ceding the CPU
//! between polls, the way the server's event loop polls its own. A
//! client that sleeps in `recv` must be woken for every answer, and on
//! this virtual machine waking a halted CPU takes 5–15 µs that vary
//! from second to second (README, noise section); the client has a
//! CPU to itself, so polling costs nobody anything.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No answer of the workloads takes anywhere near this long; a server
/// that stops answering fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet consumed; one answer at a time.
    buf: Vec<u8>,
    /// De-chunked body of the last answer, when it came chunked.
    body: Vec<u8>,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            body: Vec::new(),
        })
    }

    /// Repeats `attempt` until the socket is ready for it, ceding the
    /// CPU between polls.
    fn poll<T>(
        stream: &mut TcpStream,
        mut attempt: impl FnMut(&mut TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut waiting_since: Option<Instant> = None;
        let mut polls = 0u32;
        loop {
            match attempt(stream) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                other => return other,
            }
            std::thread::yield_now();
            // The clock is read once in a while, not once a poll.
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(1024) {
                let since = *waiting_since.get_or_insert_with(Instant::now);
                if since.elapsed() > IO_TIMEOUT {
                    return Err(io::Error::new(ErrorKind::TimedOut, "no answer"));
                }
            }
        }
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        let mut sent = 0;
        while sent < request.len() {
            match Self::poll(&mut self.stream, |s| s.write(&request[sent..]))? {
                0 => return Err(malformed("connection closed mid-request")),
                n => sent += n,
            }
        }
        Ok(())
    }

    /// Reads until `self.buf` holds at least `len` bytes.
    fn fill(&mut self, len: usize) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < len {
            match Self::poll(&mut self.stream, |s| s.read(&mut chunk))? {
                0 => return Err(malformed("connection closed mid-answer")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        Ok(())
    }

    /// Reads until `needle` occurs at or after `from`; returns the
    /// offset just past it.
    fn fill_past(&mut self, from: usize, needle: &[u8]) -> io::Result<usize> {
        let mut searched = from;
        loop {
            if let Some(at) = self.buf[searched..]
                .windows(needle.len())
                .position(|w| w == needle)
            {
                return Ok(searched + at + needle.len());
            }
            searched = self.buf.len().saturating_sub(needle.len() - 1).max(from);
            self.fill(self.buf.len() + 1)?;
        }
    }

    /// Receives one answer: its status and body (borrowed until the
    /// next call).
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        self.buf.clear();
        let head_end = self.fill_past(0, b"\r\n\r\n")?;
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| malformed("answer head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.strip_prefix("HTTP/1.1 "))
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed("status line"))?;
        let mut length = None;
        let mut chunked = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| malformed("content length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            }
        }
        if chunked {
            self.body.clear();
            let mut at = head_end;
            loop {
                let line_end = self.fill_past(at, b"\r\n")?;
                let size = std::str::from_utf8(&self.buf[at..line_end - 2])
                    .ok()
                    .and_then(|hex| usize::from_str_radix(hex.trim(), 16).ok())
                    .ok_or_else(|| malformed("chunk size"))?;
                self.fill(line_end + size + 2)?;
                self.body
                    .extend_from_slice(&self.buf[line_end..line_end + size]);
                at = line_end + size + 2;
                if size == 0 {
                    return Ok((status, &self.body));
                }
            }
        }
        let length = length.ok_or_else(|| malformed("answer without a length"))?;
        self.fill(head_end + length)?;
        if self.buf.len() != head_end + length {
            return Err(malformed("bytes beyond the answer"));
        }
        Ok((status, &self.buf[head_end..]))
    }

    /// Sends one request and receives its answer.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.send(request)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves each canned answer, split at `split`, to one connection.
    fn canned(answers: Vec<Vec<u8>>, split: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            for answer in answers {
                let mut request = [0u8; 4];
                stream.read_exact(&mut request).unwrap();
                let cut = split.min(answer.len());
                stream.write_all(&answer[..cut]).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                stream.write_all(&answer[cut..]).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn reads_length_framed_and_chunked_answers_across_torn_writes() {
        let plain = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello".to_vec();
        let empty = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n".to_vec();
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\nA\r\n0123456789\r\n0\r\n\r\n".to_vec();
        for split in [1, 17, 40, 70, 1000] {
            let (addr, server) = canned(vec![plain.clone(), empty.clone(), chunked.clone()], split);
            let mut conn = Conn::connect(addr).unwrap();
            assert_eq!(conn.exchange(b"ping").unwrap(), (200, &b"hello"[..]));
            assert_eq!(conn.exchange(b"ping").unwrap(), (503, &b""[..]));
            assert_eq!(
                conn.exchange(b"ping").unwrap(),
                (200, &b"abcd0123456789"[..])
            );
            server.join().unwrap();
        }
    }

    #[test]
    fn a_closed_connection_is_an_error_not_a_hang() {
        let (addr, server) = canned(vec![b"HTTP/1.1 200 OK\r\nContent-Le".to_vec()], 1000);
        let mut conn = Conn::connect(addr).unwrap();
        assert!(conn.exchange(b"ping").is_err());
        server.join().unwrap();
    }
}
