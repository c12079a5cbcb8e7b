//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! The sandbox has no HTTP dependency, and the service needs only the
//! subset a closed-loop client exercises: one request per connection
//! (`Connection: close`), `Content-Length` bodies, no chunked encoding,
//! no continuation lines. Both the server and the bundled [`client`]
//! speak exactly this subset, so they are tested against each other.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest accepted header block (request line + headers).
pub const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body (a serialized spec).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path only; queries are not split off).
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP response, as built by handlers or parsed by the client.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased on parse.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and content type.
    pub fn new(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), content_type.into())],
            body,
        }
    }

    /// A JSON response from a serializable value.
    pub fn json(status: u16, value: &impl serde::Serialize) -> Response {
        let body = serde_json::to_vec(value).unwrap_or_default();
        Response::new(status, "application/json", body)
    }

    /// Adds a header (chained).
    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// First value of a header, by lowercase name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Standard reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads the header block (through the blank line), bounded by
/// [`MAX_HEAD`]. The bound sits on the reader, not on a line already
/// read: a peer that never sends a newline gets at most `MAX_HEAD + 1`
/// bytes buffered.
fn read_head(reader: &mut impl BufRead) -> io::Result<Vec<String>> {
    let mut head = reader.take(MAX_HEAD as u64 + 1);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = head.read_line(&mut line)?;
        if head.limit() == 0 {
            return Err(bad("header block too large"));
        }
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            return Ok(lines);
        }
        lines.push(line.to_string());
    }
}

/// Splits header lines (after the first) into lowercase-name pairs.
fn parse_headers(lines: &[String]) -> io::Result<Vec<(String, String)>> {
    lines
        .iter()
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect()
}

/// The `Content-Length` header's value, if there is one.
fn content_length(headers: &[(String, String)]) -> io::Result<Option<usize>> {
    headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| bad("bad content-length")))
        .transpose()
}

/// Reads `len` bytes whose count is the peer's claim, never allocating
/// the claim: capacity is capped at [`MAX_BODY`] and the buffer grows
/// past it only with bytes that arrive. A short read is
/// [`io::ErrorKind::UnexpectedEof`] carrying `what`.
pub(crate) fn read_claimed(r: &mut impl Read, len: u64, what: &str) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(len.min(MAX_BODY as u64) as usize);
    r.take(len).read_to_end(&mut buf)?;
    if (buf.len() as u64) < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what));
    }
    Ok(buf)
}

/// Reads a request body per `Content-Length` (absent means empty),
/// bounded by [`MAX_BODY`].
fn read_body(reader: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let len = content_length(headers)?.unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request from the stream.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let lines = read_head(reader)?;
    let (first, rest) = lines.split_first().ok_or_else(|| bad("empty request"))?;
    let mut parts = first.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("missing method"))?;
    let path = parts.next().ok_or_else(|| bad("missing path"))?;
    let headers = parse_headers(rest)?;
    let body = read_body(reader, &headers)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Writes a response, adding `Content-Length` and `Connection: close`.
/// The head is assembled first, so an unbuffered socket sees two
/// writes — head, body — not one per header line.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (name, value) in &resp.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: close\r\n\r\n",
        resp.body.len()
    ));
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// A blocking one-request client for the same HTTP subset the server
/// speaks. Used by the integration tests, the serving benchmark, and
/// anyone driving a `v2v serve` daemon from Rust.
pub mod client {
    use super::*;
    use std::time::{Duration, Instant};

    /// Sends one request and reads the full response.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        exchange(TcpStream::connect(addr)?, addr, method, path, body)
    }

    /// [`request`] with a **wall-clock deadline** over the whole
    /// exchange: connect, writes, and reads together must finish within
    /// `timeout`. Used by the coordinator to dispatch segments to
    /// workers.
    ///
    /// This is deliberately not a per-read socket timeout: a socket
    /// timeout bounds each *individual* read, so a peer trickling one
    /// byte per interval keeps resetting the clock and a nominally
    /// 1-second request can hang for minutes. [`DeadlineStream`]
    /// re-arms the socket timeout with the *remaining* budget before
    /// every operation instead, so the total wait is bounded.
    pub fn request_timeout(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> io::Result<Response> {
        let deadline = Instant::now() + timeout;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        exchange(
            DeadlineStream {
                inner: stream,
                deadline,
            },
            addr,
            method,
            path,
            body,
        )
    }

    /// A [`TcpStream`] whose every read and write is budgeted against
    /// one absolute deadline. Once the deadline passes, all operations
    /// fail with [`io::ErrorKind::TimedOut`] immediately.
    pub struct DeadlineStream {
        inner: TcpStream,
        deadline: Instant,
    }

    impl DeadlineStream {
        /// Arms the socket timeout with the remaining budget, or fails
        /// if the deadline has already passed.
        fn arm(&self, read: bool) -> io::Result<()> {
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ));
            }
            if read {
                self.inner.set_read_timeout(Some(remaining))
            } else {
                self.inner.set_write_timeout(Some(remaining))
            }
        }
    }

    impl Read for DeadlineStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.arm(true)?;
            self.inner.read(buf)
        }
    }

    impl Write for DeadlineStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.arm(false)?;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Writes one request and reads the response head: a bodiless
    /// [`Response`], and the connection positioned at the first body
    /// byte.
    fn send<S: Read + Write>(
        mut stream: S,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, BufReader<S>)> {
        write!(stream, "{method} {path} HTTP/1.1\r\n")?;
        write!(stream, "host: {addr}\r\n")?;
        write!(stream, "content-length: {}\r\n", body.len())?;
        write!(stream, "connection: close\r\n\r\n")?;
        stream.write_all(body)?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let lines = read_head(&mut reader)?;
        let (first, rest) = lines.split_first().ok_or_else(|| bad("empty response"))?;
        let status = first
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let head = Response {
            status,
            headers: parse_headers(rest)?,
            body: Vec::new(),
        };
        Ok((head, reader))
    }

    /// [`send`], then the whole body.
    fn exchange(
        stream: impl Read + Write,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        let (mut resp, mut reader) = send(stream, addr, method, path, body)?;
        // A response body is as large as the result it carries: the
        // request cap does not apply, only the declared length.
        resp.body = match content_length(&resp.headers)? {
            Some(len) => read_claimed(&mut reader, len as u64, "connection closed mid-body")?,
            None => {
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        };
        Ok(resp)
    }

    /// `POST /query` with a serialized spec; returns the raw response.
    pub fn post_query(addr: SocketAddr, spec_json: &[u8]) -> io::Result<Response> {
        request(addr, "POST", "/query", spec_json)
    }

    /// The head of a long-lived response whose body streams until the
    /// server closes the connection (no `Content-Length`). Returned by
    /// [`open_stream`]; the `reader` yields body bytes as they arrive.
    pub struct StreamingResponse {
        /// Status code.
        pub status: u16,
        /// Header `(name, value)` pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// The open connection, positioned at the first body byte.
        pub reader: BufReader<TcpStream>,
    }

    impl StreamingResponse {
        /// First value of a header, by lowercase name.
        pub fn header_value(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }
    }

    /// Sends one request and returns after reading only the response
    /// *head*, leaving the connection open so the caller can consume a
    /// body of unbounded length as the server produces it. This is how
    /// `/subscribe` clients receive delta frames.
    pub fn open_stream(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<StreamingResponse> {
        let (head, reader) = send(TcpStream::connect(addr)?, addr, method, path, body)?;
        Ok(StreamingResponse {
            status: head.status,
            headers: head.headers,
            reader,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(&mut Cursor::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn response_round_trips_headers() {
        let resp = Response::new(200, "application/json", b"{}".to_vec())
            .header("x-v2v-stats", "{\"a\":1}");
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("x-v2v-stats: {\"a\":1}\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Regression: the head bound used to be checked only after
    /// `read_line` returned, so a peer sending no newline at all grew one
    /// `String` without limit.
    #[test]
    fn a_head_without_newlines_is_rejected_after_max_head_bytes() {
        let mut peer = Cursor::new(vec![b'a'; 4 * MAX_HEAD]);
        let err = read_request(&mut peer).unwrap_err();
        assert!(err.to_string().contains("header block too large"), "{err}");
        assert!(
            peer.position() <= MAX_HEAD as u64 + 1,
            "{}",
            peer.position()
        );
        // A block of exactly MAX_HEAD bytes still parses.
        let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
        raw.resize(MAX_HEAD - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(read_request(&mut Cursor::new(raw)).is_ok());
    }

    #[test]
    fn truncated_header_is_an_error() {
        let raw = b"GET / HTTP/1.1\r\nHost: x";
        assert!(read_request(&mut Cursor::new(&raw[..])).is_err());
    }

    /// A one-connection stub server: reads the request head, answers
    /// with `response`, and closes.
    fn stub(response: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn);
            read_head(&mut reader).unwrap();
            reader.get_mut().write_all(&response).unwrap();
        });
        (addr, server)
    }

    /// Regression: responses used to be read under the *request* cap, so
    /// a worker's fragment or a query result over 16 MiB failed with
    /// "body too large" and the coordinator marked the worker dead.
    #[test]
    fn a_response_body_over_the_request_cap_arrives_whole() {
        let mut response = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        )
        .into_bytes();
        response.resize(response.len() + MAX_BODY + 1, 7);
        let (addr, server) = stub(response);
        let resp = super::client::request(addr, "GET", "/big", b"").unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), MAX_BODY + 1);
        assert!(resp.body.iter().all(|&b| b == 7));
    }

    /// A response's `content-length` is the peer's claim: a huge one is
    /// never allocated up front, and a body that stops short of it is
    /// `UnexpectedEof`.
    #[test]
    fn a_response_shorter_than_its_claimed_length_is_unexpected_eof() {
        let mut response =
            format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", usize::MAX).into_bytes();
        response.extend_from_slice(&[1; 10]);
        let (addr, server) = stub(response);
        let err = super::client::request(addr, "GET", "/liar", b"").unwrap_err();
        server.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    /// Regression: `request_timeout` must bound the *whole* exchange,
    /// not each read. A peer trickling one byte per interval — each
    /// read succeeding just inside a per-read socket timeout — used to
    /// stretch a 300 ms request to `timeout × body_len`.
    #[test]
    fn request_timeout_is_a_wall_clock_deadline() {
        use std::net::TcpListener;
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let trickler = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Drain the request, then advertise a huge body and trickle
            // it a byte at a time, never pausing long enough for any
            // single read to hit a 300 ms socket timeout.
            let mut buf = [0u8; 4096];
            let _ = std::io::Read::read(&mut conn, &mut buf);
            let _ = conn.write_all(
                b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 100000\r\n\r\n",
            );
            for _ in 0..200 {
                if conn.write_all(b"x").is_err() {
                    return; // client gave up — the behavior under test
                }
                let _ = conn.flush();
                std::thread::sleep(Duration::from_millis(50));
            }
        });

        let started = Instant::now();
        let result =
            super::client::request_timeout(addr, "GET", "/slow", b"", Duration::from_millis(300));
        let elapsed = started.elapsed();
        assert!(result.is_err(), "a trickling peer must not yield Ok");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must bound the whole exchange, took {elapsed:?}"
        );
        drop(trickler); // detach: it exits on its next failed write
    }
}
