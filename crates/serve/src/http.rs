//! Minimal, bounds-checked HTTP/1.1 framing.
//!
//! The build environment has no async runtime or HTTP stack (the vendored
//! crates rule out tokio/hyper), so the service hand-rolls the narrow slice
//! of HTTP/1.1 it needs, the way `clgen-wire` hand-rolls serialization:
//!
//! * a request parser with hard limits on request-line, header and body
//!   sizes — malformed or oversized input is a typed [`HttpError`], never a
//!   panic or an unbounded allocation;
//! * fixed-length response writing ([`write_response`]) and a chunked
//!   transfer encoder ([`ChunkedWriter`]) for streaming NDJSON synthesis
//!   responses whose length is unknown up front.
//!
//! Connections are `Connection: close`: one request per connection keeps the
//! framing trivial and suits the service's long-lived streaming responses.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted header-line length in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted number of headers.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted request body length in bytes.
pub const MAX_BODY: usize = 64 * 1024;

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request was read.
    UnexpectedEof,
    /// A request line, header or body exceeded its size limit.
    TooLarge {
        /// Which part of the request overflowed.
        what: &'static str,
    },
    /// The request line or a header was not well-formed HTTP/1.1.
    Malformed {
        /// Description of the violated rule.
        what: &'static str,
    },
    /// The request uses a feature this server does not implement
    /// (e.g. request bodies with `Transfer-Encoding`).
    Unsupported {
        /// The unsupported feature.
        what: &'static str,
    },
    /// Reading from the socket failed.
    Io(io::ErrorKind),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::UnexpectedEof => f.write_str("connection closed mid-request"),
            HttpError::TooLarge { what } => write!(f, "{what} exceeds the size limit"),
            HttpError::Malformed { what } => write!(f, "malformed request: {what}"),
            HttpError::Unsupported { what } => write!(f, "unsupported: {what}"),
            HttpError::Io(kind) => write!(f, "socket read failed: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.kind())
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers in order of appearance (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one CRLF- (or LF-) terminated line, rejecting lines longer than
/// `limit` before buffering more than `limit` bytes.
fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    what: &'static str,
) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::UnexpectedEof);
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + pos > limit {
                return Err(HttpError::TooLarge { what });
            }
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            break;
        }
        if line.len() + buf.len() > limit {
            return Err(HttpError::TooLarge { what });
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed {
        what: "line holds invalid UTF-8",
    })
}

/// Decode `%XX` escapes and `+`-as-space in a query component. Invalid
/// escapes pass through literally (the service's parameters are numeric, so
/// strictness buys nothing).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a request target into its path and decoded query parameters.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let params = query
                .split('&')
                .filter(|part| !part.is_empty())
                .map(|part| match part.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(part), String::new()),
                })
                .collect();
            (path.to_string(), params)
        }
    }
}

/// Read and parse one HTTP/1.1 request from `reader`.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line_limited(reader, MAX_REQUEST_LINE, "request line")?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed {
                what: "request line is not `METHOD target HTTP/1.x`",
            })
        }
    };
    if version != "HTTP/1.1" {
        // HTTP/1.0 clients cannot be served either: synthesis responses use
        // chunked transfer encoding, which 1.0 does not understand.
        return Err(HttpError::Unsupported {
            what: "HTTP versions other than 1.1 (responses are chunked)",
        });
    }
    let (path, query) = parse_target(target);

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE, "header line")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge {
                what: "header count",
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed {
                what: "header line has no colon",
            });
        };
        // RFC 9112 §5.1: the field name is a token that runs right up to
        // the colon; whitespace before the colon must be answered with 400.
        let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
        if name.is_empty() || !name.bytes().all(tchar) {
            return Err(HttpError::Malformed {
                what: "header name is not a token",
            });
        }
        // RFC 9110 §5.5: a field value holding NUL or a bare CR is rejected,
        // not passed on.
        if value.bytes().any(|b| b == 0 || b == b'\r') {
            return Err(HttpError::Malformed {
                what: "header value holds NUL or CR",
            });
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Unsupported {
            what: "request bodies with Transfer-Encoding",
        });
    }
    let mut body = Vec::new();
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    if let Some(first) = lengths.next() {
        // RFC 9110 §8.6: 1*DIGIT only (`usize::from_str` would also take a
        // leading `+`), and differing values are an unrecoverable framing
        // error. Repeats of one value are accepted.
        if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed {
                what: "Content-Length is not an integer",
            });
        }
        if lengths.any(|other| other != first) {
            return Err(HttpError::Malformed {
                what: "differing Content-Length values",
            });
        }
        let len: usize = first.parse().map_err(|_| HttpError::TooLarge {
            what: "request body",
        })?;
        if len > MAX_BODY {
            return Err(HttpError::TooLarge {
                what: "request body",
            });
        }
        body.resize(len, 0);
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::UnexpectedEof
            } else {
                HttpError::Io(e.kind())
            }
        })?;
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// Write a complete fixed-length response with the given extra headers.
pub fn write_response_with(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Write a complete fixed-length response.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(w, status, reason, &[], content_type, body)
}

/// Streams a `Transfer-Encoding: chunked` response body.
///
/// Construction writes the response head; [`chunk`](ChunkedWriter::chunk)
/// emits one chunk per call, and [`finish`](ChunkedWriter::finish) writes
/// the terminating zero-length chunk.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Write the response head and return the chunk writer.
    pub fn new(mut w: W, status: u16, reason: &str, content_type: &str) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Write one chunk (empty input writes nothing: a zero-length chunk
    /// would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminate the chunked body.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_request_with_query_and_body() {
        let req = parse(
            b"POST /synthesize?count=3&temperature=0.9&note=a%20b+c HTTP/1.1\r\n\
              Host: localhost\r\n\
              Content-Length: 4\r\n\
              \r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/synthesize");
        assert_eq!(req.query_param("count"), Some("3"));
        assert_eq!(req.query_param("temperature"), Some("0.9"));
        assert_eq!(req.query_param("note"), Some("a b c"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn truncated_requests_are_typed_errors() {
        assert_eq!(parse(b"GET /x HT"), Err(HttpError::UnexpectedEof));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::UnexpectedEof)
        );
    }

    #[test]
    fn malformed_and_oversized_requests_are_rejected() {
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Unsupported { .. })
        ));
        // HTTP/1.0 cannot consume the chunked responses this server sends.
        assert!(matches!(
            parse(b"GET /healthz HTTP/1.0\r\n\r\n"),
            Err(HttpError::Unsupported { .. })
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        // A sign is not 1*DIGIT, and differing lengths cannot both frame
        // the body (RFC 9110 §8.6); one value repeated is still a length.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello"),
            Err(HttpError::Malformed { .. })
        ));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap()
                .body,
            b"hello"
        );
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
            Err(HttpError::TooLarge { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Unsupported { .. })
        ));

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge { .. })
        ));
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(HttpError::TooLarge { .. })
        ));
    }

    #[test]
    fn lf_only_line_endings_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn chunked_writer_frames_chunks() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::new(&mut out, 200, "OK", "text/plain").unwrap();
        w.chunk(b"hello\n").unwrap();
        w.chunk(b"").unwrap();
        w.chunk(b"world\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("6\r\nhello\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
