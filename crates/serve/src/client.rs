//! A minimal blocking HTTP/1.1 client for the service, used by the
//! integration tests, the `serve_roundtrip` example and the serving-bench
//! load generator. It speaks exactly the slice of HTTP the server emits:
//! fixed-length and chunked responses, one request per connection.

use crate::scheduler::SynthesisParams;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A complete HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code of the response line.
    pub status: u16,
    /// Headers (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The response body (chunked bodies are de-chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body split into non-empty lines — the NDJSON view.
    pub fn lines(&self) -> Vec<String> {
        self.text()
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// The `Retry-After` header in seconds, if present and well-formed.
    pub fn retry_after(&self) -> Option<u64> {
        self.headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .and_then(|(_, v)| v.trim().parse().ok())
    }

    /// True if this is a complete `/synthesize` response: status 200 and a
    /// clean terminal summary line (`"done":true`), as opposed to an
    /// `aborted` terminator from a failure that struck after the response
    /// head was written. A partial response with a `timeout` marker *is*
    /// complete — the server honored the request's own deadline.
    pub fn is_complete_synthesis(&self) -> bool {
        self.status == 200
            && self
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"done\":true,"))
    }
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Send one request and read the full response.
pub fn request(addr: SocketAddr, method: &str, target: &str) -> io::Result<Response> {
    request_with_body(addr, method, target, &[])
}

/// Send one request carrying a body (`Content-Length`-framed) and read the
/// full response. An empty body sends no body bytes and no length header.
pub fn request_with_body(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    if body.is_empty() {
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
    } else {
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body)?;
    }
    stream.flush()?;
    let mut reader = BufReader::new(stream);

    let status_line = read_line(&mut reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("malformed status line"))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let mut body = Vec::new();
    if find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            let size_line = read_line(&mut reader)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad_data("malformed chunk size"))?;
            if size == 0 {
                let _ = read_line(&mut reader); // trailing CRLF
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk);
            let _ = read_line(&mut reader)?; // chunk-terminating CRLF
        }
    } else if let Some(len) = find("content-length") {
        let len: usize = len.parse().map_err(|_| bad_data("bad Content-Length"))?;
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

/// `GET` a path.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path)
}

/// `POST` a path.
pub fn post(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "POST", path)
}

/// `POST` a path with a request body (how the harness endpoints take their
/// kernel source).
pub fn post_body(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    request_with_body(addr, "POST", path, body)
}

/// The `/synthesize` query string for a parameter set.
pub fn synthesize_target(params: &SynthesisParams) -> String {
    let mut target = format!(
        "/synthesize?count={}&temperature={}&max_chars={}&seed={}&max_attempts={}",
        params.count, params.temperature, params.max_chars, params.seed, params.max_attempts
    );
    if let Some(ms) = params.deadline_ms {
        target.push_str(&format!("&deadline_ms={ms}"));
    }
    target
}

/// Run one `/synthesize` request and return the full response (NDJSON body).
pub fn synthesize(addr: SocketAddr, params: &SynthesisParams) -> io::Result<Response> {
    post(addr, &synthesize_target(params))
}

/// Strip the additive trace annotations (the done line's `"trace"` object
/// and the harness event lines' `"trace_id"` field) from a response body,
/// recovering the deterministic bytes the byte-identity guarantee covers.
pub fn strip_traces(body: &str) -> String {
    crate::json::strip_trace_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, headers: &[(&str, &str)], body: &str) -> Response {
        Response {
            status,
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn synthesis_completion_detection() {
        let done = response(
            200,
            &[],
            "{\"kernel\":\"k\"}\n{\"done\":true,\"kernels\":1}\n",
        );
        assert!(done.is_complete_synthesis());
        let aborted = response(
            200,
            &[],
            "{\"kernel\":\"k\"}\n{\"aborted\":\"sampler core panicked\",\"status\":500}\n",
        );
        assert!(!aborted.is_complete_synthesis());
        let unavailable = response(503, &[("retry-after", "1")], "{\"error\":\"queue full\"}\n");
        assert!(!unavailable.is_complete_synthesis());
        assert_eq!(unavailable.retry_after(), Some(1));
    }
}
