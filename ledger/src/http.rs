//! Ledger's own HTTP/1.1 client. `clgen_serve::client::request` buffers the
//! whole body; this one reads the chunked stream as it arrives, so it can time
//! the first `kernel` line, and it scrapes `/metrics`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One answered request with the instants the client observed.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Before `connect`.
    pub started: Instant,
    /// When the chunk holding the first `kernel` line arrived, if any did.
    pub first_kernel: Option<Instant>,
    /// After the last body byte.
    pub finished: Instant,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        (self.finished - self.started).as_secs_f64() * 1e3
    }

    /// Time to the first result line; a reply without one delivered its
    /// result with its last byte.
    pub fn first_result_ms(&self) -> f64 {
        (self.first_kernel.unwrap_or(self.finished) - self.started).as_secs_f64() * 1e3
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut text = String::new();
    if reader.read_line(&mut text)? == 0 {
        return Err(bad("connection closed mid-response"));
    }
    Ok(text.trim_end().to_string())
}

/// Send one body-less request on a fresh connection and read the response.
pub fn request(addr: SocketAddr, method: &str, target: &str) -> io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);

    let status = line(&mut reader)?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut chunked, mut length) = (false, None);
    loop {
        let header = line(&mut reader)?.to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim() {
                "transfer-encoding" => chunked = value.trim() == "chunked",
                "content-length" => length = value.trim().parse::<usize>().ok(),
                _ => {}
            }
        }
    }

    let mut body = Vec::new();
    let mut first_kernel = None;
    if chunked {
        loop {
            let size = usize::from_str_radix(line(&mut reader)?.trim(), 16)
                .map_err(|_| bad("malformed chunk size"))?;
            if size == 0 {
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            reader.read_exact(&mut body[at..])?;
            if first_kernel.is_none() && body[at..].starts_with(b"{\"kernel\":") {
                first_kernel = Some(Instant::now());
            }
            line(&mut reader)?;
        }
    } else if let Some(length) = length {
        body.resize(length, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    let finished = Instant::now();
    Ok(Reply {
        status,
        body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
        started,
        first_kernel,
        finished,
    })
}

/// Sum of the samples of metric `name` in a Prometheus text exposition whose
/// label set contains `label` (empty matches every sample).
pub fn scrape(exposition: &str, name: &str, label: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && labels.contains(label))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_matching_series() {
        let text = "# HELP clgen_candidates_total Absorbed candidates by outcome\n\
                    # TYPE clgen_candidates_total counter\n\
                    clgen_candidates_total{outcome=\"accepted\"} 12\n\
                    clgen_candidates_total{outcome=\"rejected\"} 30\n\
                    clgen_lane_occupancy_sum 4096\n\
                    clgen_lane_occupancy_count 512\n\
                    clgen_queue_wait_us_sum{outcome=\"admitted\"} 250\n\
                    clgen_queue_wait_us_sum{outcome=\"shed\"} 9\n";
        assert_eq!(scrape(text, "clgen_candidates_total", ""), 42.0);
        assert_eq!(
            scrape(text, "clgen_candidates_total", "outcome=\"accepted\""),
            12.0
        );
        assert_eq!(scrape(text, "clgen_lane_occupancy_sum", ""), 4096.0);
        // A name that only prefixes a series does not match it.
        assert_eq!(scrape(text, "clgen_lane_occupancy", ""), 0.0);
        assert_eq!(
            scrape(text, "clgen_queue_wait_us_sum", "outcome=\"admitted\""),
            250.0
        );
    }
}
