//! Hostile bytes into the HTTP request parser: whatever is done to a
//! well-formed POST — truncation, bit flips, lying `Content-Length`, header
//! floods, NUL bytes, invalid UTF-8 — `http::read_request` returns a typed
//! `HttpError` or a request whose body holds at most `MAX_BODY` bytes. Never
//! a panic, and never a read that waits for bytes the input does not have.

use clgen_serve::http::{self, HttpError, Request, MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE};
use std::io::BufReader;

const BODY: &str = "__kernel void A(__global int* a) { a[0] = 1; }";

fn post() -> Vec<u8> {
    format!(
        "POST /drive?sizes=256,4096&drive_seed=7 HTTP/1.1\r\n\
         Host: 127.0.0.1:8090\r\n\
         trace-id: hostile-1\r\n\
         Content-Length: {}\r\n\
         \r\n{BODY}",
        BODY.len()
    )
    .into_bytes()
}

fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
    http::read_request(&mut BufReader::new(bytes))
}

/// Parse `bytes`: a typed error, or a request whose body is in bounds.
fn check(bytes: &[u8]) {
    match parse(bytes) {
        Ok(request) => assert!(request.body.len() <= MAX_BODY),
        Err(HttpError::Io(kind)) => panic!("an in-memory read failed: {kind:?}"),
        Err(_) => {}
    }
}

/// `post()` with its `Content-Length` value replaced by `length`.
fn with_length(length: &str) -> Vec<u8> {
    let honest = format!("Content-Length: {}\r\n", BODY.len());
    let text = String::from_utf8(post()).unwrap();
    text.replace(&honest, &format!("Content-Length: {length}\r\n"))
        .into_bytes()
}

#[test]
fn well_formed_post_parses() {
    let request = parse(&post()).unwrap();
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/drive");
    assert_eq!(request.query_param("sizes"), Some("256,4096"));
    assert_eq!(request.header("trace-id"), Some("hostile-1"));
    assert_eq!(request.body, BODY.as_bytes());
}

#[test]
fn truncation_at_every_offset_is_unexpected_eof() {
    let bytes = post();
    for len in 0..bytes.len() {
        assert_eq!(parse(&bytes[..len]), Err(HttpError::UnexpectedEof), "{len}");
    }
}

#[test]
fn bit_flips_never_panic() {
    let bytes = post();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped);
    }
}

#[test]
fn lying_content_length_is_bounded() {
    // Shorter than the body: the declared bytes are the body, the rest is
    // never read.
    let short = parse(&with_length("5")).unwrap();
    assert_eq!(short.body, &BODY.as_bytes()[..5]);
    // Longer than the body: the read ends at the input's end.
    let long = (BODY.len() + 1).to_string();
    assert_eq!(parse(&with_length(&long)), Err(HttpError::UnexpectedEof));
    // Far past the body: refused from the header, before any allocation.
    for far in [
        (MAX_BODY + 1).to_string(),
        u64::MAX.to_string(),
        "9".repeat(40),
    ] {
        assert!(
            matches!(parse(&with_length(&far)), Err(HttpError::TooLarge { .. })),
            "{far}"
        );
    }
    assert_eq!(
        parse(&with_length(&MAX_BODY.to_string())),
        Err(HttpError::UnexpectedEof)
    );
}

#[test]
fn header_floods_are_too_large() {
    let request = |headers: &str| format!("GET /healthz HTTP/1.1\r\n{headers}\r\n").into_bytes();
    assert!(parse(&request(&"X-H: v\r\n".repeat(MAX_HEADERS))).is_ok());
    assert_eq!(
        parse(&request(&"X-H: v\r\n".repeat(MAX_HEADERS + 1))),
        Err(HttpError::TooLarge {
            what: "header count"
        })
    );
    // A header line of `len` bytes; the CR of its CRLF counts toward the
    // limit, the LF does not.
    let line = |len: usize| format!("X-H: {}\r\n", "v".repeat(len - "X-H: \r".len()));
    assert!(parse(&request(&line(MAX_HEADER_LINE))).is_ok());
    assert_eq!(
        parse(&request(&line(MAX_HEADER_LINE + 1))),
        Err(HttpError::TooLarge {
            what: "header line"
        })
    );
}

#[test]
fn nul_bytes_and_invalid_utf8_are_typed() {
    // NUL, or a bare CR, in the head is malformed (RFC 9110 §5.5); in the
    // body it is data.
    for head in [
        &b"GET / HTTP/1.1\r\nX-H: a\0b\r\n\r\n"[..],
        b"GET / HTTP/1.1\r\nX-H: a\rb\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-\0: v\r\n\r\n",
    ] {
        assert!(matches!(parse(head), Err(HttpError::Malformed { .. })));
    }
    let nul_body = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\na\0b").unwrap();
    assert_eq!(nul_body.body, b"a\0b");
    // Invalid UTF-8 in the head is malformed; in the body it is data.
    for head in [
        &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
        b"GET / HTTP/1.1\r\nX-H: \xc3\x28\r\n\r\n",
    ] {
        assert!(matches!(parse(head), Err(HttpError::Malformed { .. })));
    }
    let bytes = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe").unwrap();
    assert_eq!(bytes.body, b"\xff\xfe");
}

/// RFC 9112 §5.1: no whitespace between a field name and its colon, so
/// `Content-Length : 5` frames nothing — it is a 400, not a body length.
#[test]
fn whitespace_before_the_colon_is_malformed() {
    for head in [
        "Content-Length : 5",
        "Content-Length\t: 5",
        " Content-Length: 5",
    ] {
        let bytes = format!("POST / HTTP/1.1\r\n{head}\r\n\r\nhello");
        assert_eq!(
            parse(bytes.as_bytes()),
            Err(HttpError::Malformed {
                what: "header name is not a token"
            }),
            "{head:?}"
        );
    }
}
