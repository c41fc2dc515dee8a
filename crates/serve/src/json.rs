//! Hand-rolled JSON rendering and field extraction.
//!
//! The build environment has no serialisation framework, so the service
//! writes its NDJSON lines by hand and the client side pulls individual
//! fields back out with a small extractor instead of a full parser. Rendering is
//! deterministic — map fields are emitted in sorted order — because
//! synthesis response bodies carry a byte-identical reproducibility
//! guarantee.

/// Append `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Extract the value of a top-level-ish `"key":` whose value is an unsigned
/// integer. Purely textual: finds the first occurrence of the quoted key
/// followed by a colon and digits. Good enough for the service's own NDJSON
/// lines; not a general JSON parser.
pub fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Extract the value of a `"key":` whose value is a JSON string, undoing the
/// escapes [`escape_into`] produces.
pub fn extract_str(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let mut chars = rest.chars();
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let value = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(value)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Splice an already-rendered `"key":value` fragment into a one-line JSON
/// object, immediately before its final `}`. Used to attach the additive
/// `"trace"` object (and `"trace_id"` field) to lines rendered by
/// deterministic code that must stay trace-free.
pub fn splice_field(line: &str, fragment: &str) -> String {
    match line.rfind('}') {
        Some(end) => {
            let mut out = String::with_capacity(line.len() + fragment.len() + 1);
            out.push_str(&line[..end]);
            if !line[..end].ends_with('{') {
                out.push(',');
            }
            out.push_str(fragment);
            out.push_str(&line[end..]);
            out
        }
        None => line.to_string(),
    }
}

/// Strip the trace annotations [`splice_field`] attaches — the
/// `,"trace":{…}` object and the `,"trace_id":"…"` field — from one NDJSON
/// line, recovering the deterministic bytes underneath. The needles contain
/// unescaped quotes, so they can never match inside a JSON string value
/// (where quotes are `\"`-escaped).
pub fn strip_trace(line: &str) -> String {
    let mut out = line.to_string();
    if let Some(start) = out.find(",\"trace\":{") {
        // Brace-scan to the matching close; trace payloads contain no
        // braces inside strings (ids and stage names are sanitized).
        let open = start + ",\"trace\":".len();
        let mut depth = 0usize;
        let mut end = None;
        for (i, b) in out[open..].bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(end) = end {
            out.replace_range(start..end, "");
        }
    }
    if let Some(start) = out.find(",\"trace_id\":\"") {
        let open = start + ",\"trace_id\":\"".len();
        if let Some(close) = out[open..].find('"') {
            out.replace_range(start..open + close + 1, "");
        }
    }
    out
}

/// [`strip_trace`] applied to every line of a response body.
pub fn strip_trace_body(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.lines() {
        out.push_str(&strip_trace(line));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_and_strip_are_inverses() {
        let line = "{\"done\":true,\"kernels\":1,\"rejected\":{}}";
        let spliced = splice_field(
            line,
            "\"trace\":{\"id\":\"ab\",\"total_us\":9,\"stages\":{\"queued\":1}}",
        );
        assert!(
            spliced.ends_with("\"stages\":{\"queued\":1}}}"),
            "{spliced}"
        );
        assert_eq!(strip_trace(&spliced), line);

        let event = "{\"event\":\"run\",\"kernel\":\"a\"}";
        let tagged = splice_field(event, "\"trace_id\":\"deadbeef\"");
        assert_eq!(
            tagged,
            "{\"event\":\"run\",\"kernel\":\"a\",\"trace_id\":\"deadbeef\"}"
        );
        assert_eq!(strip_trace(&tagged), event);

        // A kernel whose source mentions trace keys cannot fool the strip:
        // quotes inside JSON strings are escaped, so the needle never
        // matches string content.
        let hostile = "{\"kernel\":\"x ,\\\"trace\\\":{ y\",\"attempts\":1}";
        assert_eq!(strip_trace(hostile), hostile);
        assert_eq!(strip_trace_body("{\"a\":1}\n"), "{\"a\":1}\n");
    }

    #[test]
    fn escaping_roundtrips_through_extraction() {
        let source = "__kernel void A() {\n  int a = \"x\\y\";\t\u{1} }";
        let line = format!("{{\"kernel\":{},\"attempts\":12}}", escaped(source));
        assert_eq!(extract_str(&line, "kernel").as_deref(), Some(source));
        assert_eq!(extract_u64(&line, "attempts"), Some(12));
        assert_eq!(extract_u64(&line, "missing"), None);
        assert_eq!(extract_str(&line, "attempts"), None);
    }
}
