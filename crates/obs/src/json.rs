//! The workspace's one JSON string escaper. Every hand-rolled NDJSON line —
//! served responses, harness reports, flight dumps — quotes its strings
//! through it, so they all escape the same bytes the same way.

/// Append `s` to `out` as a JSON string literal (with surrounding quotes):
/// `"`, `\`, `\n`, `\r` and `\t` get their short escapes, every other
/// control character below U+0020 a `\u00XX` escape, and everything else
/// is copied verbatim.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ASCII character and one multi-byte one, against the bytes
    /// written out by hand.
    #[test]
    fn escapes_all_of_ascii_and_passes_multi_byte_through() {
        let input: String = (0u8..=0x7F).map(char::from).chain(['é']).collect();
        let controls = "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\
                        \\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\
                        \\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\
                        \\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f";
        let printable = r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"##;
        let expected = format!("\"{controls}{printable}\u{7f}é\"");
        assert_eq!(escaped(&input), expected);
        let mut appended = String::from("x");
        escape_into(&mut appended, &input);
        assert_eq!(appended, format!("x{expected}"));
    }
}
