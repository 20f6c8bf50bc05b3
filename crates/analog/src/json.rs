//! A minimal JSON value, parser, and writer — std only.
//!
//! The build environment vendors no serde, so this is the workspace's one
//! JSON codec: [`crate::telemetry::EngineStats`] serializes through it,
//! the bench crate's run reports escape their strings with it, and the
//! job service (which re-exports it as `si_service::json`) speaks it on
//! the wire. Scope is deliberately narrow: UTF-8 input, `\uXXXX` escapes
//! of exactly four hex digits decoded for the BMP only (surrogate pairs
//! rejected), numbers parsed as finite `f64` (`1e999` is an error, not
//! infinity). Object key order is preserved on parse and emit so golden
//! snapshots are byte-stable.
//!
//! Every number the workspace emits goes through [`write_number`], whose
//! text is a contract the goldens pin:
//! - an integral value below 2⁵³ in magnitude prints as an integer, so
//!   `-0.0` prints `0`;
//! - NaN and ±∞ print `null`;
//! - anything else prints as Rust's `{}` prints it: the shortest digits
//!   that read back as the same `f64`, the closer candidate when two
//!   have that length and the larger on an exact tie, never an
//!   exponent (`0.000…ddd`, `dd.ddd` or `ddd000…`).

mod num;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers round-trip exactly up to 2⁵³.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value compactly (no whitespace), keys in stored
    /// order.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends the JSON text of `n` to `out`, as the module doc states.
pub fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.abs() < 9.007_199_254_740_992e15 && n as i64 as f64 == n {
        // Integral (the round trip through `i64` is exact below 2⁵³, and
        // cheaper than `trunc`, a libm call on baseline x86-64).
        num::write_i64(n as i64, out);
    } else {
        num::write_f64(n, out);
    }
}

/// Appends `s` to `out` as a quoted JSON string. Every byte that needs
/// an escape is ASCII, so each run between two of them is copied whole.
pub fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, and a stack overflow aborts the process
/// (no unwind to catch), so a request body of nothing but `[` must be
/// refused long before the stack runs out. The deepest document the
/// service and router accept or emit nests a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document; trailing non-whitespace is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a human-readable description with the byte offset of the
/// first problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    // JSON has no infinity: an overflowing literal is an error, as in the
    // netlist parser, not a value that later poisons a solve.
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Number(n)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 escape")?;
                        // `from_str_radix` alone would accept a sign (`\u+041`).
                        let cp = Some(hex)
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape {hex:?}"))?;
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("surrogate \\u escape {hex:?}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole unescaped run up to the next `"` or `\`
                // at once, so decoding stays linear in the input. Both
                // stops are ASCII, and the bytes come from a `&str`, so
                // the run starts and ends on char boundaries.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text = std::str::from_utf8(&bytes[*pos..*pos + run])
                    .map_err(|_| "invalid utf-8 in string")?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"s":"x\"y\n"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\n"));
        // Emit → reparse is the identity.
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Number(42.0).to_string_compact(), "42");
        assert_eq!(Json::Number(-1.0).to_string_compact(), "-1");
        assert_eq!(Json::Number(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, inner: &str, depth: usize| {
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close, inner) in [("[", "]", "1"), ("{\"a\":", "}", "1")] {
            assert!(parse(&nested(open, close, inner, MAX_DEPTH)).is_ok());
            let err = parse(&nested(open, close, inner, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
        // The body that used to overflow the stack: 20 KB of `[`.
        assert!(parse(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn rejects_non_finite_numbers_and_signed_escapes() {
        for text in ["1e999", "-1e999", "[1,1e400]", r#"{"bias_ua":1e999}"#] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("invalid number"), "{text}: {err}");
        }
        assert_eq!(parse("1e-999").unwrap(), Json::Number(0.0));
        for text in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00g1""#] {
            let err = parse(text).unwrap_err();
            assert!(err.contains("bad \\u escape"), "{text}: {err}");
        }
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::String("A".to_string()));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""é→""#).unwrap();
        assert_eq!(v, Json::String("é→".to_string()));
    }

    #[test]
    fn control_chars_escape_on_write() {
        let s = Json::String("\u{0001}".to_string()).to_string_compact();
        assert_eq!(s, "\"\\u0001\"");
    }
}
