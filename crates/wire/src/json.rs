//! A minimal, dependency-free JSON value type for the line-delimited wire
//! protocol — the same "hand-rolled, offline" policy as the rest of the
//! workspace (see DESIGN.md §7): no serde in the container, and the protocol
//! needs only a small, strict subset.
//!
//! * Parsing is recursive-descent over the full JSON grammar (objects,
//!   arrays, strings with escapes incl. `\uXXXX` and surrogate pairs,
//!   numbers, booleans, null), with a depth limit so a hostile request
//!   cannot blow the stack.
//! * Rendering is compact (no whitespace). Numbers render through Rust's
//!   shortest-roundtrip `{:?}` formatting, so an `f64` survives a
//!   client→server→client trip bit-for-bit — which is what keeps
//!   fingerprints computed from parsed specs identical to the client's.
//!   Non-finite numbers (JSON has none) render as `null`.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= usize::MAX as f64 {
            Some(x as usize)
        } else {
            None
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Decode an array of integration limits, the wire convention of both
/// network layers: a number is itself and `null` is `inf` (`-∞` for lower
/// limits, `+∞` for upper ones, which JSON cannot spell).
pub fn parse_limits(v: &Json, inf: f64) -> Result<Vec<f64>, String> {
    v.as_arr()
        .ok_or("limits must be arrays")?
        .iter()
        .map(|x| match x {
            Json::Null => Ok(inf),
            Json::Num(v) => Ok(*v),
            other => Err(format!(
                "limit entries must be numbers or null, got {other}"
            )),
        })
        .collect()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(b, pos)?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low surrogate.
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(cp).ok_or_else(|| "invalid codepoint".to_string())?,
                        );
                    }
                    other => return Err(format!("invalid escape '\\{}'", other as char)),
                }
            }
            Some(&c) => {
                // Copy a full UTF-8 scalar (the input is a &str, so bytes
                // form valid sequences).
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = std::str::from_utf8(&b[*pos..*pos + len])
                    .map_err(|_| "invalid utf8 in string".to_string())?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > b.len() {
        return Err("truncated \\u escape".to_string());
    }
    let s = std::str::from_utf8(&b[*pos..*pos + 4]).map_err(|_| "invalid utf8".to_string())?;
    let v = u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape {s:?}"))?;
    *pos += 4;
    Ok(v)
}

/// Append a JSON-escaped string (with quotes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Append a number in shortest-roundtrip form (`null` for non-finite values
/// — JSON cannot represent them; the protocol uses `null` limits for `±inf`
/// explicitly, see the `tcp` module).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render(self, &mut s);
        f.write_str(&s)
    }
}

/// Append `v`'s compact rendering (the [`Display`](fmt::Display) form) to
/// `out`.
pub(crate) fn render(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => write_f64(out, *x),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                render(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"id":7,"spec":{"grid":4,"kernel":"exponential","range":0.1},"a":[null,-1.5],"b":[2.0,null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_usize(), Some(7));
        let spec = v.get("spec").unwrap();
        assert_eq!(spec.get("kernel").unwrap().as_str(), Some("exponential"));
        assert_eq!(spec.get("range").unwrap().as_f64(), Some(0.1));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0], Json::Null);
        assert_eq!(a[1].as_f64(), Some(-1.5));
    }

    #[test]
    fn roundtrips_f64_bitwise() {
        for &x in &[
            0.1,
            -1.0 / 3.0,
            1e-300,
            -2.5e17,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
            0.0,
            -0.0,
        ] {
            let mut s = String::new();
            write_f64(&mut s, x);
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert!(back.to_bits() == x.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let src = r#"{"s":"a\"b\\c\nd","arr":[1.0,true,false,null],"nested":{"k":[{"x":1.0}]}}"#;
        let v = Json::parse(src).unwrap();
        let rendered = v.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = Json::parse(r#""héllo A 😀 ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo A 😀 ✓"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate");
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "nul",
            "1.2.3",
            "--5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth bomb: 100 nested arrays exceeds MAX_DEPTH.
        let bomb = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
    }
}
