//! Minimal JSON parsing and serialization for the newline-delimited wire
//! protocol. Hand-rolled because the build environment cannot fetch
//! `serde_json`; covers the full JSON grammar (objects, arrays, strings
//! with escapes incl. `\uXXXX` surrogate pairs, numbers, booleans, null)
//! but keeps the value model deliberately small: all numbers are `f64`,
//! objects preserve insertion order in a `Vec` of pairs.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs kept in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input where it went wrong.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                msg: "trailing characters after value".into(),
                at: pos,
            });
        }
        Ok(value)
    }

    /// Serializes to a single-line JSON string.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the single-line serialization to `out` ([`Json::dump`]
    /// without the allocation).
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds an object from pairs (helper for response construction).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Version of one wire-protocol exchange. Governs both how a request
/// envelope is read and how the response envelope is rendered; the
/// normative spec lives atop [`crate::server`].
///
/// - **V1** (legacy): the line carries neither `"v"` nor `"id"` (or an
///   explicit `"v":1`). Responses are byte-compatible with pre-v2
///   servers — no envelope fields are ever added.
/// - **V2**: the line declares `"v":2`, or carries an `"id"` without a
///   `"v"` (an `id` only exists in v2, so it implies it). Responses echo
///   `"v":2`, the request's `"id"` (when given), and the engine `"epoch"`
///   the answer was computed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolVersion {
    /// Legacy envelope-free protocol; responses stay bit-compatible.
    V1,
    /// Versioned envelope: requests may carry `"id"`, responses echo
    /// `"v"`, `"id"`, and `"epoch"`.
    V2,
}

impl ProtocolVersion {
    /// Reads the envelope of a parsed request line: its protocol version
    /// and (v2 only) its request id. Errors on an unsupported `"v"` or a
    /// non-scalar `"id"`; an `"id"` sent on an explicit `"v":1` line is
    /// ignored (v1 has no id concept).
    pub fn of_request(v: &Json) -> Result<(ProtocolVersion, Option<Json>), String> {
        let id = match v.get("id") {
            None => None,
            Some(id @ (Json::Str(_) | Json::Num(_))) => Some(id.clone()),
            Some(_) => return Err("\"id\" must be a string or a number".into()),
        };
        match v.get("v") {
            None if id.is_some() => Ok((ProtocolVersion::V2, id)),
            None => Ok((ProtocolVersion::V1, None)),
            Some(ver) => match ver.as_usize() {
                Some(1) => Ok((ProtocolVersion::V1, None)),
                Some(2) => Ok((ProtocolVersion::V2, id)),
                _ => Err(format!(
                    "unsupported protocol version {} (supported: 1, 2)",
                    ver.dump()
                )),
            },
        }
    }

    /// Wraps a response body for this version: a no-op for v1 (bit
    /// compatibility is the contract), and for v2 appends `"v":2`, the
    /// echoed `"id"` (when the request carried one), and `"epoch"` —
    /// unless the body already reports an `"epoch"` of its own (the
    /// `info`/`reload` commands do), which is authoritative.
    pub fn envelope(self, mut body: Json, id: Option<&Json>, epoch: u64) -> Json {
        match self {
            ProtocolVersion::V1 => body,
            ProtocolVersion::V2 => {
                if let Json::Obj(pairs) = &mut body {
                    pairs.push(("v".to_string(), Json::Num(2.0)));
                    if let Some(id) = id {
                        pairs.push(("id".to_string(), id.clone()));
                    }
                    if !pairs.iter().any(|(k, _)| k == "epoch") {
                        pairs.push(("epoch".to_string(), Json::Num(epoch as f64)));
                    }
                }
                body
            }
        }
    }
}

/// Appends one JSON number: shortest round-trip digits, and `null` for
/// the non-finite values JSON cannot carry. Every number on the wire goes
/// through here.
pub(crate) fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        // Rust's shortest-roundtrip Display: integers print without ".0",
        // which keeps ids and counts natural on the wire.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no Inf/NaN; the protocol encodes them as null.
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail<T>(msg: &str, at: usize) -> Result<T, JsonError> {
    Err(JsonError {
        msg: msg.into(),
        at,
    })
}

/// Maximum container nesting the parser accepts. The parser is
/// recursive, so untrusted input like `[[[[...` would otherwise turn
/// stack depth into an attacker-controlled quantity and overflow —
/// aborting the whole process, not just the connection. 128 levels is
/// far beyond any legitimate request on this protocol.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return fail("unexpected end of input", *pos);
    };
    if depth >= MAX_DEPTH && matches!(b, b'{' | b'[') {
        return fail("nesting too deep", *pos);
    }
    match b {
        b'{' => parse_obj(bytes, pos, depth),
        b'[' => parse_arr(bytes, pos, depth),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_num(bytes, pos),
        _ => fail("unexpected character", *pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        fail("invalid literal", *pos)
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => fail("invalid number", start),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return fail("unterminated string", *pos);
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return fail("unterminated escape", *pos);
                };
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
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low surrogate.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return fail("invalid low surrogate", *pos);
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return fail("unpaired surrogate", *pos);
                            }
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return fail("invalid unicode escape", *pos),
                        }
                    }
                    _ => return fail("invalid escape", *pos - 1),
                }
            }
            _ => {
                // Consume one UTF-8 scalar (input is a &str, so slicing on
                // char boundaries is safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    msg: "invalid utf-8".into(),
                    at: *pos,
                })?;
                let c = rest.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return fail("control character in string", *pos);
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    if *pos + 4 > bytes.len() {
        return fail("truncated \\u escape", *pos);
    }
    let text = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .ok()
        .filter(|t| t.chars().all(|c| c.is_ascii_hexdigit()));
    match text {
        Some(t) => {
            *pos += 4;
            Ok(u32::from_str_radix(t, 16).expect("validated hex"))
        }
        None => fail("invalid \\u escape", *pos),
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return fail("expected ',' or ']'", *pos),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return fail("expected string key", *pos);
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return fail("expected ':'", *pos);
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return fail("expected ',' or '}'", *pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compound_document() {
        let text =
            r#"{"query":[[1.5,-2],[3,4,5.25]],"algo":"pss","k":10,"index":true,"note":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("algo").unwrap().as_str(), Some("pss"));
        assert_eq!(v.get("k").unwrap().as_usize(), Some(10));
        assert_eq!(v.get("index").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("note"), Some(&Json::Null));
        let pts = v.get("query").unwrap().as_array().unwrap();
        assert_eq!(pts[0].as_array().unwrap()[1].as_f64(), Some(-2.0));
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn nesting_depth_is_capped() {
        // At the cap: parses. One past: a clean error, not a stack
        // overflow (which would abort the whole process).
        let deep_ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.msg.contains("nesting too deep"), "{err}");
        // Unclosed garbage at huge depth must also fail cleanly.
        let unclosed = "[{\"a\":".repeat(10_000);
        assert!(Json::parse(&unclosed).is_err());
        // Objects count toward the same budget.
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objs)
            .unwrap_err()
            .msg
            .contains("nesting too deep"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line\nquote\" back\\slash tab\t µ ünïcode \u{1}".into());
        let parsed = Json::parse(&original.dump()).unwrap();
        assert_eq!(parsed, original);
        // Escapes produced by other writers parse too.
        let v = Json::parse(r#""a\u00e9b \ud83d\ude00 c\/d""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb 😀 c/d"));
    }

    #[test]
    fn numbers_parse_and_print_cleanly() {
        for (text, want) in [
            ("0", 0.0),
            ("-12.5", -12.5),
            ("1e3", 1000.0),
            ("2.5E-1", 0.25),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(want));
        }
        assert_eq!(Json::Num(5.0).dump(), "5");
        assert_eq!(Json::Num(0.5).dump(), "0.5");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"open",
            "{\"a\":}",
            "1 2",
            "[1,]",
            "{\"a\" 1}",
            "01a",
            "\"\\q\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn protocol_version_of_request() {
        let case = |text: &str| ProtocolVersion::of_request(&Json::parse(text).unwrap());
        // v1: no envelope fields, or explicit v:1 (id then ignored).
        assert_eq!(case(r#"{"cmd":"ping"}"#), Ok((ProtocolVersion::V1, None)));
        assert_eq!(
            case(r#"{"v":1,"cmd":"ping"}"#),
            Ok((ProtocolVersion::V1, None))
        );
        assert_eq!(case(r#"{"v":1,"id":"x"}"#), Ok((ProtocolVersion::V1, None)));
        // v2: declared, or implied by an id.
        assert_eq!(case(r#"{"v":2}"#), Ok((ProtocolVersion::V2, None)));
        assert_eq!(
            case(r#"{"v":2,"id":7}"#),
            Ok((ProtocolVersion::V2, Some(Json::Num(7.0))))
        );
        assert_eq!(
            case(r#"{"id":"req-1"}"#),
            Ok((ProtocolVersion::V2, Some(Json::Str("req-1".into()))))
        );
        // Errors: unknown versions, non-scalar ids.
        assert!(case(r#"{"v":3}"#).is_err());
        assert!(case(r#"{"v":"2"}"#).is_err());
        assert!(case(r#"{"v":2,"id":[1]}"#).is_err());
    }

    #[test]
    fn envelope_rendering_is_version_gated() {
        let body = || obj(vec![("ok", Json::Bool(true))]);
        // v1 must stay byte-identical.
        assert_eq!(
            ProtocolVersion::V1
                .envelope(body(), Some(&Json::Str("x".into())), 5)
                .dump(),
            r#"{"ok":true}"#
        );
        // v2 appends v / id / epoch after the body fields.
        assert_eq!(
            ProtocolVersion::V2
                .envelope(body(), Some(&Json::Str("x".into())), 5)
                .dump(),
            r#"{"ok":true,"v":2,"id":"x","epoch":5}"#
        );
        assert_eq!(
            ProtocolVersion::V2.envelope(body(), None, 1).dump(),
            r#"{"ok":true,"v":2,"epoch":1}"#
        );
    }

    #[test]
    fn as_usize_guards() {
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Str("7".into()).as_usize(), None);
    }
}
