//! Minimal hand-rolled JSON parser and writer for the offline analysis
//! tooling.
//!
//! The workspace builds with zero registry access, so there is no serde;
//! this recursive-descent parser covers exactly what the BENCH documents
//! and the `ln-obs` exporters emit, and [`write`] is the one writer the
//! bench bins emit those documents through. One deliberate deviation from the
//! usual "every number is f64" model: unsigned integer literals (no
//! sign, fraction or exponent) are kept as [`Value::UInt`], because
//! trace timestamps are `u64` nanoseconds and must survive a round trip
//! through [`crate::jsonl`] without the 2^53 precision cliff of f64.

use std::fmt;

/// Nesting depth cap — generous for BENCH documents (depth ≤ 4) while
/// keeping a hostile input from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal (no sign, fraction or exponent):
    /// exact up to `u64::MAX`, unlike an f64.
    UInt(u64),
    /// Any other number (negative, fractional or exponent form).
    Float(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved (duplicates kept as-is).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `UInt` widened to f64, `Float` as-is.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Exact unsigned view; `None` for floats (even integral ones).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object-members view.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse failure: byte offset into the input plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Serialises `value` on one line, through `ln-obs`'s escaper and float
/// formatter, so [`parse`] reads it back to an equal value — short of the
/// two things JSON numbers cannot say, which a caller that needs the round
/// trip asserts on: a non-finite float is written as `fmt_f64`'s quoted
/// marker (it reads back a string), and an integral float of magnitude
/// ≥ 1e15 loses its `.0` (a positive one reads back a [`Value::UInt`]).
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => ln_obs::fmt_f64(*f, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(key, out);
                out.push_str(": ");
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    ln_obs::export::escape_json(s, out);
    out.push('"');
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number slice is ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !fractional && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        // Rust's float grammar saturates `1e999` to infinity, which JSON
        // cannot express and `write` could not emit back.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(self.err("malformed number")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim; the
                    // input is a &str so the bytes are valid by construction.
                    let rest = &self.bytes[self.pos - 1..];
                    let ch_len = utf8_len(b);
                    let chunk = std::str::from_utf8(&rest[..ch_len.min(rest.len())])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += ch_len - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// Byte length of the UTF-8 sequence starting with `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::{obj, parse, write, Value};

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-42").unwrap(), Value::Float(-42.0));
        assert_eq!(parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn u64_timestamps_survive_exactly() {
        // 2^60 + 1 is not representable in f64; UInt keeps it exact.
        let big = (1u64 << 60) + 1;
        let doc = parse(&format!("{{\"ts_ns\": {big}}}")).unwrap();
        assert_eq!(doc.get("ts_ns").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let doc = parse(r#""a\"b\\c\nd\u0041\uD83E\uDDEA""#).unwrap();
        assert_eq!(doc.as_str().unwrap(), "a\"b\\c\nd\u{41}\u{1F9EA}");
    }

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, {"b": -2.5}, "x"], "c": {}}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(doc.get("c").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        assert_eq!(parse("-0").unwrap(), Value::Float(-0.0));
        assert_eq!(parse("-17.25").unwrap(), Value::Float(-17.25));
        assert_eq!(parse("-1e-3").unwrap(), Value::Float(-0.001));
        assert_eq!(parse("2E+2").unwrap(), Value::Float(200.0));
        assert_eq!(parse("6.02e23").unwrap(), Value::Float(6.02e23));
        // Exponent forms are Float even when integral, so as_u64 refuses
        // them (the exact-integer path is UInt only).
        assert_eq!(parse("1e3").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        // A leading '+', a bare '.', or a dangling exponent is refused.
        assert!(parse("+1").is_err());
        assert!(parse(".5").is_err());
        assert!(parse("1e").is_err());
        // Known leniency (inherited from Rust's float grammar): a
        // trailing '.' parses; pinned so a change is a conscious one.
        assert_eq!(parse("1.").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn deep_arrays_parse_to_the_depth_cap_and_fail_past_it() {
        // The deepest accepted document nests MAX_DEPTH + 1 arrays (the
        // root sits at depth 0, so the innermost parses at depth
        // MAX_DEPTH exactly)...
        let ok = "[".repeat(super::MAX_DEPTH + 1) + &"]".repeat(super::MAX_DEPTH + 1);
        let mut v = &parse(&ok).unwrap();
        let mut depth = 0;
        while let Some(items) = v.as_arr() {
            depth += 1;
            match items.first() {
                Some(inner) => v = inner,
                None => break,
            }
        }
        assert_eq!(depth, super::MAX_DEPTH + 1);
        // ...one more level is a bounded, typed failure — not a stack
        // overflow on hostile input.
        let too_deep = "[".repeat(super::MAX_DEPTH + 2) + &"]".repeat(super::MAX_DEPTH + 2);
        let err = parse(&too_deep).unwrap_err();
        assert!(
            err.msg.contains("nesting"),
            "unexpected message: {}",
            err.msg
        );
    }

    #[test]
    fn duplicate_object_keys_are_kept_and_get_returns_the_first() {
        let doc = parse(r#"{"k": 1, "k": 2, "j": 3}"#).unwrap();
        let members = doc.as_obj().unwrap();
        assert_eq!(members.len(), 3, "duplicates are preserved, not merged");
        assert_eq!(members[0], ("k".to_string(), Value::UInt(1)));
        assert_eq!(members[1], ("k".to_string(), Value::UInt(2)));
        // Lookup is first-wins, deterministically.
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("j").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn what_write_emits_parse_reads_back_equal() {
        let doc = obj([
            (
                "name",
                Value::Str("a \"quoted\"\\\n\ttab \u{1} é".to_owned()),
            ),
            ("count", Value::UInt(u64::MAX)),
            ("whole_float", Value::Float(2.0)),
            ("tiny", Value::Float(1.25e-9)),
            ("huge", Value::Float(-3.5e22)),
            ("third", Value::Float(1.0 / 3.0)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("empty", Value::Obj(vec![])),
        ]);
        let text = write(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), doc);
        // The two values a JSON number cannot carry back, as documented.
        assert_eq!(
            parse(&write(&Value::Float(1e15))).unwrap(),
            Value::UInt(1_000_000_000_000_000)
        );
        assert_eq!(
            parse(&write(&Value::Float(f64::NAN))).unwrap(),
            Value::Str("NaN".to_owned())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\\uD800x\"",
            "1e999",
            "[-1e999]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }
}
