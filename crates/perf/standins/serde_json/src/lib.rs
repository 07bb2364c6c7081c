//! Offline stand-in for `serde_json` over the stand-in `serde` traits
//! (see `crates/perf/README.md`): the `to_*`/`from_*` functions the
//! workspace calls, a strict RFC 8259 parser, and the 2-space pretty
//! printer.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Map, Number, Value};

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Containers may nest this deep; deeper input is rejected, not recursed into.
const MAX_DEPTH: usize = 128;

/// Compact JSON text of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.ser_json(&mut out);
    Ok(out)
}

/// Compact JSON bytes of `value`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// JSON text of `value` indented by two spaces, one member per line.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let compact = to_string(value)?;
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(close);
                    chars.next();
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    Ok(out)
}

/// Parses `s` and maps it onto `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Parses `bytes` (UTF-8 JSON) and maps it onto `T`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut p = Parser { bytes, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.error("trailing characters"));
    }
    T::de_json(&value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, text: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    self.pos += 1;
                    let value = self.value(depth + 1)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        let int_start = self.pos;
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let number = if integral {
            if let Ok(u) = text.parse::<u64>() {
                Number::U(u)
            } else if let Ok(i) = text.parse::<i64>() {
                Number::I(i)
            } else {
                Number::F(text.parse().map_err(|_| self.error("invalid number"))?)
            }
        } else {
            Number::F(text.parse().map_err(|_| self.error("invalid number"))?)
        };
        Ok(Value::Number(number))
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("lone surrogate"));
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Id(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(Id),
        Pair(u8, String),
        Named { a: f64, b: Option<bool> },
    }

    #[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
    struct Doc {
        name: String,
        ids: Vec<u64>,
        by_id: BTreeMap<u32, f64>,
        #[serde(default)]
        extra: Vec<String>,
    }

    #[test]
    fn derived_types_round_trip_in_serde_json_shape() {
        let shapes = vec![
            Shape::Unit,
            Shape::Newtype(Id(7)),
            Shape::Pair(1, "a\"b\n".into()),
            Shape::Named { a: 1.0, b: None },
        ];
        let json = to_string(&shapes).unwrap();
        assert_eq!(
            json,
            r#"["Unit",{"Newtype":7},{"Pair":[1,"a\"b\n"]},{"Named":{"a":1.0,"b":null}}]"#
        );
        assert_eq!(from_str::<Vec<Shape>>(&json).unwrap(), shapes);
    }

    #[test]
    fn maps_quote_integer_keys_and_defaults_fill_missing_fields() {
        let doc = Doc {
            name: "d".into(),
            ids: vec![u64::MAX],
            by_id: BTreeMap::from([(3, 0.5)]),
            extra: vec![],
        };
        let json = to_string(&doc).unwrap();
        assert_eq!(
            json,
            r#"{"name":"d","ids":[18446744073709551615],"by_id":{"3":0.5},"extra":[]}"#
        );
        assert_eq!(from_str::<Doc>(&json).unwrap(), doc);
        let without_extra = r#"{"name":"d","ids":[18446744073709551615],"by_id":{"3":0.5}}"#;
        assert_eq!(from_str::<Doc>(without_extra).unwrap(), doc);
        assert!(from_str::<Doc>(r#"{"name":"d"}"#).is_err());
    }

    #[test]
    fn pretty_printer_matches_serde_json_layout() {
        let doc = Doc {
            name: "x".into(),
            ids: vec![1, 2],
            ..Doc::default()
        };
        let pretty = to_string_pretty(&doc).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"name\": \"x\",\n  \"ids\": [\n    1,\n    2\n  ],\n  \"by_id\": {},\n  \"extra\": []\n}"
        );
        assert_eq!(from_str::<Doc>(&pretty).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"\\x\"",
            "nul",
            "[1] 2",
            "\"\u{1}\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(from_str::<Value>(&deep).is_err());
        let v: Value = from_str(r#"{"k":"\ud83d\ude00","n":-2,"f":1e3}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("😀"));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1000.0));
    }
}
