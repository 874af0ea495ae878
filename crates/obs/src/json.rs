//! A minimal JSON tree, writer, and parser.
//!
//! The workspace is built offline against vendored stand-ins, so there is
//! no `serde`; this module implements exactly the JSON subset the
//! [`RunManifest`](crate::RunManifest) needs: objects (insertion-ordered),
//! arrays, strings, booleans, null, and numbers. Unsigned integers are
//! kept as `u64` end to end — cycle counters exceed the 2^53 range where
//! `f64` round-trips break.
//!
//! # Example
//!
//! ```
//! use obs::json::Json;
//!
//! let doc = Json::Obj(vec![
//!     ("name".into(), Json::Str("fig14c".into())),
//!     ("cycles".into(), Json::UInt(123_911)),
//! ]);
//! let text = doc.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(123_911));
//! assert_eq!(doc, back);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact up to `u64::MAX`).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write and parse.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants or missing
    /// keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module writes, which is
    /// all of standard JSON except exponent-heavy float edge cases).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serializes on a single line with no inter-token whitespace — the
    /// JSONL form used by the live-telemetry series artifacts
    /// (`*.series.jsonl`), where one sample must occupy exactly one line.
    /// [`Json::parse`] accepts both this and the pretty [`std::fmt::Display`] form.
    ///
    /// ```
    /// use obs::json::Json;
    /// let doc = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::UInt(1)]))]);
    /// assert_eq!(doc.to_compact(), "{\"a\":[1]}");
    /// ```
    #[must_use]
    pub fn to_compact(&self) -> String {
        Compact(self).to_string()
    }

    fn write_compact(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    write!(f, "null") // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    item.write_compact(f)?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":")?;
                    v.write_compact(f)?;
                }
                write!(f, "}}")
            }
        }
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    write!(f, "null") // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) if items.is_empty() => write!(f, "[]"),
            Json::Arr(items) => {
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{pad}")?;
                    item.write_indented(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
                }
                write!(f, "{close}]")
            }
            Json::Obj(members) if members.is_empty() => write!(f, "{{}}"),
            Json::Obj(members) => {
                writeln!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    write!(f, "{pad}")?;
                    write_escaped(f, k)?;
                    write!(f, ": ")?;
                    v.write_indented(f, indent + 1)?;
                    writeln!(f, "{}", if i + 1 < members.len() { "," } else { "" })?;
                }
                write!(f, "{close}}}")
            }
        }
    }
}

impl fmt::Display for Json {
    /// Pretty-prints with two-space indentation (the `target/obs/*.json`
    /// on-disk format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

/// Single-line [`fmt::Display`] adapter behind [`Json::to_compact`].
struct Compact<'a>(&'a Json);

impl fmt::Display for Compact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_compact(f)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// `pos` only ever steps over ASCII bytes or whole characters, so it
/// always sits on a character boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not produced by this
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source text.
                    let rest = self.text.get(self.pos..).unwrap_or_default();
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\\".into())),
            ("big".into(), Json::UInt(u64::MAX)),
            ("neg".into(), Json::Int(-42)),
            ("f".into(), Json::Float(1.5)),
            ("t".into(), Json::Bool(true)),
            ("n".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![Json::UInt(1), Json::Arr(vec![]), Json::Obj(vec![])]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_precision_survives() {
        // 2^53 + 1 is exactly where f64 loses integers.
        let n = (1u64 << 53) + 1;
        let back = Json::parse(&Json::UInt(n).to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(n));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\\u0041\" : \"x\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("bA").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc", "{a:1}"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse("{\"k\": 7, \"s\": \"v\"}").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_obj().unwrap().len(), 2);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Bool(true).as_u64(), None);
    }
}
