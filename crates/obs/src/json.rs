//! A minimal JSON value model, serializer and parser.
//!
//! The workspace builds with zero registry dependencies, so the
//! telemetry schema carries its own JSON implementation: enough of
//! RFC 8259 for the flat, machine-generated records the JSONL layer
//! emits (objects, arrays, strings, integer/float numbers, booleans,
//! null), with deterministic serialization — object keys render in
//! insertion order, and no wall-clock or locale state is consulted
//! anywhere on the render path.

use std::collections::BTreeMap;
use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact unsigned integer.
    UInt(u64),
    /// A number that is an exact negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), which the serializer for
    /// [`Obj`] avoids by keeping insertion order — parsed objects
    /// compare by content, not key order.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Writes `s` as a JSON string literal (quotes + escapes).
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Always keep a decimal point or exponent so the
                    // value parses back as a float.
                    let s = format!("{x}");
                    if s.contains('.') || s.contains('e') || s.contains('E') {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    // JSON has no Inf/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// An insertion-ordered JSON object builder: what the JSONL layer uses
/// so every record renders its fields in a stable, human-legible order
/// (`v`, `type`, `kind`, …) rather than alphabetically.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(&'static str, Json)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends a field.
    pub fn push(mut self, key: &'static str, value: Json) -> Obj {
        self.fields.push((key, value));
        self
    }

    /// Appends a string field.
    pub fn str(self, key: &'static str, value: &str) -> Obj {
        self.push(key, Json::Str(value.to_string()))
    }

    /// Appends an unsigned-integer field.
    pub fn u64(self, key: &'static str, value: u64) -> Obj {
        self.push(key, Json::UInt(value))
    }

    /// Renders the object as one compact JSON line (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push('}');
        out
    }
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value from `input`; trailing whitespace is
/// allowed, any other trailing content is an error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // schema; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError {
                at: start,
                message: format!("bad number {text:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_record() {
        let v = parse(r#"{"v":1,"type":"event","kind":"canary_trip","ip":4096}"#).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("canary_trip"));
        assert_eq!(v.get("ip").and_then(Json::as_u64), Some(4096));
    }

    #[test]
    fn parses_nested_arrays_numbers_strings() {
        let v = parse(r#"{"a":[1,-2,3.5],"b":{"c":true,"d":null},"s":"x\ny\"z\""}"#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.0));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\ny\"z\""));
    }

    #[test]
    fn serialization_roundtrips() {
        let src = r#"{"arr":[1,2,{"x":"a b"}],"f":1.25,"n":null,"neg":-7,"t":true}"#;
        let v = parse(src).unwrap();
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn obj_preserves_insertion_order() {
        let line = Obj::new()
            .u64("v", 1)
            .str("type", "event")
            .u64("ip", 7)
            .render();
        assert_eq!(line, r#"{"v":1,"type":"event","ip":7}"#);
        // And parses back to the same content.
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("event"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn float_render_keeps_float_shape() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }
}
