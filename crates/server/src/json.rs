//! Minimal JSON value model, serializer and parser.
//!
//! The workspace is offline, so the wire codec is written in-repo. This is a
//! deliberately small JSON subset sufficient for the `s2g-server` protocol:
//!
//! * values: `null`, booleans, finite `f64` numbers, strings, arrays,
//!   objects;
//! * objects preserve **insertion order** (they are a `Vec` of pairs, not a
//!   map), so serialized output is deterministic;
//! * numbers are emitted with Rust's shortest round-trip `f64` formatting
//!   and parsed with `f64::from_str`, which makes a
//!   serialize → parse round trip **bit-exact** for every finite `f64` —
//!   the property the protocol's bit-for-bit scoring guarantee rests on;
//! * parsing enforces a nesting-depth limit and rejects trailing garbage.
//!
//! Non-finite numbers (`NaN`, `±inf`) have no JSON representation and
//! serialize as `null`, mirroring what mainstream encoders do.
//!
//! # Example
//!
//! ```
//! use s2g_server::json::Json;
//!
//! let value = Json::obj([
//!     ("name", Json::from("turbine")),
//!     ("scores", Json::arr([0.125, 0.25])),
//! ]);
//! let line = value.encode();
//! assert_eq!(line, r#"{"name":"turbine","scores":[0.125,0.25]}"#);
//! let back = Json::parse(&line).unwrap();
//! assert_eq!(back.get("scores").unwrap().as_f64_array().unwrap(), vec![0.125, 0.25]);
//! ```

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value (see the [module docs](self) for the supported subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite IEEE-754 double.
    Num(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object: key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Error produced by [`Json::parse`]: a byte offset and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs, preserving their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from anything convertible to [`Json`].
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    /// Accepts the full range a JSON number can carry exactly (up to 2⁵³).
    pub fn as_usize(&self) -> Option<usize> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_EXACT => Some(*v as usize),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The array payload as `f64`s, if this is an array of numbers.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Json::as_f64).collect()
    }

    /// Serializes the value onto one line (no added whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the bytes [`Json::encode`] returns to `out`.
    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => encode_number(*v, out),
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, rejecting trailing non-whitespace.
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first offending character.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser::new(text);
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Appends a number the way [`Json::encode`] writes `Json::Num(v)`.
fn encode_number(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's f64 Display is the shortest representation that parses
        // back to the identical bit pattern.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn encode_string(s: &str, out: &mut String) {
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

// -- score lines and push replies ---------------------------------------
//
// The two hot replies are written and read without a `Json` tree. The
// writers emit exactly the bytes `Json::encode` writes for the same object.
// The decoders accept only that compact shape and return `None` for any
// other line; they read numbers with the parser's own number rule, so they
// reject every token `Json::parse` rejects.

/// Appends the score result line `{"index":…,"scores":[…]}`.
pub fn write_score_line(out: &mut String, index: usize, scores: &[f64]) {
    out.push_str("{\"index\":");
    encode_number(index as f64, out);
    out.push_str(",\"scores\":[");
    for (i, &v) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_number(v, out);
    }
    out.push_str("]}");
}

/// Appends the session push reply
/// `{"session":…,"pushed":…,"emitted":[[start,normality],…]}`, with an
/// `"adapt"` member last when `adapt` is set.
pub fn write_push_reply(
    out: &mut String,
    session: &str,
    pushed: usize,
    emitted: &[(usize, f64)],
    adapt: Option<&Json>,
) {
    out.push_str("{\"session\":");
    encode_string(session, out);
    out.push_str(",\"pushed\":");
    encode_number(pushed as f64, out);
    out.push_str(",\"emitted\":[");
    for (i, &(start, normality)) in emitted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        encode_number(start as f64, out);
        out.push(',');
        encode_number(normality, out);
        out.push(']');
    }
    out.push(']');
    if let Some(adapt) = adapt {
        out.push_str(",\"adapt\":");
        adapt.encode_into(out);
    }
    out.push('}');
}

/// Decodes the `"scores"` of a line [`write_score_line`] wrote. `None` for
/// any other line, including error lines and malformed numbers.
pub fn decode_score_line(line: &str) -> Option<Vec<f64>> {
    let mut p = Parser::new(line);
    p.eat("{\"index\":")?;
    p.number().ok()?;
    p.eat(",\"scores\":")?;
    let scores = p.compact_array(|p| p.number().ok())?;
    p.eat("}")?;
    p.at_end()?;
    Some(scores)
}

/// Decodes the `"emitted"` pairs and the optional `"adapt"` object of a
/// reply [`write_push_reply`] wrote. `None` for any other line.
#[allow(clippy::type_complexity)]
pub fn decode_push_reply(line: &str) -> Option<(Vec<(usize, f64)>, Option<Json>)> {
    let mut p = Parser::new(line);
    p.eat("{\"session\":")?;
    p.string().ok()?;
    p.eat(",\"pushed\":")?;
    p.number().ok()?;
    p.eat(",\"emitted\":")?;
    let emitted = p.compact_array(Parser::pair)?;
    let adapt = if p.eat(",\"adapt\":").is_some() {
        Some(p.value(1).ok()?)
    } else {
        None
    };
    p.eat("}")?;
    p.at_end()?;
    Some((emitted, adapt))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// A number token: it starts with `-` or a digit, runs over the JSON
    /// number characters, and must parse to a finite `f64`.
    fn number(&mut self) -> Result<f64, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-UTF-8 number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.error(format!("non-finite number {text:?}")));
        }
        Ok(value)
    }

    /// Consumes `token` verbatim, or fails without moving.
    fn eat(&mut self, token: &str) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(token.as_bytes())
            .then(|| self.pos += token.len())
    }

    /// An array `[` … `]` with no whitespace — the shape the server
    /// writes — whose items `item` decodes straight into Rust values.
    fn compact_array<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat("[")?;
        let mut out = Vec::new();
        if self.eat("]").is_some() {
            return Some(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat("]").is_some() {
                return Some(out);
            }
            self.eat(",")?;
        }
    }

    /// A `[start,value]` pair, with `start` read by the rule of
    /// [`Json::as_usize`].
    fn pair(&mut self) -> Option<(usize, f64)> {
        self.eat("[")?;
        let start = Json::Num(self.number().ok()?).as_usize()?;
        self.eat(",")?;
        let value = self.number().ok()?;
        self.eat("]")?;
        Some((start, value))
    }

    fn at_end(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-UTF-8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are rejected (the protocol never
                            // emits them); BMP scalars only.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u scalar"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, however many bytes it spans.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("non-UTF-8 string content"))?;
                    let c = rest.chars().next().ok_or_else(|| self.error("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            0.1 + 0.2,
            std::f64::consts::PI,
        ];
        for v in values {
            let encoded = Json::Num(v).encode();
            let parsed = Json::parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip of {v}");
        }
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let value = Json::obj([
            ("b", Json::from(2.0)),
            ("a", Json::arr([Json::Null, Json::Bool(true)])),
            ("s", Json::from("x\"y\\z\n")),
        ]);
        let line = value.encode();
        assert!(line.starts_with(r#"{"b":2,"#));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\"}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite must be rejected");
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"xs":[1,2.5],"name":"m","neg":-1}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_usize(), None);
        assert_eq!(v.get("xs").unwrap().as_f64_array(), Some(vec![1.0, 2.5]));
        assert_eq!(v.get("name").unwrap().as_str(), Some("m"));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }

    /// Values whose shortest form is easy to get wrong: a negative zero,
    /// the smallest subnormal, the decimal/exponent switch points of other
    /// formatters, and the largest exactly representable integer.
    const AWKWARD: [f64; 6] = [-0.0, 5e-324, 1e21, 1e-7, 9007199254740992.0, 0.1];

    #[test]
    fn score_line_writer_matches_encode() {
        for index in [0usize, 7, (1usize << 32) + 3] {
            let mut line = String::new();
            write_score_line(&mut line, index, &AWKWARD);
            let tree = Json::obj([("index", Json::from(index)), ("scores", Json::arr(AWKWARD))]);
            assert_eq!(line, tree.encode());
            let back = decode_score_line(&line).unwrap();
            assert_eq!(
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                AWKWARD.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        let mut empty = String::new();
        write_score_line(&mut empty, 1, &[]);
        assert_eq!(empty, r#"{"index":1,"scores":[]}"#);
        assert_eq!(decode_score_line(&empty), Some(vec![]));
    }

    #[test]
    fn push_reply_writer_matches_encode() {
        let emitted: Vec<(usize, f64)> = AWKWARD
            .iter()
            .enumerate()
            .map(|(i, &v)| ((1usize << 32) + i, v))
            .collect();
        let adapt = Json::obj([
            ("updates", Json::from(3usize)),
            ("action", Json::from("none")),
        ]);
        for adapt in [None, Some(&adapt)] {
            let mut line = String::new();
            write_push_reply(&mut line, "s-1\"x", 500, &emitted, adapt);
            let mut pairs = vec![
                ("session".to_string(), Json::from("s-1\"x")),
                ("pushed".to_string(), Json::from(500usize)),
                (
                    "emitted".to_string(),
                    Json::Arr(
                        emitted
                            .iter()
                            .map(|&(s, v)| Json::Arr(vec![Json::from(s), Json::from(v)]))
                            .collect(),
                    ),
                ),
            ];
            if let Some(adapt) = adapt {
                pairs.push(("adapt".to_string(), adapt.clone()));
            }
            assert_eq!(line, Json::Obj(pairs).encode());
            let (back, back_adapt) = decode_push_reply(&line).unwrap();
            assert_eq!(back_adapt.as_ref(), adapt);
            assert_eq!(back.len(), emitted.len());
            for ((bs, bv), (s, v)) in back.iter().zip(&emitted) {
                assert_eq!((bs, bv.to_bits()), (s, v.to_bits()));
            }
        }
    }

    #[test]
    fn decoders_reject_what_parse_rejects() {
        for token in ["NaN", "nan", "inf", "-inf", "+1", "1e999", "-", "1.2.3x"] {
            let line = format!(r#"{{"index":0,"scores":[1,{token}]}}"#);
            assert!(Json::parse(&line).is_err(), "{line}");
            assert_eq!(decode_score_line(&line), None, "{line}");
            let reply = format!(r#"{{"session":"s","pushed":1,"emitted":[[0,{token}]]}}"#);
            assert!(Json::parse(&reply).is_err(), "{reply}");
            assert_eq!(decode_push_reply(&reply), None, "{reply}");
        }
        for line in [
            r#"{"index":0,"scores":[1,2"#,
            r#"{"index":0,"scores":[1,2]"#,
            r#"{"index":0,"scores":[1,2]}x"#,
            r#"{"index":0,"scores":[1,2]}}"#,
            r#"{"index":0,"scores":[1,]}"#,
        ] {
            assert!(Json::parse(line).is_err(), "{line}");
            assert_eq!(decode_score_line(line), None, "{line}");
        }
        for reply in [
            r#"{"session":"s","pushed":1,"emitted":[[0,1]"#,
            r#"{"session":"s","pushed":1,"emitted":[[0,1]]}x"#,
            r#"{"session":"s","pushed":1,"emitted":[[0,1],]}"#,
        ] {
            assert!(Json::parse(reply).is_err(), "{reply}");
            assert_eq!(decode_push_reply(reply), None, "{reply}");
        }
        // A start that is not an exact non-negative integer is malformed.
        assert_eq!(
            decode_push_reply(r#"{"session":"s","pushed":1,"emitted":[[0.5,1]]}"#),
            None
        );
        // Error lines are not score lines; the caller parses them as JSON.
        assert_eq!(
            decode_score_line(r#"{"index":0,"error":"x","message":"y"}"#),
            None
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\t newline\n quote\" back\\ unicode\u{1F600} ctrl\u{1}";
        let encoded = Json::from(s).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
    }
}
