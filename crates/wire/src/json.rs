//! A small JSON value: what the artifact writers and the serve protocol need.
//!
//! Writing is deterministic: objects keep insertion order, integers print
//! exactly, and floats print the shortest text that reads back to the same
//! bits (always float-shaped, non-finite as `null`), so equal analyses give
//! equal artifact bytes. [`parse`] reads request lines that arrive from
//! outside the program, so it is strict: nesting is capped, duplicate keys,
//! trailing bytes and lone surrogates are typed errors with a byte offset.

use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub(crate) const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    U64(u64),
    /// A negative integer, exact.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// An object from `(key, value)` pairs, in the order given.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(Vec::from(fields.map(|(k, v)| (k.to_string(), v))))
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Two-space-indented text, `"key": value`, no trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is the current depth when pretty-printing, `None` for compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::U64(v) => write!(out, "{v}").expect("writing to a String"),
            Value::I64(v) => write!(out, "{v}").expect("writing to a String"),
            // `{:?}` is the shortest round-trip form and keeps a `.0` or an
            // exponent on whole numbers.
            Value::F64(v) if v.is_finite() => write!(out, "{v:?}").expect("writing to a String"),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => write_members(out, indent, b"[]", items, |out, item, inner| {
                item.write(out, inner)
            }),
            Value::Object(fields) => {
                write_members(out, indent, b"{}", fields, |out, (key, value), inner| {
                    write_str(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                })
            }
        }
    }
}

/// One array or object: brackets, commas, and (when `indent` is a depth) one
/// member per line; `member` writes each element one level deeper.
fn write_members<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &[u8; 2],
    members: &[T],
    member: impl Fn(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            (0..depth).for_each(|_| out.push_str("  "));
        }
    };
    let inner = indent.map(|depth| depth + 1);
    out.push(brackets[0] as char);
    for (i, item) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        member(out, item, inner);
    }
    if !members.is_empty() {
        newline(out, indent);
    }
    out.push(brackets[1] as char);
}

/// Compact text: no whitespace at all.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Types with a JSON rendering.
pub trait ToJson {
    /// This value as a JSON document.
    fn to_json(&self) -> Value;
}

/// Implement [`ToJson`] for a struct as an object of the listed fields, in
/// the order listed (write them in declaration order). Every field must be
/// listed: a forgotten one is a compile error, not a silently thinner artifact.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let $ty { $($field),* } = self;
                $crate::json::Value::Object(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::ToJson::to_json($field),
                )),*])
            }
        }
    };
}

macro_rules! to_json_as {
    ($variant:ident($wide:ty): $($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::$variant(*self as $wide)
            }
        }
    )*};
}
to_json_as!(U64(u64): u8, u16, u32, u64, usize);
to_json_as!(F64(f64): f64);

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Maps render as objects in key order, keys through `Display`.
impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Why [`parse`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that no JSON grammar rule allows here.
    UnexpectedByte(u8),
    /// Non-whitespace after the document.
    TrailingBytes,
    /// Arrays/objects nested deeper than `MAX_DEPTH`.
    TooDeep,
    /// An object names the same key twice.
    DuplicateKey,
    /// A malformed `\` escape.
    BadEscape,
    /// A `\u` escape that is half of a surrogate pair.
    LoneSurrogate,
    /// An unescaped control character inside a string.
    ControlInString,
    /// An integer beyond 64 bits, or a float beyond `f64`.
    NumberOutOfRange,
}

/// A [`parse`] failure and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Offset into the input, in bytes.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::UnexpectedByte(b) => write!(f, "unexpected {:?}", b as char)?,
            kind => write!(f, "{kind:?}")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse exactly one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err(JsonErrorKind::TrailingBytes));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn end(&self) -> JsonError {
        self.err(JsonErrorKind::UnexpectedEnd)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The error for whatever is (or is not) at the cursor.
    fn unexpected(&self) -> JsonError {
        self.err(
            self.peek()
                .map_or(JsonErrorKind::UnexpectedEnd, JsonErrorKind::UnexpectedByte),
        )
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() != Some(byte) {
            return Err(self.unexpected());
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        for byte in word.bytes() {
            self.expect(byte)?;
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err(JsonErrorKind::TooDeep)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields: Vec<(String, Value)> = Vec::new();
                // Keys come from outside the program: a hashed set keeps the
                // duplicate check linear in the key count.
                let mut seen = HashSet::new();
                self.members(b'}', |p| {
                    p.skip_ws();
                    let key_at = p.pos;
                    let key = p.string()?;
                    if !seen.insert(key.clone()) {
                        p.pos = key_at;
                        return Err(p.err(JsonErrorKind::DuplicateKey));
                    }
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            _ => Err(self.unexpected()),
        }
    }

    /// At an opening bracket: `one` parses each comma-separated member up to
    /// `close`.
    fn members(
        &mut self,
        close: u8,
        mut one: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            one(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte; all
            // three are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err(JsonErrorKind::ControlInString)),
                None => return Err(self.end()),
            }
        }
    }

    /// After `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let byte = self.peek().ok_or_else(|| self.end())?;
        self.pos += 1;
        Ok(match byte {
            b'"' | b'\\' | b'/' => byte as char,
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let lone = JsonError {
                    kind: JsonErrorKind::LoneSurrogate,
                    offset: at,
                };
                let code = match self.hex4()? {
                    high @ 0xd800..=0xdbff => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(lone);
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => return Err(lone),
                        }
                    }
                    other => other,
                };
                // Only an unpaired low surrogate is not a scalar value here.
                char::from_u32(code).ok_or(lone)?
            }
            _ => {
                self.pos = at;
                return Err(self.err(JsonErrorKind::BadEscape));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().ok_or_else(|| self.end())?;
            let digit = (digit as char)
                .to_digit(16)
                .ok_or_else(|| self.err(JsonErrorKind::BadEscape))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // No leading zeros: `0` stands alone.
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        let out_of_range = JsonError {
            kind: JsonErrorKind::NumberOutOfRange,
            offset: start,
        };
        if integral && !negative {
            return text.parse().map(Value::U64).map_err(|_| out_of_range);
        }
        if integral && text != "-0" {
            return text.parse().map(Value::I64).map_err(|_| out_of_range);
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::F64(v)),
            _ => Err(out_of_range),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQUEST: &str =
        r#"{"op":"source","ip":"10.0.0.1","year":2020,"x":[true,null,-3,1.5e-3,"a\né"]}"#;

    fn kind(text: &str) -> JsonErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn numbers_print_exactly_and_float_shaped() {
        let big = (1u64 << 53) + 1;
        assert_eq!(parse(&big.to_json().to_string()), Ok(Value::U64(big)));
        assert_eq!(parse(&i64::MIN.to_string()), Ok(Value::I64(i64::MIN)));
        for (value, text) in [
            (1.0, "1.0"),
            (1e-7, "1e-7"),
            (-0.0, "-0.0"),
            (0.1, "0.1"),
            (1e300, "1e300"),
        ] {
            assert_eq!(Value::F64(value).to_string(), text);
            let Value::F64(back) = parse(text).unwrap() else {
                panic!("{text} did not parse as a float")
            };
            assert_eq!(back.to_bits(), value.to_bits());
        }
        assert_eq!(parse("-0"), Ok(Value::F64(-0.0)));
        assert_eq!(Value::F64(f64::NAN).to_string(), "null");
        assert_eq!(Value::F64(f64::INFINITY).to_string(), "null");
        assert_eq!(
            kind("18446744073709551616"),
            JsonErrorKind::NumberOutOfRange
        );
        assert_eq!(kind("1e999"), JsonErrorKind::NumberOutOfRange);
        assert_eq!(kind("01"), JsonErrorKind::TrailingBytes);
        assert_eq!(kind("1."), JsonErrorKind::UnexpectedEnd);
    }

    #[test]
    fn pretty_and_compact_layout() {
        let value = object([
            ("a", vec![1u8, 2].to_json()),
            ("b", object([])),
            ("c", Vec::<u8>::new().to_json()),
            ("d", "q\"\\\u{1}".to_json()),
        ]);
        assert_eq!(
            value.to_string(),
            r#"{"a":[1,2],"b":{},"c":[],"d":"q\"\\\u0001"}"#
        );
        assert_eq!(
            value.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\": \"q\\\"\\\\\\u0001\"\n}"
        );
        assert_eq!(parse(&value.to_string_pretty()), Ok(value));
    }

    #[test]
    fn struct_macro_lists_fields_in_order() {
        struct Row {
            port: u16,
            share: f64,
            tool: Option<String>,
        }
        impl_to_json!(Row { port, share, tool });
        let row = Row {
            port: 23,
            share: 0.5,
            tool: None,
        };
        assert_eq!(
            row.to_json().to_string(),
            r#"{"port":23,"share":0.5,"tool":null}"#
        );
        let by_year = BTreeMap::from([(2016u16, (1u8, "x")), (2015, (2, "y"))]);
        assert_eq!(
            by_year.to_json().to_string(),
            r#"{"2015":[2,"y"],"2016":[1,"x"]}"#
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        assert!(parse(REQUEST).is_ok());
        for cut in 0..REQUEST.len() {
            if REQUEST.is_char_boundary(cut) {
                let err = parse(&REQUEST[..cut]).expect_err("a strict prefix is never a document");
                assert!(err.offset <= cut);
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        for at in 0..REQUEST.len() {
            for byte in [
                0u8, b'"', b'\\', b'{', b']', b',', b'9', b'-', 0x7f, 0x80, 0xff,
            ] {
                let mut bytes = REQUEST.as_bytes().to_vec();
                bytes[at] = byte;
                // Anything still UTF-8 must parse to a value that prints and
                // re-parses, or fail with an offset inside the input.
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    match parse(text) {
                        Ok(value) => assert_eq!(parse(&value.to_string()), Ok(value)),
                        Err(err) => assert!(err.offset <= text.len()),
                    }
                }
            }
        }
    }

    /// Keys `k0`, `k1`, … as many as fit an object of at most `limit` bytes.
    fn distinct_keys(limit: usize) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        let mut len = "{}".len() - ",".len();
        loop {
            let key = format!("k{}", keys.len());
            len += format!(",\"{key}\":0").len();
            if len > limit {
                return keys;
            }
            keys.push(key);
        }
    }

    fn object_of(keys: &[String]) -> String {
        let members: Vec<String> = keys.iter().map(|k| format!("\"{k}\":0")).collect();
        format!("{{{}}}", members.join(","))
    }

    #[test]
    fn an_object_filling_a_request_line_parses() {
        let keys = distinct_keys(crate::net::MAX_REQUEST_BYTES);
        let text = object_of(&keys);
        assert!(text.len() <= crate::net::MAX_REQUEST_BYTES && keys.len() > 6_000);
        let Ok(Value::Object(fields)) = parse(&text) else {
            panic!("a {}-byte object of distinct keys must parse", text.len())
        };
        assert_eq!(fields.len(), keys.len());
    }

    #[test]
    fn a_wide_object_repeating_its_first_key_last_fails_at_the_repeat() {
        let mut keys = distinct_keys(crate::net::MAX_REQUEST_BYTES);
        let last = keys.len() - 1;
        keys[last] = keys[0].clone();
        let text = object_of(&keys);
        assert_eq!(
            parse(&text),
            Err(JsonError {
                kind: JsonErrorKind::DuplicateKey,
                offset: text.rfind("\"k0\"").expect("the repeat"),
            })
        );
    }

    #[test]
    fn strictness() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(kind(&deep(MAX_DEPTH + 1)), JsonErrorKind::TooDeep);
        assert_eq!(
            parse(r#"{"a":1,"a":2}"#),
            Err(JsonError {
                kind: JsonErrorKind::DuplicateKey,
                offset: 7
            })
        );
        assert_eq!(kind("{} x"), JsonErrorKind::TrailingBytes);
        assert_eq!(kind(r#""\ud800""#), JsonErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\udc00""#), JsonErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\ud800A""#), JsonErrorKind::LoneSurrogate);
        assert_eq!(
            parse(r#""\ud83d\ude00""#),
            Ok(Value::Str("\u{1f600}".into()))
        );
        assert_eq!(kind(r#""\x""#), JsonErrorKind::BadEscape);
        assert_eq!(kind("\"a\tb\""), JsonErrorKind::ControlInString);
        assert_eq!(kind("[1,]"), JsonErrorKind::UnexpectedByte(b']'));
        assert_eq!(kind("nul"), JsonErrorKind::UnexpectedEnd);
        assert_eq!(kind(""), JsonErrorKind::UnexpectedEnd);
    }
}
