//! A minimal JSON parser, writer and typed codec for the telemetry/bench
//! tooling.
//!
//! The workspace is dependency-free by design, but the bench pipeline needs
//! to read and write JSON: `BENCH_*.json` reports, the replayable JSONL
//! journals ([`crate::journal`]), and exporter output checked by tests.
//! This module implements just enough of RFC 8259 for those uses: the full
//! value grammar, string escapes (including `\uXXXX` with surrogate pairs),
//! and numbers parsed as `f64`.
//!
//! It is a *strict* parser — trailing garbage, trailing commas, unquoted
//! keys, and control characters inside strings are errors — so round-trip
//! tests against our own serializers also guard the serializers.
//!
//! Writing goes through [`Value`]'s `Display`: `{}` is compact (one JSONL
//! line), `{:#}` is indented (a `BENCH_*.json` file). The [`Json`] trait
//! gives a type one encoding used both ways, and [`json_struct!`] derives
//! it from a list that names each field once.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; JSON does not distinguish integers from floats.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keyed by a sorted map: key order is not significant in
    /// JSON and sorted keys make test assertions deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        s: input,
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.i,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate must
                                // follow to form one supplementary character.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) if c < 0x80 => {
                    s.push(c as char);
                    self.i += 1;
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar; `self.i` always sits on
                    // a char boundary (input is &str), so slicing is safe
                    // and decoding is O(1) per char.
                    let ch = self.s[self.i..].chars().next().unwrap();
                    s.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.i += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: a lone 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Compact JSON with `{}`; with `{:#}`, two-space indentation where a
/// container holds another container (scalar-only containers stay on one
/// line). Non-finite numbers are written as `0`: JSON has no NaN/Infinity.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        write_value(f, self, indent)
    }
}

fn write_value(out: &mut dyn fmt::Write, v: &Value, indent: Option<usize>) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Num(n) if n.is_finite() => write!(out, "{n}"),
        Value::Num(_) => out.write_str("0"),
        Value::Str(s) => write!(out, "\"{}\"", crate::telemetry::json_escape(s)),
        Value::Arr(a) => write_seq(out, "[]", a.iter().map(|v| (None, v)), indent),
        Value::Obj(m) => write_seq(out, "{}", m.iter().map(|(k, v)| (Some(k), v)), indent),
    }
}

fn write_seq<'a>(
    out: &mut dyn fmt::Write,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a String>, &'a Value)> + Clone,
    indent: Option<usize>,
) -> fmt::Result {
    // Pretty mode breaks lines only around nested non-empty containers.
    let nested = indent.filter(|_| {
        items.clone().any(|(_, v)| match v {
            Value::Arr(a) => !a.is_empty(),
            Value::Obj(m) => !m.is_empty(),
            _ => false,
        })
    });
    let (comma, colon) = match (indent, nested) {
        (None, _) => (",", ":"),
        (Some(_), None) => (", ", ": "),
        (Some(_), Some(_)) => (",", ": "),
    };
    out.write_str(&brackets[..1])?;
    for (i, (k, v)) in items.enumerate() {
        if i > 0 {
            out.write_str(comma)?;
        }
        if let Some(d) = nested {
            write!(out, "\n{:w$}", "", w = 2 * d + 2)?;
        }
        if let Some(k) = k {
            write!(out, "\"{}\"{colon}", crate::telemetry::json_escape(k))?;
        }
        write_value(out, v, indent.map(|d| d + 1))?;
    }
    if let Some(d) = nested {
        write!(out, "\n{:w$}", "", w = 2 * d)?;
    }
    out.write_str(&brackets[1..])
}

// ---------------------------------------------------------------------------
// Typed codec
// ---------------------------------------------------------------------------

/// A type with one JSON encoding, used both to write and to read it.
pub trait Json: Sized {
    /// This value as JSON.
    fn encode(&self) -> Value;
    /// Reads [`Json::encode`] output back; wrong types are errors, never
    /// coerced.
    fn decode(v: &Value) -> Result<Self, String>;
}

fn expected(what: &str, v: &Value) -> String {
    format!("expected {what}, got {v}")
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn encode(&self) -> Value {
                Value::Num(*self as f64)
            }
            fn decode(v: &Value) -> Result<$t, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| expected(concat!("an integer in ", stringify!($t)), v))
            }
        }
    )*};
}

json_uint!(u16, u32, u64, usize);

impl Json for f64 {
    fn encode(&self) -> Value {
        Value::Num(*self)
    }
    fn decode(v: &Value) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| expected("a number", v))
    }
}

impl Json for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
    fn decode(v: &Value) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| expected("a boolean", v))
    }
}

impl Json for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }
    fn decode(v: &Value) -> Result<String, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("a string", v))
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }
    fn decode(v: &Value) -> Result<Option<T>, String> {
        match v {
            Value::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn encode(&self) -> Value {
        Value::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Value) -> Result<Vec<T>, String> {
        let items = v.as_arr().ok_or_else(|| expected("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, x)| T::decode(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// No fields: the empty object.
impl Json for () {
    fn encode(&self) -> Value {
        Value::Obj(BTreeMap::new())
    }
    fn decode(_: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// A pair is a two-element array.
impl<A: Json, B: Json> Json for (A, B) {
    fn encode(&self) -> Value {
        Value::Arr(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(v: &Value) -> Result<(A, B), String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err(expected("a pair", v)),
        }
    }
}

/// A value that travels bit-exactly as its 64-bit pattern, written as a
/// 16-digit hex string because a JSON number carries only 53 bits: key
/// digests, `f64`s (NaN and infinities included) and picosecond times.
pub trait Bits: Copy {
    /// The bit pattern.
    fn bits(self) -> u64;
    /// Inverse of [`Bits::bits`].
    fn from_bits(bits: u64) -> Self;
}

impl Bits for u64 {
    fn bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

impl Bits for nba_sim::Time {
    fn bits(self) -> u64 {
        self.as_ps()
    }
    fn from_bits(bits: u64) -> nba_sim::Time {
        nba_sim::Time::from_ps(bits)
    }
}

/// `x` as its [`Bits`] hex pattern.
pub fn bits_value<T: Bits>(x: T) -> Value {
    Value::Str(format!("{:016x}", x.bits()))
}

/// The typed field `key` of object `v`; a missing key is an error.
pub fn field<T: Json>(v: &Value, key: &str) -> Result<T, String> {
    let m = v.as_obj().ok_or_else(|| expected("an object", v))?;
    let x = m.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
    T::decode(x).map_err(|e| format!("{key}: {e}"))
}

/// The typed field `key` of object `v`, or `None` when the key is absent.
pub fn opt_field<T: Json>(v: &Value, key: &str) -> Result<Option<T>, String> {
    v.get(key)
        .map(|x| T::decode(x).map_err(|e| format!("{key}: {e}")))
        .transpose()
}

/// The [`Bits`] field `key` of object `v`, read back from its hex pattern.
pub fn bits_field<T: Bits>(v: &Value, key: &str) -> Result<T, String> {
    let hex: String = field(v, key)?;
    match u64::from_str_radix(&hex, 16) {
        Ok(bits) if hex.len() == 16 => Ok(T::from_bits(bits)),
        _ => Err(format!("{key}: expected 16 hex digits, got {hex:?}")),
    }
}

/// Implements [`Json`] for a struct as an object keyed by its field names,
/// each named once:
///
/// ```text
/// json_struct! { T { a, b } bits { c } omit_none { d } flatten { e } }
/// ```
///
/// `bits` fields travel as [`Bits`] hex patterns; `omit_none` fields are
/// `Option`s whose key is left out when `None`; `flatten` fields write
/// their own keys into this object and read them back from it.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($f:ident),* $(,)? }
     $(bits { $($b:ident),* $(,)? })?
     $(omit_none { $($o:ident),* $(,)? })?
     $(flatten { $($fl:ident),* $(,)? })?) => {
        impl $crate::json::Json for $ty {
            fn encode(&self) -> $crate::json::Value {
                let mut m = ::std::collections::BTreeMap::new();
                $(m.insert(stringify!($f).to_owned(), $crate::json::Json::encode(&self.$f));)*
                $($(m.insert(stringify!($b).to_owned(), $crate::json::bits_value(self.$b));)*)?
                $($(if let Some(x) = &self.$o {
                    m.insert(stringify!($o).to_owned(), $crate::json::Json::encode(x));
                })*)?
                $($(if let $crate::json::Value::Obj(inner) = $crate::json::Json::encode(&self.$fl) {
                    m.extend(inner);
                })*)?
                $crate::json::Value::Obj(m)
            }
            fn decode(v: &$crate::json::Value) -> Result<Self, String> {
                Ok(Self {
                    $($f: $crate::json::field(v, stringify!($f))?,)*
                    $($($b: $crate::json::bits_field(v, stringify!($b))?,)*)?
                    $($($o: $crate::json::opt_field(v, stringify!($o))?,)*)?
                    $($($fl: $crate::json::Json::decode(v)?,)*)?
                })
            }
        }
    };
}

/// Implements [`Json`] for a type with `as_str` / `parse` wire names (a
/// unit-variant enum) as a JSON string.
#[macro_export]
macro_rules! json_enum {
    ($ty:ty) => {
        impl $crate::json::Json for $ty {
            fn encode(&self) -> $crate::json::Value {
                $crate::json::Value::Str(self.as_str().to_owned())
            }
            fn decode(v: &$crate::json::Value) -> Result<Self, String> {
                <$ty>::parse(&<String as $crate::json::Json>::decode(v)?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("d"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair: U+1F600.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"\\ud800\"").is_err()); // lone surrogate
        assert!(parse("nulL").is_err());
    }

    #[test]
    fn writer_round_trips_compact_and_indented() {
        let text = r#"{"a":[1,-2.5,{"b":null}],"c":"q\"\n","d":{},"e":[true]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        let pretty = format!("{v:#}");
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    -2.5,\n    {\"b\": null}\n  ],\n  \"c\": \"q\\\"\\n\",\n  \"d\": {},\n  \"e\": [true]\n}"
        );
        assert_eq!(parse(&pretty).unwrap(), v);
        assert_eq!(Value::Num(f64::NAN).to_string(), "0");
    }

    #[test]
    fn typed_fields_are_strict_and_bits_are_exact() {
        let v = parse(r#"{"n":3,"neg":-1,"frac":1.5,"s":"true","big":70000}"#).unwrap();
        assert_eq!(field::<u64>(&v, "n"), Ok(3));
        for key in ["neg", "frac", "s"] {
            assert!(field::<u64>(&v, key).is_err(), "{key}");
        }
        assert!(field::<bool>(&v, "s").is_err());
        assert!(field::<u16>(&v, "big").is_err(), "out of range");
        assert!(field::<u64>(&v, "missing").is_err());
        assert_eq!(opt_field::<u64>(&v, "missing"), Ok(None));
        for x in [f64::NAN, -0.0, f64::INFINITY, 0.1 + 0.2] {
            let w =
                parse(&Value::Obj([("x".to_owned(), bits_value(x))].into()).to_string()).unwrap();
            assert_eq!(bits_field::<f64>(&w, "x").unwrap().to_bits(), x.to_bits());
        }
        assert!(bits_field::<u64>(&parse(r#"{"x":"+1"}"#).unwrap(), "x").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }
}
