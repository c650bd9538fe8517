//! A minimal JSON value, parser and writer, plus derive-free conversion
//! traits ([`ToJson`] / [`FromJson`]) and impl-generating macros.
//!
//! This replaces serde/serde_json for the workspace's needs: persisting
//! fitted estimators, measurement databases and cluster specs, and
//! round-tripping them in tests. Numbers are `f64` (every quantity in
//! the model pipeline is), and floats are written with Rust's
//! shortest-round-trip formatting so `parse(write(x)) == x` exactly.
//! Non-finite floats serialize as `null` — the model-validity audit bans
//! them from ever reaching a writer.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Errors from parsing or from [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up `name` in an object and converts it.
    ///
    /// # Errors
    /// Fails if `self` is not an object, the key is missing, or the
    /// value does not convert to `T`.
    pub fn field<T: FromJson>(&self, name: &str) -> Result<T, JsonError> {
        match self {
            Json::Obj(pairs) => match pairs.iter().find(|(k, _)| k == name) {
                Some((_, v)) => T::from_json(v)
                    .map_err(|e| JsonError::new(format!("field '{name}': {}", e.message))),
                None => Err(JsonError::new(format!("missing field '{name}'"))),
            },
            other => Err(JsonError::new(format!(
                "expected object with field '{name}', got {}",
                other.kind()
            ))),
        }
    }

    /// Like [`Json::field`], but a missing key yields `T::default()`
    /// (the analogue of `#[serde(default)]`).
    ///
    /// # Errors
    /// Fails if `self` is not an object or a present value does not
    /// convert.
    pub fn field_or_default<T: FromJson + Default>(&self, name: &str) -> Result<T, JsonError> {
        match self {
            Json::Obj(pairs) => match pairs.iter().find(|(k, _)| k == name) {
                Some((_, v)) => T::from_json(v)
                    .map_err(|e| JsonError::new(format!("field '{name}': {}", e.message))),
                None => Ok(T::default()),
            },
            other => Err(JsonError::new(format!(
                "expected object with field '{name}', got {}",
                other.kind()
            ))),
        }
    }

    /// Short name of the value's kind, for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Conversion of a value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion of a [`Json`] tree back into a value.
pub trait FromJson: Sized {
    /// Reads the value from its JSON representation.
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, None, 0);
    out
}

/// Serializes a value with two-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, Some(2), 0);
    out
}

/// Parses a string into a typed value.
///
/// # Errors
/// Returns a [`JsonError`] on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Parses a string into a [`Json`] tree.
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

// ---------------------------------------------------------------- writer

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the audit layer keeps these from models.
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        // Integral values without the trailing ".0" Rust would print.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        // Rust's shortest round-trip float formatting is valid JSON.
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
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
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parser

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| Json::Null),
            Some(b't') => self.eat_literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            s.push(cp);
                            continue; // unicode_escape advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at the 'u'.
        let hex4 = |p: &Self, at: usize| -> Result<u32, JsonError> {
            let slice = p
                .bytes
                .get(at..at + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(slice).map_err(|_| p.err("bad \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| p.err("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let lo = hex4(self, self.pos + 2)?;
                self.pos += 6;
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

// ---------------------------------------------------- primitive impls

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(*n),
            // A non-finite float was written as null; read it back as NaN
            // so the invariant checks can flag it rather than erroring
            // out of the parse.
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! int_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) if n.fract() == 0.0 => {
                        let min = <$ty>::MIN as f64;
                        let max = <$ty>::MAX as f64;
                        if *n >= min && *n <= max {
                            Ok(*n as $ty)
                        } else {
                            Err(JsonError::new(format!(
                                "{n} out of range for {}",
                                stringify!($ty)
                            )))
                        }
                    }
                    other => Err(JsonError::new(format!(
                        "expected integer, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )+};
}

int_json!(usize, u64, u32, i64, i32);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::new(format!("expected array of {N}, got {len}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::new(format!(
                "expected 2-element array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs: Vec<(K, V)> = Vec::from_json(v)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Generates [`ToJson`] / [`FromJson`] for a struct with named fields —
/// the replacement for `#[derive(Serialize, Deserialize)]`.
///
/// ```
/// use etm_support::json_struct;
///
/// #[derive(PartialEq, Debug)]
/// struct Point { x: f64, y: f64 }
/// json_struct!(Point { x, y });
///
/// let p = Point { x: 1.5, y: -2.0 };
/// let text = etm_support::json::to_string(&p);
/// assert_eq!(etm_support::json::from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: v.field(stringify!($field))?),+
                })
            }
        }
    };
}

/// Generates [`ToJson`] / [`FromJson`] for a fieldless enum, serialized
/// as the variant name string.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(
                    match self {
                        $(Self::$variant => stringify!($variant)),+
                    }
                    .to_string(),
                )
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let s: String = $crate::json::FromJson::from_json(v)?;
                match s.as_str() {
                    $(stringify!($variant) => Ok(Self::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant '{other}'",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_string()));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "1 2", "{1: 2}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            2e-9,
            6.02e23,
            -0.000123456789,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
        ] {
            let text = to_string(&x);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn non_finite_becomes_null_then_nan() {
        let text = to_string(&f64::NAN);
        assert_eq!(text, "null");
        let back: f64 = from_str(&text).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn nested_collections_round_trip() {
        let v: Vec<(usize, Vec<f64>)> = vec![(1, vec![1.5, 2.5]), (2, vec![])];
        let text = to_string(&v);
        let back: Vec<(usize, Vec<f64>)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{1F980}control\u{1}".to_string();
        let text = to_string(&s);
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let v: String = from_str("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(v, "\u{1F980}");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".to_string(), Json::Obj(vec![])),
        ]);
        let text = to_string_pretty(&v);
        assert!(text.contains('\n'));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn option_and_map() {
        let mut m = BTreeMap::new();
        m.insert(3usize, Some(1.25f64));
        m.insert(7usize, None);
        let text = to_string(&m);
        let back: BTreeMap<usize, Option<f64>> = from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn integer_bounds_checked() {
        assert!(from_str::<usize>("-1").is_err());
        assert!(from_str::<usize>("1.5").is_err());
        assert_eq!(from_str::<usize>("42").unwrap(), 42);
    }
}
