//! The workspace's one JSON document codec (it stands in for
//! `serde_json`; the build has no registry dependencies). Every persisted
//! document goes through it: experiment results, audit, health and
//! metrics artifacts, the stage profile and the `BENCH_*` documents. The
//! JSONL trace line keeps its own allocation-free codec on
//! [`crate::TraceEvent`].
//!
//! - **Objects keep key order** (`Vec<(String, Value)>`, not a map), and
//!   an integral literal that fits `i64` parses as [`Value::Int`], any
//!   other number as [`Value::Num`].
//! - **One float rule.** `-0.0` prints as `0.0`, non-finite values as
//!   `null`, integral values with `|x| < 1e15` with a trailing `.0` (so
//!   a float reads back as a float), everything else as Rust's shortest
//!   round-trip form.
//! - **Two layouts.** [`Value::pretty`] indents by two spaces with `": "`
//!   after keys; [`Value::compact`] has no whitespace. Neither appends a
//!   newline.
//! - **Strict input.** [`parse`] refuses trailing garbage, `\u` escapes
//!   that are not four hex digits, numbers that overflow `f64`, and
//!   nesting deeper than [`MAX_DEPTH`] (a [`ParseError`], never a stack
//!   overflow).

use std::fmt::Write as _;

/// Deepest array/object nesting `parse` accepts. Every document the
/// workspace writes nests a handful of levels; the bound keeps the
/// recursive descent far inside the smallest thread stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number that fits `i64` (sync indices, seeds, counts).
    Int(i64),
    /// Any other number. Non-finite values print as `null`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, **in key order as written**.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Num` both read as `f64`; `Null` reads as
    /// NaN (the printers write non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Non-negative integer view (ids, nanosecond timestamps, ordinals).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Look up an object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Print with two-space indentation, `": "` after keys, one element
    /// per line, and no trailing newline. Empty containers print as `[]`
    /// and `{}`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Print with no whitespace at all.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the current depth when pretty-printing, `None` when
    /// compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => write_num(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_seq(out, indent, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Value::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_seq(out, indent, ['{', '}'], fields);
            }
        }
    }
}

/// An array (keys `None`) or object body between `brackets`.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    out.push(brackets[0]);
    let empty = items.len() == 0;
    let inner = indent.map(|d| d + 1);
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        v.write(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// The one float rule (see the module docs).
fn write_num(out: &mut String, x: f64) {
    // IEEE-754 `-0.0 + 0.0` is `+0.0`: the sign of zero never reaches a
    // document.
    let x = x + 0.0;
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// The one string escaper: `"`, `\`, `\n`, `\r`, `\t` by name, other
/// control characters as `\u00XX`, everything else verbatim.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Value`] (the workspace's stand-in for
/// `serde::Serialize`).
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// `ToJson` for leaf types: bind `&self` to `$x`, build the value.
macro_rules! leaf_to_json {
    ($($ty:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                let $x = self;
                $value
            }
        }
    )*};
}

leaf_to_json!(
    f64 => |x| Value::Num(*x),
    bool => |x| Value::Bool(*x),
    i64 => |x| Value::Int(*x),
    u32 => |x| Value::Int(i64::from(*x)),
    u64 => |x| Value::Int(*x as i64),
    usize => |x| Value::Int(*x as i64),
    String => |x| Value::Str(x.clone()),
    &str => |x| Value::Str(x.to_string()),
);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

/// Implement [`ToJson`](crate::json::ToJson) for a struct by listing its
/// fields, in output order:
///
/// ```ignore
/// obs::json_struct!(Row { sync, cap_w, slack });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse `input` as exactly one JSON value (leading/trailing whitespace
/// allowed, anything else after the value is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { msg: msg.to_string(), offset: self.pos }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if matches!(self.peek(), Some(b'[' | b'{')) {
            if self.depth == MAX_DEPTH {
                return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
            }
            self.depth += 1;
            let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
            self.depth -= 1;
            return v;
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("valid utf8"));
                    self.pos = end;
                }
            }
        }
    }

    /// Exactly four ASCII hex digits (no sign, no shorter run).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.bytes.get(self.pos..self.pos + 4).unwrap_or_default();
        if digits.len() < 4 {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &d in digits {
            let nibble =
                (d as char).to_digit(16).ok_or_else(|| self.err("bad hex in \\u escape"))?;
            v = v * 16 + nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first_digit = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[first_digit] == b'0' {
            return Err(ParseError { msg: "leading zero".to_string(), offset: start });
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            Ok(_) => Err(ParseError { msg: "number overflows f64".to_string(), offset: start }),
            Err(_) => Err(ParseError { msg: "invalid number".to_string(), offset: start }),
        }
    }

    /// Consume one-or-more ASCII digits; returns how many.
    fn digits(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected digit"))
        } else {
            Ok(self.pos - start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::rng::Rng;

    // --- printers ---

    #[test]
    fn scalars_render() {
        assert_eq!(Value::Null.pretty(), "null");
        assert_eq!(Value::Bool(true).pretty(), "true");
        assert_eq!(Value::Int(-3).pretty(), "-3");
        assert_eq!(Value::Num(1.5).pretty(), "1.5");
        assert_eq!(Value::Num(2.0).pretty(), "2.0");
        assert_eq!(Value::Num(f64::NAN).pretty(), "null");
        assert_eq!(Value::Str("a\"b".into()).pretty(), "\"a\\\"b\"");
    }

    #[test]
    fn float_rule() {
        let num = |x: f64| Value::Num(x).compact();
        assert_eq!(num(-0.0), "0.0");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(-7.0), "-7.0");
        assert_eq!(num(1e15 - 1.0), "999999999999999.0");
        assert_eq!(num(1e15), "1000000000000000");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(1e-7), "0.0000001");
        // Read back, zero has lost its sign and an integral float is
        // still a `Num`.
        let back = parse(&[-0.0, 3.0, f64::NAN].to_vec().to_json().pretty()).unwrap();
        assert_eq!(format!("{back:?}"), "Arr([Num(0.0), Num(3.0), Null])");
    }

    #[test]
    fn nested_pretty_format() {
        let v = Value::obj([
            ("name", Value::Str("x".into())),
            ("vals", Value::Arr(vec![Value::Int(1), Value::Int(2)])),
        ]);
        assert_eq!(v.pretty(), "{\n  \"name\": \"x\",\n  \"vals\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(v.compact(), "{\"name\":\"x\",\"vals\":[1,2]}");
    }

    #[test]
    fn empty_containers() {
        for v in [Value::Arr(vec![]), Value::Obj(vec![])] {
            assert_eq!(v.pretty(), v.compact());
        }
        assert_eq!(Value::Arr(vec![]).pretty(), "[]");
        assert_eq!(Value::Obj(vec![]).pretty(), "{}");
        let v = Value::obj([("a", Value::Arr(vec![])), ("b", Value::Obj(vec![]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }

    #[test]
    fn strings_escape() {
        let v = Value::Str("q\"b\\n\nr\rt\tc\u{1}é\u{1F600}".into());
        assert_eq!(v.compact(), "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001é\u{1F600}\"");
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn struct_macro_preserves_field_order() {
        struct Row {
            b: f64,
            a: u64,
            n: Option<u64>,
        }
        crate::json_struct!(Row { b, a, n });
        let j = Row { b: 0.5, a: 7, n: None }.to_json();
        assert_eq!(j.pretty(), "{\n  \"b\": 0.5,\n  \"a\": 7,\n  \"n\": null\n}");
    }

    #[test]
    fn output_is_deterministic() {
        let v = vec![1.0f64, 2.5, 3.25];
        assert_eq!(v.to_json().pretty(), v.to_json().pretty());
    }

    // --- parser ---

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn objects_preserve_key_order() {
        let v = parse("{\"b\":1,\"a\":2}").unwrap();
        let fields = v.as_obj().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse("{\"xs\":[1,2.0,null],\"o\":{\"k\":true}}").unwrap();
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("o").unwrap().get("k").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn escapes_resolve() {
        assert_eq!(parse("\"a\\n\\t\\\"\\\\b\"").unwrap(), Value::Str("a\n\t\"\\b".to_string()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".to_string()));
        assert_eq!(parse("\"\\u00e9\\u00E9\"").unwrap(), Value::Str("éé".to_string()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), Value::Str("\u{1F600}".to_string()));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u04g1\"", "\"\\u041\""] {
            let e = parse(bad).unwrap_err();
            assert!(e.msg.contains("\\u escape"), "{bad}: {e}");
        }
        assert!(parse("\"\\uD83D\\u+E00\"").is_err(), "signed low surrogate");
        assert!(parse("\"\\u00").is_err(), "truncated at end of input");
    }

    #[test]
    fn overflowing_numbers_are_refused() {
        for bad in ["1e400", "-1e400", "[1.5e309]"] {
            let e = parse(bad).unwrap_err();
            assert!(e.msg.contains("overflows"), "{bad}: {e}");
        }
        // Underflow to zero and the largest finite value still parse.
        assert_eq!(parse("1e-400").unwrap(), Value::Num(0.0));
        assert_eq!(parse("1.7976931348623157e308").unwrap(), Value::Num(f64::MAX));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn malformed_inputs_report_offsets() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("{\"a\"1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"\\uD83D\"").is_err(), "unpaired surrogate");
        assert!(parse("01").is_err(), "leading zero");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn null_reads_as_nan_number() {
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn int_float_distinction() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.0").unwrap().as_u64(), None);
        assert_eq!(parse("3.0").unwrap().as_f64(), Some(3.0));
        // Too big for i64 falls back to float.
        assert!(matches!(parse("99999999999999999999").unwrap(), Value::Num(_)));
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo → ok\"").unwrap(), Value::Str("héllo → ok".to_string()));
    }

    // --- seeded round-trip property ---

    /// Characters chosen to stress the escaper: quotes, backslashes,
    /// every named escape, raw control characters, multi-byte and
    /// non-BMP scalars.
    const CHARS: &[char] =
        &['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '→', '😀'];

    fn random_f64(rng: &mut Rng) -> f64 {
        match rng.next_below(8) {
            0 => {
                [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_below(5) as usize]
            }
            1 => (rng.next_below(2001) as f64 - 1000.0) * 10f64.powi(rng.next_below(18) as i32),
            2 => f64::from_bits(rng.next_u64()),
            _ => rng.uniform(-1e6, 1e6),
        }
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        let leaf = depth >= 4 || rng.next_below(3) == 0;
        match rng.next_below(if leaf { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_below(2) == 1),
            2 => Value::Int(rng.next_u64() as i64 >> rng.next_below(64)),
            3 => Value::Num(random_f64(rng)),
            4 => Value::Str(random_string(rng)),
            5 => Value::Arr((0..rng.next_below(4)).map(|_| random_value(rng, depth + 1)).collect()),
            _ => Value::Obj(
                (0..rng.next_below(4))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.next_below(6)).map(|_| CHARS[rng.next_below(CHARS.len() as u64) as usize]).collect()
    }

    /// What a value reads back as: non-finite floats become `null`,
    /// `-0.0` becomes `0.0`, and an integral float too large for the
    /// `.0` rule becomes an `Int` when it fits one.
    fn canonical(v: &Value) -> Value {
        match v {
            Value::Num(x) if !x.is_finite() => Value::Null,
            Value::Num(x) if *x == x.trunc() && x.abs() >= 1e15 => {
                format!("{x}").parse::<i64>().map_or(Value::Num(*x), Value::Int)
            }
            Value::Num(x) => Value::Num(x + 0.0),
            Value::Arr(items) => Value::Arr(items.iter().map(canonical).collect()),
            Value::Obj(fields) => {
                Value::Obj(fields.iter().map(|(k, v)| (k.clone(), canonical(v))).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn print_parse_round_trip_is_canonical_and_a_fixed_point() {
        let mut rng = Rng::seed_from_u64(0x15_0A);
        for case in 0..4000 {
            let v = random_value(&mut rng, 0);
            let want = canonical(&v);
            for (layout, print) in
                [("pretty", Value::pretty as fn(&Value) -> String), ("compact", Value::compact)]
            {
                let text = print(&v);
                let back =
                    parse(&text).unwrap_or_else(|e| panic!("case {case} {layout}: {e}\n{text}"));
                // Debug output tells `0.0` from `-0.0`, so this is bitwise.
                assert_eq!(
                    format!("{back:?}"),
                    format!("{want:?}"),
                    "case {case} {layout}: {text}"
                );
                assert_eq!(print(&back), text, "case {case} {layout}: not a fixed point");
            }
        }
    }

    #[test]
    fn nesting_at_max_depth_round_trips_and_one_more_is_refused() {
        let nest = |depth: usize| {
            (0..depth).fold(Value::Int(1), |inner, i| {
                if i % 2 == 0 {
                    Value::Arr(vec![inner])
                } else {
                    Value::obj([("k", inner)])
                }
            })
        };
        let at_limit = nest(MAX_DEPTH);
        for text in [at_limit.pretty(), at_limit.compact()] {
            assert_eq!(parse(&text).unwrap(), at_limit);
        }
        for text in [nest(MAX_DEPTH + 1).pretty(), nest(MAX_DEPTH + 1).compact()] {
            let e = parse(&text).unwrap_err();
            assert!(e.msg.contains("nesting"), "{e}");
        }
    }
}
