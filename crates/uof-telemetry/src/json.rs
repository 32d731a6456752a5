//! The workspace's one JSON writer and parser.
//!
//! Everything production code writes as JSON goes through the byte-level
//! writers here: the reach-api frame codec ([`push_u64`], [`push_string`]),
//! the trace sink (one line per span) and [`Value::to_json_string`] (the
//! lint CLI's `--format json`, `trace-report --format json` and the
//! `BENCH_*.json` reports). They render bytes exactly as `serde_json`
//! does: no whitespace, integers in decimal, an `f64` by its shortest
//! round-trip `Display` when finite and as `null` otherwise, and strings
//! with `\"`, `\\`, `\n`, `\r`, `\t`, `\b`, `\f` and `\u00xx` for the other
//! control characters, everything else — non-ASCII included — raw.
//!
//! Everything production code reads as JSON goes through one lexer, the
//! zero-copy [`Cursor`] (JSON's exact grammar, nesting capped at
//! [`MAX_DEPTH`]): the reach-api frame decoder reads its schema straight
//! off it, and [`parse`] builds a [`Value`] tree on it that keeps object
//! members in source order and numbers as their raw text, so
//! `emit(parse(text)) == text` for canonical input.

use std::borrow::Cow;
use std::io::Write as _;

/// Deepest container nesting the parser (and the reach-api frame decoder)
/// accepts; the outermost array or object is depth 1. The same limit as
/// `serde_json`'s recursion limit.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text for exact round-tripping.
    Num(String),
    /// A string (decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Serializes canonically: no whitespace, members in stored order,
    /// strings escaped by [`push_string`].
    pub fn to_json_string(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        // Every writer appends whole UTF-8 sequences, so this never fails.
        String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into())
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(true) => out.extend_from_slice(b"true"),
            Value::Bool(false) => out.extend_from_slice(b"false"),
            Value::Num(raw) => out.extend_from_slice(raw.as_bytes()),
            Value::Str(s) => push_string(out, s),
            Value::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Value::Obj(members) => {
                out.push(b'{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    push_string(out, key);
                    out.push(b':');
                    value.write(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Convenience constructor for an integer.
    pub fn int(n: usize) -> Value {
        Value::Num(n.to_string())
    }

    /// An object from `(key, value)` members, in the given order.
    pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::int(n)
    }
}

/// A finite `f64` as its shortest round-trip `Display`; `NaN` and the
/// infinities as `null`.
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        if f.is_finite() {
            Value::Num(f.to_string())
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

// ---------------------------------------------------------------- writing

/// Appends `n` in decimal ASCII.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `n` in decimal ASCII, with a leading `-` when negative.
#[inline]
pub fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Appends a finite `f64` as its shortest round-trip `Display` (so it
/// parses back bit-identical), and `null` for `NaN` and the infinities.
#[inline]
pub fn push_f64(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{f}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends `s` as a JSON string: `"`, `\` and control characters escaped
/// (short forms where JSON has them, `\u00xx` otherwise), everything else
/// copied in runs.
#[inline]
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                unicode =
                    [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(short);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

// ---------------------------------------------------------------- parsing

/// Parses a JSON document whose numbers are all integers (every numeric
/// field of the lint report is a line, column or count).
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, String> {
    parse_with(text, false)
}

/// Parses a JSON document, additionally accepting fractional and exponent
/// number forms (`1.5`, `2e9`). Trace fields may carry `f64` values, so the
/// `trace-report` reader cannot use the integer-only [`parse`]; the raw
/// number text is still preserved verbatim for exact re-emission.
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
pub fn parse_lenient(text: &str) -> Result<Value, String> {
    parse_with(text, true)
}

fn parse_with(text: &str, fractions: bool) -> Result<Value, String> {
    let mut c = Cursor::new(text.as_bytes());
    c.ws();
    let value = build(&mut c, text, 0, fractions).map_err(|e| e.to_string())?;
    c.end().map_err(|e| e.to_string())?;
    Ok(value)
}

/// Builds the value under the cursor, which sits inside `depth` open
/// containers.
fn build(c: &mut Cursor<'_>, text: &str, depth: usize, fractions: bool) -> Result<Value, LexError> {
    match c.peek() {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(LexError::TooDeep),
        Some(b'{') => {
            let mut members = Vec::new();
            c.object(|c, key| -> Result<(), LexError> {
                members.push((key.to_string(), build(c, text, depth + 1, fractions)?));
                Ok(())
            })?;
            Ok(Value::Obj(members))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            c.array(|c| -> Result<(), LexError> {
                items.push(build(c, text, depth + 1, fractions)?);
                Ok(())
            })?;
            Ok(Value::Arr(items))
        }
        Some(b'"') => Ok(Value::Str(c.string()?.into_owned())),
        Some(b'-' | b'0'..=b'9') => {
            let start = c.pos;
            // The lint report is integer-only; reject fractions so a
            // malformed document cannot silently round-trip differently.
            if let (Number::Float(_), false) = (c.number()?, fractions) {
                return Err(LexError::Syntax(format!("non-integer number at byte {start}")));
            }
            // A number token is ASCII, so both ends are character boundaries.
            Ok(Value::Num(text[start..c.pos].to_string()))
        }
        _ if c.literal(b"null") => Ok(Value::Null),
        _ if c.literal(b"true") => Ok(Value::Bool(true)),
        _ if c.literal(b"false") => Ok(Value::Bool(false)),
        _ => Err(c.syntax("a value")),
    }
}

/// Why a [`Cursor`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// Not JSON: what was expected, and at which byte.
    Syntax(String),
    /// A string holds raw bytes that are not UTF-8, or a `\u` escape that
    /// names a lone surrogate.
    InvalidUtf8 {
        /// Byte offset of the offending sequence.
        at: usize,
    },
    /// Containers nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LexError::Syntax(m) => f.write_str(m),
            LexError::InvalidUtf8 { at } => {
                write!(f, "invalid UTF-8 or lone surrogate at byte {at}")
            }
            LexError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for LexError {}

/// A number token, classified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Digits only, with an optional minus sign.
    Int {
        /// Whether a minus sign came first (`-0` included).
        negative: bool,
        /// The digits' value; `None` past `u64::MAX`.
        value: Option<u64>,
    },
    /// A number with a fraction or an exponent.
    Float(f64),
}

/// A zero-copy cursor over one JSON text: the workspace's one JSON lexer.
///
/// It follows JSON's grammar exactly: no leading zeros, digits required
/// after `-`, `.` and an exponent marker, exactly four hex digits in a `\u`
/// escape, no raw control characters in strings, surrogate pairs joined and
/// lone surrogates refused. Readers of a value start on its first byte;
/// whitespace is skipped by the container that holds it. Strings are
/// borrowed from the input unless they hold escapes, and plain runs are
/// validated and copied whole, so a string costs O(its length).
///
/// [`parse`] builds a [`Value`] tree on it; the reach-api frame decoder
/// reads its schema straight off it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The next byte, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it comes next.
    #[inline]
    pub fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `word` if it comes next.
    #[inline]
    pub fn literal(&mut self, word: &[u8]) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word);
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// A syntax error: `expected` was expected at the cursor.
    #[inline]
    pub fn syntax(&self, expected: &str) -> LexError {
        LexError::Syntax(match self.peek() {
            Some(b) => format!("expected {expected} at byte {}, found {:?}", self.pos, b as char),
            None => format!("expected {expected} at byte {}, found end of input", self.pos),
        })
    }

    #[inline]
    fn require(&mut self, byte: u8, what: &str) -> Result<(), LexError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.syntax(what))
        }
    }

    /// Skips trailing whitespace and requires the end of the input.
    #[inline]
    pub fn end(&mut self) -> Result<(), LexError> {
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.syntax("end of input"))
        }
    }

    /// Reads an object, handing each key to `field`, which must consume
    /// the key's value.
    pub fn object<E: From<LexError>>(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.require(b'{', "`{`")?;
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            field(self, &key)?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("`,` or `}`").into()),
            }
        }
    }

    /// Reads `"key" :` and the whitespace after it.
    #[inline]
    fn key(&mut self) -> Result<Cow<'a, str>, LexError> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("a key"));
        }
        let key = self.string()?;
        self.ws();
        self.require(b':', "`:`")?;
        self.ws();
        Ok(key)
    }

    /// Reads an array, handing each element to `item`, which must consume
    /// it.
    pub fn array<E: From<LexError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.require(b'[', "`[`")?;
        self.ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("`,` or `]`").into()),
            }
        }
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, LexError> {
        let bytes: &'a [u8] = self.bytes;
        self.require(b'"', "a string")?;
        let mut owned: Option<String> = None;
        loop {
            let rest = &bytes[self.pos..];
            let Some(end) = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20) else {
                return Err(LexError::Syntax("unterminated string".into()));
            };
            let run = std::str::from_utf8(&rest[..end])
                .map_err(|e| LexError::InvalidUtf8 { at: self.pos + e.valid_up_to() })?;
            self.pos += end;
            match rest[end] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    self.pos += 1;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.escape(s)?;
                }
                _ => {
                    let at = self.pos;
                    return Err(LexError::Syntax(format!(
                        "control character in string at byte {at}"
                    )));
                }
            }
        }
    }

    /// Decodes the escape after a backslash into `out`.
    #[inline]
    fn escape(&mut self, out: &mut String) -> Result<(), LexError> {
        let at = self.pos - 1;
        let Some(c) = self.peek() else { return Err(self.syntax("an escape")) };
        self.pos += 1;
        out.push(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate: its low half must follow.
                    if !self.literal(b"\\u") {
                        return Err(LexError::InvalidUtf8 { at });
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(LexError::InvalidUtf8 { at });
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or(LexError::InvalidUtf8 { at })?
            }
            _ => {
                self.pos -= 1;
                return Err(self.syntax("an escape"));
            }
        });
        Ok(())
    }

    /// The four hex digits of a `\u` escape.
    #[inline]
    fn hex4(&mut self) -> Result<u32, LexError> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            let Some(digit) = digit else { return Err(self.syntax("four hex digits")) };
            unit = unit << 4 | digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    /// Reads a number token: `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`.
    #[inline]
    pub fn number(&mut self) -> Result<Number, LexError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let mut value = Some(0u64);
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if let Some(b'0'..=b'9') = self.peek() {
                    return Err(LexError::Syntax(format!(
                        "leading zero in number at byte {start}"
                    )));
                }
            }
            Some(b'1'..=b'9') => {
                while let Some(b @ b'0'..=b'9') = self.peek() {
                    value = value.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
            }
            _ => return Err(self.syntax("a digit")),
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
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
        if integral {
            return Ok(Number::Int { negative, value });
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| LexError::Syntax(format!("invalid number `{text}` at byte {start}")))
    }

    /// Consumes one or more digits.
    #[inline]
    fn digits(&mut self) -> Result<(), LexError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.syntax("a digit"));
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        Ok(())
    }

    /// Skips one value of any type, validating it as strictly as the
    /// readers above. Iterative: `depth` counts the containers already open
    /// around the value, and opening one past [`MAX_DEPTH`] is an error.
    #[inline]
    pub fn skip_value(&mut self, depth: usize) -> Result<(), LexError> {
        // Bit `k` says whether the `k`-th container opened here is an
        // object; MAX_DEPTH ≤ 128 keeps the whole stack in one word.
        let mut objects: u128 = 0;
        let mut open = 0usize;
        loop {
            match self.peek() {
                Some(c @ (b'{' | b'[')) => {
                    if depth + open >= MAX_DEPTH {
                        return Err(LexError::TooDeep);
                    }
                    self.pos += 1;
                    self.ws();
                    let object = c == b'{';
                    if object {
                        objects |= 1 << open;
                    } else {
                        objects &= !(1 << open);
                    }
                    if !self.eat(if object { b'}' } else { b']' }) {
                        open += 1;
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                _ => {
                    if !(self.literal(b"null") || self.literal(b"true") || self.literal(b"false")) {
                        return Err(self.syntax("a value"));
                    }
                }
            }
            // A value ended: close containers until one has a next member.
            loop {
                if open == 0 {
                    return Ok(());
                }
                self.ws();
                let object = objects >> (open - 1) & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.ws();
                        if object {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    Some(b']') if !object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    _ => return Err(self.syntax(if object { "`,` or `}`" } else { "`,` or `]`" })),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_round_trip() {
        let value = Value::Obj(vec![
            ("a".into(), Value::int(3)),
            ("b".into(), Value::Str("x\"y\\z\n—".into())),
            ("c".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = value.to_json_string();
        let back = parse(&text).expect("canonical output parses");
        assert_eq!(back, value);
        assert_eq!(back.to_json_string(), text, "byte-identical re-emission");
    }

    #[test]
    fn parses_whitespace_and_preserves_member_order() {
        let text = " { \"z\" : 1 , \"a\" : [ 2 , 3 ] } ";
        let value = parse(text).expect("parses");
        assert_eq!(
            value,
            Value::Obj(vec![
                ("z".into(), Value::int(1)),
                ("a".into(), Value::Arr(vec![Value::int(2), Value::int(3)])),
            ])
        );
        assert_eq!(value.to_json_string(), "{\"z\":1,\"a\":[2,3]}");
    }

    #[test]
    fn control_chars_escape_canonically() {
        let value = Value::Str("\u{1}".into());
        assert_eq!(value.to_json_string(), "\"\\u0001\"");
        assert_eq!(parse("\"\\u0001\"").expect("parses"), value);
    }

    /// U+0008 and U+000C take JSON's short forms, as `serde_json` and the
    /// reach-api codec write them, so every emitter agrees byte for byte.
    #[test]
    fn backspace_and_form_feed_take_short_escapes() {
        let value = Value::Str("a\u{8}b\u{c}c\u{b}".into());
        assert_eq!(value.to_json_string(), r#""a\bb\fc\u000b""#);
        assert_eq!(parse(&value.to_json_string()).expect("parses"), value);
    }

    /// The writers agree byte for byte with `serde_json`, the reference
    /// the reach-api codec and the trace sink were checked against.
    #[test]
    fn writers_match_serde_json() {
        let bytes = |write: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            write(&mut out);
            String::from_utf8(out).expect("UTF-8")
        };
        for n in [0, 1, 9, 10, 1 << 53, u64::MAX] {
            assert_eq!(bytes(&|o| push_u64(o, n)), serde_json::to_string(&n).unwrap());
        }
        for n in [0, -1, 7, i64::MIN, i64::MAX] {
            assert_eq!(bytes(&|o| push_i64(o, n)), serde_json::to_string(&n).unwrap());
        }
        let floats = [0.1, 1.5, 3.0, -0.0, 1e21, 1e-7, f64::MIN_POSITIVE, f64::MAX, f64::NAN];
        for f in floats.into_iter().chain([f64::INFINITY, f64::NEG_INFINITY]) {
            assert_eq!(bytes(&|o| push_f64(o, f)), serde_json::to_string(&f).unwrap());
            assert_eq!(Value::from(f).to_json_string(), serde_json::to_string(&f).unwrap());
        }
        let every_ascii: String =
            (0u8..0x80).map(char::from).chain("é\u{2028}😀".chars()).collect();
        for s in [String::new(), "q\"b\\s/".into(), every_ascii] {
            assert_eq!(bytes(&|o| push_string(o, &s)), serde_json::to_string(&s).unwrap());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1.5").is_err(), "diagnostics are integer-only");
        assert!(parse("{}extra").is_err());
        assert!(parse("\"\\q\"").is_err());
        // Numbers outside JSON's grammar, in both modes.
        for bad in ["1.", "1e", "-1.e+", "01", "-01", "-", "1e+", ".5", "+1"] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(parse_lenient(bad).is_err(), "{bad}");
        }
        // A `\u` escape takes exactly four hex digits, no sign.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u00g1""#] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(parse_lenient(bad).is_err(), "{bad}");
        }
        assert_eq!(parse(r#""\u0041\u00e9""#).expect("parses"), Value::Str("Aé".into()));
        // Leading zeros, a bare sign or point, and raw control characters.
        for bad in ["[007]", "-.5", "7.", "{\"v\":1.}", "\"a\u{1}b\"", "\"\t\""] {
            assert!(parse_lenient(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_are_refused() {
        assert_eq!(parse(r#""\ud83d\ude00""#).expect("a pair"), Value::Str("😀".into()));
        assert_eq!(parse(r#""\uD83D\uDE00x""#).expect("a pair"), Value::Str("😀x".into()));
        for lone in [r#""\ud800""#, r#""\udc00""#, r#""\ud800\u0041""#, r#""\ud800x""#] {
            let err = parse(lone).expect_err(lone);
            assert!(err.contains("lone surrogate at byte 1"), "{lone}: {err}");
        }
    }

    #[test]
    fn cursor_borrows_plain_strings_and_classifies_numbers() {
        let mut c = Cursor::new(br#""plain" "esc\n" 7 -0 18446744073709551616 7.0 -2e3"#);
        assert!(matches!(c.string(), Ok(Cow::Borrowed("plain"))));
        c.ws();
        assert!(matches!(c.string(), Ok(Cow::Owned(s)) if s == "esc\n"));
        let mut numbers = Vec::new();
        while c.peek().is_some() {
            c.ws();
            numbers.push(c.number().expect("a number"));
        }
        assert_eq!(
            numbers,
            [
                Number::Int { negative: false, value: Some(7) },
                Number::Int { negative: true, value: Some(0) },
                Number::Int { negative: false, value: None },
                Number::Float(7.0),
                Number::Float(-2000.0),
            ]
        );
        let mut c = Cursor::new(b"[1,{\"a\":[]}] x");
        c.skip_value(MAX_DEPTH - 3).expect("three levels fit");
        assert_eq!(
            c.end(),
            Err(LexError::Syntax("expected end of input at byte 13, found 'x'".into()))
        );
        let mut c = Cursor::new(b"[[]]");
        assert_eq!(c.skip_value(MAX_DEPTH - 1), Err(LexError::TooDeep));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for text in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(parse(&text).is_err());
            assert!(parse_lenient(&text).is_err());
        }
        let fits = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&fits).is_ok());
        let deeper = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deeper).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Depth counts open containers, not containers seen.
        let siblings = format!("[{}]", vec!["[[]]"; 4 * MAX_DEPTH].join(","));
        assert!(parse(&siblings).is_ok());
    }

    #[test]
    fn max_depth_matches_serde_json() {
        assert_eq!(MAX_DEPTH, serde_json::MAX_DEPTH);
    }

    #[test]
    fn lenient_parse_accepts_floats_and_preserves_raw_text() {
        let value =
            parse_lenient("{\"x\":1.5,\"y\":2e9,\"z\":-3.25e-2,\"n\":7,\"o\":-0}").expect("parses");
        assert_eq!(value.get("x"), Some(&Value::Num("1.5".into())));
        assert_eq!(value.get("y"), Some(&Value::Num("2e9".into())));
        assert_eq!(value.get("z"), Some(&Value::Num("-3.25e-2".into())));
        assert_eq!(value.get("n"), Some(&Value::Num("7".into())));
        assert_eq!(value.get("o"), Some(&Value::Num("-0".into())));
        // Lenient mode still rejects structural garbage.
        assert!(parse_lenient("[1,]").is_err());
        assert!(parse_lenient("{}extra").is_err());
    }

    #[test]
    fn get_looks_up_members() {
        let value = parse("{\"summary\":{\"files\":7}}").expect("parses");
        let files = value.get("summary").and_then(|s| s.get("files"));
        assert_eq!(files, Some(&Value::Num("7".into())));
        assert_eq!(value.get("missing"), None);
    }
}
