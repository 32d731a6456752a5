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
//! The parser builds a [`Value`] tree that keeps object members in source
//! order and numbers as their raw text, so `emit(parse(text)) == text` for
//! canonical input. It follows the JSON grammar exactly (no leading zeros,
//! digits required after `.` and an exponent marker, exactly four hex
//! digits in a `\u` escape) and refuses nesting deeper than [`MAX_DEPTH`]
//! with an error, so no single line can overflow the stack.

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
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0, fractions };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
    /// Whether numbers may carry a fraction or an exponent.
    fractions: bool,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Enters a container, refusing to nest past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.descend()?;
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice for UTF-8 safety.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let at = self.pos;
                            let hex = self
                                .bytes
                                .get(at..at + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or(format!("bad \\u escape at byte {at}"))?;
                            let code = hex.iter().fold(0, |code, &h| {
                                code << 4 | char::from(h).to_digit(16).unwrap_or(0)
                            });
                            self.pos += 4;
                            // Surrogates are not emitted by our writer;
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or(format!("surrogate \\u escape at byte {at}"))?;
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// Consumes one or more digits, or fails naming `what`.
    fn digits(&mut self, start: usize, what: &str) -> Result<(), String> {
        let from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(format!("number at byte {start} needs digits {what}"));
        }
        Ok(())
    }

    /// A number with JSON's grammar: `-? (0 | [1-9][0-9]*)`, then, when
    /// fractions are allowed, `(\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("leading zero in number at byte {start}"));
            }
        } else {
            self.digits(start, "in its integer part")?;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            // The lint report is integer-only; reject fractions so a
            // malformed document cannot silently round-trip differently.
            if !self.fractions {
                return Err(format!("non-integer number at byte {start}"));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.digits(start, "after `.`")?;
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                self.digits(start, "in its exponent")?;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        Ok(Value::Num(raw.to_string()))
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
