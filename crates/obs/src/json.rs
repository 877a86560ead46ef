//! JSON support: escape-correct string writing, digit-pair integer
//! writing, a pull tokenizer, and a value tree built on that tokenizer.
//!
//! The workspace is dependency-free by policy, so the observability
//! exports (metrics snapshots, Chrome traces, solver decision logs) are
//! written with the helpers here, the `lamps-verify` schema checks read
//! them back with [`parse`], and the `lamps-serve` wire decoder drives
//! the [`Tokenizer`] directly.
//!
//! # Guarantee
//!
//! The [`Tokenizer`] accepts exactly the JSON texts of RFC 8259 whose
//! nesting is at most 64 levels deep, and rejects everything else with a
//! [`ParseError`] carrying the byte offset. In particular:
//!
//! * numbers follow the strict grammar `-?(0|[1-9][0-9]*)(.[0-9]+)?
//!   ([eE][+-]?[0-9]+)?`, so `05`, `2.`, `-.0`, `1.e0`, `+1`, `NaN` and
//!   `Infinity` are errors;
//! * strings are valid UTF-8 (the input is a `&str`), hold no raw control
//!   characters, and their `\u` escapes decode to Unicode scalar values:
//!   a surrogate pair combines into one astral character, and a lone
//!   surrogate is an error;
//! * a value at depth 65 or deeper is an error (the root is depth 0).
//!
//! It never panics and never recurses, whatever the input, and it
//! allocates nothing: every [`Event`] borrows from the input, and string
//! escapes are only decoded when the caller asks ([`Str::decode`]).
//! [`parse`] builds its [`Value`] tree from the same events, so the tree
//! and the streaming consumers accept one language.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth of a value (the root value is depth 0).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved (sorted map) — none of our
    /// schemas are order-sensitive. Of two equal keys the later wins.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// This value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse `text` as a single JSON document (surrounding whitespace
/// allowed) into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut t = Tokenizer::new(text);
    let first = t.expect_event()?;
    let v = build(&mut t, first)?;
    t.finish()?;
    Ok(v)
}

/// The tree below the value whose first event is `ev`. Recursion is
/// bounded by the tokenizer's depth cap.
fn build(t: &mut Tokenizer<'_>, ev: Event<'_>) -> Result<Value, ParseError> {
    Ok(match ev {
        Event::BeginObject => {
            let mut map = BTreeMap::new();
            while let Event::Key(k) = t.expect_event()? {
                let first = t.expect_event()?;
                map.insert(k.decode().into_owned(), build(t, first)?);
            }
            Value::Object(map)
        }
        Event::BeginArray => {
            let mut items = Vec::new();
            loop {
                match t.expect_event()? {
                    Event::EndArray => break,
                    first => items.push(build(t, first)?),
                }
            }
            Value::Array(items)
        }
        Event::String(s) => Value::String(s.decode().into_owned()),
        Event::Number(n) => Value::Number(n.to_f64()),
        Event::Bool(b) => Value::Bool(b),
        Event::Null => Value::Null,
        // The tokenizer never opens a value with a key or a closer.
        Event::Key(_) | Event::EndObject | Event::EndArray => {
            return Err(t.err("unexpected token"));
        }
    })
}

/// One token of a JSON document, borrowed from the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// `{`.
    BeginObject,
    /// `}`.
    EndObject,
    /// `[`.
    BeginArray,
    /// `]`.
    EndArray,
    /// An object member's key (the `:` after it is consumed too).
    Key(Str<'a>),
    /// A string value.
    String(Str<'a>),
    /// A number value.
    Number(Num<'a>),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A string token: the text between the quotes, escapes still encoded.
/// The tokenizer has validated every escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Str<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> Str<'a> {
    /// The decoded string; borrows from the input unless the token holds
    /// an escape.
    pub fn decode(&self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        let mut chars = self.raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            let decoded = match chars.next() {
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => {
                    let hi = hex4_chars(&mut chars);
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Validated: a `\u` low surrogate follows.
                        chars.nth(1);
                        let lo = hex4_chars(&mut chars);
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        hi
                    };
                    char::from_u32(cp).unwrap_or(char::REPLACEMENT_CHARACTER)
                }
                // `"`, `\` and `/` stand for themselves.
                Some(other) => other,
                None => break,
            };
            out.push(decoded);
        }
        Cow::Owned(out)
    }
}

fn hex4_chars(chars: &mut std::str::Chars<'_>) -> u32 {
    (0..4).fold(0, |v, _| {
        v * 16 + chars.next().and_then(|c| c.to_digit(16)).unwrap_or(0)
    })
}

/// A number token, already checked against the strict RFC 8259 grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Num<'a>(&'a str);

impl<'a> Num<'a> {
    /// The correctly rounded `f64` value (`±inf` when out of range),
    /// bit for bit what `str::parse::<f64>` gives.
    #[inline]
    pub fn to_f64(self) -> f64 {
        let digits = self.0.as_bytes();
        if digits.len() <= 15 && digits.iter().all(u8::is_ascii_digit) {
            // Below 10^15 < 2^53 every integer is exact in an f64, so
            // the integer is the correctly rounded value.
            return digits
                .iter()
                .fold(0u64, |v, &d| v * 10 + u64::from(d - b'0')) as f64;
        }
        // The grammar is a subset of what `f64::from_str` accepts.
        self.0.parse().unwrap_or(f64::NAN)
    }
}

/// What the tokenizer expects next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value: at the start, after `:`, or after `,` in an array.
    Value,
    /// Just after `[`: a value or `]`.
    ArrayStart,
    /// Just after `{`: a key or `}`.
    ObjectStart,
    /// After a whole value: `,`, the closer, or (at depth 0) the end.
    AfterValue,
    /// The document is complete.
    Done,
}

/// A pull tokenizer over one JSON document: call
/// [`Tokenizer::next_event`] until it returns `Ok(None)`.
///
/// After an error the tokenizer must not be used further; it still never
/// panics if it is.
pub struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// Open containers; at most `MAX_DEPTH + 1`.
    depth: usize,
    /// Bit `d` is set when the container at nesting level `d` is an
    /// object. 128 bits cover every level the depth cap allows.
    objects: u128,
    state: State,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Tokenizer {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        }
    }

    /// The next event, or `None` once the document and any trailing
    /// whitespace have been consumed.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        self.skip_ws();
        match self.state {
            State::Value => self.value(),
            State::ArrayStart if self.peek() == Some(b']') => Ok(Some(self.close())),
            State::ArrayStart => self.value(),
            State::ObjectStart if self.peek() == Some(b'}') => Ok(Some(self.close())),
            State::ObjectStart => self.key(),
            State::AfterValue if self.depth == 0 => {
                if self.pos == self.text.len() {
                    self.state = State::Done;
                    Ok(None)
                } else {
                    Err(self.err("trailing characters after the document"))
                }
            }
            State::AfterValue => {
                let in_object = self.objects >> (self.depth - 1) & 1 == 1;
                match (self.peek(), in_object) {
                    (Some(b','), true) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.key()
                    }
                    (Some(b','), false) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.value()
                    }
                    (Some(b'}'), true) | (Some(b']'), false) => Ok(Some(self.close())),
                    (_, true) => Err(self.err("expected ',' or '}' in object")),
                    (_, false) => Err(self.err("expected ',' or ']' in array")),
                }
            }
            State::Done => Ok(None),
        }
    }

    /// The next event; the end of the document is an error here.
    #[inline]
    pub fn expect_event(&mut self) -> Result<Event<'a>, ParseError> {
        match self.next_event() {
            Ok(Some(ev)) => Ok(ev),
            Ok(None) => Err(self.err("expected a value, found the end of the document")),
            Err(e) => Err(e),
        }
    }

    /// Consume the rest of a value whose first event was `first`: nothing
    /// more for a scalar, everything up to the matching closer for
    /// `BeginObject`/`BeginArray`. Passing `BeginArray` (or
    /// `BeginObject`) while inside an array (object) skips to the end of
    /// that container.
    pub fn skip_from(&mut self, first: Event<'a>) -> Result<(), ParseError> {
        let mut open = match first {
            Event::BeginObject | Event::BeginArray => 1usize,
            _ => return Ok(()),
        };
        while open > 0 {
            match self.expect_event()? {
                Event::BeginObject | Event::BeginArray => open += 1,
                Event::EndObject | Event::EndArray => open -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Consume the next value whole, checking its syntax but keeping
    /// nothing.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let first = self.expect_event()?;
        self.skip_from(first)
    }

    /// Require that the document is complete: only whitespace remains.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        match self.next_event()? {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after the document")),
        }
    }

    #[cold]
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    #[cold]
    fn err_at(&self, offset: usize, msg: &str) -> ParseError {
        ParseError {
            offset,
            message: msg.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn open(&mut self, object: bool) -> Event<'a> {
        self.pos += 1;
        if object {
            self.objects |= 1 << self.depth;
            self.state = State::ObjectStart;
        } else {
            self.objects &= !(1 << self.depth);
            self.state = State::ArrayStart;
        }
        self.depth += 1;
        if object {
            Event::BeginObject
        } else {
            Event::BeginArray
        }
    }

    /// Consume the closer at `pos` and pop its container.
    #[inline]
    fn close(&mut self) -> Event<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.state = State::AfterValue;
        if self.objects >> self.depth & 1 == 1 {
            Event::EndObject
        } else {
            Event::EndArray
        }
    }

    #[inline]
    fn value(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let ev = match self.peek() {
            Some(b'{') => return Ok(Some(self.open(true))),
            Some(b'[') => return Ok(Some(self.open(false))),
            Some(b'"') => Event::String(self.string()?),
            Some(b't') => self.literal("true", Event::Bool(true))?,
            Some(b'f') => self.literal("false", Event::Bool(false))?,
            Some(b'n') => self.literal("null", Event::Null)?,
            Some(b'-' | b'0'..=b'9') => Event::Number(self.number()?),
            _ => return Err(self.err("expected a value")),
        };
        self.state = State::AfterValue;
        Ok(Some(ev))
    }

    fn key(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':' after an object key"));
        }
        self.pos += 1;
        self.state = State::Value;
        Ok(Some(Event::Key(key)))
    }

    fn literal(&mut self, lit: &str, ev: Event<'a>) -> Result<Event<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(ev)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    /// The string starting at the `"` under `pos`.
    fn string(&mut self) -> Result<Str<'a>, ParseError> {
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        let mut i = start;
        let mut escaped = false;
        loop {
            match bytes.get(i) {
                None => return Err(self.err_at(i, "unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    i = self.escape(i + 1)?;
                }
                Some(0..=0x1f) => return Err(self.err_at(i, "raw control character in string")),
                // Non-ASCII bytes belong to UTF-8 sequences that `&str`
                // already guarantees are valid.
                Some(_) => i += 1,
            }
        }
        self.pos = i + 1;
        // Both ends are ASCII quotes, so both are char boundaries.
        Ok(Str {
            raw: &self.text[start..i],
            escaped,
        })
    }

    /// Validate the escape whose letter is at `i`; returns the offset
    /// just past it.
    fn escape(&self, i: usize) -> Result<usize, ParseError> {
        let bytes = self.text.as_bytes();
        match bytes.get(i) {
            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => Ok(i + 1),
            Some(b'u') => match self.hex4(i + 1)? {
                0xD800..=0xDBFF => {
                    let low = if bytes.get(i + 5..i + 7) == Some(&b"\\u"[..]) {
                        self.hex4(i + 7)?
                    } else {
                        0
                    };
                    if (0xDC00..=0xDFFF).contains(&low) {
                        Ok(i + 11)
                    } else {
                        Err(self.err_at(i, "lone surrogate in \\u escape"))
                    }
                }
                0xDC00..=0xDFFF => Err(self.err_at(i, "lone surrogate in \\u escape")),
                _ => Ok(i + 5),
            },
            None => Err(self.err_at(i, "unterminated escape")),
            Some(_) => Err(self.err_at(i, "unknown escape")),
        }
    }

    fn hex4(&self, i: usize) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for k in i..i + 4 {
            let d = match self.text.as_bytes().get(k) {
                Some(&c) => (c as char).to_digit(16),
                None => return Err(self.err_at(k, "truncated \\u escape")),
            };
            match d {
                Some(d) => v = v * 16 + d,
                None => return Err(self.err_at(k, "non-hex digit in \\u escape")),
            }
        }
        Ok(v)
    }

    /// The number starting at `pos`, by the strict RFC 8259 grammar.
    #[inline]
    fn number(&mut self) -> Result<Num<'a>, ParseError> {
        let bytes = self.text.as_bytes();
        let digit = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let start = self.pos;
        let mut i = start;
        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        match bytes.get(i) {
            Some(b'0') => i += 1,
            Some(b'1'..=b'9') => {
                while digit(i) {
                    i += 1;
                }
            }
            _ => return Err(self.err_at(i, "expected a digit in number")),
        }
        if bytes.get(i) == Some(&b'.') {
            i += 1;
            if !digit(i) {
                return Err(self.err_at(i, "expected a digit after the decimal point"));
            }
            while digit(i) {
                i += 1;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            if !digit(i) {
                return Err(self.err_at(i, "expected a digit in the exponent"));
            }
            while digit(i) {
                i += 1;
            }
        }
        self.pos = i;
        Ok(Num(&self.text[start..i]))
    }
}

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn write_string(out: &mut String, s: &str) {
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

/// Append `v` to `out` as a JSON number. Non-finite floats (which JSON
/// cannot represent) become `null`.
///
/// Floats go through `core::fmt`, whose shortest round-trip digits are
/// what lets a reader rebuild the same bits; only integers have a
/// hand-written writer ([`write_u64`]).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A buffer the integer writers append ASCII to: a `String` for the
/// encoders that also use `write!`, or a `Vec<u8>` for a line that is
/// checked as UTF-8 once, when it is complete.
pub trait AsciiSink {
    /// Append `ascii`, which holds only bytes below 0x80.
    fn push_ascii(&mut self, ascii: &[u8]);
}

impl AsciiSink for String {
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend(ascii.iter().map(|&b| char::from(b)));
    }
}

impl AsciiSink for Vec<u8> {
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// `"00" "01" … "99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `v` in decimal, exactly as `v.to_string()` writes it.
///
/// The digits are rendered by [`put_u64_before`] into a 20-byte stack
/// buffer (`u64::MAX` has 20 digits) and appended in one copy: about
/// half the cost of `write!(out, "{v}")`, which matters on request lines
/// that are thousands of integers.
pub fn write_u64(out: &mut impl AsciiSink, v: u64) {
    let mut buf = [0u8; 20];
    let start = put_u64_before(&mut buf, 20, v);
    out.push_ascii(&buf[start..]);
}

/// Render `v` in decimal so that its last digit lands at `buf[end - 1]`,
/// and return the index of its first digit. Two digits per division,
/// from a lookup table.
///
/// This is [`write_u64`]'s core, for a caller that renders several
/// numbers and their punctuation right to left into one stack buffer
/// and appends them with one copy.
///
/// # Panics
///
/// If `buf[..end]` is shorter than the digits (at most 20).
pub fn put_u64_before(buf: &mut [u8], end: usize, v: u64) -> usize {
    let mut at = end;
    let mut put_pair = |at: usize, pair: usize| {
        buf[at - 2..at].copy_from_slice(&DIGIT_PAIRS[2 * pair..2 * pair + 2]);
        at - 2
    };
    // 64-bit divisions only while the value needs them; task indices
    // and most weights start below 2^32, where division is cheaper.
    let mut wide = v;
    while wide > u64::from(u32::MAX) {
        at = put_pair(at, (wide % 100) as usize);
        wide /= 100;
    }
    let mut v = wide as u32;
    while v >= 100 {
        at = put_pair(at, (v % 100) as usize);
        v /= 100;
    }
    if v >= 10 {
        put_pair(at, v as usize)
    } else {
        buf[at - 1] = b'0' + v as u8;
        at - 1
    }
}

/// Append `v` as 16 lowercase hex digits, zero-padded: what
/// `format!("{v:016x}")` writes, for the wire's `*_bits` fields.
pub fn write_hex64(out: &mut impl AsciiSink, v: u64) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = NIBBLES[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_ascii(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_document() {
        let text = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5e3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_number(), Some(1.0));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_str(), Some("x\ny"));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_number(),
            Some(-2500.0)
        );
    }

    #[test]
    fn escapes_survive_write_then_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode Ω";
        let mut out = String::new();
        write_string(&mut out, nasty);
        assert_eq!(parse(&out).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_too_deep_nesting() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn nonfinite_writes_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(' ');
        write_f64(&mut out, 2.5);
        assert_eq!(out, "null 2.5");
    }

    /// 0, `u64::MAX`, every `10^k - 1`, `10^k`, `10^k + 1`, and 100,000
    /// values from a fixed-seed splitmix64 stream, spread over every
    /// digit count by a random shift.
    fn integer_cases() -> Vec<u64> {
        let mut cases = vec![0, u64::MAX];
        for k in 0..20 {
            let p = 10u64.pow(k);
            cases.extend([p - 1, p, p + 1]);
        }
        let mut state = 0x5eed_u64;
        for _ in 0..100_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            cases.push(z >> (z % 64));
        }
        cases
    }

    #[test]
    fn write_u64_matches_to_string() {
        let mut text = String::new();
        let mut bytes = Vec::new();
        for v in integer_cases() {
            text.clear();
            bytes.clear();
            write_u64(&mut text, v);
            write_u64(&mut bytes, v);
            let want = v.to_string();
            assert_eq!(text, want, "String sink, v={v}");
            assert_eq!(bytes, want.as_bytes(), "Vec<u8> sink, v={v}");
        }
    }

    #[test]
    fn write_hex64_matches_padded_hex_format() {
        let mut text = String::new();
        let mut bytes = Vec::new();
        for v in integer_cases() {
            text.clear();
            bytes.clear();
            write_hex64(&mut text, v);
            write_hex64(&mut bytes, v);
            let want = format!("{v:016x}");
            assert_eq!(text, want, "String sink, v={v:#x}");
            assert_eq!(bytes, want.as_bytes(), "Vec<u8> sink, v={v:#x}");
        }
    }

    #[test]
    fn integer_writers_append() {
        let mut out = String::from("[");
        write_u64(&mut out, 7);
        out.push(',');
        write_hex64(&mut out, 0xab);
        out.push(']');
        assert_eq!(out, "[7,00000000000000ab]");
    }

    #[test]
    fn every_control_char_escapes_and_round_trips() {
        // These encoders feed the wire protocol: every C0 control
        // character must come out as a valid escape, never raw.
        for c in 0u32..0x20 {
            let s = char::from_u32(c).unwrap().to_string();
            let mut out = String::new();
            write_string(&mut out, &s);
            assert!(
                out.bytes().all(|b| b >= 0x20),
                "raw control byte in {out:?}"
            );
            assert_eq!(parse(&out).unwrap().as_str(), Some(s.as_str()), "c={c:#x}");
        }
    }

    #[test]
    fn astral_and_boundary_strings_round_trip() {
        for s in [
            "",
            "\u{10348}𝄞",
            "\u{7f}",
            "ends with backslash\\",
            "\"\"",
            "a\u{0}b",
        ] {
            let mut out = String::new();
            write_string(&mut out, s);
            assert_eq!(parse(&out).unwrap().as_str(), Some(s), "s={s:?}");
        }
    }

    #[test]
    fn all_nonfinite_variants_encode_as_parseable_null() {
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(parse(&out).unwrap(), Value::Null, "v={v}");
        }
        // Finite extremes stay finite and re-parse to themselves.
        for v in [f64::MAX, f64::MIN, f64::MIN_POSITIVE, -0.0, 0.0] {
            let mut out = String::new();
            write_f64(&mut out, v);
            let back = parse(&out).unwrap().as_number().unwrap();
            assert_eq!(back, v, "v={v:e} out={out}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn strict_number_grammar() {
        for bad in [
            "05",
            "2.",
            "-.0",
            "1.e0",
            "+1",
            "-",
            "1e",
            "1e+",
            ".5",
            "NaN",
            "Infinity",
            "-Infinity",
            "0x1",
            "01.5",
            "[05]",
            "{\"a\":2.}",
            "1.5.2",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "0",
            "-0",
            "0.5",
            "1e5",
            "1E+5",
            "2e-3",
            "-1.25e-3",
            "10",
            "1e400",
            "-1e400",
            "123456789012345678901234567890",
        ] {
            let v = parse(good).unwrap().as_number().unwrap();
            assert_eq!(
                v.to_bits(),
                good.parse::<f64>().unwrap().to_bits(),
                "{good}"
            );
        }
    }

    #[test]
    fn number_fast_path_matches_str_parse_bitwise() {
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "7",
            "999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
            "0.1",
            "3100000",
            "-3100000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tokens.push((x >> (x % 64)).to_string());
        }
        for tok in &tokens {
            let mut t = Tokenizer::new(tok);
            let Some(Event::Number(n)) = t.next_event().unwrap() else {
                panic!("{tok} is not a number token");
            };
            assert_eq!(n.0, tok);
            assert_eq!(
                n.to_f64().to_bits(),
                tok.parse::<f64>().unwrap().to_bits(),
                "{tok}"
            );
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_fail() {
        assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        assert_eq!(parse(r#""a😀b""#).unwrap().as_str(), Some("a😀b"));
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800A""#,
            r#""\ud800x""#,
            r#""\udbff\ud800""#,
            r#""\ud800\u""#,
            r#""\u12""#,
            r#""\x""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn depth_cap_counts_every_value() {
        let nested = |levels: usize, inner: &str| "[".repeat(levels) + inner + &"]".repeat(levels);
        // The root is depth 0, so 64 arrays put the scalar at depth 64.
        assert!(parse(&nested(64, "1")).is_ok());
        assert!(parse(&nested(65, "1")).is_err());
        assert!(parse(&nested(65, "")).is_ok());
        assert!(parse(&nested(66, "")).is_err());
        let objects = "{\"a\":".repeat(65) + "1" + &"}".repeat(65);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn events_borrow_from_the_input() {
        let text = r#" {"k": [1, "s\n", true, null, {}], "e": "x\u0041"} "#;
        let mut t = Tokenizer::new(text);
        let mut events = Vec::new();
        while let Some(ev) = t.next_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(t.next_event(), Ok(None), "the end is sticky");
        let keys: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Key(k) => Some(k.raw),
                _ => None,
            })
            .collect();
        assert_eq!(keys, ["k", "e"]);
        assert_eq!(events.len(), 13);
        assert!(matches!(events[4], Event::String(s) if s.decode() == "s\n"));
        assert!(matches!(events[11], Event::String(s) if s.decode() == "xA"));
        assert!(matches!(events[12], Event::EndObject));
        assert!(matches!(
            Str {
                raw: "plain",
                escaped: false
            }
            .decode(),
            Cow::Borrowed("plain")
        ));
    }

    #[test]
    fn skip_value_consumes_whole_containers() {
        let mut t = Tokenizer::new(r#"{"skip": {"a": [1, {"b": []}]}, "keep": 5}"#);
        assert_eq!(t.expect_event().unwrap(), Event::BeginObject);
        assert!(matches!(t.expect_event().unwrap(), Event::Key(k) if k.raw == "skip"));
        t.skip_value().unwrap();
        assert!(matches!(t.expect_event().unwrap(), Event::Key(k) if k.raw == "keep"));
        // Skip from inside an open container to its closer.
        let mut t = Tokenizer::new("[[1, [2], 3], 4]");
        assert_eq!(t.expect_event().unwrap(), Event::BeginArray);
        assert_eq!(t.expect_event().unwrap(), Event::BeginArray);
        assert!(matches!(t.expect_event().unwrap(), Event::Number(_)));
        t.skip_from(Event::BeginArray).unwrap();
        assert!(matches!(t.expect_event().unwrap(), Event::Number(n) if n.0 == "4"));
        assert_eq!(t.expect_event().unwrap(), Event::EndArray);
        t.finish().unwrap();
    }

    #[test]
    fn every_prefix_of_a_document_is_handled() {
        let doc = r#"{"a": [1, -2.5e3, "xé𝄞", {"b": null}], "c": true, "d": "Ω"}"#;
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(
                parse(&doc[..end]).is_err(),
                "prefix {:?} accepted",
                &doc[..end]
            );
        }
        assert!(parse(doc).is_ok());
    }
}
