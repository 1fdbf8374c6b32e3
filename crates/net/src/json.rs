//! JSON encoding of the serving surface — hand-rolled, **byte-stable**
//! and **value-exact**.
//!
//! Byte-stable: object fields are written in one fixed order by one
//! writer, so two servers holding identical results emit identical
//! bytes (the `net_equivalence` tier compares exactly that).
//! Value-exact: `f64` scores are written with Rust's shortest-roundtrip
//! `Display` and parsed back with `str::parse::<f64>`, which
//! reconstructs the identical bits — a hit list surviving
//! encode→decode compares equal (`SearchHit: PartialEq`, floats and
//! all) to the list the engine produced.
//!
//! [`FragmentId`] values travel as small tagged objects (`null`,
//! `{"i":…}` int, `{"c":…}` decimal cents, `{"s":…}` string,
//! `{"d":[y,m,d]}` date) so every [`Value`] variant round-trips
//! without type guessing.
//!
//! ## The writer
//!
//! One writer, `write_hit`, writes a hit object straight into the
//! output string and allocates nothing of its own: fixed parts are
//! `push_str`, integers go through the digit loop of
//! [`write_i64`]/[`write_u64`], the score goes through
//! `write!` (the same `Display`), and a string with nothing to escape
//! is copied whole — only a string holding a quote, a backslash or a
//! control character is escaped, run by run. Two front doors share it:
//!
//! * [`hits_to_json`] writes a `&[SearchHit]`;
//! * [`JsonHits`] is a [`HitSink`]: the engine hands it each hit as a
//!   borrowed [`HitView`]; it renders the hit's query string once into
//!   a per-thread buffer, escapes it into the `query_string` field and
//!   writes the URL around it through a JSON-escaping [`fmt::Write`]
//!   adapter, so a socket miss renders without building a `SearchHit`.
//!
//! Both write the same bytes for the same hits; `tests/json_oracle.rs`
//! holds them to a frozen copy of the `format!`-per-value renderer this
//! writer replaced.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::io;

use dash_core::{FragmentId, HitSink, HitView, SearchHit};
use dash_relation::{write_i64, write_u64, Date, Decimal, Value};

use crate::http::invalid;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Encodes a hit list as a JSON array, fields in declaration order.
pub fn hits_to_json(hits: &[SearchHit]) -> String {
    // Room for each hit's fixed parts, its strings and ~48 bytes an
    // id, so a typical list is written without growing the buffer.
    let room: usize = hits
        .iter()
        .map(|hit| 128 + hit.url.len() + hit.query_string.len() + 48 * hit.fragment_ids.len())
        .sum();
    let mut out = String::with_capacity(room + 2);
    let mut sink = JsonHits::new(&mut out);
    for hit in hits {
        sink.separate();
        write_hit(
            sink.out,
            |out| write_json_str(out, &hit.url),
            |out| write_json_str(out, &hit.query_string),
            hit.score,
            hit.size,
            hit.fragment_ids.iter().map(|id| id.values().iter()),
        );
    }
    sink.finish();
    out
}

/// A [`HitSink`] writing each hit as a JSON object into a string: the
/// array [`hits_to_json`] writes, straight from the engine's borrowed
/// hits. [`JsonHits::new`] opens the array, and [`JsonHits::finish`]
/// closes it.
#[derive(Debug)]
pub struct JsonHits<'a> {
    out: &'a mut String,
    hits: usize,
}

impl<'a> JsonHits<'a> {
    /// Opens a JSON array at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('[');
        JsonHits { out, hits: 0 }
    }

    /// Closes the array; returns the whole string.
    pub fn finish(self) -> &'a str {
        self.out.push(']');
        self.out
    }

    /// Writes the separator before the next hit.
    fn separate(&mut self) {
        if self.hits > 0 {
            self.out.push(',');
        }
        self.hits += 1;
    }
}

thread_local! {
    /// The query string of the hit a [`JsonHits`] is writing, rendered
    /// once for both the URL and the `query_string` field.
    static QUERY_STRING: RefCell<String> = const { RefCell::new(String::new()) };
}

impl HitSink for JsonHits<'_> {
    fn emit(&mut self, hit: &HitView<'_>) {
        self.separate();
        QUERY_STRING.with_borrow_mut(|query_string| {
            query_string.clear();
            hit.write_query_string(query_string)
                .expect("writing to a String cannot fail");
            write_hit(
                self.out,
                |out| write_json_fmt(out, |escaped| hit.write_url(escaped, query_string)),
                |out| write_json_str(out, query_string),
                hit.score,
                hit.size,
                hit.fragment_ids(),
            );
        });
    }
}

/// Writes one hit object: `url` and `query_string` write their string
/// literals, and each item of `fragment_ids` is one identifier's
/// values.
fn write_hit<'v, V: Iterator<Item = &'v Value>>(
    out: &mut String,
    url: impl FnOnce(&mut String),
    query_string: impl FnOnce(&mut String),
    score: f64,
    size: u64,
    fragment_ids: impl Iterator<Item = V>,
) {
    out.push_str("{\"url\":");
    url(out);
    out.push_str(",\"query_string\":");
    query_string(out);
    out.push_str(",\"score\":");
    write!(out, "{score}").expect("writing to a String cannot fail");
    out.push_str(",\"size\":");
    push_u64(out, size);
    out.push_str(",\"fragment_ids\":[");
    for (fat, values) in fragment_ids.enumerate() {
        if fat > 0 {
            out.push(',');
        }
        out.push('[');
        for (vat, value) in values.enumerate() {
            if vat > 0 {
                out.push(',');
            }
            write_json_value(out, value);
        }
        out.push(']');
    }
    out.push_str("]}");
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Int(i) => {
            out.push_str("{\"i\":");
            push_i64(out, *i);
            out.push('}');
        }
        Value::Decimal(d) => {
            out.push_str("{\"c\":");
            push_i64(out, d.cents());
            out.push('}');
        }
        Value::Str(s) => {
            out.push_str("{\"s\":");
            write_json_str(out, s);
            out.push('}');
        }
        Value::Date(d) => {
            out.push_str("{\"d\":[");
            push_u64(out, u64::from(d.year()));
            out.push(',');
            push_u64(out, u64::from(d.month()));
            out.push(',');
            push_u64(out, u64::from(d.day()));
            out.push_str("]}");
        }
    }
}

fn push_u64(out: &mut String, n: u64) {
    write_u64(out, n).expect("writing to a String cannot fail");
}

fn push_i64(out: &mut String, n: i64) {
    write_i64(out, n).expect("writing to a String cannot fail");
}

/// Writes a JSON string literal with full escaping.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Writes a JSON string literal whose text `write` produces through a
/// [`fmt::Write`] that escapes as it goes: no intermediate string.
fn write_json_fmt(out: &mut String, write: impl FnOnce(&mut Escaping<'_>) -> fmt::Result) {
    out.push('"');
    write(&mut Escaping(out)).expect("writing to a String cannot fail");
    out.push('"');
}

/// A [`fmt::Write`] that appends JSON-escaped text. Escaping is per
/// character, so text escaped in pieces equals the text escaped whole.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// Appends `s` escaped for a JSON string literal: `"` and `\\` and
/// every control character below U+0020 (`\n`, `\r`, `\t` by name, the
/// rest as `\u00xx`); everything else, non-ASCII included, as it is.
/// Unescaped runs are copied whole. Every escaped character is ASCII,
/// so scanning bytes never splits a UTF-8 sequence.
fn push_escaped(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (at, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw token so integer and
/// float consumers both parse losslessly (`18446744073709551615` would
/// be mangled by an eager `f64` conversion; a score parses bit-exactly
/// from the token `Display` wrote).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw unparsed token.
    Num(String),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64` (integral numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64` (integral numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// `InvalidData` with a position on any syntax error.
pub fn parse(text: &str) -> io::Result<Json> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(invalid(&format!("trailing bytes at {}", parser.at)));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn value(&mut self) -> io::Result<Json> {
        match self.bytes.get(self.at) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(invalid(&format!(
                "unexpected {other:?} at byte {}",
                self.at
            ))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> io::Result<Json> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(invalid(&format!("bad literal at byte {}", self.at)))
        }
    }

    fn number(&mut self) -> io::Result<Json> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| invalid("non-UTF-8 number"))?;
        // Validate now so consumers can unwrap.
        raw.parse::<f64>()
            .map_err(|_| invalid(&format!("bad number token {raw:?}")))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> io::Result<String> {
        debug_assert_eq!(self.bytes[self.at], b'"');
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self
                .bytes
                .get(self.at)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| invalid("non-UTF-8 string"))?,
            );
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| invalid("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| invalid("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| invalid("\\u escape is not a scalar"))?;
                            out.push(c);
                            self.at += 4;
                        }
                        other => return Err(invalid(&format!("bad escape {other:?}"))),
                    }
                    self.at += 1;
                }
                _ => return Err(invalid("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> io::Result<Json> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(invalid(&format!("bad array separator {other:?}"))),
            }
        }
    }

    fn object(&mut self) -> io::Result<Json> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(invalid("object key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.at) != Some(&b':') {
                return Err(invalid("missing ':' after object key"));
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(invalid(&format!("bad object separator {other:?}"))),
            }
        }
    }
}

// ---------------------------------------------------------------------
// SearchHit decoding
// ---------------------------------------------------------------------

/// Decodes a hit list written by [`hits_to_json`].
///
/// # Errors
///
/// `InvalidData` on syntax errors or missing fields.
pub fn hits_from_json(text: &str) -> io::Result<Vec<SearchHit>> {
    let doc = parse(text)?;
    let items = doc.as_arr().ok_or_else(|| invalid("expected an array"))?;
    items.iter().map(hit_from_json).collect()
}

fn hit_from_json(item: &Json) -> io::Result<SearchHit> {
    let field = |key: &str| {
        item.get(key)
            .ok_or_else(|| invalid(&format!("missing {key}")))
    };
    let fragment_ids = field("fragment_ids")?
        .as_arr()
        .ok_or_else(|| invalid("fragment_ids must be an array"))?
        .iter()
        .map(|id| {
            let values = id
                .as_arr()
                .ok_or_else(|| invalid("fragment id must be an array"))?
                .iter()
                .map(value_from_json)
                .collect::<io::Result<Vec<Value>>>()?;
            Ok(FragmentId::new(values))
        })
        .collect::<io::Result<Vec<FragmentId>>>()?;
    Ok(SearchHit {
        url: field("url")?
            .as_str()
            .ok_or_else(|| invalid("url must be a string"))?
            .to_string(),
        query_string: field("query_string")?
            .as_str()
            .ok_or_else(|| invalid("query_string must be a string"))?
            .to_string(),
        score: field("score")?
            .as_f64()
            .ok_or_else(|| invalid("score must be a number"))?,
        size: field("size")?
            .as_u64()
            .ok_or_else(|| invalid("size must be an integer"))?,
        fragment_ids,
    })
}

fn value_from_json(value: &Json) -> io::Result<Value> {
    if *value == Json::Null {
        return Ok(Value::Null);
    }
    if let Some(i) = value.get("i") {
        return Ok(Value::Int(
            i.as_i64().ok_or_else(|| invalid("bad int value"))?,
        ));
    }
    if let Some(c) = value.get("c") {
        return Ok(Value::Decimal(Decimal::from_cents(
            c.as_i64().ok_or_else(|| invalid("bad decimal value"))?,
        )));
    }
    if let Some(s) = value.get("s") {
        return Ok(Value::Str(
            s.as_str()
                .ok_or_else(|| invalid("bad string value"))?
                .to_string(),
        ));
    }
    if let Some(d) = value.get("d") {
        let parts = d.as_arr().ok_or_else(|| invalid("bad date value"))?;
        let [y, m, day] = parts else {
            return Err(invalid("date needs [y,m,d]"));
        };
        return Ok(Value::Date(Date::new(
            y.as_u64().ok_or_else(|| invalid("bad year"))? as u16,
            m.as_u64().ok_or_else(|| invalid("bad month"))? as u8,
            day.as_u64().ok_or_else(|| invalid("bad day"))? as u8,
        )));
    }
    Err(invalid("unknown value encoding"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hits() -> Vec<SearchHit> {
        vec![
            SearchHit {
                url: "http://food.com/Search?c=Thai&b=10".to_string(),
                query_string: "c=Thai&b=10".to_string(),
                score: 0.123_456_789_012_345_68,
                size: 42,
                fragment_ids: vec![
                    FragmentId::new(vec![Value::str("Thai"), Value::Int(10)]),
                    FragmentId::new(vec![
                        Value::Null,
                        Value::Decimal(Decimal::from_cents(-250)),
                        Value::Date(Date::new(2012, 6, 18)),
                    ]),
                ],
            },
            SearchHit {
                url: "quote\"back\\slash\nnewline".to_string(),
                query_string: String::new(),
                score: 1.0 / 3.0,
                size: 0,
                fragment_ids: Vec::new(),
            },
        ]
    }

    #[test]
    fn hits_roundtrip_bit_exactly() {
        let hits = sample_hits();
        let json = hits_to_json(&hits);
        let back = hits_from_json(&json).unwrap();
        assert_eq!(back, hits);
        // Byte-stable: re-encoding the decoded list is identical.
        assert_eq!(hits_to_json(&back), json);
    }

    #[test]
    fn empty_list_is_the_empty_array() {
        assert_eq!(hits_to_json(&[]), "[]");
        assert_eq!(hits_from_json("[]").unwrap(), Vec::<SearchHit>::new());
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "[", "{\"a\"}", "[1,]", "nul", "\"open", "[] []"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let doc = parse("[9007199254740993,-3]").unwrap();
        let items = doc.as_arr().unwrap();
        // 2^53 + 1 survives (an eager f64 parse would round it).
        assert_eq!(items[0].as_u64(), Some(9007199254740993));
        assert_eq!(items[1].as_i64(), Some(-3));
    }
}
