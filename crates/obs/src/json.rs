//! The workspace's one JSON codec: the [`Json`] value tree, its compact
//! encoder, and a one-pass parser ([`parse`] over text, [`parse_bytes`]
//! over a request body or a file line). Every JSON line the workspace
//! writes is built as a [`Json`]; every one it reads comes back through
//! this parser. Numbers keep their source text ([`Num`]), so `u64` seeds
//! and exact `f32` score bits survive a round trip.
//!
//! The parser is tolerant where tolerance is harmless: any whitespace,
//! trailing commas in arrays and objects, and duplicate object keys
//! (last wins at [`Json::get`]). Everything else — unquoted keys,
//! comments, `NaN`, single quotes, bytes that are not UTF-8, unpaired
//! surrogates, nesting deeper than 64 — is a [`SyntaxError`] at the byte
//! offset of the problem. The encoder escapes `"`, `\`, every C0
//! control, DEL and C1 (0x80–0x9f): legal in JSON, but invisible in logs
//! and mangled by the line-oriented tools that tail these files.

use std::fmt;

/// A parsed or to-be-serialized JSON value.
///
/// Numbers keep their literal text (see [`Num`]) so integer seeds above
/// 2^53 and shortest-form floats round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(Num),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered members (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A JSON number as its decimal source text.
#[derive(Clone, Debug, PartialEq)]
pub struct Num(String);

impl Num {
    pub fn from_u64(v: u64) -> Num {
        Num(v.to_string())
    }

    pub fn from_usize(v: usize) -> Num {
        Num(v.to_string())
    }

    /// Shortest decimal that parses back to exactly `v` (f64 has more
    /// than twice f32's precision, so the f64 detour cannot re-round).
    pub fn from_f32(v: f32) -> Num {
        Num(fmt_float(v as f64))
    }

    pub fn from_f64(v: f64) -> Num {
        Num(fmt_float(v))
    }

    pub fn as_f64(&self) -> Option<f64> {
        self.0.parse().ok()
    }

    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|v| v as f32)
    }

    /// Integer value: exact `u64` text, or an integral float in range.
    pub fn as_u64(&self) -> Option<u64> {
        if let Ok(v) = self.0.parse::<u64>() {
            return Some(v);
        }
        let f = self.as_f64()?;
        // Exclusive upper bound: `u64::MAX as f64` rounds *up* to 2^64,
        // so an inclusive range would let 1.8446744073709552e19 through
        // and `as u64` would silently saturate instead of erroring.
        (f.fract() == 0.0 && f >= 0.0 && f < u64::MAX as f64).then_some(f as u64)
    }
}

/// `{}`-format a float, forcing a `.0` onto integral values so the text
/// stays unambiguously a float to foreign parsers.
fn fmt_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

impl Json {
    pub fn u64(v: u64) -> Json {
        Json::Num(Num::from_u64(v))
    }

    pub fn usize(v: usize) -> Json {
        Json::Num(Num::from_usize(v))
    }

    /// A float member (the shortest text with `v`'s bits) — `null`
    /// when non-finite, as [`Json::f64`].
    pub fn f32(v: f32) -> Json {
        Json::f64(v.into())
    }

    /// A float member — `null` when non-finite: JSON has no NaN/inf
    /// literal, and `format!("{}", f64::NAN)` would otherwise emit
    /// `NaN.0`, corrupting the whole document. Decoders treat `null`
    /// as absent, so a non-finite value degrades to "field not sent"
    /// rather than to unparseable output.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(Num::from_f64(v))
        } else {
            Json::Null
        }
    }

    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Member lookup (objects only; last duplicate wins, like the parser).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number's integer value ([`Num::as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.0),
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `v` to `out` as a quoted, escaped JSON string literal (the
/// rules are the module doc's). Rust strings are always valid UTF-8, so
/// unpaired surrogates cannot occur on the encode side.
fn push_string(out: &mut String, v: &str) {
    out.push('"');
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || (0x7f..=0x9f).contains(&(c as u32)) => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Input the parser refuses, at the byte offset of the problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntaxError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SyntaxError { offset, message } = self;
        write!(f, "malformed JSON at byte {offset}: {message}")
    }
}

impl std::error::Error for SyntaxError {}

/// Parse JSON text into a [`Json`] tree (the dialect is the module
/// doc's).
pub fn parse(text: &str) -> Result<Json, SyntaxError> {
    parse_bytes(text.as_bytes())
}

/// [`parse`] over raw bytes. Bytes that are not UTF-8 are a
/// [`SyntaxError`] at the offset of the bad sequence, like any other
/// malformed input.
pub fn parse_bytes(bytes: &[u8]) -> Result<Json, SyntaxError> {
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(value)
}

/// Nesting allowed before the parser refuses (stack safety on hostile
/// input — this runs on bytes straight off a socket).
const MAX_DEPTH: usize = 64;

/// One recursive-descent pass over a complete document.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> SyntaxError {
        syntax_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, SyntaxError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, SyntaxError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, SyntaxError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                break;
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1, // tolerant: may trail
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(members))
    }

    fn array(&mut self) -> Result<Json, SyntaxError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                break;
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1, // tolerant: may trail
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, SyntaxError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Plain bytes up to the next quote, backslash or control
            // byte are one run, validated as UTF-8 in one call.
            let run_len = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let run = &self.bytes[self.pos..self.pos + run_len];
            match std::str::from_utf8(run) {
                Ok(s) => out.push_str(s),
                Err(_) => return Err(self.invalid_utf8(run)),
            }
            self.pos += run_len;
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Where a run that failed validation is reported: just past its
    /// first bad group — a byte ≥ 0x80 plus up to three continuation
    /// bytes. Valid groups concatenate to valid UTF-8, so a run that
    /// failed has one.
    fn invalid_utf8(&self, run: &[u8]) -> SyntaxError {
        let mut i = 0;
        while i < run.len() {
            if run[i] < 0x80 {
                i += 1;
                continue;
            }
            let start = i;
            i += 1;
            while i < run.len() && i - start < 4 && run[i] & 0xc0 == 0x80 {
                i += 1;
            }
            if std::str::from_utf8(&run[start..i]).is_err() {
                break;
            }
        }
        syntax_at(self.pos + i, "invalid UTF-8 in string")
    }

    /// The character a `\` escape stands for (the `\` is consumed).
    fn escape(&mut self) -> Result<char, SyntaxError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()? as u32;
                // Surrogate pairs: a high unit must be followed by an
                // escaped low unit; anything unpaired is rejected, not
                // replaced.
                let code = if (0xd800..0xdc00).contains(&unit) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()? as u32;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                } else if (0xdc00..0xe000).contains(&unit) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    unit
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
            }
            other => return Err(self.err(format!("unknown escape '\\{}'", other as char))),
        })
    }

    /// The four hex digits of a `\u` escape. `u16::from_str_radix`
    /// tolerates a leading `+`; that is part of the dialect.
    fn hex4(&mut self) -> Result<u16, SyntaxError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape digits"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, SyntaxError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("expected digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digits after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digits in exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(Json::Num(Num(text.to_string())))
    }

    /// One or more ASCII digits, or `message` at the first non-digit.
    fn digits(&mut self, message: &str) -> Result<(), SyntaxError> {
        let from = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(self.err(message));
        }
        Ok(())
    }
}

fn syntax_at(offset: usize, message: impl Into<String>) -> SyntaxError {
    SyntaxError {
        offset,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let v = parse(text).expect("parses");
        let re = parse(&v.encode()).expect("re-parses");
        assert_eq!(v, re, "encode/parse round trip for {text}");
        v
    }

    fn num(v: &Json) -> &Num {
        match v {
            Json::Num(n) => n,
            other => panic!("not a number: {other:?}"),
        }
    }

    #[test]
    fn parser_accepts_the_json_zoo() {
        let v = roundtrip(
            r#" { "a" : [1, -2.5, 1e3, 0.25e-2 ,], "b": {"nested": [true, false, null]},
                  "s": "q\"\\\n\u00e9\ud83d\ude00" , } "#,
        );
        assert_eq!(v.get("a").unwrap(), &parse("[1,-2.5,1e3,0.25e-2]").unwrap());
        assert_eq!(
            v.get("s").unwrap(),
            &Json::Str("q\"\\\né😀".into()),
            "escapes incl. a surrogate pair decode"
        );
    }

    #[test]
    fn parser_rejects_malformed_input_with_offsets() {
        for (text, fragment) in [
            ("", "end of input"),
            ("{", "expected '\"'"),
            ("[1 2]", "expected ','"),
            ("{\"a\" 1}", "expected ':'"),
            ("\"unterminated", "unterminated"),
            ("01x", "trailing"),
            ("1.", "digits after '.'"),
            ("1e", "exponent"),
            ("nul", "expected 'null'"),
            ("\"\\ud800none\"", "surrogate"),
            ("\"\\udc00\"", "surrogate"),
            ("\"\\q\"", "unknown escape"),
            ("{\"a\": 1} junk", "trailing"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.message.contains(fragment), "{text}: {err}");
        }
        assert_eq!(
            parse("[1 2]").unwrap_err().to_string(),
            "malformed JSON at byte 3: expected ',' or ']' in array"
        );
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn numbers_preserve_u64_and_f32_exactly() {
        let big = u64::MAX - 1;
        let v = parse(&Json::u64(big).encode()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        for f in [f32::MIN_POSITIVE, -0.1, 1.0 / 3.0, 3.4e38, -0.0] {
            let v = parse(&Json::f32(f).encode()).unwrap();
            assert_eq!(num(&v).as_f32().unwrap().to_bits(), f.to_bits());
        }
        // u64::MAX as f64 rounds up to 2^64: that float is *out* of
        // range and must be rejected, not saturated to u64::MAX.
        let v = parse("1.8446744073709552e19").unwrap();
        assert_eq!(v.as_u64(), None);
        // The largest f64 below 2^64 still converts.
        let v = parse("1.8446744073709550e19").unwrap();
        assert!(v.as_u64().is_some());
    }

    #[test]
    fn integral_floats_stay_floats_on_the_wire() {
        assert_eq!(Json::f32(2.0).encode(), "2.0");
        assert_eq!(Json::f32(-17.0).encode(), "-17.0");
        let v = parse(&Json::f64(1e300).encode()).unwrap();
        assert_eq!(num(&v).as_f64(), Some(1e300));
        assert_eq!(Json::f32(f32::NAN), Json::Null);
        assert_eq!(Json::f64(f64::NEG_INFINITY), Json::Null);
    }

    #[test]
    fn accessors_read_only_their_own_kind() {
        let v = parse(r#"{"s": "x", "n": 7, "f": 7.5}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
    }

    #[test]
    fn strings_escape_every_mandatory_control() {
        let esc = |s: &str| {
            let quoted = Json::str(s).encode();
            quoted[1..quoted.len() - 1].to_string()
        };
        // Every C0 control must come out as an escape; none may pass
        // through raw (RFC 8259 §7).
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let escaped = esc(&c.to_string());
            assert!(
                escaped.starts_with('\\'),
                "U+{:04X} must be escaped, got {escaped:?}",
                c as u32
            );
        }
        assert_eq!(esc("\u{7f}"), "\\u007f", "DEL is escaped");
        assert_eq!(esc("\u{85}"), "\\u0085", "C1 NEL is escaped");
        assert_eq!(esc("\u{9f}"), "\\u009f", "C1 end is escaped");
        // Shorthand escapes stay shorthand; printable text stays put.
        assert_eq!(esc("a\tb\nc\rd"), "a\\tb\\nc\\rd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("plain α😀"), "plain α😀");
        assert_eq!(esc("q\"e\\"), "q\\\"e\\\\");
        // U+00A0 (just past C1) is untouched.
        assert_eq!(esc("\u{a0}"), "\u{a0}");
        // Keys go through the same escaper.
        let obj = Json::Obj(vec![("k\"\n".into(), Json::Null)]);
        assert_eq!(obj.encode(), r#"{"k\"\n":null}"#);
    }
}
