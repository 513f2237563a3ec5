//! The network wire codec: hand-rolled JSON for campaign submissions
//! and job reports.
//!
//! The workspace is offline/shim-only, so instead of `serde` this module
//! carries a small, dependency-free JSON stack: a [`Json`] value tree, a
//! serializer built over [`json_escape`], a
//! tolerant recursive-descent [`parse`] (arbitrary whitespace, trailing
//! commas in arrays and objects, `_ns`/`_ms`/`_s` duration aliases), and
//! typed conversions between the tree and the service's domain types.
//! The parser takes a whole document in one pass: [`parse`] over text,
//! [`parse_bytes`] over a request body once all of it has arrived.
//! Numbers keep their source text ([`Json::Num`]), so `u64` seeds and
//! exact `f32` score bits survive a round trip that a lossy `f64`-only
//! representation would corrupt.
//!
//! Every decode failure is a typed [`WireError`] that maps onto an HTTP
//! status ([`WireError::http_status`]): malformed JSON and missing or
//! ill-typed fields are `400`, a structurally valid campaign that fails
//! [`Campaign::builder`](mudock_core::Campaign) validation is `422`
//! (carrying the [`CampaignError`]), and an unserializable payload is
//! `400`.
//!
//! # JSON schema
//!
//! A **submission** (`POST /jobs` body) is an object:
//!
//! ```json
//! {
//!   "campaign": { ... },
//!   "receptor": {"synth": {"seed": 7, "atoms": 120, "radius": 8.0}},
//!   "ligands":  {"synth": {"seed": 42, "count": 24}},
//!   "priority": "normal"
//! }
//! ```
//!
//! `receptor` also accepts `{"pdbqt": "<multi-line PDBQT text>"}` or
//! `{"path": "/server-side/file.pdbqt"}`; `ligands` accepts the same
//! three forms (its `pdbqt` text may hold many `MODEL`/`ENDMDL` blocks).
//! `path` sources make the **server** read the named file and are
//! refused with `403` unless the operator enabled them
//! (`NetConfig::allow_path_sources` / `mudock serve
//! --allow-path-sources`); inline `pdbqt` text always works.
//! `priority` is `"low" | "normal" | "high"` and defaults to `normal`.
//!
//! A **campaign** mirrors [`CampaignSpec`] field by field; every member
//! is optional and defaults like `Campaign::builder()` (`name` defaults
//! to the empty string):
//!
//! ```json
//! {
//!   "name": "screen-1",
//!   "seed": 42,
//!   "top_k": 10,
//!   "search_radius": 3.5,
//!   "ga": {"population": 100, "generations": 150, "tournament": 3,
//!          "crossover_rate": 0.8, "mutation_rate": 0.08,
//!          "sigma_translation": 0.6, "sigma_rotation": 0.15,
//!          "sigma_torsion": 0.4, "elitism": 2},
//!   "local_search": {"max_evals": 300, "rho_start": 0.5, "rho_min": 0.01,
//!                    "expand_after": 4, "contract_after": 4, "fraction": 0.06},
//!   "backend": "detect",
//!   "stop": "complete",
//!   "chunk": {"fixed": 16},
//!   "grid_dims": {"npts": [31, 31, 31], "spacing": 0.6,
//!                 "origin": [-9.0, -9.0, -9.0]}
//! }
//! ```
//!
//! The three policy fields are tagged unions:
//!
//! * `backend` — `"detect"`, `{"fixed": "reference" | "autovec" | "scalar"
//!   | "sse2" | "avx2" | "avx512"}` (`{"pinned": "<simd level>"}` is
//!   accepted as an alias of `{"fixed": "<simd level>"}`);
//! * `stop` — `"complete"`, `{"max_evaluations": N}`, `{"deadline_ns": N}`
//!   (also `deadline_ms` / `deadline_s`), or
//!   `{"ranking_stable": {"window": W, "epsilon": E}}`;
//! * `chunk` — `{"fixed": N}` or `{"adaptive_target_ns": N}` (also
//!   `adaptive_target_ms` / `adaptive_target_s`).
//!
//! A **job report** (`GET /jobs/{id}` body) is
//! [`status_to_json`]/[`JobStatus`]: `id`, `name`, `state`,
//! `ligands_done`, `chunks_done`, a `stages` object with the per-stage
//! wall-clock breakdown (`queue_wait_ns`, `grid_ns`, `grid_source`,
//! `dock_ns`, `dock_chunks`, `sink_ns`, `total_ns` — `null` until the
//! stage happens), and — once terminal — an `outcome` object with
//! `replayed_chunks`, `grid_cache_hit`, `stopped_early`, `elapsed_ns`,
//! `error`, and the ranked `top` array of
//! `{"index": N, "name": S, "score": F}` entries.

use std::sync::Arc;
use std::time::Duration;

use mudock_core::{
    Backend, BackendPolicy, Campaign, CampaignError, CampaignSpec, ChunkPolicy, GaParams,
    ShardPolicy, SolisWetsParams, StopPolicy,
};
use mudock_grids::GridDims;
use mudock_mol::{Molecule, Vec3};
use mudock_obs::{GridSource, StageTimings};
use mudock_simd::SimdLevel;

use crate::ingest::LigandSource;
use crate::job::{JobId, JobOutcome, JobState, LigandSlice, Priority, RankedLigand};
use crate::server::ServiceStats;
use crate::sink::json_escape;

// ---------------------------------------------------------------------------
// The JSON value tree
// ---------------------------------------------------------------------------

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

    /// A float member — `null` when non-finite: JSON has no NaN/inf
    /// literal, and `format!("{}", f32::NAN)` would otherwise emit
    /// `NaN.0`, corrupting the whole document. Decoders treat `null`
    /// as absent, so a non-finite value degrades to "field not sent"
    /// rather than to unparseable output.
    pub fn f32(v: f32) -> Json {
        if v.is_finite() {
            Json::Num(Num::from_f32(v))
        } else {
            Json::Null
        }
    }

    /// See [`Json::f32`]: non-finite encodes as `null`.
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
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
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
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed decode failure, each variant mapping to an HTTP status.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The body is not JSON this parser accepts (byte offset included).
    Syntax { offset: usize, message: String },
    /// A required member is absent.
    Missing { field: &'static str },
    /// A member is present but unusable (wrong type, unknown variant,
    /// out-of-range value, unparsable molecule, …).
    Invalid { field: String, message: String },
    /// The decoded campaign failed `Campaign::builder()` validation —
    /// well-formed on the wire, rejected by the domain (HTTP 422).
    Campaign(CampaignError),
}

impl WireError {
    pub fn invalid(field: impl Into<String>, message: impl Into<String>) -> WireError {
        WireError::Invalid {
            field: field.into(),
            message: message.into(),
        }
    }

    /// The HTTP status class this error belongs to.
    pub fn http_status(&self) -> u16 {
        match self {
            WireError::Campaign(_) => 422,
            _ => 400,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Syntax { offset, message } => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            WireError::Missing { field } => write!(f, "missing required field '{field}'"),
            WireError::Invalid { field, message } => {
                write!(f, "invalid field '{field}': {message}")
            }
            WireError::Campaign(e) => write!(f, "invalid campaign: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CampaignError> for WireError {
    fn from(e: CampaignError) -> Self {
        WireError::Campaign(e)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse JSON text into a [`Json`] tree.
///
/// Deliberately tolerant where tolerance is harmless: any amount of
/// whitespace, trailing commas in arrays and objects, and duplicate
/// object keys (last wins at [`Json::get`]). Everything else — unquoted
/// keys, comments, `NaN`, single quotes — is a [`WireError::Syntax`]
/// with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, WireError> {
    parse_bytes(text.as_bytes())
}

/// [`parse`] over raw bytes — what the network frontend hands a request
/// body to once all of it has arrived. Bytes that are not UTF-8 are a
/// [`WireError::Syntax`] at the offset of the bad sequence, like any
/// other malformed input.
pub fn parse_bytes(bytes: &[u8]) -> Result<Json, WireError> {
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
    fn err(&self, message: impl Into<String>) -> WireError {
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

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
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

    fn array(&mut self) -> Result<Json, WireError> {
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

    fn string(&mut self) -> Result<String, WireError> {
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
    fn invalid_utf8(&self, run: &[u8]) -> WireError {
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
    fn escape(&mut self) -> Result<char, WireError> {
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
    fn hex4(&mut self) -> Result<u16, WireError> {
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

    fn number(&mut self) -> Result<Json, WireError> {
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
    fn digits(&mut self, message: &str) -> Result<(), WireError> {
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

fn syntax_at(offset: usize, message: impl Into<String>) -> WireError {
    WireError::Syntax {
        offset,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Field-access helpers (decode side)
// ---------------------------------------------------------------------------

fn require<'a>(obj: &'a Json, field: &'static str) -> Result<&'a Json, WireError> {
    obj.get(field).ok_or(WireError::Missing { field })
}

fn get_u64(obj: &Json, field: &'static str) -> Result<Option<u64>, WireError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::invalid(field, "expected a non-negative integer")),
        Some(_) => Err(WireError::invalid(field, "expected a number")),
    }
}

fn get_usize(obj: &Json, field: &'static str) -> Result<Option<usize>, WireError> {
    match get_u64(obj, field)? {
        None => Ok(None),
        // Checked, not `as`: on a 32-bit target an oversized count must
        // be a 400, not a silent truncation to a tiny value.
        Some(v) => usize::try_from(v)
            .map(Some)
            .map_err(|_| WireError::invalid(field, "value does not fit this platform's usize")),
    }
}

fn get_f32(obj: &Json, field: &'static str) -> Result<Option<f32>, WireError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        // Finite only: `1e999` parses to f64 infinity (and a finite
        // 1e300 overflows the f32 narrowing) — values the campaign
        // builder does not re-check on every field, so they must be
        // typed 400s here rather than inf smuggled into a GA sigma.
        Some(Json::Num(n)) => match n.as_f32() {
            Some(f) if f.is_finite() => Ok(Some(f)),
            _ => Err(WireError::invalid(
                field,
                "expected a number representable as a finite f32",
            )),
        },
        Some(_) => Err(WireError::invalid(field, "expected a number")),
    }
}

fn get_str<'a>(obj: &'a Json, field: &'static str) -> Result<Option<&'a str>, WireError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(WireError::invalid(field, "expected a string")),
    }
}

fn as_num<'a>(v: &'a Json, field: &str) -> Result<&'a Num, WireError> {
    match v {
        Json::Num(n) => Ok(n),
        _ => Err(WireError::invalid(field, "expected a number")),
    }
}

/// A duration field with unit aliases: `<base>_ns` (exact integer
/// nanoseconds, the canonical encode form), `<base>_ms`, or `<base>_s`
/// (both possibly fractional).
fn get_duration(
    obj: &Json,
    base: &'static str,
    canonical: &'static str,
) -> Option<Result<Duration, WireError>> {
    let lookup = |suffix: &str, scale: f64| -> Option<Result<Duration, WireError>> {
        let key = format!("{base}{suffix}");
        let v = obj.get(&key)?;
        Some(match v {
            Json::Num(n) => match n.as_f64() {
                // try_from: a finite but absurd value (1e30 s overflows
                // Duration) must be a 400, not a handler-thread panic.
                Some(f) if f.is_finite() && f >= 0.0 => Duration::try_from_secs_f64(f * scale)
                    .map_err(|_| WireError::invalid(key.clone(), "duration is out of range")),
                _ => Err(WireError::invalid(key, "expected a non-negative number")),
            },
            _ => Err(WireError::invalid(key, "expected a number")),
        })
    };
    // Canonical form first: exact nanos, no float detour.
    if let Some(v) = obj.get(canonical) {
        return Some(match v {
            Json::Num(n) => n
                .as_u64()
                .map(Duration::from_nanos)
                .ok_or_else(|| WireError::invalid(canonical, "expected integer nanoseconds")),
            _ => Err(WireError::invalid(canonical, "expected a number")),
        });
    }
    lookup("_ms", 1e-3).or_else(|| lookup("_s", 1.0))
}

// ---------------------------------------------------------------------------
// Campaign codec
// ---------------------------------------------------------------------------

/// Encode a [`CampaignSpec`] as its wire object.
pub fn campaign_to_json(spec: &CampaignSpec) -> Json {
    let ga = &spec.ga;
    let mut members = vec![
        ("name".into(), Json::str(&spec.name)),
        ("seed".into(), Json::u64(spec.seed)),
        ("top_k".into(), Json::usize(spec.top_k)),
        (
            "ga".into(),
            Json::Obj(vec![
                ("population".into(), Json::usize(ga.population)),
                ("generations".into(), Json::usize(ga.generations)),
                ("tournament".into(), Json::usize(ga.tournament)),
                ("crossover_rate".into(), Json::f32(ga.crossover_rate)),
                ("mutation_rate".into(), Json::f32(ga.mutation_rate)),
                ("sigma_translation".into(), Json::f32(ga.sigma_translation)),
                ("sigma_rotation".into(), Json::f32(ga.sigma_rotation)),
                ("sigma_torsion".into(), Json::f32(ga.sigma_torsion)),
                ("elitism".into(), Json::usize(ga.elitism)),
            ]),
        ),
        ("backend".into(), backend_to_json(spec.backend)),
        ("stop".into(), stop_to_json(spec.stop)),
        ("chunk".into(), chunk_to_json(spec.chunk)),
        ("shard".into(), shard_to_json(spec.shard)),
    ];
    if let Some(r) = spec.search_radius {
        members.push(("search_radius".into(), Json::f32(r)));
    }
    if let Some(ls) = spec.local_search {
        members.push((
            "local_search".into(),
            Json::Obj(vec![
                ("max_evals".into(), Json::usize(ls.max_evals)),
                ("rho_start".into(), Json::f32(ls.rho_start)),
                ("rho_min".into(), Json::f32(ls.rho_min)),
                ("expand_after".into(), Json::usize(ls.expand_after)),
                ("contract_after".into(), Json::usize(ls.contract_after)),
                ("fraction".into(), Json::f32(ls.fraction)),
            ]),
        ));
    }
    if let Some(d) = spec.grid_dims {
        members.push((
            "grid_dims".into(),
            Json::Obj(vec![
                (
                    "npts".into(),
                    Json::Arr(d.npts.iter().map(|&n| Json::u64(n as u64)).collect()),
                ),
                ("spacing".into(), Json::f32(d.spacing)),
                (
                    "origin".into(),
                    Json::Arr(vec![
                        Json::f32(d.origin.x),
                        Json::f32(d.origin.y),
                        Json::f32(d.origin.z),
                    ]),
                ),
            ]),
        ));
    }
    Json::Obj(members)
}

fn backend_to_json(policy: BackendPolicy) -> Json {
    match policy {
        BackendPolicy::Detect => Json::str("detect"),
        BackendPolicy::Fixed(b) => Json::Obj(vec![("fixed".into(), Json::str(b.name()))]),
    }
}

fn stop_to_json(policy: StopPolicy) -> Json {
    match policy {
        StopPolicy::Complete => Json::str("complete"),
        StopPolicy::MaxEvaluations(n) => Json::Obj(vec![("max_evaluations".into(), Json::u64(n))]),
        StopPolicy::Deadline(d) => {
            Json::Obj(vec![("deadline_ns".into(), Json::u64(duration_nanos(d)))])
        }
        StopPolicy::RankingStable { window, epsilon } => Json::Obj(vec![(
            "ranking_stable".into(),
            Json::Obj(vec![
                ("window".into(), Json::usize(window)),
                ("epsilon".into(), Json::f32(epsilon)),
            ]),
        )]),
    }
}

fn shard_to_json(policy: ShardPolicy) -> Json {
    match policy {
        ShardPolicy::FairShare => Json::str("fair_share"),
        ShardPolicy::SingleQueue => Json::str("single_queue"),
        ShardPolicy::Weighted(w) => Json::Obj(vec![("weighted".into(), Json::f32(w))]),
    }
}

fn chunk_to_json(policy: ChunkPolicy) -> Json {
    match policy {
        ChunkPolicy::Fixed(n) => Json::Obj(vec![("fixed".into(), Json::usize(n))]),
        ChunkPolicy::Adaptive { target } => Json::Obj(vec![(
            "adaptive_target_ns".into(),
            Json::u64(duration_nanos(target)),
        )]),
    }
}

/// Whole nanoseconds, saturating — a >584-year policy duration encodes
/// as the maximum rather than wrapping.
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Decode a campaign object and validate it through
/// [`Campaign::builder`]; builder rejections surface as
/// [`WireError::Campaign`] (HTTP 422).
pub fn campaign_from_json(v: &Json) -> Result<CampaignSpec, WireError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(WireError::invalid("campaign", "expected an object"));
    }
    let mut builder = Campaign::builder().name(get_str(v, "name")?.unwrap_or_default());
    if let Some(seed) = get_u64(v, "seed")? {
        builder = builder.seed(seed);
    }
    if let Some(k) = get_usize(v, "top_k")? {
        builder = builder.top_k(k);
    }
    if let Some(r) = get_f32(v, "search_radius")? {
        builder = builder.search_radius(r);
    }
    if let Some(ga) = v.get("ga").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.ga(ga_from_json(ga)?);
    }
    if let Some(ls) = v.get("local_search").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.local_search(local_search_from_json(ls)?);
    }
    if let Some(b) = v.get("backend").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.backend(backend_from_json(b)?);
    }
    if let Some(s) = v.get("stop").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.stop(stop_from_json(s)?);
    }
    if let Some(c) = v.get("chunk").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.chunk(chunk_from_json(c)?);
    }
    if let Some(s) = v.get("shard").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.shard(shard_from_json(s)?);
    }
    if let Some(d) = v.get("grid_dims").filter(|g| !matches!(g, Json::Null)) {
        builder = builder.grid_dims(grid_dims_from_json(d)?);
    }
    Ok(builder.build()?)
}

fn ga_from_json(v: &Json) -> Result<GaParams, WireError> {
    let d = GaParams::default();
    Ok(GaParams {
        population: get_usize(v, "population")?.unwrap_or(d.population),
        generations: get_usize(v, "generations")?.unwrap_or(d.generations),
        tournament: get_usize(v, "tournament")?.unwrap_or(d.tournament),
        crossover_rate: get_f32(v, "crossover_rate")?.unwrap_or(d.crossover_rate),
        mutation_rate: get_f32(v, "mutation_rate")?.unwrap_or(d.mutation_rate),
        sigma_translation: get_f32(v, "sigma_translation")?.unwrap_or(d.sigma_translation),
        sigma_rotation: get_f32(v, "sigma_rotation")?.unwrap_or(d.sigma_rotation),
        sigma_torsion: get_f32(v, "sigma_torsion")?.unwrap_or(d.sigma_torsion),
        elitism: get_usize(v, "elitism")?.unwrap_or(d.elitism),
    })
}

fn local_search_from_json(v: &Json) -> Result<SolisWetsParams, WireError> {
    let d = SolisWetsParams::default();
    Ok(SolisWetsParams {
        max_evals: get_usize(v, "max_evals")?.unwrap_or(d.max_evals),
        rho_start: get_f32(v, "rho_start")?.unwrap_or(d.rho_start),
        rho_min: get_f32(v, "rho_min")?.unwrap_or(d.rho_min),
        expand_after: get_usize(v, "expand_after")?.unwrap_or(d.expand_after),
        contract_after: get_usize(v, "contract_after")?.unwrap_or(d.contract_after),
        fraction: get_f32(v, "fraction")?.unwrap_or(d.fraction),
    })
}

fn backend_from_json(v: &Json) -> Result<BackendPolicy, WireError> {
    match v {
        Json::Str(s) if s == "detect" => Ok(BackendPolicy::Detect),
        Json::Str(s) => Err(WireError::invalid(
            "backend",
            format!(
                "unknown policy '{s}' (use \"detect\", {{\"fixed\": …}}, or {{\"pinned\": …}})"
            ),
        )),
        Json::Obj(_) => {
            if let Some(name) = get_str(v, "fixed")? {
                let b = Backend::parse(name).ok_or_else(|| {
                    WireError::invalid("backend.fixed", format!("unknown backend '{name}'"))
                })?;
                Ok(BackendPolicy::Fixed(b))
            } else if let Some(name) = get_str(v, "pinned")? {
                let l = SimdLevel::parse(name).ok_or_else(|| {
                    WireError::invalid("backend.pinned", format!("unknown SIMD level '{name}'"))
                })?;
                Ok(BackendPolicy::Fixed(Backend::Explicit(l)))
            } else {
                Err(WireError::invalid(
                    "backend",
                    "expected a 'fixed' or 'pinned' member",
                ))
            }
        }
        _ => Err(WireError::invalid("backend", "expected a string or object")),
    }
}

fn stop_from_json(v: &Json) -> Result<StopPolicy, WireError> {
    match v {
        Json::Str(s) if s == "complete" => Ok(StopPolicy::Complete),
        Json::Str(s) => Err(WireError::invalid(
            "stop",
            format!("unknown policy '{s}' (use \"complete\" or a tagged object)"),
        )),
        Json::Obj(_) => {
            if let Some(n) = get_u64(v, "max_evaluations")? {
                Ok(StopPolicy::MaxEvaluations(n))
            } else if let Some(d) = get_duration(v, "deadline", "deadline_ns") {
                Ok(StopPolicy::Deadline(d?))
            } else if let Some(rs) = v.get("ranking_stable") {
                Ok(StopPolicy::RankingStable {
                    window: get_usize(rs, "window")?.ok_or(WireError::Missing {
                        field: "stop.ranking_stable.window",
                    })?,
                    epsilon: get_f32(rs, "epsilon")?.unwrap_or(0.0),
                })
            } else {
                Err(WireError::invalid(
                    "stop",
                    "expected 'max_evaluations', 'deadline_ns', or 'ranking_stable'",
                ))
            }
        }
        _ => Err(WireError::invalid("stop", "expected a string or object")),
    }
}

fn shard_from_json(v: &Json) -> Result<ShardPolicy, WireError> {
    match v {
        Json::Str(s) if s == "fair_share" => Ok(ShardPolicy::FairShare),
        Json::Str(s) if s == "single_queue" => Ok(ShardPolicy::SingleQueue),
        Json::Str(s) => Err(WireError::invalid(
            "shard",
            format!(
                "unknown policy '{s}' (use \"fair_share\", \"single_queue\", or \
                 {{\"weighted\": w}})"
            ),
        )),
        Json::Obj(_) => match get_f32(v, "weighted")? {
            Some(w) => Ok(ShardPolicy::Weighted(w)),
            None => Err(WireError::invalid("shard", "expected a 'weighted' member")),
        },
        _ => Err(WireError::invalid("shard", "expected a string or object")),
    }
}

fn chunk_from_json(v: &Json) -> Result<ChunkPolicy, WireError> {
    match v {
        Json::Obj(_) => {
            if let Some(n) = get_usize(v, "fixed")? {
                Ok(ChunkPolicy::Fixed(n))
            } else if let Some(d) = get_duration(v, "adaptive_target", "adaptive_target_ns") {
                Ok(ChunkPolicy::Adaptive { target: d? })
            } else {
                Err(WireError::invalid(
                    "chunk",
                    "expected 'fixed' or 'adaptive_target_ns'",
                ))
            }
        }
        _ => Err(WireError::invalid("chunk", "expected an object")),
    }
}

fn grid_dims_from_json(v: &Json) -> Result<GridDims, WireError> {
    let npts = match require(v, "npts")? {
        Json::Arr(items) if items.len() == 3 => {
            let mut out = [0u32; 3];
            for (i, item) in items.iter().enumerate() {
                let n = as_num(item, "grid_dims.npts")?
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| WireError::invalid("grid_dims.npts", "expected u32 counts"))?;
                if n == 0 {
                    return Err(WireError::invalid(
                        "grid_dims.npts",
                        "counts must be positive",
                    ));
                }
                out[i] = n;
            }
            out
        }
        _ => {
            return Err(WireError::invalid(
                "grid_dims.npts",
                "expected [nx, ny, nz]",
            ))
        }
    };
    let spacing = get_f32(v, "spacing")?.ok_or(WireError::Missing {
        field: "grid_dims.spacing",
    })?;
    if !spacing.is_finite() || spacing <= 0.0 {
        return Err(WireError::invalid(
            "grid_dims.spacing",
            "must be finite and positive",
        ));
    }
    let origin = match require(v, "origin")? {
        Json::Arr(items) if items.len() == 3 => {
            let mut xyz = [0f32; 3];
            for (i, item) in items.iter().enumerate() {
                xyz[i] = as_num(item, "grid_dims.origin")?
                    .as_f32()
                    .ok_or_else(|| WireError::invalid("grid_dims.origin", "expected numbers"))?;
            }
            Vec3::new(xyz[0], xyz[1], xyz[2])
        }
        _ => return Err(WireError::invalid("grid_dims.origin", "expected [x, y, z]")),
    };
    Ok(GridDims {
        npts,
        spacing,
        origin,
    })
}

// ---------------------------------------------------------------------------
// Submission codec (receptor + ligands + priority)
// ---------------------------------------------------------------------------

/// A decoded `POST /jobs` payload, ready to bind into a
/// [`JobSpec`](crate::job::JobSpec).
///
/// The receptor stays an *unloaded* [`ReceptorSource`]: decoding a
/// submission performs no filesystem access, so the server can apply
/// its source policy (path sources are a server-side read and disabled
/// by default — see `NetConfig::allow_path_sources`) before calling
/// [`ReceptorSource::load`].
#[derive(Clone, Debug)]
pub struct Submission {
    pub campaign: CampaignSpec,
    pub receptor: ReceptorSource,
    pub ligands: LigandSource,
    /// Optional sub-job window: dock only `take` ligands starting at
    /// global index `skip`. Set by a cluster coordinator fanning one
    /// campaign out; absent for whole-stream submissions.
    pub slice: Option<LigandSlice>,
    pub priority: Priority,
}

impl Submission {
    /// Does this submission name any server-side filesystem path?
    pub fn uses_path_sources(&self) -> bool {
        matches!(self.receptor, ReceptorSource::Path(_))
            || matches!(self.ligands, LigandSource::PdbqtFile(_))
    }

    /// Materialize the receptor (shared allocation for the executor).
    pub fn load_receptor(&self) -> Result<Arc<Molecule>, WireError> {
        self.receptor.load().map(Arc::new)
    }
}

/// Decode a submission body (already-parsed JSON). Performs no I/O —
/// see [`Submission`] for why the receptor stays a source.
pub fn submission_from_json(v: &Json) -> Result<Submission, WireError> {
    let campaign = campaign_from_json(require(v, "campaign")?)?;
    let receptor = receptor_from_json(require(v, "receptor")?)?;
    let ligands = ligands_from_json(require(v, "ligands")?)?;
    let priority = match get_str(v, "priority")? {
        None => Priority::Normal,
        Some(s) => priority_parse(s)
            .ok_or_else(|| WireError::invalid("priority", format!("unknown priority '{s}'")))?,
    };
    let slice = match v.get("slice") {
        None | Some(Json::Null) => None,
        Some(s) => {
            let skip = get_usize(s, "skip")?.ok_or(WireError::Missing {
                field: "slice.skip",
            })?;
            let take = get_usize(s, "take")?.ok_or(WireError::Missing {
                field: "slice.take",
            })?;
            if take == 0 {
                return Err(WireError::invalid("slice.take", "must be positive"));
            }
            Some(LigandSlice { skip, take })
        }
    };
    Ok(Submission {
        campaign,
        receptor,
        ligands,
        slice,
        priority,
    })
}

/// Encode the submission for a campaign + molecule bindings (the client
/// side of `POST /jobs`).
pub fn submission_to_json(
    campaign: &CampaignSpec,
    receptor: &ReceptorSource,
    ligands: &LigandSource,
    priority: Priority,
) -> Result<Json, WireError> {
    sliced_submission_to_json(campaign, receptor, ligands, None, priority)
}

/// [`submission_to_json`] plus an optional sub-job window (`slice`) —
/// the coordinator side of cluster scatter.
pub fn sliced_submission_to_json(
    campaign: &CampaignSpec,
    receptor: &ReceptorSource,
    ligands: &LigandSource,
    slice: Option<LigandSlice>,
    priority: Priority,
) -> Result<Json, WireError> {
    let mut members = vec![
        ("campaign".into(), campaign_to_json(campaign)),
        ("receptor".into(), receptor_to_json(receptor)),
        ("ligands".into(), ligands_to_json(ligands)?),
        ("priority".into(), Json::str(priority_name(priority))),
    ];
    if let Some(s) = slice {
        members.push((
            "slice".into(),
            Json::Obj(vec![
                ("skip".into(), Json::usize(s.skip)),
                ("take".into(), Json::usize(s.take)),
            ]),
        ));
    }
    Ok(Json::Obj(members))
}

/// Where a submission's receptor comes from (the wire-side mirror of
/// [`LigandSource`], for the single target molecule).
#[derive(Clone, Debug, PartialEq)]
pub enum ReceptorSource {
    /// `mudock_molio::synthetic_receptor(seed, atoms, radius)`.
    Synth {
        seed: u64,
        atoms: usize,
        radius: f32,
    },
    /// Inline PDBQT text.
    Pdbqt(String),
    /// A path readable by the *server* process.
    Path(String),
}

impl ReceptorSource {
    /// Materialize the molecule (server side).
    pub fn load(&self) -> Result<Molecule, WireError> {
        match self {
            ReceptorSource::Synth {
                seed,
                atoms,
                radius,
            } => Ok(mudock_molio::synthetic_receptor(*seed, *atoms, *radius)),
            ReceptorSource::Pdbqt(text) => mudock_molio::parse(text)
                .map_err(|e| WireError::invalid("receptor.pdbqt", e.to_string())),
            ReceptorSource::Path(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| WireError::invalid("receptor.path", format!("{path}: {e}")))?;
                mudock_molio::parse(&text)
                    .map_err(|e| WireError::invalid("receptor.path", e.to_string()))
            }
        }
    }
}

fn receptor_to_json(src: &ReceptorSource) -> Json {
    match src {
        ReceptorSource::Synth {
            seed,
            atoms,
            radius,
        } => Json::Obj(vec![(
            "synth".into(),
            Json::Obj(vec![
                ("seed".into(), Json::u64(*seed)),
                ("atoms".into(), Json::usize(*atoms)),
                ("radius".into(), Json::f32(*radius)),
            ]),
        )]),
        ReceptorSource::Pdbqt(text) => Json::Obj(vec![("pdbqt".into(), Json::str(text))]),
        ReceptorSource::Path(path) => Json::Obj(vec![("path".into(), Json::str(path))]),
    }
}

fn receptor_from_json(v: &Json) -> Result<ReceptorSource, WireError> {
    let src = if let Some(synth) = v.get("synth") {
        ReceptorSource::Synth {
            seed: get_u64(synth, "seed")?.unwrap_or(0),
            atoms: get_usize(synth, "atoms")?.ok_or(WireError::Missing {
                field: "receptor.synth.atoms",
            })?,
            radius: get_f32(synth, "radius")?.ok_or(WireError::Missing {
                field: "receptor.synth.radius",
            })?,
        }
    } else if let Some(text) = get_str(v, "pdbqt")? {
        ReceptorSource::Pdbqt(text.to_string())
    } else if let Some(path) = get_str(v, "path")? {
        ReceptorSource::Path(path.to_string())
    } else {
        return Err(WireError::invalid(
            "receptor",
            "expected a 'synth', 'pdbqt', or 'path' member",
        ));
    };
    Ok(src)
}

/// Encode a [`LigandSource`]. Pre-materialized
/// [`LigandSource::Molecules`] have no wire form — ship them as PDBQT
/// text instead.
pub fn ligands_to_json(src: &LigandSource) -> Result<Json, WireError> {
    match src {
        LigandSource::Synth { seed, count } => Ok(Json::Obj(vec![(
            "synth".into(),
            Json::Obj(vec![
                ("seed".into(), Json::u64(*seed)),
                ("count".into(), Json::usize(*count)),
            ]),
        )])),
        LigandSource::PdbqtText(text) => {
            Ok(Json::Obj(vec![("pdbqt".into(), Json::str(text.as_str()))]))
        }
        LigandSource::PdbqtFile(path) => Ok(Json::Obj(vec![(
            "path".into(),
            Json::str(path.to_string_lossy()),
        )])),
        LigandSource::Molecules(_) => Err(WireError::invalid(
            "ligands",
            "pre-materialized molecules have no wire form; send PDBQT text",
        )),
    }
}

/// Decode a [`LigandSource`] from its wire object.
pub fn ligands_from_json(v: &Json) -> Result<LigandSource, WireError> {
    if let Some(synth) = v.get("synth") {
        Ok(LigandSource::Synth {
            seed: get_u64(synth, "seed")?.unwrap_or(0),
            count: get_usize(synth, "count")?.ok_or(WireError::Missing {
                field: "ligands.synth.count",
            })?,
        })
    } else if let Some(text) = get_str(v, "pdbqt")? {
        Ok(LigandSource::from_pdbqt(text))
    } else if let Some(path) = get_str(v, "path")? {
        Ok(LigandSource::from_file(path))
    } else {
        Err(WireError::invalid(
            "ligands",
            "expected a 'synth', 'pdbqt', or 'path' member",
        ))
    }
}

// ---------------------------------------------------------------------------
// Job status / outcome codec
// ---------------------------------------------------------------------------

/// Wire name of a [`JobState`].
pub fn state_name(state: JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Completed => "completed",
        JobState::Cancelled => "cancelled",
        JobState::Failed => "failed",
    }
}

/// Parse a [`JobState`] wire name.
pub fn state_parse(s: &str) -> Option<JobState> {
    Some(match s {
        "queued" => JobState::Queued,
        "running" => JobState::Running,
        "completed" => JobState::Completed,
        "cancelled" => JobState::Cancelled,
        "failed" => JobState::Failed,
        _ => return None,
    })
}

/// Wire name of a [`Priority`].
pub fn priority_name(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Normal => "normal",
        Priority::High => "high",
    }
}

/// Parse a [`Priority`] wire name.
pub fn priority_parse(s: &str) -> Option<Priority> {
    Some(match s {
        "low" => Priority::Low,
        "normal" => Priority::Normal,
        "high" => Priority::High,
        _ => return None,
    })
}

/// One `GET /jobs/{id}` response, decoded.
#[derive(Clone, Debug)]
pub struct JobStatus {
    pub id: JobId,
    pub name: String,
    pub state: JobState,
    pub ligands_done: usize,
    pub chunks_done: usize,
    /// Per-stage wall-clock breakdown; `None` when the peer predates
    /// stage tracing.
    pub stages: Option<StageTimings>,
    /// Present once the job reached a terminal state.
    pub outcome: Option<JobOutcome>,
}

impl JobStatus {
    /// Has the job reached a terminal state?
    pub fn is_terminal(&self) -> bool {
        self.state.is_terminal()
    }
}

/// Encode a status snapshot (server side of `GET /jobs/{id}`).
pub fn status_to_json(s: &JobStatus) -> Json {
    let mut members = vec![
        ("id".into(), Json::u64(s.id)),
        ("name".into(), Json::str(&s.name)),
        ("state".into(), Json::str(state_name(s.state))),
        ("ligands_done".into(), Json::usize(s.ligands_done)),
        ("chunks_done".into(), Json::usize(s.chunks_done)),
        (
            "stages".into(),
            stages_to_json(&s.stages.unwrap_or_default()),
        ),
    ];
    if let Some(o) = &s.outcome {
        members.push(("outcome".into(), outcome_to_json(o)));
    }
    Json::Obj(members)
}

/// Encode a [`StageTimings`] breakdown: one key per stage, `null`
/// until that stage has happened.
fn stages_to_json(s: &StageTimings) -> Json {
    let opt = |v: Option<u64>| match v {
        Some(n) => Json::u64(n),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("queue_wait_ns".into(), opt(s.queue_wait_ns)),
        ("grid_ns".into(), opt(s.grid_ns)),
        (
            "grid_source".into(),
            match s.grid_source {
                Some(g) => Json::str(g.name()),
                None => Json::Null,
            },
        ),
        ("dock_ns".into(), opt(s.dock_ns)),
        ("dock_chunks".into(), Json::u64(s.dock_chunks)),
        ("sink_ns".into(), opt(s.sink_ns)),
        ("total_ns".into(), opt(s.total_ns)),
    ])
}

/// Decode a `stages` object. Tolerant by design: every field defaults
/// to "not yet", and an unknown `grid_source` decodes as absent rather
/// than failing the whole status.
fn stages_from_json(v: &Json) -> Result<StageTimings, WireError> {
    Ok(StageTimings {
        queue_wait_ns: get_u64(v, "queue_wait_ns")?,
        grid_ns: get_u64(v, "grid_ns")?,
        grid_source: get_str(v, "grid_source")?.and_then(GridSource::parse),
        dock_ns: get_u64(v, "dock_ns")?,
        dock_chunks: get_u64(v, "dock_chunks")?.unwrap_or(0),
        sink_ns: get_u64(v, "sink_ns")?,
        total_ns: get_u64(v, "total_ns")?,
    })
}

fn outcome_to_json(o: &JobOutcome) -> Json {
    Json::Obj(vec![
        ("replayed_chunks".into(), Json::usize(o.replayed_chunks)),
        ("grid_cache_hit".into(), Json::Bool(o.grid_cache_hit)),
        ("stopped_early".into(), Json::Bool(o.stopped_early)),
        ("elapsed_ns".into(), Json::u64(duration_nanos(o.elapsed))),
        (
            "error".into(),
            match &o.error {
                Some(e) => Json::str(e),
                None => Json::Null,
            },
        ),
        (
            "top".into(),
            Json::Arr(
                o.top
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("index".into(), Json::usize(r.index)),
                            ("name".into(), Json::str(&r.name)),
                            ("score".into(), Json::f32(r.score)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a status response (client side of `GET /jobs/{id}`).
pub fn status_from_json(v: &Json) -> Result<JobStatus, WireError> {
    let id = get_u64(v, "id")?.ok_or(WireError::Missing { field: "id" })?;
    let name = get_str(v, "name")?.unwrap_or_default().to_string();
    let state_str = get_str(v, "state")?.ok_or(WireError::Missing { field: "state" })?;
    let state = state_parse(state_str)
        .ok_or_else(|| WireError::invalid("state", format!("unknown state '{state_str}'")))?;
    let ligands_done = get_usize(v, "ligands_done")?.unwrap_or(0);
    let chunks_done = get_usize(v, "chunks_done")?.unwrap_or(0);
    let stages = match v.get("stages") {
        None | Some(Json::Null) => None,
        Some(s) => Some(stages_from_json(s)?),
    };
    let outcome = match v.get("outcome") {
        None | Some(Json::Null) => None,
        Some(o) => Some(JobOutcome {
            id,
            name: name.clone(),
            state,
            ligands_done,
            chunks_done,
            replayed_chunks: get_usize(o, "replayed_chunks")?.unwrap_or(0),
            grid_cache_hit: matches!(o.get("grid_cache_hit"), Some(Json::Bool(true))),
            stopped_early: matches!(o.get("stopped_early"), Some(Json::Bool(true))),
            elapsed: Duration::from_nanos(get_u64(o, "elapsed_ns")?.unwrap_or(0)),
            error: get_str(o, "error")?.map(str::to_string),
            top: match o.get("top") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|e| {
                        Ok(RankedLigand {
                            index: get_usize(e, "index")?
                                .ok_or(WireError::Missing { field: "top.index" })?,
                            name: get_str(e, "name")?.unwrap_or_default().to_string(),
                            score: get_f32(e, "score")?
                                .ok_or(WireError::Missing { field: "top.score" })?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
                _ => Vec::new(),
            },
        }),
    };
    Ok(JobStatus {
        id,
        name,
        state,
        ligands_done,
        chunks_done,
        stages,
        outcome,
    })
}

/// Encode [`ServiceStats`] (the `GET /stats` body). `shards` lists
/// every receptor shard the service has seen — depth (`queued`),
/// occupancy (`active`), weight, and cumulative submissions per shard
/// — and `shard_count` its length, so scripts can assert multi-receptor
/// behavior without walking the array.
pub fn stats_to_json(stats: &ServiceStats) -> Json {
    let shards: Vec<Json> = stats
        .shards
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("key".into(), Json::str(format!("{:016x}", s.key))),
                ("queued".into(), Json::usize(s.queued)),
                ("active".into(), Json::usize(s.active)),
                ("weight".into(), Json::f32(s.weight)),
                ("submitted".into(), Json::u64(s.submitted)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("jobs_submitted".into(), Json::u64(stats.jobs_submitted)),
        ("jobs_completed".into(), Json::u64(stats.jobs_completed)),
        ("jobs_cancelled".into(), Json::u64(stats.jobs_cancelled)),
        ("jobs_failed".into(), Json::u64(stats.jobs_failed)),
        ("ligands_docked".into(), Json::u64(stats.ligands_docked)),
        ("queued".into(), Json::usize(stats.queued)),
        ("active".into(), Json::usize(stats.active)),
        ("shard_count".into(), Json::usize(stats.shards.len())),
        ("shards".into(), Json::Arr(shards)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::u64(stats.cache.hits)),
                ("misses".into(), Json::u64(stats.cache.misses)),
                ("evictions".into(), Json::u64(stats.cache.evictions)),
                ("spills".into(), Json::u64(stats.cache.spills)),
                ("reloads".into(), Json::u64(stats.cache.reloads)),
                ("prefetches".into(), Json::u64(stats.cache.prefetches)),
                ("quarantined".into(), Json::u64(stats.cache.quarantined)),
                ("entries".into(), Json::usize(stats.cache.entries)),
                ("spilled".into(), Json::usize(stats.cache.spilled)),
                ("hit_rate".into(), Json::f64(stats.cache.hit_rate())),
                ("policy".into(), Json::str(stats.cache.policy)),
            ]),
        ),
    ])
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
            match err {
                WireError::Syntax { message, .. } => {
                    assert!(message.contains(fragment), "{text}: {message}");
                }
                other => panic!("{text}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(matches!(parse(&deep), Err(WireError::Syntax { .. })));
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn numbers_preserve_u64_and_f32_exactly() {
        let big = u64::MAX - 1;
        let v = parse(&Json::u64(big).encode()).unwrap();
        assert_eq!(as_num(&v, "t").unwrap().as_u64(), Some(big));
        for f in [f32::MIN_POSITIVE, -0.1, 1.0 / 3.0, 3.4e38, -0.0] {
            let v = parse(&Json::f32(f).encode()).unwrap();
            assert_eq!(
                as_num(&v, "t").unwrap().as_f32().unwrap().to_bits(),
                f.to_bits()
            );
        }
        // u64::MAX as f64 rounds up to 2^64: that float is *out* of
        // range and must be rejected, not saturated to u64::MAX.
        let v = parse("1.8446744073709552e19").unwrap();
        assert_eq!(as_num(&v, "t").unwrap().as_u64(), None);
        // The largest f64 below 2^64 still converts.
        let v = parse("1.8446744073709550e19").unwrap();
        assert!(as_num(&v, "t").unwrap().as_u64().is_some());
    }

    #[test]
    fn integral_floats_stay_floats_on_the_wire() {
        assert_eq!(Json::f32(2.0).encode(), "2.0");
        assert_eq!(Json::f32(-17.0).encode(), "-17.0");
        let v = parse(&Json::f64(1e300).encode()).unwrap();
        assert_eq!(as_num(&v, "t").unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn campaign_defaults_round_trip() {
        let spec = Campaign::builder().name("rt").build().unwrap();
        let back = campaign_from_json(&parse(&campaign_to_json(&spec).encode()).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn minimal_campaign_object_uses_builder_defaults() {
        let back = campaign_from_json(&parse(r#"{"name":"tiny"}"#).unwrap()).unwrap();
        assert_eq!(back, Campaign::builder().name("tiny").build().unwrap());
    }

    #[test]
    fn duration_unit_aliases_are_accepted() {
        let ms = parse(r#"{"deadline_ms": 1500}"#).unwrap();
        assert_eq!(
            stop_from_json(&ms).unwrap(),
            StopPolicy::Deadline(Duration::from_millis(1500))
        );
        let s = parse(r#"{"deadline_s": 2}"#).unwrap();
        assert_eq!(
            stop_from_json(&s).unwrap(),
            StopPolicy::Deadline(Duration::from_secs(2))
        );
        let chunk = parse(r#"{"adaptive_target_ms": 50}"#).unwrap();
        assert_eq!(
            chunk_from_json(&chunk).unwrap(),
            ChunkPolicy::Adaptive {
                target: Duration::from_millis(50)
            }
        );
    }

    #[test]
    fn invalid_campaign_maps_to_422_and_syntax_to_400() {
        let bad = campaign_from_json(&parse(r#"{"name":"x","top_k":0}"#).unwrap()).unwrap_err();
        assert_eq!(bad, WireError::Campaign(CampaignError::InvalidTopK(0)));
        assert_eq!(bad.http_status(), 422);
        assert_eq!(parse("{nope}").unwrap_err().http_status(), 400);
        let missing = submission_from_json(&parse("{}").unwrap()).unwrap_err();
        assert_eq!(missing, WireError::Missing { field: "campaign" });
        assert_eq!(missing.http_status(), 400);
    }

    #[test]
    fn submission_round_trips_through_text() {
        let campaign = Campaign::builder()
            .name("sub")
            .population(8)
            .generations(4)
            .top_k(3)
            .build()
            .unwrap();
        let body = submission_to_json(
            &campaign,
            &ReceptorSource::Synth {
                seed: 7,
                atoms: 60,
                radius: 6.0,
            },
            &LigandSource::synth(42, 5),
            Priority::High,
        )
        .unwrap()
        .encode();
        let sub = submission_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(sub.campaign, campaign);
        assert_eq!(sub.priority, Priority::High);
        assert_eq!(sub.ligands.len_hint(), Some(5));
        assert!(!sub.uses_path_sources());
        assert_eq!(
            sub.receptor,
            ReceptorSource::Synth {
                seed: 7,
                atoms: 60,
                radius: 6.0,
            }
        );
        assert_eq!(
            sub.load_receptor().unwrap().atoms.len(),
            mudock_molio::synthetic_receptor(7, 60, 6.0).atoms.len()
        );
    }

    #[test]
    fn path_sources_decode_without_touching_the_filesystem() {
        // Decoding must not read the named file — the server applies
        // its source policy first. A nonexistent path therefore
        // decodes fine and only load() fails.
        let body = r#"{"campaign": {"name": "p"},
                       "receptor": {"path": "/nonexistent/receptor.pdbqt"},
                       "ligands": {"path": "/nonexistent/library.pdbqt"}}"#;
        let sub = submission_from_json(&parse(body).unwrap()).unwrap();
        assert!(sub.uses_path_sources());
        assert!(matches!(
            sub.load_receptor(),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn status_with_outcome_round_trips() {
        let outcome = JobOutcome {
            id: 9,
            name: "job".into(),
            state: JobState::Completed,
            ligands_done: 12,
            chunks_done: 2,
            replayed_chunks: 1,
            grid_cache_hit: true,
            stopped_early: true,
            top: vec![RankedLigand {
                index: 3,
                name: "lig \"x\"".into(),
                score: -4.75,
            }],
            elapsed: Duration::from_nanos(123_456_789),
            error: None,
        };
        let stages = StageTimings {
            queue_wait_ns: Some(1_500),
            grid_ns: Some(2_000_000),
            grid_source: Some(GridSource::Reloaded),
            dock_ns: Some(40_000_000),
            dock_chunks: 2,
            sink_ns: None,
            total_ns: Some(45_000_000),
        };
        let text = status_to_json(&JobStatus {
            id: 9,
            name: "job".into(),
            state: JobState::Completed,
            ligands_done: 12,
            chunks_done: 2,
            stages: Some(stages),
            outcome: Some(outcome.clone()),
        })
        .encode();
        let status = status_from_json(&parse(&text).unwrap()).unwrap();
        assert!(status.is_terminal());
        assert_eq!(status.stages, Some(stages), "stage breakdown round-trips");
        let got = status.outcome.expect("terminal outcome");
        assert_eq!(got.top, outcome.top);
        assert_eq!(got.elapsed, outcome.elapsed);
        assert_eq!(got.stopped_early, outcome.stopped_early);
        assert_eq!(got.replayed_chunks, outcome.replayed_chunks);
    }

    #[test]
    fn status_without_stages_still_decodes() {
        // A status from a peer that predates stage tracing.
        let text = r#"{"id": 1, "name": "old", "state": "running",
                       "ligands_done": 4, "chunks_done": 1}"#;
        let status = status_from_json(&parse(text).unwrap()).unwrap();
        assert_eq!(status.stages, None);
        assert_eq!(status.ligands_done, 4);
    }

    #[test]
    fn materialized_molecules_refuse_a_wire_form() {
        let src = LigandSource::from_molecules(vec![]);
        assert!(matches!(
            ligands_to_json(&src),
            Err(WireError::Invalid { .. })
        ));
    }
}
