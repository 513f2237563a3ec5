//! The `*.trace` cache-event recorder and its parser.
//!
//! A [`GridCache`](super::GridCache) built with
//! [`GridCacheBuilder::trace`](super::GridCacheBuilder::trace) appends
//! one JSONL line per cache event — every access (with its outcome and
//! wall-clock cost), eviction, spill write, spill prune, prefetch hint,
//! and completed prefetch — to a trace file. The file is the input to
//! the offline policy replayer (`cache_replay` in `mudock-bench`, built
//! on [`super::policy`]): record a trace from production traffic once,
//! then sweep replacement policies over it without touching the node.
//!
//! # Format
//!
//! One JSON object per line. The first line is a header carrying the
//! recording cache's configuration, so a replay defaults to the exact
//! geometry the trace was captured under:
//!
//! ```text
//! {"ev":"open","version":1,"capacity":4,"spill_capacity":16,"policy":"slru","prefetch":false}
//! {"ev":"warm","t_ns":1200,"restored":2,"quarantined":0}
//! {"ev":"access","t_ns":51023,"key":"00c2a7...","level":"avx2","source":"built","bytes":4096,"dur_ns":49800}
//! {"ev":"evict","t_ns":93011,"key":"00c2a7...","level":"avx2"}
//! {"ev":"spill","t_ns":94500,"key":"00c2a7...","level":"avx2","bytes":4096}
//! ```
//!
//! Grid keys are the 16-hex-digit content fingerprint used for spill
//! file names; `t_ns` is monotonic nanoseconds since the recorder was
//! opened. Every line is flushed as it is written, so a trace survives
//! an abrupt `kill -9` of the node (that is the warm-restart test's
//! whole point). Writers hold a dedicated mutex — never the cache lock
//! — so tracing cannot extend the cache's critical sections.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mudock_grids::SimdLevel;
use mudock_obs::GridSource;

use crate::wire::Json;

/// A cache key as traced: content fingerprint plus build level.
pub type TraceKey = (u64, SimdLevel);

/// The trace file's first line: the recording cache's configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (currently 1).
    pub version: u32,
    /// Resident capacity of the recording cache.
    pub capacity: usize,
    /// Spill-tier capacity (0 when no spill tier was configured).
    pub spill_capacity: usize,
    /// Name of the recording cache's replacement policy: `slru`, or
    /// `lru` in traces recorded before plain LRU stopped being a live
    /// option (replayed as a protected segment of 0).
    pub policy: String,
    /// Whether the recording cache had prefetch enabled.
    pub prefetch: bool,
}

/// One timestamped cache event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the recorder was opened.
    pub t_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event payloads a [`GridCache`](super::GridCache) records.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A spill directory rescan at startup: how many valid files were
    /// restored into the tier and how many were quarantined as `.bad`.
    Warm {
        /// Valid spill files re-registered.
        restored: u64,
        /// Corrupt/unparseable files renamed aside.
        quarantined: u64,
    },
    /// One spill file re-registered by the startup rescan, in
    /// oldest-first order. Replay models mirror these into their file
    /// tables so a trace recorded on a warm-restarted node replays
    /// faithfully.
    Restore {
        /// The restored key.
        key: TraceKey,
    },
    /// One `get_or_build` lookup resolved.
    Access {
        /// The grid key looked up.
        key: TraceKey,
        /// How the grid set was obtained.
        source: GridSource,
        /// Size of the grid data in bytes.
        bytes: u64,
        /// Wall-clock nanoseconds the caller waited for the grid set.
        dur_ns: u64,
    },
    /// A resident entry was discarded to respect the capacity bound.
    Evict {
        /// The evicted key.
        key: TraceKey,
    },
    /// An evicted grid set was written to the spill tier.
    Spill {
        /// The spilled key.
        key: TraceKey,
        /// Bytes written.
        bytes: u64,
    },
    /// A spill file was deleted to respect the spill-tier bound.
    SpillDrop {
        /// The pruned key.
        key: TraceKey,
    },
    /// The router predicted this key is needed next (next queued job).
    Hint {
        /// The predicted key.
        key: TraceKey,
    },
    /// A prefetch reloaded a spilled grid set ahead of demand.
    Prefetch {
        /// The prefetched key.
        key: TraceKey,
        /// Wall-clock nanoseconds the background reload took.
        dur_ns: u64,
    },
}

/// A parsed trace file: header (if present) plus events in file order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The `open` line, when the file has one.
    pub header: Option<TraceHeader>,
    /// All subsequent events, in recording order.
    pub events: Vec<TraceEvent>,
}

/// Appends cache events to a trace file, one flushed JSONL line each.
pub struct CacheTracer {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    t0: Instant,
}

fn key_json(key: TraceKey) -> String {
    format!("\"key\":\"{:016x}\",\"level\":\"{}\"", key.0, key.1.name())
}

impl CacheTracer {
    /// Create (truncate) `path` and write the header line.
    pub fn create(path: &Path, header: &TraceHeader) -> std::io::Result<CacheTracer> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"ev\":\"open\",\"version\":{},\"capacity\":{},\"spill_capacity\":{},\
             \"policy\":\"{}\",\"prefetch\":{}}}",
            header.version, header.capacity, header.spill_capacity, header.policy, header.prefetch
        )?;
        out.flush()?;
        Ok(CacheTracer {
            out: Mutex::new(out),
            t0: Instant::now(),
        })
    }

    /// Record one event, stamped with the current monotonic offset.
    /// I/O errors are swallowed: tracing is diagnostics, never a
    /// correctness dependency of the cache.
    pub fn emit(&self, kind: TraceEventKind) {
        let t_ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let body = match kind {
            TraceEventKind::Warm {
                restored,
                quarantined,
            } => format!("\"ev\":\"warm\",\"t_ns\":{t_ns},\"restored\":{restored},\"quarantined\":{quarantined}"),
            TraceEventKind::Restore { key } => {
                format!("\"ev\":\"restore\",\"t_ns\":{t_ns},{}", key_json(key))
            }
            TraceEventKind::Access {
                key,
                source,
                bytes,
                dur_ns,
            } => format!(
                "\"ev\":\"access\",\"t_ns\":{t_ns},{},\"source\":\"{}\",\"bytes\":{bytes},\"dur_ns\":{dur_ns}",
                key_json(key),
                source.name()
            ),
            TraceEventKind::Evict { key } => {
                format!("\"ev\":\"evict\",\"t_ns\":{t_ns},{}", key_json(key))
            }
            TraceEventKind::Spill { key, bytes } => format!(
                "\"ev\":\"spill\",\"t_ns\":{t_ns},{},\"bytes\":{bytes}",
                key_json(key)
            ),
            TraceEventKind::SpillDrop { key } => {
                format!("\"ev\":\"spill_drop\",\"t_ns\":{t_ns},{}", key_json(key))
            }
            TraceEventKind::Hint { key } => {
                format!("\"ev\":\"hint\",\"t_ns\":{t_ns},{}", key_json(key))
            }
            TraceEventKind::Prefetch { key, dur_ns } => format!(
                "\"ev\":\"prefetch\",\"t_ns\":{t_ns},{},\"dur_ns\":{dur_ns}",
                key_json(key)
            ),
        };
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{{{body}}}");
        let _ = out.flush();
    }
}

fn str_field<'a>(v: &'a Json, name: &str) -> Option<&'a str> {
    match v.get(name)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn u64_field(v: &Json, name: &str) -> Option<u64> {
    match v.get(name)? {
        Json::Num(n) => n.as_u64(),
        _ => None,
    }
}

fn key_field(v: &Json) -> Option<TraceKey> {
    let key = u64::from_str_radix(str_field(v, "key")?, 16).ok()?;
    Some((key, SimdLevel::parse(str_field(v, "level")?)?))
}

enum Line {
    Header(TraceHeader),
    Event(TraceEvent),
    /// An `ev` this reader does not know (forward compatibility).
    Unknown,
}

/// `None`: a known event with a missing or ill-typed field.
fn parse_line(v: &Json) -> Option<Line> {
    let ev = str_field(v, "ev")?;
    if ev == "open" {
        return Some(Line::Header(TraceHeader {
            version: u32::try_from(u64_field(v, "version")?).ok()?,
            capacity: usize::try_from(u64_field(v, "capacity")?).ok()?,
            spill_capacity: usize::try_from(u64_field(v, "spill_capacity")?).ok()?,
            policy: str_field(v, "policy")?.to_string(),
            prefetch: match v.get("prefetch")? {
                Json::Bool(b) => *b,
                _ => return None,
            },
        }));
    }
    let kind = match ev {
        "warm" => TraceEventKind::Warm {
            restored: u64_field(v, "restored")?,
            quarantined: u64_field(v, "quarantined")?,
        },
        "restore" => TraceEventKind::Restore { key: key_field(v)? },
        "access" => TraceEventKind::Access {
            key: key_field(v)?,
            source: match str_field(v, "source")? {
                "hit" => GridSource::Hit,
                "built" => GridSource::Built,
                "reloaded" => GridSource::Reloaded,
                _ => return None,
            },
            bytes: u64_field(v, "bytes")?,
            dur_ns: u64_field(v, "dur_ns")?,
        },
        "evict" => TraceEventKind::Evict { key: key_field(v)? },
        "spill" => TraceEventKind::Spill {
            key: key_field(v)?,
            bytes: u64_field(v, "bytes")?,
        },
        "spill_drop" => TraceEventKind::SpillDrop { key: key_field(v)? },
        "hint" => TraceEventKind::Hint { key: key_field(v)? },
        "prefetch" => TraceEventKind::Prefetch {
            key: key_field(v)?,
            dur_ns: u64_field(v, "dur_ns")?,
        },
        _ => return Some(Line::Unknown),
    };
    let t_ns = u64_field(v, "t_ns")?;
    Some(Line::Event(TraceEvent { t_ns, kind }))
}

/// Parse a trace file. Lines with an `ev` this reader does not know are
/// skipped (forward compatibility); a line that is not a JSON object
/// with an `ev` — a torn final line, say — or a known event with a
/// missing or ill-typed field is an `InvalidData` error naming the
/// line, so a damaged trace fails loudly instead of replaying a
/// silently shortened history.
pub fn read_trace(path: &Path) -> std::io::Result<Trace> {
    let text = std::fs::read_to_string(path)?;
    let mut trace = Trace::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |why: String| {
            let msg = format!("trace line {}: {why}: {line}", i + 1);
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        };
        let json = crate::wire::parse(line).map_err(|e| bad(e.to_string()))?;
        match parse_line(&json).ok_or_else(|| bad("missing or ill-typed field".into()))? {
            Line::Event(ev) => trace.events.push(ev),
            Line::Header(header) => trace.header = Some(header),
            Line::Unknown => {}
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mudock-cache-trace-{}-{name}", std::process::id()))
    }

    #[test]
    fn events_round_trip_through_the_file() {
        let path = tmp("roundtrip.trace");
        let header = TraceHeader {
            version: 1,
            capacity: 2,
            spill_capacity: 4,
            policy: "slru".into(),
            prefetch: true,
        };
        let tracer = CacheTracer::create(&path, &header).unwrap();
        let key = (0x00c2_a7ff_0102_0304, SimdLevel::Scalar);
        let kinds = vec![
            TraceEventKind::Warm {
                restored: 2,
                quarantined: 1,
            },
            TraceEventKind::Restore { key },
            TraceEventKind::Access {
                key,
                source: GridSource::Built,
                bytes: 4096,
                dur_ns: 1234,
            },
            TraceEventKind::Evict { key },
            TraceEventKind::Spill { key, bytes: 4096 },
            TraceEventKind::SpillDrop { key },
            TraceEventKind::Hint { key },
            TraceEventKind::Prefetch { key, dur_ns: 99 },
        ];
        for k in &kinds {
            tracer.emit(k.clone());
        }
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.header, Some(header));
        let got: Vec<&TraceEventKind> = trace.events.iter().map(|e| &e.kind).collect();
        assert_eq!(got, kinds.iter().collect::<Vec<_>>());
        // Timestamps are monotone non-decreasing.
        for w in trace.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_lines_fail_loudly_but_unknown_events_are_skipped() {
        let path = tmp("junk.trace");
        let access = "{\"ev\":\"access\",\"t_ns\":5,\"key\":\"00000000000000c2\",\
                      \"level\":\"scalar\",\"source\":\"built\",\"bytes\":64,\"dur_ns\":9}";
        let read = |text: &str| {
            std::fs::write(&path, text).unwrap();
            read_trace(&path)
        };
        let unknown = "{\"ev\":\"future_thing\",\"t_ns\":1}";
        let ok = read(&format!("{unknown}\n{access}\n")).unwrap();
        assert_eq!(ok.events.len(), 1, "the unknown event is skipped");

        let damaged = [
            ("garbage", "complete garbage\n".to_string()),
            (
                "truncated final line",
                format!("{access}\n{}", &access[..access.len() - 20]),
            ),
            (
                "known event without key",
                "{\"ev\":\"evict\",\"t_ns\":7}\n".to_string(),
            ),
            (
                "ill-typed field",
                access.replace("\"bytes\":64", "\"bytes\":\"64\""),
            ),
            ("object without ev", "{\"t_ns\":1}\n".to_string()),
        ];
        for (what, text) in damaged {
            let err = read(&text).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            let line = if what == "truncated final line" { 2 } else { 1 };
            assert!(
                err.to_string().contains(&format!("trace line {line}:")),
                "{what}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
