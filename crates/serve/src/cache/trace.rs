//! The `*.trace` cache-event recorder and its parser.
//!
//! A [`GridCache`](super::GridCache) built with
//! [`GridCacheBuilder::trace`](super::GridCacheBuilder::trace) appends
//! one JSONL line per cache event — every access (with its outcome and
//! wall-clock cost), eviction, spill write, spill prune and warm-restart
//! restore — to a trace file. The file is the input to the offline
//! policy replayer (`cache_replay` in `mudock-bench`, built on
//! [`super::policy`]): record a trace from production traffic once,
//! then sweep replacement policies over it without touching the node.
//!
//! # Format
//!
//! One JSON object per line. The first line is a header carrying the
//! recording cache's configuration, so a replay defaults to the exact
//! geometry the trace was captured under:
//!
//! ```text
//! {"ev":"open","version":2,"capacity":4,"spill_capacity":16,"policy":"slru"}
//! {"ev":"warm","t_ns":1200,"restored":2,"quarantined":0}
//! {"ev":"access","t_ns":51023,"key":"00c2a7...","level":"avx2","source":"built","bytes":4096,"dur_ns":49800}
//! {"ev":"evict","t_ns":93011,"key":"00c2a7...","level":"avx2"}
//! {"ev":"spill","t_ns":94500,"key":"00c2a7...","level":"avx2","bytes":4096}
//! ```
//!
//! Grid keys are the 16-hex-digit content fingerprint used for spill
//! file names; `t_ns` is monotonic nanoseconds since the recorder was
//! opened. Lines are written and read through `mudock_obs::json`, the
//! workspace's one JSON codec. Every line is flushed as it is written,
//! so a trace survives an abrupt `kill -9` of the node (that is the
//! warm-restart test's whole point). Writers hold a dedicated mutex —
//! never the cache lock — so tracing cannot extend the cache's critical
//! sections.
//!
//! # Versions
//!
//! Version-1 traces were recorded while the spill tier wrote every
//! eviction and pruned its oldest file; those of nodes that reloaded
//! grids ahead of demand also carry a `prefetch` header field, `hint`
//! lines and early-reload lines. The reader still parses them (it
//! ignores unknown fields and event kinds), but `cache_replay` refuses
//! them: today's directory would replay counters the node never had.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mudock_grids::SimdLevel;
use mudock_obs::json::{self, Json};
use mudock_obs::GridSource;

/// The format version this binary records (see "Versions").
pub const TRACE_VERSION: u32 = 2;

/// A cache key as traced: content fingerprint plus build level.
pub type TraceKey = (u64, SimdLevel);

/// The trace file's first line: the recording cache's configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version ([`TRACE_VERSION`] when recorded by this binary).
    pub version: u32,
    /// Resident capacity of the recording cache.
    pub capacity: usize,
    /// Spill-tier capacity (0 when no spill tier was configured).
    pub spill_capacity: usize,
    /// Name of the recording cache's replacement policy: `slru`, or
    /// `lru` in traces recorded before plain LRU stopped being a live
    /// option (replayed as a protected segment of 0).
    pub policy: String,
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

impl CacheTracer {
    /// Create (truncate) `path` and write the header line.
    pub fn create(path: &Path, header: &TraceHeader) -> std::io::Result<CacheTracer> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let line = Json::Obj(vec![
            ("ev".into(), Json::str("open")),
            ("version".into(), Json::u64(header.version.into())),
            ("capacity".into(), Json::usize(header.capacity)),
            ("spill_capacity".into(), Json::usize(header.spill_capacity)),
            ("policy".into(), Json::str(&header.policy)),
        ]);
        writeln!(out, "{}", line.encode())?;
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
        let u = |k: &'static str, v: u64| (k, Json::u64(v));
        let (ev, key, rest) = match kind {
            TraceEventKind::Warm {
                restored,
                quarantined,
            } => (
                "warm",
                None,
                vec![u("restored", restored), u("quarantined", quarantined)],
            ),
            TraceEventKind::Restore { key } => ("restore", Some(key), vec![]),
            TraceEventKind::Access {
                key,
                source,
                bytes,
                dur_ns,
            } => {
                let source = ("source", Json::str(source.name()));
                (
                    "access",
                    Some(key),
                    vec![source, u("bytes", bytes), u("dur_ns", dur_ns)],
                )
            }
            TraceEventKind::Evict { key } => ("evict", Some(key), vec![]),
            TraceEventKind::Spill { key, bytes } => ("spill", Some(key), vec![u("bytes", bytes)]),
            TraceEventKind::SpillDrop { key } => ("spill_drop", Some(key), vec![]),
        };
        let mut line = vec![("ev", Json::str(ev)), ("t_ns", Json::u64(t_ns))];
        if let Some((fp, level)) = key {
            line.push(("key", Json::str(format!("{fp:016x}"))));
            line.push(("level", Json::str(level.name())));
        }
        line.extend(rest);
        let line = Json::Obj(line.into_iter().map(|(k, v)| (k.into(), v)).collect());
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{}", line.encode());
        let _ = out.flush();
    }
}

fn key_field(v: &Json) -> Option<TraceKey> {
    let key = u64::from_str_radix(v.get("key")?.as_str()?, 16).ok()?;
    Some((key, SimdLevel::parse(v.get("level")?.as_str()?)?))
}

enum Line {
    Header(TraceHeader),
    Event(TraceEvent),
    /// An `ev` this reader does not know (forward compatibility).
    Unknown,
}

/// `None`: a known event with a missing or ill-typed field.
fn parse_line(v: &Json) -> Option<Line> {
    let ev = v.get("ev")?.as_str()?;
    if ev == "open" {
        return Some(Line::Header(TraceHeader {
            version: u32::try_from(v.get("version")?.as_u64()?).ok()?,
            capacity: usize::try_from(v.get("capacity")?.as_u64()?).ok()?,
            spill_capacity: usize::try_from(v.get("spill_capacity")?.as_u64()?).ok()?,
            policy: v.get("policy")?.as_str()?.to_string(),
        }));
    }
    let kind = match ev {
        "warm" => TraceEventKind::Warm {
            restored: v.get("restored")?.as_u64()?,
            quarantined: v.get("quarantined")?.as_u64()?,
        },
        "restore" => TraceEventKind::Restore { key: key_field(v)? },
        "access" => TraceEventKind::Access {
            key: key_field(v)?,
            source: GridSource::parse(v.get("source")?.as_str()?)?,
            bytes: v.get("bytes")?.as_u64()?,
            dur_ns: v.get("dur_ns")?.as_u64()?,
        },
        "evict" => TraceEventKind::Evict { key: key_field(v)? },
        "spill" => TraceEventKind::Spill {
            key: key_field(v)?,
            bytes: v.get("bytes")?.as_u64()?,
        },
        "spill_drop" => TraceEventKind::SpillDrop { key: key_field(v)? },
        _ => return Some(Line::Unknown),
    };
    let t_ns = v.get("t_ns")?.as_u64()?;
    Some(Line::Event(TraceEvent { t_ns, kind }))
}

/// Parse a trace file. Lines with an `ev` this reader does not know are
/// skipped (forward compatibility); a line that is not a JSON object
/// with an `ev` — a torn final line, say — or a known event with a
/// missing or ill-typed field is an `InvalidData` error naming the
/// line, so a damaged trace fails loudly instead of replaying a
/// silently shortened history. A known event at a SIMD level this
/// binary does not have (one recorded before `sse2` was retired, say)
/// is refused the same way, and the error names the level.
pub fn read_trace(path: &Path) -> std::io::Result<Trace> {
    parse_trace(&std::fs::read(path)?)
}

/// [`read_trace`] over the file's bytes; a line that is not UTF-8 is
/// damaged like any other.
fn parse_trace(bytes: &[u8]) -> std::io::Result<Trace> {
    let mut trace = Trace::default();
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = String::from_utf8_lossy(raw);
        if line.trim().is_empty() {
            continue;
        }
        let bad = |why: String| {
            let msg = format!("trace line {}: {why}: {line}", i + 1);
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        };
        let json = json::parse_bytes(raw).map_err(|e| bad(e.to_string()))?;
        // A retired level (`sse2`) is the likely culprit: name it.
        let why = || match json.get("level").and_then(Json::as_str) {
            Some(level) if SimdLevel::parse(level).is_none() => {
                format!("unknown SIMD level '{level}'")
            }
            _ => "missing or ill-typed field".into(),
        };
        match parse_line(&json).ok_or_else(|| bad(why()))? {
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

        // A trace from a node that still reloaded grids ahead of demand
        // (see "Versions"): the extra header field is ignored and
        // the hint and early-reload lines are skipped.
        let old = format!(
            "{{\"ev\":\"open\",\"version\":1,\"capacity\":2,\"spill_capacity\":4,\
             \"policy\":\"slru\",\"prefetch\":false}}\n\
             {{\"ev\":\"hint\",\"t_ns\":3,\"key\":\"00000000000000c2\",\"level\":\"scalar\"}}\n\
             {{\"ev\":\"prefetch\",\"t_ns\":4,\"key\":\"00000000000000c2\",\
             \"level\":\"scalar\",\"dur_ns\":7}}\n{access}\n"
        );
        let old = read(&old).unwrap();
        let header = old.header.expect("the old header reads");
        assert_eq!((header.version, header.capacity), (1, 2));
        assert_eq!(old.events.len(), 1, "the two retired lines are skipped");
        assert!(matches!(old.events[0].kind, TraceEventKind::Access { .. }));

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
        let err = parse_trace(format!("{access}\n\u{ff}\n").as_bytes()).unwrap_err();
        assert!(err.to_string().starts_with("trace line 2:"), "{err}");
        let err = parse_trace(b"\xff\xfe\n").expect_err("not UTF-8");
        assert!(err.to_string().starts_with("trace line 1:"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A trace with one line of every event kind, as the recorder wrote it.
    fn recorded() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let path = tmp("recorded.trace");
            let header = TraceHeader {
                version: 1,
                capacity: 2,
                spill_capacity: 4,
                policy: "slru".into(),
            };
            let tracer = CacheTracer::create(&path, &header).unwrap();
            let key = (0x00c2_a7ff_0102_0304, SimdLevel::Avx2);
            for kind in [
                TraceEventKind::Warm {
                    restored: 1,
                    quarantined: 0,
                },
                TraceEventKind::Restore { key },
                TraceEventKind::Access {
                    key,
                    source: GridSource::Reloaded,
                    bytes: 4096,
                    dur_ns: 1234,
                },
                TraceEventKind::Evict { key },
                TraceEventKind::Spill { key, bytes: 4096 },
                TraceEventKind::SpillDrop { key },
            ] {
                tracer.emit(kind);
            }
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        })
    }

    /// The exact bytes of every line kind, the `t_ns` stamps aside.
    #[test]
    fn trace_lines_keep_their_bytes() {
        let text = std::str::from_utf8(recorded()).unwrap();
        let got: Vec<String> = text
            .lines()
            .map(|line| match line.split_once("\"t_ns\":") {
                Some((head, rest)) => {
                    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
                    format!("{head}\"t_ns\":0{}", &rest[digits..])
                }
                None => line.to_string(),
            })
            .collect();
        let key = r#""key":"00c2a7ff01020304","level":"avx2""#;
        assert_eq!(
            got,
            [
                r#"{"ev":"open","version":1,"capacity":2,"spill_capacity":4,"policy":"slru"}"#
                    .to_string(),
                r#"{"ev":"warm","t_ns":0,"restored":1,"quarantined":0}"#.to_string(),
                format!(r#"{{"ev":"restore","t_ns":0,{key}}}"#),
                format!(
                    r#"{{"ev":"access","t_ns":0,{key},"source":"reloaded","bytes":4096,"dur_ns":1234}}"#
                ),
                format!(r#"{{"ev":"evict","t_ns":0,{key}}}"#),
                format!(r#"{{"ev":"spill","t_ns":0,{key},"bytes":4096}}"#),
                format!(r#"{{"ev":"spill_drop","t_ns":0,{key}}}"#),
            ]
        );
        assert!(text.ends_with('\n'));
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Truncated, bit-flipped and spliced traces read or fail with
        /// an `InvalidData` error that names a line — never a panic.
        #[test]
        fn damaged_traces_fail_at_a_named_line(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = recorded().to_vec();
            for _ in 0..rng.random_range(1usize..4) {
                match rng.random_range(0u32..3) {
                    0 => bytes.truncate(rng.random_range(0..=bytes.len())),
                    1 if !bytes.is_empty() => {
                        let at = rng.random_range(0..bytes.len());
                        bytes[at] ^= 1 << rng.random_range(0u32..8);
                    }
                    _ => {
                        // The head of one line joined to the tail of
                        // another, inserted before a third.
                        let lines: Vec<Vec<u8>> =
                            bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                        let (a, b) = (
                            &lines[rng.random_range(0..lines.len())],
                            &lines[rng.random_range(0..lines.len())],
                        );
                        let mut spliced = a[..rng.random_range(0..=a.len())].to_vec();
                        spliced.extend_from_slice(&b[rng.random_range(0..=b.len())..]);
                        let mut out = lines.clone();
                        out.insert(rng.random_range(0..=lines.len()), spliced);
                        bytes = out.join(&b'\n');
                    }
                }
            }
            if let Err(e) = parse_trace(&bytes) {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                prop_assert!(e.to_string().starts_with("trace line "), "{}", e);
            }
        }
    }

    #[test]
    fn a_retired_level_is_named_in_the_error() {
        let path = tmp("sse2.trace");
        let access = "{\"ev\":\"access\",\"t_ns\":5,\"key\":\"00000000000000c2\",\
                      \"level\":\"scalar\",\"source\":\"built\",\"bytes\":64,\"dur_ns\":9}";
        let retired = access.replace("scalar", "sse2");
        std::fs::write(&path, format!("{access}\n{retired}\n")).unwrap();
        let err = read_trace(&path).expect_err("an sse2 line is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .starts_with("trace line 2: unknown SIMD level 'sse2': "),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
