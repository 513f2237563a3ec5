//! Result sinks: JSONL streaming and chunk checkpoints.
//!
//! Two append-only files per job, both flushed at every chunk boundary:
//!
//! * **JSONL** ([`JsonlSink`]) — one JSON object per docked ligand,
//!   written as its chunk completes, so downstream consumers tail the
//!   ranking while the job is still running;
//! * **checkpoint** ([`Checkpoint`]) — one block per completed chunk
//!   holding the chunk's top-k contribution (global index + exact score
//!   bits + name). A resubmitted job replays these blocks instead of
//!   re-docking, and — because scores are stored as bit patterns and
//!   replay preserves insertion order — finishes with a ranking identical
//!   to an uninterrupted run.
//!
//! The checkpoint is plain line-oriented text, torn-write safe: a block
//! only counts when its `end` marker was written, so a crash mid-append
//! costs at most the in-flight chunk.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use mudock_core::ScreenResult;

use crate::job::RankedLigand;

/// Escape a string for a JSON string literal: the owned-`String` form
/// of [`mudock_obs::push_json_escaped`], which documents the rules.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    mudock_obs::push_json_escaped(&mut out, s);
    out
}

/// Streaming JSONL writer for per-ligand results.
pub struct JsonlSink {
    out: BufWriter<File>,
    lines: usize,
}

impl JsonlSink {
    /// Create (truncating) or append, depending on `append` — a resumed
    /// job appends so replayed chunks' lines are not duplicated.
    pub fn open(path: &Path, append: bool) -> std::io::Result<JsonlSink> {
        let file = if append {
            OpenOptions::new().create(true).append(true).open(path)?
        } else {
            File::create(path)?
        };
        Ok(JsonlSink {
            out: BufWriter::new(file),
            lines: 0,
        })
    }

    /// Write one ligand's result line. `index` is the ligand's global
    /// position in the job's stream.
    pub fn write_result(
        &mut self,
        job: &str,
        chunk: usize,
        index: usize,
        r: &ScreenResult,
    ) -> std::io::Result<()> {
        let score = match r.best_score {
            Some(s) => format!("{s}"),
            None => "null".into(),
        };
        writeln!(
            self.out,
            "{{\"job\":\"{}\",\"chunk\":{},\"index\":{},\"ligand\":\"{}\",\"score\":{},\"evaluations\":{}}}",
            json_escape(job),
            chunk,
            index,
            json_escape(&r.name),
            score,
            r.evaluations,
        )?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written through this sink (excludes pre-existing lines when
    /// opened in append mode).
    pub fn lines(&self) -> usize {
        self.lines
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Percent-encode into pure ASCII: the bytes that would break the line
/// format, plus everything non-ASCII (multi-byte UTF-8 must round-trip
/// byte-exactly through the decoder below).
fn escape_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'\n' | b'\r' => out.push_str(&format!("%{b:02x}")),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

fn unescape_name(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(v) = s
                .get(i + 1..i + 3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Rewrite a resumed job's JSONL so only lines from chunks the
/// checkpoint recorded as complete remain. A crash between the JSONL
/// flush and the checkpoint's `end` marker leaves lines for a chunk
/// that will be re-docked; without pruning, those lines would appear
/// twice after the resume.
pub fn prune_jsonl(path: &Path, is_complete: impl Fn(usize) -> bool) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let keep: Vec<&str> = text
        .lines()
        .filter(|l| jsonl_chunk(l).is_some_and(&is_complete))
        .collect();
    if keep.len() == text.lines().count() {
        return Ok(());
    }
    let mut out = keep.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// The `"chunk":N` field of one of [`JsonlSink`]'s lines.
fn jsonl_chunk(line: &str) -> Option<usize> {
    let rest = line.split("\"chunk\":").nth(1)?;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// One completed chunk as recorded in the checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkRecord {
    /// Ligands the chunk contained.
    pub ligands: usize,
    /// The chunk's top-k contribution, in global-index order (the
    /// insertion order replay must preserve).
    pub top: Vec<RankedLigand>,
}

const HEADER_PREFIX: &str = "mudock-checkpoint v1 key ";

/// Append-only record of a job's completed chunks.
pub struct Checkpoint {
    out: BufWriter<File>,
    completed: BTreeMap<usize, ChunkRecord>,
    path: PathBuf,
}

impl Checkpoint {
    /// Open `path` for job fingerprint `key`. An existing compatible
    /// checkpoint is loaded for replay; a missing, corrupt, or
    /// mismatched-key file starts fresh (the fingerprint covers grids,
    /// seed, k, backend and scoring revision — resuming across a changed
    /// job, or scores another kernel revision wrote, would silently
    /// corrupt the ranking).
    pub fn open(path: &Path, key: u64) -> std::io::Result<Checkpoint> {
        let completed = match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text, key),
            Err(_) => None,
        };
        match completed {
            Some(completed) => {
                let file = OpenOptions::new().append(true).open(path)?;
                Ok(Checkpoint {
                    out: BufWriter::new(file),
                    completed,
                    path: path.into(),
                })
            }
            None => {
                let mut out = BufWriter::new(File::create(path)?);
                writeln!(out, "{HEADER_PREFIX}{key:016x}")?;
                out.flush()?;
                Ok(Checkpoint {
                    out,
                    completed: BTreeMap::new(),
                    path: path.into(),
                })
            }
        }
    }

    /// Parse checkpoint text; `None` on any incompatibility. Only blocks
    /// closed by their `end` marker count — a torn final block is simply
    /// re-docked.
    fn parse(text: &str, key: u64) -> Option<BTreeMap<usize, ChunkRecord>> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let stored = u64::from_str_radix(header.strip_prefix(HEADER_PREFIX)?, 16).ok()?;
        if stored != key {
            return None;
        }
        let mut completed = BTreeMap::new();
        let mut current: Option<(usize, ChunkRecord)> = None;
        for line in lines {
            let mut parts = line.splitn(4, ' ');
            match parts.next() {
                Some("chunk") => {
                    let idx: usize = parts.next()?.parse().ok()?;
                    let ligands: usize = parts.next()?.parse().ok()?;
                    current = Some((
                        idx,
                        ChunkRecord {
                            ligands,
                            top: Vec::new(),
                        },
                    ));
                }
                Some("entry") => {
                    let (_, rec) = current.as_mut()?;
                    let index: usize = parts.next()?.parse().ok()?;
                    let bits = u32::from_str_radix(parts.next()?, 16).ok()?;
                    let name = unescape_name(parts.next().unwrap_or(""));
                    rec.top.push(RankedLigand {
                        index,
                        name,
                        score: f32::from_bits(bits),
                    });
                }
                Some("end") => {
                    let idx: usize = parts.next()?.parse().ok()?;
                    let (start_idx, rec) = current.take()?;
                    if start_idx != idx {
                        return None;
                    }
                    completed.insert(idx, rec);
                }
                // A torn trailing line (crash mid-write): ignore the
                // open block, keep everything already closed.
                _ => break,
            }
        }
        Some(completed)
    }

    /// Chunks already completed, keyed by chunk index.
    pub fn completed(&self) -> &BTreeMap<usize, ChunkRecord> {
        &self.completed
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed chunk and flush it to disk.
    pub fn record(
        &mut self,
        chunk: usize,
        ligands: usize,
        top: &[RankedLigand],
    ) -> std::io::Result<()> {
        writeln!(self.out, "chunk {chunk} {ligands} {}", top.len())?;
        for e in top {
            writeln!(
                self.out,
                "entry {} {:08x} {}",
                e.index,
                e.score.to_bits(),
                escape_name(&e.name)
            )?;
        }
        writeln!(self.out, "end {chunk}")?;
        self.out.flush()?;
        self.completed.insert(
            chunk,
            ChunkRecord {
                ligands,
                top: top.to_vec(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_core::KernelStats;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mudock-sink-{}-{name}", std::process::id()))
    }

    fn ranked(index: usize, name: &str, score: f32) -> RankedLigand {
        RankedLigand {
            index,
            name: name.into(),
            score,
        }
    }

    #[test]
    fn jsonl_lines_are_valid_and_incremental() {
        let path = tmp("jsonl");
        let mut sink = JsonlSink::open(&path, false).unwrap();
        let r = ScreenResult {
            name: "lig \"odd\"\nname".into(),
            best_score: Some(-4.25),
            evaluations: 120,
            stats: KernelStats::default(),
        };
        sink.write_result("job-a", 0, 17, &r).unwrap();
        let failed = ScreenResult {
            name: "bad".into(),
            best_score: None,
            evaluations: 0,
            stats: KernelStats::default(),
        };
        sink.write_result("job-a", 0, 18, &failed).unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 2);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"score\":-4.25"));
        assert!(lines[0].contains("\\\"odd\\\"\\n"), "escaped: {}", lines[0]);
        assert!(lines[1].contains("\"score\":null"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn json_escape_covers_every_mandatory_control() {
        // Every C0 control must come out as an escape; none may pass
        // through raw (RFC 8259 §7).
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let escaped = json_escape(&c.to_string());
            assert!(
                escaped.starts_with('\\'),
                "U+{:04X} must be escaped, got {escaped:?}",
                c as u32
            );
        }
        assert_eq!(json_escape("\u{7f}"), "\\u007f", "DEL is escaped");
        assert_eq!(json_escape("\u{85}"), "\\u0085", "C1 NEL is escaped");
        assert_eq!(json_escape("\u{9f}"), "\\u009f", "C1 end is escaped");
        // Shorthand escapes stay shorthand; printable text stays put.
        assert_eq!(json_escape("a\tb\nc\rd"), "a\\tb\\nc\\rd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain α😀"), "plain α😀");
        assert_eq!(json_escape("q\"e\\"), "q\\\"e\\\\");
        // U+00A0 (just past C1) is untouched.
        assert_eq!(json_escape("\u{a0}"), "\u{a0}");
    }

    #[test]
    fn checkpoint_round_trips_exact_scores() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut ck = Checkpoint::open(&path, 0xdead_beef).unwrap();
            assert!(ck.completed().is_empty());
            ck.record(0, 6, &[ranked(2, "a b", -1.5), ranked(5, "c%d", 0.25)])
                .unwrap();
            ck.record(1, 6, &[ranked(8, "e", f32::MIN_POSITIVE)])
                .unwrap();
        }
        let ck = Checkpoint::open(&path, 0xdead_beef).unwrap();
        assert_eq!(ck.completed().len(), 2);
        let c0 = &ck.completed()[&0];
        assert_eq!(c0.ligands, 6);
        assert_eq!(c0.top, vec![ranked(2, "a b", -1.5), ranked(5, "c%d", 0.25)]);
        assert_eq!(ck.completed()[&1].top[0].score, f32::MIN_POSITIVE);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_key_starts_fresh() {
        let path = tmp("mismatch");
        std::fs::remove_file(&path).ok();
        {
            let mut ck = Checkpoint::open(&path, 1).unwrap();
            ck.record(0, 4, &[ranked(0, "x", 1.0)]).unwrap();
        }
        let ck = Checkpoint::open(&path, 2).unwrap();
        assert!(
            ck.completed().is_empty(),
            "a different job fingerprint must not resume this checkpoint"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_block_is_dropped() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut ck = Checkpoint::open(&path, 9).unwrap();
            ck.record(0, 4, &[ranked(1, "kept", -2.0)]).unwrap();
        }
        // Simulate a crash mid-append: a chunk block without its `end`.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("chunk 1 4 1\nentry 5 3f800000 lost\n");
        std::fs::write(&path, text).unwrap();

        let mut ck = Checkpoint::open(&path, 9).unwrap();
        assert_eq!(ck.completed().len(), 1);
        assert!(ck.completed().contains_key(&0));
        // And the file stays appendable after recovery.
        ck.record(1, 4, &[ranked(5, "redone", 1.0)]).unwrap();
        drop(ck);
        let ck = Checkpoint::open(&path, 9).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.completed().len(), 2);
    }

    #[test]
    fn checkpoint_round_trips_non_ascii_names() {
        let path = tmp("unicode");
        std::fs::remove_file(&path).ok();
        let name = "α-ligand·β₂ (试验)";
        {
            let mut ck = Checkpoint::open(&path, 5).unwrap();
            ck.record(0, 1, &[ranked(0, name, -1.0)]).unwrap();
        }
        let ck = Checkpoint::open(&path, 5).unwrap();
        assert_eq!(ck.completed()[&0].top[0].name, name);
        // The file itself must be pure ASCII (line format safety).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.is_ascii(), "escaped checkpoint must be ASCII: {text}");
    }

    #[test]
    fn prune_drops_lines_of_incomplete_chunks() {
        let path = tmp("prune");
        let r = |name: &str| ScreenResult {
            name: name.into(),
            best_score: Some(1.0),
            evaluations: 1,
            stats: KernelStats::default(),
        };
        {
            let mut sink = JsonlSink::open(&path, false).unwrap();
            sink.write_result("j", 0, 0, &r("a")).unwrap();
            sink.write_result("j", 0, 1, &r("b")).unwrap();
            sink.write_result("j", 1, 2, &r("c")).unwrap();
            sink.flush().unwrap();
        }
        // Chunk 1's checkpoint block was torn: its line must go.
        prune_jsonl(&path, |c| c == 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(!text.contains("\"index\":2"));
        // Pruning with everything complete is a no-op.
        prune_jsonl(&path, |_| true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // Missing file is fine (fresh job).
        std::fs::remove_file(&path).ok();
        prune_jsonl(&path, |_| true).unwrap();
    }

    #[test]
    fn garbage_file_starts_fresh() {
        let path = tmp("garbage");
        std::fs::write(&path, "not a checkpoint at all\n").unwrap();
        let ck = Checkpoint::open(&path, 3).unwrap();
        assert!(ck.completed().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
