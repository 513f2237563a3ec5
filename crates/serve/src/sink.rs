//! Result sinks: JSONL streaming and chunk checkpoints.
//!
//! Two append-only files per job, both flushed at every chunk boundary:
//!
//! * **JSONL** ([`JsonlSink`]) — one JSON object per docked ligand,
//!   written as its chunk completes, so downstream consumers tail the
//!   ranking while the job is still running. Lines are built and read
//!   back ([`prune_jsonl`]) through `mudock_obs::json`, the codec behind
//!   every JSON line of the stack;
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
use mudock_obs::json::{self, Json};

use crate::job::RankedLigand;

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
    /// position in the job's stream. The score is encoded as in
    /// `GET /jobs/{id}` (shortest text with the same `f32` bits); a
    /// ligand without one, or with a non-finite one, gets `null`.
    pub fn write_result(
        &mut self,
        job: &str,
        chunk: usize,
        index: usize,
        r: &ScreenResult,
    ) -> std::io::Result<()> {
        let line = Json::Obj(vec![
            ("job".into(), Json::str(job)),
            ("chunk".into(), Json::usize(chunk)),
            ("index".into(), Json::usize(index)),
            ("ligand".into(), Json::str(&r.name)),
            ("score".into(), r.best_score.map_or(Json::Null, Json::f32)),
            ("evaluations".into(), Json::u64(r.evaluations)),
        ]);
        writeln!(self.out, "{}", line.encode())?;
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
/// twice after the resume. A line that does not parse — a tail torn by
/// a short write, even inside a multi-byte character — goes too.
pub fn prune_jsonl(path: &Path, is_complete: impl Fn(usize) -> bool) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let chunk = |l: &[u8]| json::parse_bytes(l).ok()?.get("chunk")?.as_u64();
    let keep: Vec<&[u8]> = (lines.iter().copied())
        .filter(|l| chunk(l).is_some_and(|c| usize::try_from(c).is_ok_and(&is_complete)))
        .collect();
    if keep.len() == lines.len() && bytes.last().is_none_or(|&b| b == b'\n') {
        return Ok(());
    }
    let mut out = keep.join(&b'\n');
    if !out.is_empty() {
        out.push(b'\n');
    }
    std::fs::write(path, out)
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
        // Scores are encoded as `GET /jobs/{id}` encodes them: the
        // shortest text with the same bits, `null` when non-finite.
        for score in [f32::NAN, 0.1] {
            let r = ScreenResult {
                name: "x".into(),
                best_score: Some(score),
                evaluations: 1,
                stats: KernelStats::default(),
            };
            sink.write_result("job-a", 1, 19, &r).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 4);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"score\":-4.25"));
        assert!(lines[0].contains("\\\"odd\\\"\\n"), "escaped: {}", lines[0]);
        assert!(lines[1].contains("\"score\":null"));
        assert!(lines[2].contains("\"score\":null"));
        assert_eq!(
            lines[3],
            r#"{"job":"job-a","chunk":1,"index":19,"ligand":"x","score":0.10000000149011612,"evaluations":1}"#
        );
        for l in &lines {
            json::parse(l).unwrap();
        }
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
        // A line an older sink wrote (integral score without `.0`)
        // survives, and a tail cut inside a multi-byte character is
        // dropped instead of failing the resume.
        let old = "{\"job\":\"j\",\"chunk\":0,\"index\":0,\"ligand\":\"α\",\"score\":1,\"evaluations\":1}\n";
        let torn = "{\"job\":\"j\",\"chunk\":0,\"index\":1,\"ligand\":\"β";
        let mut bytes = old.as_bytes().to_vec();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() - 1]);
        std::fs::write(&path, &bytes).unwrap();
        prune_jsonl(&path, |c| c == 0).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old);
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

    /// A job's checkpoint as [`Checkpoint::record`] wrote it, with the
    /// byte offset just past each block's `end N` marker text.
    fn recorded_checkpoint() -> (Vec<u8>, Vec<(usize, usize)>) {
        let path = tmp("recorded.ck");
        std::fs::remove_file(&path).ok();
        let blocks: [(usize, usize, Vec<RankedLigand>); 3] = [
            (0, 4, vec![ranked(1, "a b", -1.5), ranked(3, "c%d", -0.0)]),
            (1, 4, vec![ranked(5, "α·β₂", f32::MIN_POSITIVE)]),
            (2, 4, vec![ranked(8, "", f32::NAN), ranked(9, "e\nf", 0.1)]),
        ];
        {
            let mut ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
            for (chunk, ligands, top) in &blocks {
                ck.record(*chunk, *ligands, top).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let text = std::str::from_utf8(&bytes).unwrap();
        let ends = blocks
            .iter()
            .map(|(chunk, _, _)| {
                let marker = format!("\nend {chunk}\n");
                (*chunk, text.find(&marker).unwrap() + marker.len() - 1)
            })
            .collect();
        (bytes, ends)
    }

    #[test]
    fn a_checkpoint_cut_at_any_byte_resumes_its_closed_blocks_or_starts_fresh() {
        let (bytes, ends) = recorded_checkpoint();
        let whole = {
            let path = tmp("whole.ck");
            std::fs::write(&path, &bytes).unwrap();
            let ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
            std::fs::remove_file(&path).ok();
            ck.completed().clone()
        };
        assert_eq!(whole.len(), 3);
        // Entries compared by score bits: `-0.0` and NaN included.
        type Entry = (usize, String, u32);
        let bits = |c: &BTreeMap<usize, ChunkRecord>| -> Vec<(usize, usize, Vec<Entry>)> {
            c.iter()
                .map(|(k, r)| {
                    let top = r
                        .top
                        .iter()
                        .map(|e| (e.index, e.name.clone(), e.score.to_bits()));
                    (*k, r.ligands, top.collect())
                })
                .collect()
        };
        let path = tmp("cut.ck");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
            let mut closed = whole.clone();
            closed.retain(|k, _| ends.iter().any(|&(c, end)| c == *k && end <= cut));
            let got = ck.completed();
            assert!(
                got.is_empty() || bits(got) == bits(&closed),
                "cut at {cut}: resumed {:?}, closed before it {:?}",
                got.keys(),
                closed.keys()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A job's JSONL as the sink wrote it: chunks 0 and 1 complete, and
    /// chunk 2, whose checkpoint block was never closed, torn.
    fn recorded_jsonl() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let path = tmp("recorded.jsonl");
            let mut sink = JsonlSink::open(&path, false).unwrap();
            for (chunk, index, name, score) in [
                (0, 0, "α-1", Some(-1.5)),
                (0, 1, "b \"q\"", Some(0.1)),
                (1, 2, "c", None),
                (1, 3, "d\n", Some(3.0)),
                (2, 4, "ε", Some(-2.25)),
                (2, 5, "f", Some(f32::NAN)),
            ] {
                let r = ScreenResult {
                    name: name.into(),
                    best_score: score,
                    evaluations: 7,
                    stats: KernelStats::default(),
                };
                sink.write_result("job", chunk, index, &r).unwrap();
            }
            sink.flush().unwrap();
            drop(sink);
            let mut bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes.truncate(bytes.len() - 5);
            bytes
        })
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Truncated, bit-flipped and spliced JSONL prunes to whole
        /// lines of complete chunks, keeping every line it can — never
        /// an error, never a panic.
        #[test]
        fn a_damaged_jsonl_prunes_to_whole_lines_of_complete_chunks(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let recorded = recorded_jsonl();
            let mut bytes = recorded.to_vec();
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
            let path = tmp("damaged.jsonl");
            std::fs::write(&path, &bytes).unwrap();
            let pruned = prune_jsonl(&path, |c| c < 2);
            let out = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            prop_assert!(pruned.is_ok(), "{:?}", pruned);
            let kept: Vec<&[u8]> = out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
            for line in &kept {
                let chunk = json::parse_bytes(line).ok().and_then(|v| v.get("chunk")?.as_u64());
                prop_assert!(chunk.is_some_and(|c| c < 2), "kept {}", String::from_utf8_lossy(line));
            }
            prop_assert!(out.is_empty() || out.ends_with(b"\n"));
            let complete = |l: &&[u8]| l.windows(10).any(|w| w == b"\"chunk\":0," || w == b"\"chunk\":1,");
            for line in recorded.split(|&b| b == b'\n').filter(complete) {
                if bytes.split(|&b| b == b'\n').any(|l| l == line) {
                    prop_assert!(kept.contains(&line), "dropped {}", String::from_utf8_lossy(line));
                }
            }
        }
    }
}
