//! Result sinks: JSONL streaming and chunk checkpoints.
//!
//! Two append-only files per job, both flushed at every chunk boundary
//! and both JSON lines through `mudock_obs::json`, the codec behind
//! every JSON line of the stack:
//!
//! * **JSONL** ([`JsonlSink`]) — one JSON object per docked ligand,
//!   written as its chunk completes, so downstream consumers tail the
//!   ranking while the job is still running. A resumed job first drops
//!   the lines of chunks the checkpoint did not record ([`prune_jsonl`]);
//! * **checkpoint** ([`Checkpoint`]) — a header line carrying the job's
//!   key, then one record line per completed chunk:
//!   `{"chunk":…,"ligands":…,"top":[[index,score bits,name],…]}`, its
//!   top-k contribution with each score as the integer of its `f32`
//!   bits, so `-0.0` and NaN survive. A resubmitted job replays these
//!   records instead of re-docking, and — because replay preserves
//!   insertion order — finishes with a ranking identical to an
//!   uninterrupted run.
//!
//! Both files follow one torn-line rule: a line counts only if it ends
//! in `\n` and parses. A crash mid-append leaves at most one torn line
//! at the tail; reopening cuts the file back to its whole lines
//! (`File::set_len`) before anything is appended, so the next record
//! never fuses with the torn one and a crash costs at most the chunk in
//! flight. A checkpoint whose header is missing or carries another key
//! — among them every checkpoint of an older format — or
//! that holds a whole line that parses but is not a record, starts
//! fresh.

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

/// The whole lines of `bytes`, each without its `\n`. A tail without
/// one was torn by a crash mid-write: it is not a line.
fn whole_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .filter_map(|l| l.strip_suffix(b"\n"))
}

/// Reduce the file at `path`, whose contents are `bytes`, to `kept`:
/// some of its [`whole_lines`], in file order. When they are its first
/// lines, the file is cut after them and no byte before the cut is
/// rewritten; otherwise they are written to a temp file that is renamed
/// over `path` (as `GridCache` writes spill files), so a crash leaves
/// the old file or the new one, never a part of either.
fn keep_lines(path: &Path, bytes: &[u8], kept: &[&[u8]]) -> std::io::Result<()> {
    let len: usize = kept.iter().map(|l| l.len() + 1).sum();
    if len == bytes.len() {
        return Ok(());
    }
    if whole_lines(bytes).take(kept.len()).eq(kept.iter().copied()) {
        return OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len as u64);
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut out = Vec::with_capacity(len);
    for l in kept {
        out.extend_from_slice(l);
        out.push(b'\n');
    }
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Cut a resumed job's JSONL to the lines of chunks the checkpoint
/// recorded as complete. A crash between the JSONL flush and the
/// checkpoint record leaves lines for a chunk that will be re-docked;
/// without pruning, those lines would appear twice after the resume. A
/// line that is torn or does not parse goes too.
pub fn prune_jsonl(path: &Path, is_complete: impl Fn(usize) -> bool) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let chunk = |l: &[u8]| json::parse_bytes(l).ok()?.get("chunk")?.as_u64();
    let kept: Vec<&[u8]> = whole_lines(&bytes)
        .filter(|l| chunk(l).is_some_and(|c| usize::try_from(c).is_ok_and(&is_complete)))
        .collect();
    keep_lines(path, &bytes, &kept)
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

impl ChunkRecord {
    /// A record line's chunk index and record; `None` for any other JSON.
    fn parse(v: &Json) -> Option<(usize, ChunkRecord)> {
        let int = |v: &Json| usize::try_from(v.as_u64()?).ok();
        let Json::Arr(top) = v.get("top")? else {
            return None;
        };
        let entry = |e: &Json| {
            let Json::Arr(e) = e else { return None };
            let [index, bits, name] = &e[..] else {
                return None;
            };
            Some(RankedLigand {
                index: int(index)?,
                name: name.as_str()?.into(),
                score: f32::from_bits(u32::try_from(bits.as_u64()?).ok()?),
            })
        };
        let record = ChunkRecord {
            ligands: int(v.get("ligands")?)?,
            top: top.iter().map(entry).collect::<Option<_>>()?,
        };
        Some((int(v.get("chunk")?)?, record))
    }
}

/// Append-only record of a job's completed chunks.
pub struct Checkpoint {
    out: File,
    completed: BTreeMap<usize, ChunkRecord>,
    path: PathBuf,
}

impl Checkpoint {
    /// Open `path` for job fingerprint `key`. An existing compatible
    /// checkpoint is loaded for replay and cut back to its whole
    /// records; a missing, corrupt, or mismatched-key file starts fresh
    /// (the fingerprint covers grids, seed, k, backend and scoring
    /// revision — resuming across a changed job, or scores another
    /// kernel revision wrote, would silently corrupt the ranking).
    pub fn open(path: &Path, key: u64) -> std::io::Result<Checkpoint> {
        let bytes = std::fs::read(path).unwrap_or_default();
        let (completed, out) = match Self::resume(&bytes, key) {
            Some((completed, lines)) => {
                let kept: Vec<&[u8]> = whole_lines(&bytes).take(lines).collect();
                keep_lines(path, &bytes, &kept)?;
                (completed, OpenOptions::new().append(true).open(path)?)
            }
            None => {
                let mut out = File::create(path)?;
                out.write_all(format!("{}\n", Self::header(key)).as_bytes())?;
                (BTreeMap::new(), out)
            }
        };
        Ok(Checkpoint {
            out,
            completed,
            path: path.into(),
        })
    }

    /// The first line of the checkpoint of the job keyed `key`. Format
    /// 3: a malformed library model keeps its stream position (format 2
    /// skipped it), so a ligand behind one seeds differently.
    fn header(key: u64) -> String {
        Json::Obj(vec![
            ("mudock_checkpoint".into(), Json::u64(3)),
            ("key".into(), Json::u64(key)),
        ])
        .encode()
    }

    /// The records of `bytes` and how many of its lines to keep — the
    /// header and every record before the first torn or unparsable line
    /// — or `None` when it is not a checkpoint of the job keyed `key`.
    fn resume(bytes: &[u8], key: u64) -> Option<(BTreeMap<usize, ChunkRecord>, usize)> {
        let mut lines = whole_lines(bytes);
        if lines.next()? != Self::header(key).as_bytes() {
            return None;
        }
        let (mut completed, mut kept) = (BTreeMap::new(), 1);
        for line in lines {
            let Ok(v) = json::parse_bytes(line) else {
                break;
            };
            let (chunk, record) = ChunkRecord::parse(&v)?;
            completed.insert(chunk, record);
            kept += 1;
        }
        Some((completed, kept))
    }

    /// Chunks already completed, keyed by chunk index.
    pub fn completed(&self) -> &BTreeMap<usize, ChunkRecord> {
        &self.completed
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed chunk's record line, unbuffered: it reaches
    /// the file before this returns.
    pub fn record(
        &mut self,
        chunk: usize,
        ligands: usize,
        top: &[RankedLigand],
    ) -> std::io::Result<()> {
        let entry = |e: &RankedLigand| {
            Json::Arr(vec![
                Json::usize(e.index),
                Json::u64(e.score.to_bits().into()),
                Json::str(&e.name),
            ])
        };
        let line = Json::Obj(vec![
            ("chunk".into(), Json::usize(chunk)),
            ("ligands".into(), Json::usize(ligands)),
            ("top".into(), Json::Arr(top.iter().map(entry).collect())),
        ]);
        self.out
            .write_all(format!("{}\n", line.encode()).as_bytes())?;
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
    fn torn_trailing_record_is_dropped() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut ck = Checkpoint::open(&path, 9).unwrap();
            ck.record(0, 4, &[ranked(1, "kept", -2.0)]).unwrap();
        }
        // Simulate a crash mid-append: a record line without its end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(r#"{"chunk":1,"ligands":4,"top":[[5,1065353216,"lo"#);
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
        std::fs::remove_file(&path).ok();
        assert_eq!(ck.completed()[&0].top[0].name, name);
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
        // Chunk 1's checkpoint record was torn: its line must go.
        prune_jsonl(&path, |c| c == 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(!text.contains("\"index\":2"));
        // Pruning with everything complete is a no-op.
        prune_jsonl(&path, |_| true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // A line kept from behind dropped ones replaces the file whole,
        // through a temp file that does not outlive the rename.
        {
            let mut sink = JsonlSink::open(&path, true).unwrap();
            sink.write_result("j", 1, 2, &r("c")).unwrap();
            sink.flush().unwrap();
        }
        prune_jsonl(&path, |c| c == 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"index\":2"));
        let mut tmp_path = path.clone().into_os_string();
        tmp_path.push(".tmp");
        assert!(!Path::new(&tmp_path).exists());
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
        let header = Checkpoint::header(3);
        let record = r#"{"chunk":0,"ligands":1,"top":[[0,1065353216,"x"]]}"#;
        for text in [
            "not a checkpoint at all\n".to_string(),
            // The line format before checkpoints were JSON.
            "mudock-checkpoint v1 key 0000000000000003\nchunk 0 1 1\nentry 0 3f800000 x\nend 0\n"
                .to_string(),
            // A whole line that parses but is not a record.
            format!("{header}\n{record}\n{{\"chunk\":1}}\n"),
            format!("{header}\n{header}\n{record}\n"),
        ] {
            std::fs::write(&path, &text).unwrap();
            let ck = Checkpoint::open(&path, 3).unwrap();
            assert!(ck.completed().is_empty(), "resumed {text:?}");
            let fresh = std::fs::read_to_string(&path).unwrap();
            assert_eq!(fresh, format!("{header}\n"));
        }
        // A whole line that does not parse ends the records: the ones
        // before it resume, and the file is cut in front of it.
        let text = format!("{header}\n{record}\n{{\"chunk\":1,\n{record}\n");
        std::fs::write(&path, &text).unwrap();
        let ck = Checkpoint::open(&path, 3).unwrap();
        assert_eq!(ck.completed().len(), 1);
        let kept = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(kept, format!("{header}\n{record}\n"));
    }

    /// A job's checkpoint as [`Checkpoint::record`] wrote it, with the
    /// length of the file after its header and after each record.
    fn recorded_checkpoint() -> (Vec<u8>, usize, Vec<(usize, usize)>) {
        let path = tmp("recorded.ck");
        std::fs::remove_file(&path).ok();
        let records: [(usize, usize, Vec<RankedLigand>); 3] = [
            (0, 4, vec![ranked(1, "a b", -1.5), ranked(3, "c%d", -0.0)]),
            (1, 4, vec![ranked(5, "α·β₂", f32::MIN_POSITIVE)]),
            (2, 4, vec![ranked(8, "", f32::NAN), ranked(9, "e\nf", 0.1)]),
        ];
        let len = || std::fs::metadata(&path).unwrap().len() as usize;
        let mut ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
        let header = len();
        let ends = records
            .iter()
            .map(|(chunk, ligands, top)| {
                ck.record(*chunk, *ligands, top).unwrap();
                (*chunk, len())
            })
            .collect();
        drop(ck);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (bytes, header, ends)
    }

    /// Entries compared by score bits: `-0.0` and NaN included.
    type Entry = (usize, String, u32);

    fn bits(c: &BTreeMap<usize, ChunkRecord>) -> Vec<(usize, usize, Vec<Entry>)> {
        c.iter()
            .map(|(k, r)| {
                let top = r
                    .top
                    .iter()
                    .map(|e| (e.index, e.name.clone(), e.score.to_bits()));
                (*k, r.ligands, top.collect())
            })
            .collect()
    }

    #[test]
    fn a_checkpoint_cut_at_any_byte_resumes_exactly_the_records_before_the_cut() {
        let (bytes, header, ends) = recorded_checkpoint();
        let whole = {
            let path = tmp("whole.ck");
            std::fs::write(&path, &bytes).unwrap();
            let ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
            std::fs::remove_file(&path).ok();
            ck.completed().clone()
        };
        assert_eq!(whole.len(), 3);
        let path = tmp("cut.ck");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let ck = Checkpoint::open(&path, 0xfeed_beef).unwrap();
            let mut closed = whole.clone();
            closed.retain(|k, _| ends.iter().any(|&(c, end)| c == *k && end <= cut));
            assert_eq!(
                bits(ck.completed()),
                bits(&closed),
                "cut at {cut}: resumed {:?}, closed before it {:?}",
                ck.completed().keys(),
                closed.keys()
            );
            // The file is cut back to its last whole record (a torn
            // header: rewritten) before anything is appended.
            let kept = (ends.iter().map(|&(_, end)| end))
                .rfind(|&end| end <= cut)
                .unwrap_or(header);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                &bytes[..kept],
                "cut at {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A job's JSONL as the sink wrote it: chunks 0 and 1 complete, and
    /// chunk 2, whose checkpoint record was never written, torn.
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
                if whole_lines(&bytes).any(|l| l == line) {
                    prop_assert!(kept.contains(&line), "dropped {}", String::from_utf8_lossy(line));
                }
            }
        }
    }
}
