//! Ligand sources: where a job's molecules come from.
//!
//! A screening campaign's library is pulled through the pipeline lazily —
//! the executor takes [`LigandSource::stream`] and pulls each chunk off
//! it with `stream.by_ref().take(n)`, `n` from the job's chunk policy;
//! nothing is materialized beyond the in-flight chunk. Sources are cheap to clone (shared payloads sit in
//! `Arc`s) and deterministic: the same source yields the same molecules
//! in the same order every time, which is what makes checkpoint replay
//! and seed reproducibility work.

use std::path::PathBuf;
use std::sync::Arc;

use mudock_mol::Molecule;
use mudock_molio::{split_models, MediateStream};

/// A deterministic, lazily-streamed ligand supply.
#[derive(Clone, Debug)]
pub enum LigandSource {
    /// The MEDIATE-like synthetic set: `count` ligands from `seed` (same
    /// molecules as [`mudock_molio::mediate_like_set`], generated on
    /// demand).
    Synth { seed: u64, count: usize },
    /// Multi-model PDBQT text (`MODEL`/`ENDMDL`-delimited); models are
    /// parsed lazily, one stream entry per model.
    PdbqtText(Arc<String>),
    /// Like `PdbqtText`, read from a file when the job starts.
    PdbqtFile(PathBuf),
}

impl LigandSource {
    /// Synthetic source of `count` ligands derived from `seed`.
    pub fn synth(seed: u64, count: usize) -> LigandSource {
        LigandSource::Synth { seed, count }
    }

    pub fn from_pdbqt(text: impl Into<String>) -> LigandSource {
        LigandSource::PdbqtText(Arc::new(text.into()))
    }

    pub fn from_file(path: impl Into<PathBuf>) -> LigandSource {
        LigandSource::PdbqtFile(path.into())
    }

    /// Exact ligand count when knowable without I/O or parsing: inline
    /// PDBQT text counts its models with a line scan.
    pub fn len_hint(&self) -> Option<usize> {
        match self {
            LigandSource::Synth { count, .. } => Some(*count),
            LigandSource::PdbqtText(text) => Some(split_models(text).len()),
            LigandSource::PdbqtFile(_) => None,
        }
    }

    /// Open the stream. Fails only on I/O (file sources). A malformed
    /// PDBQT model is not fatal — one bad library entry must not sink
    /// the campaign — and keeps its place: it streams as an atom-less
    /// molecule named after its model number (`MODEL 3`), which docks
    /// like any ligand that fails preparation (no score, 0 evaluations),
    /// so every later ligand keeps its index and seed.
    pub fn stream(&self) -> Result<Box<dyn Iterator<Item = Molecule> + Send>, String> {
        match self {
            LigandSource::Synth { seed, count } => Ok(Box::new(MediateStream::new(*seed, *count))),
            LigandSource::PdbqtText(text) => Ok(parse_lazily(Arc::clone(text))),
            LigandSource::PdbqtFile(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(parse_lazily(Arc::new(text)))
            }
        }
    }
}

/// Split eagerly (a cheap line scan recording byte ranges into the
/// shared text), parse lazily (the expensive part). The text is held
/// once, in the `Arc` — no per-model copies.
fn parse_lazily(text: Arc<String>) -> Box<dyn Iterator<Item = Molecule> + Send> {
    let base = text.as_ptr() as usize;
    let ranges: Vec<(usize, usize)> = split_models(&text)
        .into_iter()
        .map(|m| {
            let start = m.as_ptr() as usize - base;
            (start, start + m.len())
        })
        .collect();
    Box::new(ranges.into_iter().enumerate().map(move |(i, (a, b))| {
        mudock_molio::parse(&text[a..b])
            .unwrap_or_else(|_| Molecule::new(format!("MODEL {}", i + 1)))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_molio::{mediate_like_set, write};

    #[test]
    fn synth_stream_matches_materialized_set() {
        let src = LigandSource::synth(0xabc, 5);
        assert_eq!(src.len_hint(), Some(5));
        let streamed: Vec<Molecule> = src.stream().unwrap().collect();
        let set = mediate_like_set(0xabc, 5);
        assert_eq!(streamed.len(), 5);
        for (a, b) in streamed.iter().zip(&set) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.atoms.len(), b.atoms.len());
        }
    }

    #[test]
    fn stream_is_repeatable() {
        let src = LigandSource::synth(7, 4);
        let first: Vec<String> = src.stream().unwrap().map(|m| m.name).collect();
        let second: Vec<String> = src.stream().unwrap().map(|m| m.name).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn pdbqt_text_keeps_one_entry_per_model_in_order() {
        let good = mediate_like_set(3, 1).pop().unwrap();
        let text = format!(
            "MODEL 1\n{0}ENDMDL\nMODEL 2\nATOM garbage\nENDMDL\nMODEL 3\n{0}ENDMDL\n",
            write(&good)
        );
        let src = LigandSource::from_pdbqt(text);
        assert_eq!(src.len_hint(), Some(3));
        let parsed: Vec<Molecule> = src.stream().unwrap().collect();
        let names: Vec<&str> = parsed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, [good.name.as_str(), "MODEL 2", good.name.as_str()]);
        assert!(
            parsed[1].atoms.is_empty(),
            "the malformed model keeps its place"
        );
        assert_eq!(parsed[2].atoms.len(), good.atoms.len());
    }

    #[test]
    fn file_source_reads_at_stream_time() {
        let mols = mediate_like_set(11, 2);
        let mut text = String::new();
        for (i, m) in mols.iter().enumerate() {
            text.push_str(&format!("MODEL {}\n{}ENDMDL\n", i + 1, write(m)));
        }
        let path = std::env::temp_dir().join(format!("mudock-ingest-{}.pdbqt", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let src = LigandSource::from_file(&path);
        let parsed: Vec<Molecule> = src.stream().unwrap().collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed.len(), 2);

        let missing = LigandSource::from_file("/nonexistent/never.pdbqt");
        assert!(missing.stream().is_err());
    }
}
