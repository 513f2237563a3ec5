//! Chunked, lazy ligand streams — the ingestion substrate of
//! `mudock-serve`.
//!
//! Screening campaigns are too large to materialize: a million-ligand
//! library must be *pulled* through the docking pipeline in bounded
//! batches, not collected into a `Vec` first. This module provides
//!
//! * [`MediateStream`] — the lazy form of [`mediate_like_set`]: same
//!   seed → bit-identical molecules, generated on demand;
//! * [`split_models`] / [`parse_models`] — multi-molecule PDBQT
//!   (`MODEL`/`ENDMDL`-delimited, the AutoDock Vina library convention).
//!
//! [`mediate_like_set`]: crate::synth::mediate_like_set

use mudock_mol::Molecule;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pdbqt::{self, ParseError};
use crate::synth;

/// Lazily generates the MEDIATE-like screening set: element `i` of
/// `MediateStream::new(seed, count)` equals element `i` of
/// `mediate_like_set(seed, count)`, without materializing the rest.
#[derive(Clone, Debug)]
pub struct MediateStream {
    rng: StdRng,
    seed: u64,
    next: usize,
    count: usize,
}

impl MediateStream {
    pub fn new(seed: u64, count: usize) -> MediateStream {
        MediateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x6d65_6469_6174),
            seed,
            next: 0,
            count,
        }
    }

    /// Ligands remaining in the stream.
    pub fn remaining(&self) -> usize {
        self.count - self.next
    }
}

impl Iterator for MediateStream {
    type Item = Molecule;

    fn next(&mut self) -> Option<Molecule> {
        if self.next >= self.count {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(synth::mediate_like_next(&mut self.rng, self.seed, i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for MediateStream {}

/// Split multi-molecule PDBQT text into per-molecule slices.
///
/// Molecules are delimited by `MODEL n` / `ENDMDL` records (the AutoDock
/// Vina multi-ligand convention). Text without any `MODEL` record is one
/// molecule. The split is zero-copy; nothing is parsed yet.
pub fn split_models(text: &str) -> Vec<&str> {
    if !text.lines().any(|l| l.trim_start().starts_with("MODEL")) {
        return if text.trim().is_empty() {
            Vec::new()
        } else {
            vec![text]
        };
    }
    let mut models = Vec::new();
    let mut start: Option<usize> = None;
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim_start();
        if trimmed.starts_with("MODEL") {
            start = Some(offset + line.len());
        } else if trimmed.starts_with("ENDMDL") {
            if let Some(s) = start.take() {
                models.push(&text[s..offset]);
            }
        }
        offset += line.len();
    }
    // An unterminated trailing MODEL still counts.
    if let Some(s) = start {
        models.push(&text[s..]);
    }
    models
}

/// Iterator over the molecules of a (possibly multi-model) PDBQT text.
/// Each item parses lazily; a malformed model yields its `Err` without
/// stopping the stream.
pub fn parse_models(text: &str) -> impl Iterator<Item = Result<Molecule, ParseError>> + '_ {
    split_models(text).into_iter().map(pdbqt::parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::mediate_like_set;
    use crate::write;

    #[test]
    fn stream_matches_materialized_set() {
        let set = mediate_like_set(0xfeed, 12);
        let streamed: Vec<Molecule> = MediateStream::new(0xfeed, 12).collect();
        assert_eq!(set.len(), streamed.len());
        for (a, b) in set.iter().zip(&streamed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.atoms.len(), b.atoms.len());
            for (x, y) in a.atoms.iter().zip(&b.atoms) {
                assert_eq!(x.pos, y.pos);
                assert_eq!(x.ty, y.ty);
                assert_eq!(x.charge, y.charge);
            }
            assert_eq!(a.bonds.len(), b.bonds.len());
        }
    }

    #[test]
    fn stream_reports_exact_length() {
        let mut s = MediateStream::new(1, 5);
        assert_eq!(s.len(), 5);
        s.next();
        s.next();
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn multi_model_round_trip() {
        let ligs = mediate_like_set(7, 3);
        let mut text = String::new();
        for (i, l) in ligs.iter().enumerate() {
            text.push_str(&format!("MODEL {}\n", i + 1));
            text.push_str(&write(l));
            text.push_str("ENDMDL\n");
        }
        let parsed: Vec<Molecule> = parse_models(&text).map(|r| r.unwrap()).collect();
        assert_eq!(parsed.len(), 3);
        for (orig, p) in ligs.iter().zip(&parsed) {
            assert_eq!(orig.atoms.len(), p.atoms.len());
        }
    }

    #[test]
    fn single_model_text_is_one_molecule() {
        let lig = mediate_like_set(9, 1).pop().unwrap();
        let text = write(&lig);
        let models = split_models(&text);
        assert_eq!(models.len(), 1);
        let parsed = pdbqt::parse(models[0]).unwrap();
        assert_eq!(parsed.atoms.len(), lig.atoms.len());
        assert!(split_models("").is_empty());
    }

    #[test]
    fn malformed_model_does_not_stop_the_stream() {
        let good = write(&mediate_like_set(3, 1).pop().unwrap());
        let text = format!(
            "MODEL 1\n{good}ENDMDL\nMODEL 2\nATOM this is not valid\nENDMDL\nMODEL 3\n{good}ENDMDL\n"
        );
        let results: Vec<Result<Molecule, ParseError>> = parse_models(&text).collect();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }
}
