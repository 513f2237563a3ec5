//! Mutated multi-model PDBQT libraries: byte flips, truncation at any
//! byte, spliced records and multi-byte characters across the fixed
//! column boundaries, all inside one model's records (its `MODEL` and
//! `ENDMDL` lines stay intact). `parse` answers every mutated text with
//! a molecule or a `ParseError`, never a panic; the mutated model is
//! the only one it can cost; and `LigandSource::from_pdbqt` streams one
//! entry per model, in order: every other model as the same molecule,
//! the mutated one as what it parses to or, when it does not parse, an
//! atom-less molecule named after its model number.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mudock::mol::Molecule;
use mudock::molio::{mediate_like_set, parse, write};
use mudock::serve::LigandSource;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Byte offsets where the reader's fixed columns begin or end.
const COLUMN_EDGES: [usize; 10] = [6, 11, 30, 38, 46, 54, 66, 76, 77, 78];

/// Characters of two, three and four bytes.
const WIDE: [char; 4] = ['é', '€', '中', '😀'];

/// Bytes a flip writes: the reader's own alphabet, line breaks and
/// controls, and sometimes any ASCII byte.
const FLIPS: &[u8] = b"0123456789.-+eE ATOMCNHR\n\r\t\0";

/// Every field that identifies a parsed molecule, floats by their bits.
type Key = (String, Vec<([u32; 4], String)>, Vec<(u32, u32, bool)>);

fn key(m: &Molecule) -> Key {
    let atoms = (m.atoms.iter())
        .map(|a| {
            let bits = [a.pos.x, a.pos.y, a.pos.z, a.charge].map(f32::to_bits);
            (bits, a.ty.label().to_string())
        })
        .collect();
    let bonds = m.bonds.iter().map(|b| (b.i, b.j, b.rotatable)).collect();
    (m.name.clone(), atoms, bonds)
}

/// The record bodies of `n` ligands; every other one without `CONECT`
/// and `ROTBOND` records, so its bonds are perceived.
fn library(seed: u64, n: usize) -> Vec<String> {
    (mediate_like_set(seed, n).iter().enumerate())
        .map(|(i, m)| {
            let text = write(m);
            if i % 2 == 0 {
                return text;
            }
            let kept = text
                .lines()
                .filter(|l| !l.starts_with("CONECT") && !l.starts_with("REMARK ROTBOND"));
            kept.map(|l| format!("{l}\n")).collect()
        })
        .collect()
}

fn join(bodies: &[String]) -> String {
    (bodies.iter().enumerate())
        .map(|(i, body)| format!("MODEL {}\n{body}ENDMDL\n", i + 1))
        .collect()
}

/// The byte offsets at which each line of `body` starts.
fn line_starts(body: &str) -> Vec<usize> {
    let ends = body.match_indices('\n').map(|(at, _)| at + 1);
    std::iter::once(0)
        .chain(ends)
        .filter(|&at| at < body.len())
        .collect()
}

/// One mutation of `body` (which ends in `\n`, kept so `ENDMDL` still
/// starts its own line); `donors` are every model's record lines.
fn mutate(body: &mut String, donors: &[&str], rng: &mut StdRng) {
    let len = body.len();
    match rng.random_range(0..4u32) {
        // Flip one ASCII byte (not the final line break).
        0 => {
            let at = rng.random_range(0..len - 1);
            if body.is_char_boundary(at) && body.is_char_boundary(at + 1) {
                let byte = match rng.random_bool(0.8) {
                    true => FLIPS[rng.random_range(0..FLIPS.len())],
                    false => rng.random_range(0..128u32) as u8,
                };
                body.replace_range(at..at + 1, &(byte as char).to_string());
            }
        }
        // Cut the records at any byte.
        1 => {
            let at = rng.random_range(0..len);
            if body.is_char_boundary(at) {
                body.truncate(at);
                if !body.is_empty() && !body.ends_with('\n') {
                    body.push('\n');
                }
            }
        }
        // Splice: insert another record whole, or graft its tail onto
        // the head of one of ours at the same byte.
        2 => {
            let donor = donors[rng.random_range(0..donors.len())];
            let starts = line_starts(body);
            let line = starts[rng.random_range(0..starts.len())];
            if rng.random_bool(0.5) {
                body.insert_str(line, &format!("{donor}\n"));
            } else {
                let end = line + body[line..].find('\n').expect("a line break ends it");
                let at = rng.random_range(0..=donor.len().min(end - line));
                if body.is_char_boundary(line + at) && donor.is_char_boundary(at) {
                    body.replace_range(line + at..end, &donor[at..]);
                }
            }
        }
        // A wide character straddling a column edge of one line, in
        // place of as many bytes, so every later column stays put.
        _ => {
            let wide = WIDE[rng.random_range(0..WIDE.len())];
            let width = wide.len_utf8();
            let edge = COLUMN_EDGES[rng.random_range(0..COLUMN_EDGES.len())];
            let starts = line_starts(body);
            let line = starts[rng.random_range(0..starts.len())];
            let at = line + edge - rng.random_range(1..width);
            let end = line + body[line..].find('\n').expect("a line break ends it");
            if at + width <= end && body.is_char_boundary(at) && body.is_char_boundary(at + width) {
                body.replace_range(at..at + width, wide.encode_utf8(&mut [0; 4]));
            }
        }
    }
}

/// `parse(text)`, failing the case (with the text) on a panic.
fn parse_or_fail(text: &str) -> Result<Option<Key>, TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| parse(text))) {
        Ok(parsed) => Ok(parsed.ok().map(|m| key(&m))),
        Err(_) => Err(TestCaseError::fail(format!("parse panicked on {text:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn a_mutated_model_costs_at_most_itself(
        seed in 0u64..u64::MAX,
        n in 2usize..6,
        mutations in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies = library(seed, n);
        let models: Vec<Key> = (bodies.iter())
            .map(|b| key(&parse(b).expect("a written ligand parses")))
            .collect();

        let victim = rng.random_range(0..n);
        let mut mutated = bodies.clone();
        let donors: Vec<&str> = bodies.iter().flat_map(|b| b.lines()).collect();
        for _ in 0..mutations {
            if !mutated[victim].is_empty() {
                mutate(&mut mutated[victim], &donors, &mut rng);
            }
        }
        let body = &mutated[victim];
        let delimits = |l: &str| {
            let l = l.trim_start();
            l.starts_with("MODEL") || l.starts_with("ENDMDL")
        };
        prop_assert!(!body.lines().any(delimits), "a mutation wrote a delimiter");
        let text = join(&mutated);

        // Neither the model nor the whole library, read as one
        // molecule, panics the reader.
        let survivor = parse_or_fail(body)?;
        parse_or_fail(&text)?;

        let unparsed = (format!("MODEL {}", victim + 1), Vec::new(), Vec::new());
        let mut want = models;
        want[victim] = survivor.unwrap_or(unparsed);
        let streamed = catch_unwind(AssertUnwindSafe(|| {
            let source = LigandSource::from_pdbqt(text.clone());
            source.stream().expect("inline text needs no I/O").map(|m| key(&m)).collect()
        }));
        let streamed: Vec<Key> = streamed
            .map_err(|_| TestCaseError::fail(format!("the stream panicked on {text:?}")))?;
        prop_assert!(streamed == want, "model {victim} of {n} cost more than itself in {text:?}");
    }
}
