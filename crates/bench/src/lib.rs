//! # mudock-bench — the paper's evaluation harness
//!
//! The `paper` binary prints every table and figure of the CLUSTER 2025
//! paper (`paper [TARGET...]`, all of them by default; README,
//! "Reproducing the paper") from the [`report`] functions and drops CSV
//! files under `results/`. Next to it sit the three ablation studies
//! (`ablation_soa`, `ablation_gather`, `ablation_ga`), the portable arm's
//! codegen check (`codegen_autovec`) and the grid-cache trace replayer
//! (`cache_replay`). Everything this crate times goes through one loop,
//! [`take_turns`]: the arms of a table take turns and each keeps its
//! fastest pass. Recorded kernel and end-to-end timings are
//! `bench_ladder/`'s job (the stand-alone crate at the repo root), not
//! this crate's.
//!
//! Two kinds of numbers appear:
//!
//! * **host-measured** — real wall-clock measurements of the Rust kernels
//!   on this machine, across [`mudock_core::Backend`]s (the
//!   scalar-libm / auto-vectorizable / explicit-SIMD axis), all through
//!   [`HostWorkload`];
//! * **modeled** — cross-architecture estimates from
//!   [`mudock_archsim::Study`] for the five CPUs and seven compilers the
//!   paper tests (see the `mudock_archsim` crate docs).

use std::time::{Duration, Instant};

use mudock_archsim::opmix::{
    INTER_PER_ATOM, INTRA_PER_PAIR, TRANSFORM_RIGID_PER_ATOM, TRANSFORM_TORSION_PER_ATOM,
};
use mudock_archsim::pipeline::EXP_FLOPS_POLY;
use mudock_core::{Backend, DockingEngine, Genotype, LigandPrep};
use mudock_grids::{GridBuilder, GridDims, GridSet};
use mudock_mol::{ConformSoA, Vec3};
use mudock_simd::SimdLevel;

pub mod fmt {
    //! Plain-text table / CSV / bar-chart formatting for the harness
    //! binaries.

    /// Render an aligned text table.
    pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: Vec<String>, widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(
            headers.iter().map(|s| s.to_string()).collect(),
            &widths,
        ));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt_row(row.clone(), &widths));
            out.push('\n');
        }
        out
    }

    /// A simple ASCII bar for figure-like output.
    pub fn bar(value: f64, max: f64, width: usize) -> String {
        if max <= 0.0 || !value.is_finite() {
            return String::new();
        }
        let n = ((value / max) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize;
        "#".repeat(n)
    }

    /// Write a CSV file under `results/` (created on demand). An error
    /// names the file it could not write.
    pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
        let dir = std::path::Path::new("results");
        let path = dir.join(name);
        let mut text = headers.join(",");
        text.push('\n');
        for row in rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }
}

/// Passes [`HostWorkload::seconds_per_pose`] times, at least; it keeps
/// the fastest. A stretch in which a shared host runs everything ~1.5×
/// slower can outlast 15 passes, but not 200.
pub const TIMED_PASSES: usize = 200;

/// Rounds of an ablation table, at least.
pub const ROUNDS: usize = 300;

/// Wall time of a [`take_turns`] call, at least.
pub const MIN_WALL: Duration = Duration::from_secs(2);

/// Seconds of each arm's fastest pass: the crate's one timing loop.
/// `pass(i)` runs one pass of arm `i`. The arms take turns, one pass
/// each per round, for at least `rounds` rounds and [`MIN_WALL`], so a
/// slow stretch of a shared host costs every arm alike, and the first
/// rounds warm caches and clocks (the paper discards warm-up runs).
pub fn take_turns(arms: usize, rounds: usize, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let mut best = vec![f64::MAX; arms];
    let start = Instant::now();
    let mut round = 0;
    while round < rounds || start.elapsed() < MIN_WALL {
        for (arm, best) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            pass(arm);
            *best = best.min(t0.elapsed().as_secs_f64());
        }
        round += 1;
    }
    best
}

/// Nanoseconds per call of each of `cells`, timed by [`take_turns`] for
/// [`ROUNDS`]: `call(i)` calls cell `i` once, `calls` times a pass.
pub fn ns_per_call(cells: usize, calls: usize, mut call: impl FnMut(usize) -> f32) -> Vec<f64> {
    take_turns(cells, ROUNDS, |i| {
        for _ in 0..calls {
            std::hint::black_box(call(i));
        }
    })
    .into_iter()
    .map(|s| s / calls as f64 * 1e9)
    .collect()
}

/// A prepared single-complex scoring workload for host measurements:
/// grids + ligand prep + a fixed set of poses.
pub struct HostWorkload {
    pub grids: GridSet,
    pub prep: LigandPrep,
    pub poses: Vec<Genotype>,
}

impl HostWorkload {
    /// The 1a30-like complex with `n_poses` deterministic random poses.
    pub fn standard(n_poses: usize) -> HostWorkload {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (receptor, ligand) = mudock_molio::complex_1a30_like();
        let mut types: Vec<mudock_ff::AtomType> = ligand.atoms.iter().map(|a| a.ty).collect();
        types.sort_unstable();
        types.dedup();
        let dims = GridDims::centered(Vec3::ZERO, 11.0, 0.55);
        let grids = GridBuilder::new(&receptor, dims)
            .with_types(&types)
            .build_simd(SimdLevel::detect());
        let prep = LigandPrep::new(ligand).expect("valid ligand");
        let mut rng = StdRng::seed_from_u64(0xbe7c4);
        let poses = (0..n_poses)
            .map(|_| Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 6.0))
            .collect();
        HostWorkload { grids, prep, poses }
    }

    /// Seconds per pose of each of `backends`: the fastest of
    /// [`TIMED_PASSES`] passes, each scoring every pose once, the
    /// backends taking turns ([`take_turns`]).
    pub fn seconds_per_pose(&self, backends: &[Backend]) -> Vec<f64> {
        let engine = DockingEngine::new(&self.grids).expect("grids fit");
        let mut scratch = ConformSoA::with_capacity(self.prep.base.n);
        let mut sink = 0.0f32;
        let best = take_turns(backends.len(), TIMED_PASSES, |i| {
            for g in &self.poses {
                sink += engine.score(&self.prep, g, &mut scratch, backends[i]);
            }
        });
        std::hint::black_box(sink);
        best.into_iter()
            .map(|s| s / self.poses.len() as f64)
            .collect()
    }

    /// FLOPs one pose score performs, counted from the kernels' op mixes
    /// in [`mudock_archsim::opmix`] (polynomial `exp`): intra per pair;
    /// inter, rigid transform and one torsion blend per torsion per atom.
    pub fn flops_per_pose(&self) -> f64 {
        let per_atom = INTER_PER_ATOM
            .per_element
            .plus(&TRANSFORM_RIGID_PER_ATOM.per_element)
            .plus(
                &TRANSFORM_TORSION_PER_ATOM
                    .per_element
                    .scaled(self.prep.n_torsions() as f64),
            );
        self.prep.pairs.n as f64 * INTRA_PER_PAIR.per_element.flops(EXP_FLOPS_POLY)
            + self.prep.base.n as f64 * per_atom.flops(EXP_FLOPS_POLY)
    }

    /// Host ground truth across all runnable backends:
    /// `(backend name, seconds/pose, speedup vs Reference)`.
    /// Timed by [`HostWorkload::seconds_per_pose`]; the Reference row
    /// itself is the speedup denominator, so the table is
    /// self-consistent.
    pub fn backend_comparison(&self) -> Vec<(String, f64, f64)> {
        let backends = Backend::available();
        let timed: Vec<(String, f64)> = backends
            .iter()
            .map(|b| b.name())
            .zip(self.seconds_per_pose(&backends))
            .collect();
        let reference = timed
            .iter()
            .find(|(n, _)| n == "reference")
            .map(|(_, s)| *s)
            .unwrap_or(1.0);
        timed
            .into_iter()
            .map(|(n, s)| (n, s, reference / s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = fmt::table(
            &["a", "long-header"],
            &[vec!["x".into(), "1".into()], vec!["yy".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn bars_scale() {
        assert_eq!(fmt::bar(5.0, 10.0, 10), "#####");
        assert_eq!(fmt::bar(10.0, 10.0, 10), "##########");
        assert_eq!(fmt::bar(0.0, 10.0, 10), "");
    }

    /// Arm `i` sleeps `slow[i]` in every pass but its `fast_pass[i]`-th,
    /// which sleeps `fast[i]`: the log shows the turns, and each result
    /// must be that arm's one fast pass. Its window runs from its fast
    /// nap up to the next longer nap any arm takes (2 → 20 → 40 → 80 ms),
    /// so a mean, a last pass or another arm's pass falls outside it,
    /// while a scheduler delay of up to 18 ms does not.
    #[test]
    fn arms_take_turns_and_keep_their_fastest_pass() {
        let ms = |n| Duration::from_millis(n).as_secs_f64();
        let (slow, fast, fast_pass) = ([40, 80], [2, 20], [1, 4]);
        let mut log: Vec<usize> = Vec::new();
        let best = take_turns(2, 5, |i| {
            let passes = log.iter().filter(|&&a| a == i).count();
            log.push(i);
            let nap = if passes == fast_pass[i] {
                fast[i]
            } else {
                slow[i]
            };
            std::thread::sleep(Duration::from_millis(nap));
        });
        assert!(log.len() >= 2 * 5, "{} passes", log.len());
        assert_eq!(log.len() % 2, 0, "an arm ran an extra pass");
        assert!(
            log.iter().enumerate().all(|(k, &i)| i == k % 2),
            "the arms stopped taking turns: {log:?}"
        );
        let windows = [ms(fast[0])..ms(fast[1]), ms(fast[1])..ms(slow[0])];
        for (i, window) in windows.iter().enumerate() {
            assert!(window.contains(&best[i]), "arm {i}: {} s", best[i]);
        }
    }

    #[test]
    fn host_workload_scores_all_backends() {
        let wl = HostWorkload::standard(8);
        let backends = Backend::available();
        for (b, s) in backends.iter().zip(wl.seconds_per_pose(&backends)) {
            assert!(s > 0.0 && s < 1.0, "{b}: {s} s/pose");
        }
    }
}

pub mod report;
