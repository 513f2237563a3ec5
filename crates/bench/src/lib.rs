//! # mudock-bench — the paper's evaluation harness
//!
//! One binary per table and figure of the CLUSTER 2025 paper (run them
//! all via `paper_all`), plus ablation studies and two drivers for the
//! serve layer (`net_churn`, `cache_replay`). Binaries print the same
//! rows/series the paper reports and drop CSV files under `results/`.
//! Kernel and end-to-end timings are `bench_ladder/`'s job (the
//! stand-alone crate at the repo root), not this crate's.
//!
//! Two kinds of numbers appear:
//!
//! * **host-measured** — real wall-clock measurements of the Rust kernels
//!   on this machine, across [`mudock_core::Backend`]s (the
//!   scalar-libm / auto-vectorizable / explicit-SIMD axis);
//! * **modeled** — cross-architecture estimates from
//!   [`mudock_archsim::Study`] for the five CPUs and seven compilers the
//!   paper tests (see the `mudock_archsim` crate docs).

use std::time::Instant;

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

    /// Write a CSV file under `results/` (created on demand), returning
    /// its path.
    pub fn write_csv(
        name: &str,
        headers: &[&str],
        rows: &[Vec<String>],
    ) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut text = headers.join(",");
        text.push('\n');
        for row in rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
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

    /// Measure seconds per pose for one backend (scores every pose once).
    pub fn seconds_per_pose(&self, backend: Backend) -> f64 {
        let engine = DockingEngine::new(&self.grids).expect("grids fit");
        let mut scratch = ConformSoA::with_capacity(self.prep.base.n);
        let mut sink = 0.0f32;
        // Warm-up pass (the paper discards warm-up runs).
        for g in self.poses.iter().take(self.poses.len() / 4) {
            sink += engine.score(&self.prep, g, &mut scratch, backend);
        }
        let t0 = Instant::now();
        for g in &self.poses {
            sink += engine.score(&self.prep, g, &mut scratch, backend);
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        dt / self.poses.len() as f64
    }

    /// Host ground truth across all runnable backends:
    /// `(backend name, seconds/pose, speedup vs Reference)`.
    /// One timed pass per backend; the Reference row itself is the
    /// speedup denominator, so the table is self-consistent.
    pub fn backend_comparison(&self) -> Vec<(String, f64, f64)> {
        let timed: Vec<(String, f64)> = Backend::available()
            .into_iter()
            .map(|b| (b.name(), self.seconds_per_pose(b)))
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

    #[test]
    fn host_workload_scores_all_backends() {
        let wl = HostWorkload::standard(8);
        for b in Backend::available() {
            let s = wl.seconds_per_pose(b);
            assert!(s > 0.0 && s < 1.0, "{b}: {s} s/pose");
        }
    }
}

pub mod report;
