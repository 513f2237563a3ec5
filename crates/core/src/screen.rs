//! Virtual screening driver: dock a batch of ligands against one receptor
//! using the self-scheduling pool — the full-node scenario of the paper's
//! Figure 2b (one ligand = one task, no intra-task parallelism).

use mudock_grids::GridSet;
use mudock_mol::Molecule;

use crate::campaign::{CampaignSpec, StopCheck};
use crate::engine::{DockParams, DockingEngine, LigandPrep};
use crate::stats::KernelStats;
use crate::topk::TopK;

/// Outcome for one ligand of a screening batch.
#[derive(Clone, Debug)]
pub struct ScreenResult {
    /// Ligand name from the input molecule.
    pub name: String,
    /// Best docking score (kcal/mol); `None` if preparation failed.
    pub best_score: Option<f32>,
    /// Pose evaluations spent.
    pub evaluations: u64,
    /// Kernel work counters for this ligand.
    pub stats: KernelStats,
}

/// Summary of a whole screening run.
#[derive(Clone, Debug)]
pub struct ScreenSummary {
    pub results: Vec<ScreenResult>,
    /// Wall-clock time of the batch.
    pub elapsed: std::time::Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Ligands per second of wall-clock time.
    pub throughput: f64,
}

impl ScreenSummary {
    /// Indices of the `k` best-scoring ligands (ties rank by batch
    /// order). Streams through [`TopK`] — O(k) memory rather than a full
    /// sort, the same accumulator `mudock-serve` uses incrementally.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut top = TopK::new(k);
        for (i, r) in self.results.iter().enumerate() {
            if let Some(score) = r.best_score {
                top.push(score, i);
            }
        }
        top.into_sorted().into_iter().map(|(_, i)| i).collect()
    }

    /// Aggregated kernel counters across the batch.
    pub fn total_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for r in &self.results {
            total.merge(&r.stats);
        }
        total
    }
}

/// Per-ligand GA seed: `base` decorrelated by the ligand's position in
/// the batch. Keyed on the *global* batch index (not the scheduling
/// order), so a chunked or resumed run — the `mudock-serve` path —
/// reproduces a sequential run bit-for-bit.
pub fn ligand_seed(base: u64, batch_index: usize) -> u64 {
    base ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(batch_index as u64 + 1)
}

/// Dock the ligand at `batch_index` of a screening batch. Preparation or
/// docking failures degrade to a `None` score rather than aborting the
/// batch — one bad ligand must not sink a million-ligand campaign.
/// Shared by [`screen`] and the chunked executor in `mudock-serve`.
pub fn dock_ligand(
    engine: &DockingEngine,
    lig: &Molecule,
    params: &DockParams,
    batch_index: usize,
) -> ScreenResult {
    let mut p = params.clone();
    p.seed = ligand_seed(params.seed, batch_index);
    let report = LigandPrep::new(lig.clone())
        .ok()
        .and_then(|prep| engine.dock(&prep, &p).ok());
    match report {
        Some(rep) => ScreenResult {
            name: lig.name.clone(),
            best_score: Some(rep.best_score),
            evaluations: rep.evaluations,
            stats: rep.stats,
        },
        None => ScreenResult {
            name: lig.name.clone(),
            best_score: None,
            evaluations: 0,
            stats: KernelStats::default(),
        },
    }
}

/// Dock every ligand against `grids` on `threads` workers. Each ligand's
/// GA is seeded from `params.seed` and its batch index, so results are
/// reproducible regardless of scheduling order.
pub fn screen(
    grids: &GridSet,
    ligands: &[Molecule],
    params: &DockParams,
    threads: usize,
) -> ScreenSummary {
    let engine = DockingEngine::new(grids).expect("grid set too large for the engine");
    let start = std::time::Instant::now();
    let (results, stats) = mudock_pool::parallel_map_stats(ligands, threads, |i, lig| {
        dock_ligand(&engine, lig, params, i)
    });
    let elapsed = start.elapsed();
    let throughput = ligands.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    ScreenSummary {
        results,
        elapsed,
        threads: stats.threads,
        throughput,
    }
}

/// Dock a batch under a full [`CampaignSpec`] — the campaign-API form of
/// [`screen`]. Ligands are processed in chunks sized by the spec's
/// [`ChunkPolicy`](crate::campaign::ChunkPolicy), and the
/// [`StopPolicy`](crate::campaign::StopPolicy) is evaluated at every
/// chunk boundary, so a campaign can stop on an evaluation budget, a
/// deadline, or once the top-k ranking stabilizes.
///
/// Per-ligand results are identical to [`screen`]'s regardless of
/// chunking or early termination: GA seeds are keyed on the global batch
/// index, so every ligand that *is* docked scores exactly as it would in
/// an uninterrupted sequential run. An early-stopped summary simply
/// holds fewer results (a prefix of the batch).
pub fn screen_campaign(
    grids: &GridSet,
    ligands: &[Molecule],
    spec: &CampaignSpec,
    threads: usize,
) -> ScreenSummary {
    let engine = DockingEngine::new(grids).expect("grid set too large for the engine");
    let params = spec.dock_params();
    let start = std::time::Instant::now();
    let mut sizer = spec.chunk_sizer();
    let mut stop_check = StopCheck::new();
    let mut top: TopK<usize> = TopK::new(spec.top_k);
    let mut results: Vec<ScreenResult> = Vec::with_capacity(ligands.len());
    let mut evaluations = 0u64;
    let mut used_threads = threads.max(1);

    let mut offset = 0;
    while offset < ligands.len() {
        let size = sizer.next_size().min(ligands.len() - offset);
        let chunk = &ligands[offset..offset + size];
        let t0 = std::time::Instant::now();
        let (chunk_results, pool_stats) =
            mudock_pool::parallel_map_stats(chunk, threads, |i, lig| {
                dock_ligand(&engine, lig, &params, offset + i)
            });
        sizer.observe(size, t0.elapsed());
        used_threads = pool_stats.threads;
        for (i, r) in chunk_results.iter().enumerate() {
            evaluations += r.evaluations;
            if let Some(score) = r.best_score {
                top.push(score, offset + i);
            }
        }
        results.extend(chunk_results);
        offset += size;
        // Snapshotting the ranking costs a top-k clone + sort, so only
        // RankingStable — the one policy that reads it — pays for it.
        let ranking = if matches!(spec.stop, crate::campaign::StopPolicy::RankingStable { .. }) {
            top.clone().into_sorted()
        } else {
            Vec::new()
        };
        if stop_check.should_stop(&spec.stop, evaluations, &ranking) {
            break;
        }
    }

    let elapsed = start.elapsed();
    let throughput = results.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    ScreenSummary {
        results,
        elapsed,
        threads: used_threads,
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{BackendPolicy, Campaign, ChunkPolicy, StopPolicy};
    use crate::engine::Backend;
    use crate::ga::GaParams;
    use mudock_grids::{GridBuilder, GridDims};
    use mudock_mol::Vec3;
    use mudock_molio::{mediate_like_set, synthetic_receptor};
    use mudock_simd::SimdLevel;

    fn tiny_batch() -> (GridSet, Vec<Molecule>) {
        let rec = synthetic_receptor(21, 150, 9.0);
        let ligands = mediate_like_set(77, 6);
        let dims = GridDims::centered(Vec3::ZERO, 11.0, 0.7);
        // Screening sets span many types: build all maps.
        let gs = GridBuilder::new(&rec, dims).build_simd(SimdLevel::detect());
        (gs, ligands)
    }

    fn quick_params() -> DockParams {
        DockParams {
            ga: GaParams {
                population: 12,
                generations: 6,
                ..Default::default()
            },
            seed: 99,
            // What `BackendPolicy::Detect` (`quick_campaign`) resolves to,
            // `MUDOCK_BACKEND` pin included.
            backend: Backend::auto(),
            search_radius: Some(4.0),
            local_search: None,
        }
    }

    #[test]
    fn screening_returns_one_result_per_ligand() {
        let (gs, ligands) = tiny_batch();
        let summary = screen(&gs, &ligands, &quick_params(), 2);
        assert_eq!(summary.results.len(), ligands.len());
        for (r, l) in summary.results.iter().zip(&ligands) {
            assert_eq!(r.name, l.name);
            assert!(r.best_score.is_some(), "ligand {} failed", r.name);
        }
        assert!(summary.throughput > 0.0);
    }

    #[test]
    fn screening_is_deterministic_across_thread_counts() {
        let (gs, ligands) = tiny_batch();
        let a = screen(&gs, &ligands, &quick_params(), 1);
        let b = screen(&gs, &ligands, &quick_params(), 2);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.best_score, y.best_score, "ligand {}", x.name);
        }
    }

    #[test]
    fn top_k_is_sorted_by_score() {
        let (gs, ligands) = tiny_batch();
        let summary = screen(&gs, &ligands, &quick_params(), 2);
        let top = summary.top_k(3);
        assert_eq!(top.len(), 3);
        for w in top.windows(2) {
            assert!(
                summary.results[w[0]].best_score.unwrap()
                    <= summary.results[w[1]].best_score.unwrap()
            );
        }
    }

    /// Summary with hand-written scores (no docking) for top_k edge cases.
    fn summary_with_scores(scores: &[Option<f32>]) -> ScreenSummary {
        ScreenSummary {
            results: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| ScreenResult {
                    name: format!("lig{i}"),
                    best_score: s,
                    evaluations: 0,
                    stats: KernelStats::default(),
                })
                .collect(),
            elapsed: std::time::Duration::from_millis(1),
            threads: 1,
            throughput: 0.0,
        }
    }

    #[test]
    fn top_k_breaks_ties_by_batch_order() {
        let s = summary_with_scores(&[Some(-2.0), Some(-5.0), Some(-2.0), Some(-5.0), Some(-2.0)]);
        assert_eq!(s.top_k(4), vec![1, 3, 0, 2]);
    }

    #[test]
    fn top_k_skips_failed_ligands() {
        let s = summary_with_scores(&[None, Some(1.0), None, Some(-1.0), None]);
        assert_eq!(s.top_k(3), vec![3, 1]);

        let all_failed = summary_with_scores(&[None, None, None]);
        assert!(all_failed.top_k(2).is_empty());
    }

    #[test]
    fn top_k_with_k_beyond_len_returns_all_scored() {
        let s = summary_with_scores(&[Some(3.0), Some(-3.0), None, Some(0.0)]);
        assert_eq!(s.top_k(100), vec![1, 3, 0]);
        assert!(s.top_k(0).is_empty());

        let empty = summary_with_scores(&[]);
        assert!(empty.top_k(5).is_empty());
    }

    /// The campaign twin of [`quick_params`].
    fn quick_campaign() -> crate::campaign::CampaignBuilder {
        Campaign::builder()
            .ga(GaParams {
                population: 12,
                generations: 6,
                ..Default::default()
            })
            .seed(99)
            .search_radius(4.0)
            .backend(BackendPolicy::Detect)
    }

    #[test]
    fn screen_campaign_matches_screen_for_any_chunking() {
        let (gs, ligands) = tiny_batch();
        let reference = screen(&gs, &ligands, &quick_params(), 2);
        for chunk in [
            ChunkPolicy::Fixed(1),
            ChunkPolicy::Fixed(4),
            ChunkPolicy::Fixed(100),
        ] {
            let spec = quick_campaign().chunk(chunk).build().unwrap();
            let summary = screen_campaign(&gs, &ligands, &spec, 2);
            assert_eq!(summary.results.len(), ligands.len());
            for (a, b) in summary.results.iter().zip(&reference.results) {
                assert_eq!(a.best_score, b.best_score, "{:?} ligand {}", chunk, a.name);
            }
        }
        let adaptive = quick_campaign()
            .chunk(ChunkPolicy::Adaptive {
                target: std::time::Duration::from_millis(20),
            })
            .build()
            .unwrap();
        let summary = screen_campaign(&gs, &ligands, &adaptive, 2);
        assert_eq!(summary.results.len(), ligands.len());
        for (a, b) in summary.results.iter().zip(&reference.results) {
            assert_eq!(a.best_score, b.best_score, "adaptive ligand {}", a.name);
        }
    }

    #[test]
    fn screen_campaign_evaluation_budget_stops_between_chunks() {
        let (gs, ligands) = tiny_batch();
        // 12 × 6 = 72 evaluations per ligand; budget of one ligand's worth
        // with 2-ligand chunks → exactly one chunk runs.
        let spec = quick_campaign()
            .chunk(ChunkPolicy::Fixed(2))
            .stop(StopPolicy::MaxEvaluations(72))
            .build()
            .unwrap();
        let summary = screen_campaign(&gs, &ligands, &spec, 1);
        assert_eq!(summary.results.len(), 2, "stopped after the first chunk");
        // The processed prefix is bit-identical to the full run's.
        let full = screen(&gs, &ligands, &quick_params(), 1);
        for (a, b) in summary.results.iter().zip(&full.results) {
            assert_eq!(a.best_score, b.best_score);
        }
    }

    #[test]
    fn total_stats_aggregates() {
        let (gs, ligands) = tiny_batch();
        let summary = screen(&gs, &ligands, &quick_params(), 2);
        let total = summary.total_stats();
        assert_eq!(total.generations, 6 * ligands.len() as u64);
        assert!(total.poses_scored > 0);
    }
}
