//! End-to-end service tests: concurrent jobs sharing a grid cache,
//! per-job SIMD pinning with per-level cache entries, stop-policy early
//! termination, incremental JSONL streaming, checkpoint resume (also
//! across a chunk-policy change), and queue backpressure — each ranking
//! checked against a sequential `mudock_core` reference run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mudock_core::{
    screen_campaign, Backend, BackendPolicy, Campaign, CampaignSpec, ChunkPolicy, StopPolicy,
};
use mudock_grids::{GridBuilder, GridDims};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::{mediate_like_set, synthetic_receptor};
use mudock_serve::{
    JobSpec, JobState, LigandSource, Priority, ScreenService, ServeConfig, SubmitError,
};
use mudock_simd::SimdLevel;

const SEED: u64 = 42;
const N_LIGANDS: usize = 24;
const CHUNK: usize = 6;
const TOP_K: usize = 5;

fn receptor() -> Arc<Molecule> {
    Arc::new(synthetic_receptor(7, 120, 8.0))
}

fn dims() -> GridDims {
    GridDims::centered(Vec3::ZERO, 10.0, 0.7)
}

fn campaign(name: &str) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(10)
        .generations(5)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
        .chunk(ChunkPolicy::Fixed(CHUNK))
        .grid_dims(dims())
        .build()
        .expect("the test campaign is valid")
}

fn spec(name: &str) -> JobSpec {
    JobSpec {
        receptor: receptor(),
        ligands: LigandSource::synth(SEED, N_LIGANDS),
        ..JobSpec::from(campaign(name))
    }
}

/// `(index, name, score)` of the reference ranking: a one-shot
/// sequential `core::screen_campaign` over the materialized batch,
/// consuming the *same* `CampaignSpec` the service jobs run from.
fn reference_top_for(campaign: &CampaignSpec) -> Vec<(usize, String, f32)> {
    let rec = receptor();
    let grids = GridBuilder::new(&rec, dims()).build_simd(campaign.grid_level());
    let ligands = mediate_like_set(SEED, N_LIGANDS);
    let full = CampaignSpec {
        stop: StopPolicy::Complete,
        ..campaign.clone()
    };
    let summary = screen_campaign(&grids, &ligands, &full, 1);
    summary
        .top_k(TOP_K)
        .into_iter()
        .map(|i| {
            (
                i,
                summary.results[i].name.clone(),
                summary.results[i].best_score.unwrap(),
            )
        })
        .collect()
}

fn reference_top() -> Vec<(usize, String, f32)> {
    reference_top_for(&campaign("reference"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mudock-serve-test-{}-{name}", std::process::id()))
}

fn jsonl_lines(path: &PathBuf) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().count())
        .unwrap_or(0)
}

#[test]
fn concurrent_jobs_share_the_grid_cache_and_stream_results() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 2,
        queue_capacity: 8,
        cache_capacity: 2,
        ..ServeConfig::default()
    });

    let jsonl_a = tmp("concurrent-a.jsonl");
    let jsonl_b = tmp("concurrent-b.jsonl");
    std::fs::remove_file(&jsonl_a).ok();
    std::fs::remove_file(&jsonl_b).ok();

    // Job A observes its own JSONL file at every chunk boundary: the
    // sink flushes *before* the progress callback runs, so the counts
    // are deterministic.
    let observed: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let observer = {
        let observed = Arc::clone(&observed);
        let path = jsonl_a.clone();
        Arc::new(move |p: &mudock_serve::ChunkProgress<'_>| {
            observed
                .lock()
                .unwrap()
                .push((p.chunks_done, jsonl_lines(&path)));
        })
    };

    let mut spec_a = spec("job-a");
    spec_a.jsonl = Some(jsonl_a.clone());
    spec_a.progress = Some(observer);
    let mut spec_b = spec("job-b");
    spec_b.jsonl = Some(jsonl_b.clone());

    let a = service.submit(spec_a).unwrap();
    let b = service.submit(spec_b).unwrap();
    let oa = a.wait();
    let ob = b.wait();

    assert_eq!(oa.state, JobState::Completed);
    assert_eq!(ob.state, JobState::Completed);
    assert_eq!(oa.ligands_done, N_LIGANDS);
    assert_eq!(ob.ligands_done, N_LIGANDS);

    // Same receptor + dims → one build, one hit, whichever job got there
    // second (a build in flight still counts: it ran once).
    assert!(
        oa.grid_cache_hit ^ ob.grid_cache_hit,
        "exactly one of the two jobs must hit the cache (a={}, b={})",
        oa.grid_cache_hit,
        ob.grid_cache_hit
    );
    let stats = service.stats();
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.entries, 1);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.ligands_docked, 2 * N_LIGANDS as u64);

    // JSONL streamed incrementally: after chunk c, exactly c×CHUNK lines
    // were already on disk — the first three observations happen while
    // the job is far from done.
    let obs = observed.lock().unwrap().clone();
    let expected: Vec<(usize, usize)> = (1..=N_LIGANDS / CHUNK).map(|c| (c, c * CHUNK)).collect();
    assert_eq!(obs, expected, "per-chunk JSONL availability");

    // Final files: one line per ligand, every index present.
    for path in [&jsonl_a, &jsonl_b] {
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), N_LIGANDS);
        for i in 0..N_LIGANDS {
            assert!(
                text.contains(&format!("\"index\":{i},")),
                "index {i} missing from {}",
                path.display()
            );
        }
    }

    // Both rankings must match the sequential reference exactly.
    let reference = reference_top();
    for outcome in [&oa, &ob] {
        assert_eq!(outcome.top.len(), TOP_K);
        for (got, want) in outcome.top.iter().zip(&reference) {
            assert_eq!((got.index, &got.name, got.score), (want.0, &want.1, want.2));
        }
    }

    service.shutdown();
    std::fs::remove_file(&jsonl_a).ok();
    std::fs::remove_file(&jsonl_b).ok();
}

#[test]
fn cancelled_job_resumes_from_its_checkpoint() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 4,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let jsonl = tmp("resume.jsonl");
    let ckpt = tmp("resume.ckpt");
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&ckpt).ok();

    // Kill the job from its own progress callback after the second
    // chunk: deterministic, and the chunk just completed is already
    // flushed to both sinks.
    let mut first = spec("resumable");
    first.jsonl = Some(jsonl.clone());
    first.checkpoint = Some(ckpt.clone());
    first.progress = Some(Arc::new(|p: &mudock_serve::ChunkProgress<'_>| {
        if p.chunks_done == 2 {
            p.cancel();
        }
    }));

    let handle = service.submit(first).unwrap();
    let killed = handle.wait();
    assert_eq!(killed.state, JobState::Cancelled);
    assert_eq!(killed.chunks_done, 2);
    assert_eq!(killed.ligands_done, 2 * CHUNK);
    assert_eq!(killed.replayed_chunks, 0);
    assert_eq!(jsonl_lines(&jsonl), 2 * CHUNK);

    // Resubmit the same job under a *different* chunk policy: the two
    // completed chunks replay from the checkpoint (each record knows its
    // own size), the rest dock live in adaptively-sized chunks, and the
    // final ranking is still bit-identical to an uninterrupted
    // sequential run — per-ligand seeds are keyed on the global index,
    // never on chunk boundaries.
    let mut second = spec("resumable");
    second.campaign.chunk = ChunkPolicy::Adaptive {
        target: std::time::Duration::from_millis(25),
    };
    second.jsonl = Some(jsonl.clone());
    second.checkpoint = Some(ckpt.clone());
    let resumed = service.submit(second).unwrap().wait();

    assert_eq!(resumed.state, JobState::Completed);
    assert_eq!(resumed.replayed_chunks, 2);
    assert!(
        resumed.chunks_done >= 3,
        "two replayed chunks plus at least one live chunk"
    );
    assert_eq!(resumed.ligands_done, N_LIGANDS);
    assert!(
        resumed.grid_cache_hit,
        "the receptor grid must still be cached"
    );
    assert_eq!(
        jsonl_lines(&jsonl),
        N_LIGANDS,
        "resume appends, never duplicates"
    );

    let reference = reference_top();
    assert_eq!(resumed.top.len(), TOP_K);
    for (got, want) in resumed.top.iter().zip(&reference) {
        assert_eq!((got.index, &got.name, got.score), (want.0, &want.1, want.2));
    }

    // Across both runs every ligand was docked live exactly once: the
    // first run's 12 plus the resume's remaining 12.
    assert_eq!(service.stats().ligands_docked, N_LIGANDS as u64);

    service.shutdown();
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// The acceptance scenario for per-job SIMD pinning: two concurrent
/// jobs pinned to *different* levels against the same receptor must get
/// distinct `(fingerprint, dims, level)` cache entries — neither job
/// reads grids built with the other's instruction set — while their
/// rankings agree across levels within fast-math tolerance.
#[test]
fn jobs_pinned_to_different_levels_get_distinct_grids_and_agreeing_rankings() {
    let levels = SimdLevel::available();
    if levels.len() < 2 {
        eprintln!("skipping: host offers only {levels:?}");
        return;
    }
    let (lo, hi) = (levels[0], *levels.last().unwrap());

    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        ..ServeConfig::default()
    });
    let submit = |level: SimdLevel| {
        let mut s = spec(&format!("pinned-{level}"));
        s.campaign.backend = BackendPolicy::Fixed(Backend::Explicit(level));
        service.submit(s).unwrap()
    };
    let a = submit(lo);
    let b = submit(hi);
    let oa = a.wait();
    let ob = b.wait();

    assert_eq!(oa.state, JobState::Completed);
    assert_eq!(ob.state, JobState::Completed);

    // Distinct (fingerprint, level) entries: two builds, zero sharing.
    let stats = service.stats();
    assert_eq!(stats.cache.misses, 2, "each level builds its own grids");
    assert_eq!(stats.cache.hits, 0);
    assert_eq!(stats.cache.entries, 2);

    // Same campaign, different instruction sets: identical rankings
    // within fast-math tolerance.
    assert_eq!(oa.top.len(), ob.top.len());
    for (x, y) in oa.top.iter().zip(&ob.top) {
        assert_eq!(
            (x.index, &x.name),
            (y.index, &y.name),
            "{lo} and {hi} must rank the same ligands"
        );
        let tol = 5e-3 * x.score.abs().max(1.0);
        assert!(
            (x.score - y.score).abs() <= tol,
            "{}: {} vs {}",
            x.name,
            x.score,
            y.score
        );
    }

    // And each pinned job reproduces the core screen_campaign path run
    // from the very same spec — one workload description, two entry
    // points, bit-identical results.
    let mut pinned = campaign("core-twin");
    pinned.backend = BackendPolicy::Fixed(Backend::Explicit(lo));
    for (got, want) in oa.top.iter().zip(&reference_top_for(&pinned)) {
        assert_eq!((got.index, &got.name, got.score), (want.0, &want.1, want.2));
    }

    service.shutdown();
}

/// The acceptance scenario for early termination: a `RankingStable`
/// campaign stops before exhausting its input, reports Completed +
/// stopped_early (via the ChunkProgress::cancel hook), and its ranking
/// is bit-identical to what `core::screen_campaign` produces for the
/// same spec — and to a full run over the same prefix of the batch.
#[test]
fn ranking_stable_policy_stops_the_job_early_with_a_consistent_ranking() {
    // A longer batch than the other tests use: the top-5 needs room to
    // go quiet for two consecutive chunks before the input runs out.
    const N_EARLY: usize = 60;
    let stop = StopPolicy::RankingStable {
        window: 2,
        epsilon: 0.0,
    };
    let mut early_campaign = campaign("early-stop");
    early_campaign.chunk = ChunkPolicy::Fixed(4);
    early_campaign.stop = stop;

    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 4,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let mut s = JobSpec {
        receptor: receptor(),
        ligands: LigandSource::synth(SEED, N_EARLY),
        ..JobSpec::from(early_campaign.clone())
    };
    s.progress = None;
    let outcome = service.submit(s).unwrap().wait();
    service.shutdown();

    assert_eq!(
        outcome.state,
        JobState::Completed,
        "a policy stop is a success, not a cancellation"
    );
    assert!(outcome.stopped_early, "the ranking must stabilize early");
    assert!(
        outcome.ligands_done < N_EARLY,
        "stopped after {} of {N_EARLY} ligands",
        outcome.ligands_done
    );

    // The core path consuming the same spec stops at the same place
    // with the same ranking.
    let rec = receptor();
    let grids = GridBuilder::new(&rec, dims()).build_simd(early_campaign.grid_level());
    let ligands = mediate_like_set(SEED, N_EARLY);
    let core_summary = screen_campaign(&grids, &ligands, &early_campaign, 1);
    assert_eq!(core_summary.results.len(), outcome.ligands_done);
    let core_top = core_summary.top_k(TOP_K);
    assert_eq!(outcome.top.len(), core_top.len());
    for (got, &want) in outcome.top.iter().zip(&core_top) {
        assert_eq!(got.index, want);
        assert_eq!(got.score, core_summary.results[want].best_score.unwrap());
    }

    // Early termination discards nothing: the ranking equals a full
    // (non-stopping) run over the prefix that was actually docked.
    let full = CampaignSpec {
        stop: StopPolicy::Complete,
        ..early_campaign
    };
    let prefix = screen_campaign(&grids, &ligands[..outcome.ligands_done], &full, 1);
    let prefix_top = prefix.top_k(TOP_K);
    for (got, &want) in outcome.top.iter().zip(&prefix_top) {
        assert_eq!(got.index, want);
        assert_eq!(got.score, prefix.results[want].best_score.unwrap());
    }
}

#[test]
fn queue_applies_backpressure_and_priority_order() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 1,
        job_slots: 1,
        queue_capacity: 2,
        cache_capacity: 2,
        ..ServeConfig::default()
    });

    let completion_order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let record = |name: &str| {
        let order = Arc::clone(&completion_order);
        let name = name.to_string();
        Arc::new(move |_: &mudock_serve::ChunkProgress<'_>| {
            order.lock().unwrap().push(name.clone());
        })
    };

    // Occupy the single executor: the blocker parks in its progress
    // callback until released, holding the job slot.
    let release = Arc::new(AtomicBool::new(false));
    let gate = {
        let release = Arc::clone(&release);
        let order = Arc::clone(&completion_order);
        Arc::new(move |_: &mudock_serve::ChunkProgress<'_>| {
            order.lock().unwrap().push("blocker".into());
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let small = |name: &str| {
        let mut s = spec(name);
        s.ligands = LigandSource::synth(SEED, 2);
        s.campaign.chunk = ChunkPolicy::Fixed(4);
        s
    };
    let mut blocker = small("blocker");
    blocker.progress = Some(gate);
    let blocker_handle = service.submit(blocker).unwrap();
    while blocker_handle.chunks_done() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Executor busy, queue empty: two submissions fit, the third is
    // refused — backpressure instead of unbounded growth.
    let mut low = small("low");
    low.priority = Priority::Low;
    low.progress = Some(record("low"));
    let mut high = small("high");
    high.priority = Priority::High;
    high.progress = Some(record("high"));
    let low_handle = service.submit(low).unwrap();
    let high_handle = service.submit(high).unwrap();
    let overflow = service.try_submit(small("overflow"));
    assert_eq!(overflow.unwrap_err(), SubmitError::Full);

    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker_handle.wait().state, JobState::Completed);
    assert_eq!(high_handle.wait().state, JobState::Completed);
    assert_eq!(low_handle.wait().state, JobState::Completed);

    // The high-priority job must have run before the earlier-submitted
    // low-priority one.
    assert_eq!(
        *completion_order.lock().unwrap(),
        vec!["blocker", "high", "low"]
    );

    service.shutdown();
}
