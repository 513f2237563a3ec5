//! Warm-restart acceptance tests at the service level: a node killed
//! and restarted on the same `--spill-dir` must serve its first job on
//! a previously-cached receptor from the restored spill tier — zero
//! grid rebuilds, rankings bit-identical to the pre-kill run — and,
//! with prefetch enabled, reload the next queued receptor's grids
//! before the demand lookup asks for them. Both lives record a cache
//! trace, and replaying each must reproduce that life's counters; the
//! second life's trace (warm + restore lines included) is left at
//! `$CARGO_TARGET_TMPDIR/warm_restart.trace` for CI's `cache_replay`
//! step.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mudock_core::{Backend, BackendPolicy, Campaign, CampaignSpec, ChunkPolicy};
use mudock_grids::GridDims;
use mudock_mol::{Molecule, Vec3};
use mudock_molio::synthetic_receptor;
use mudock_serve::cache::policy::{self, ModelConfig};
use mudock_serve::cache::CacheStats;
use mudock_serve::{
    read_trace, JobSpec, JobState, LigandSource, RankedLigand, ScreenService, ServeConfig,
    SpillConfig,
};

const SEED: u64 = 42;
const N_LIGANDS: usize = 8;
const TOP_K: usize = 3;

fn receptor(seed: u64) -> Arc<Molecule> {
    Arc::new(synthetic_receptor(seed, 100, 8.0))
}

fn campaign(name: &str) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(8)
        .generations(4)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
        .chunk(ChunkPolicy::Fixed(4))
        .grid_dims(GridDims::centered(Vec3::ZERO, 8.0, 0.8))
        .build()
        .expect("the test campaign is valid")
}

fn spec(name: &str, receptor_seed: u64) -> JobSpec {
    JobSpec {
        receptor: receptor(receptor_seed),
        ligands: LigandSource::synth(SEED, N_LIGANDS),
        ..JobSpec::from(campaign(name))
    }
}

fn config(spill_dir: &PathBuf) -> ServeConfig {
    ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 8,
        cache_capacity: 1,
        spill: Some(SpillConfig::new(spill_dir)),
        ..ServeConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mudock-warm-restart-{}-{name}", std::process::id()))
}

/// Replaying the trace a service recorded, at the geometry its header
/// names, must reproduce the service's cache counters.
fn assert_replay_matches(trace_path: &Path, live: &CacheStats) {
    let trace = read_trace(trace_path).expect("the recorded trace parses");
    let header = trace.header.as_ref().expect("header line present");
    let cfg = ModelConfig::for_policy(&header.policy, header.capacity, header.spill_capacity)
        .expect("the live policy is a replay row");
    let model = policy::replay(&trace.events, cfg);
    assert_eq!(
        (
            model.hits,
            model.misses,
            model.reloads,
            model.spills,
            model.evictions
        ),
        (
            live.hits,
            live.misses,
            live.reloads,
            live.spills,
            live.evictions
        ),
        "hits, misses, reloads, spills, evictions of {}",
        trace_path.display()
    );
}

fn assert_same_ranking(got: &[RankedLigand], want: &[RankedLigand]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        // Bit-exact score equality: the reloaded grids are the spilled
        // bytes, so nothing may drift.
        assert_eq!((g.index, &g.name, g.score), (w.index, &w.name, w.score));
    }
}

/// The tentpole acceptance check: kill a node whose cache spilled a
/// receptor's grids, restart it on the same spill directory, and the
/// first job on that receptor runs with *zero* grid rebuilds (its one
/// miss is a reload) and a ranking bit-identical to the pre-kill run.
#[test]
fn a_restarted_node_reuses_its_spill_dir_without_rebuilding() {
    let dir = tmp("reuse");
    std::fs::remove_dir_all(&dir).ok();

    // First life: receptor A builds, then receptor B evicts it into
    // the spill tier.
    let first_trace = tmp("reuse-1.trace");
    let first = ScreenService::start(ServeConfig {
        cache_trace: Some(first_trace.clone()),
        ..config(&dir)
    });
    let oa = first.submit(spec("a-1", 7)).unwrap().wait();
    let ob = first.submit(spec("b-1", 8)).unwrap().wait();
    assert_eq!(oa.state, JobState::Completed);
    assert_eq!(ob.state, JobState::Completed);
    let s1 = first.stats();
    assert_eq!((s1.cache.misses, s1.cache.spills), (2, 1));
    assert_replay_matches(&first_trace, &s1.cache);
    std::fs::remove_file(&first_trace).ok();
    // No clean handover: drop the service as a crash stand-in (the
    // spill tier is already durable — files land at eviction time).
    first.shutdown();

    // Second life, same directory: the rescan restores receptor A's
    // grids and the job reloads them instead of rebuilding.
    let second_trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("warm_restart.trace");
    let second = ScreenService::start(ServeConfig {
        cache_trace: Some(second_trace.clone()),
        ..config(&dir)
    });
    let oa2 = second.submit(spec("a-2", 7)).unwrap().wait();
    assert_eq!(oa2.state, JobState::Completed);
    let s2 = second.stats();
    assert_eq!(s2.cache.quarantined, 0);
    assert_eq!(
        (s2.cache.misses, s2.cache.reloads),
        (1, 1),
        "the only miss must be served from the restored spill tier — zero rebuilds"
    );
    assert_same_ranking(&oa2.top, &oa.top);
    assert_replay_matches(&second_trace, &s2.cache);
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// With `cache_prefetch` on, a warm-restarted node acts on the
/// router's next-job hint: while one job docks, the next queued
/// receptor's spilled grids are reloaded in the background, and the
/// prefetch counter proves it happened ahead of demand.
#[test]
fn prefetch_reloads_the_next_queued_receptors_grids() {
    let dir = tmp("prefetch");
    std::fs::remove_dir_all(&dir).ok();

    // Seed the spill tier with both receptors: A builds, B evicts it
    // (spilling A), A reloads and evicts B (spilling B).
    let first = ScreenService::start(config(&dir));
    let oa = first.submit(spec("a-1", 7)).unwrap().wait();
    first.submit(spec("b-1", 8)).unwrap().wait();
    let oa_again = first.submit(spec("a-2", 7)).unwrap().wait();
    assert_same_ranking(&oa_again.top, &oa.top);
    let s1 = first.stats();
    assert_eq!((s1.cache.spills, s1.cache.reloads), (2, 1));
    first.shutdown();

    // Restart with prefetch. A blocker job on receptor A parks in its
    // progress callback so B and A can queue up behind it; when B is
    // popped the router's hint names A, and B's worker prefetches A's
    // grids while B is still docking.
    let second = ScreenService::start(ServeConfig {
        cache_prefetch: true,
        ..config(&dir)
    });
    let release = Arc::new(AtomicBool::new(false));
    let gate = {
        let release = Arc::clone(&release);
        Arc::new(move |_: &mudock_serve::ChunkProgress<'_>| {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let mut blocker = spec("blocker", 7);
    blocker.progress = Some(gate);
    let blocker_handle = second.submit(blocker).unwrap();
    while blocker_handle.chunks_done() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let b_handle = second.submit(spec("b-2", 8)).unwrap();
    let a_handle = second.submit(spec("a-3", 7)).unwrap();
    release.store(true, Ordering::SeqCst);

    assert_eq!(blocker_handle.wait().state, JobState::Completed);
    assert_eq!(b_handle.wait().state, JobState::Completed);
    let oa3 = a_handle.wait();
    assert_eq!(oa3.state, JobState::Completed);
    assert_same_ranking(&oa3.top, &oa.top);

    // The prefetch runs on a background thread; give the counter a
    // moment after the jobs drain.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let s2 = second.stats();
        if s2.cache.prefetches >= 1 {
            // Everything this life served came from disk or the
            // prefetcher — the warm tier means never rebuilding.
            // (Prefetch reloads are not demand misses, so demand
            // reloads are `reloads - prefetches`.)
            assert_eq!(
                s2.cache.misses,
                s2.cache.reloads - s2.cache.prefetches,
                "zero rebuilds"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no prefetch recorded: {:?}",
            s2.cache
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The key a binary from before `mudock_core::SCORING_REV` existed
/// stamped on `spec`'s checkpoint: everything `job_fingerprint` hashes
/// today except the revision.
fn unrevisioned_checkpoint_key(spec: &JobSpec) -> u64 {
    let mut h = checkpoint_key_head(spec);
    h.write(spec.campaign.backend.resolve().name().as_bytes());
    h.finish()
}

/// What every checkpoint key starts with: grids, seed, ranking size.
fn checkpoint_key_head(spec: &JobSpec) -> mudock_grids::Fnv64 {
    let dims = spec.campaign.dims_for(&spec.receptor);
    let mut h = mudock_grids::Fnv64::new();
    h.write_u64(mudock_grids::grid_cache_key(&spec.receptor, &dims))
        .write_u64(spec.campaign.seed)
        .write_u64(spec.campaign.top_k as u64);
    h
}

/// A checkpoint under `key` whose two chunks are done, with scores that
/// would take the whole ranking if they were replayed.
fn finished_checkpoint(key: u64) -> String {
    let mut text = format!("mudock-checkpoint v1 key {key:016x}\n");
    for chunk in 0..2 {
        text += &format!("chunk {chunk} 4 {TOP_K}\n");
        for k in 0..TOP_K {
            let score = (-1000.0f32 - k as f32).to_bits();
            text += &format!("entry {} {score:08x} stale-{k}\n", chunk * 4 + k);
        }
        text += &format!("end {chunk}\n");
    }
    text
}

/// A node restarted on a *newer binary* whose kernels sum in another
/// order must not merge the old binary's checkpointed scores with its
/// own: the checkpoint key carries the scoring revision, so the stale
/// file is refused and the job re-docks to the fresh-run ranking.
#[test]
fn a_checkpoint_of_another_scoring_revision_is_refused() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 8,
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    let fresh = service.submit(spec("fresh", 7)).unwrap().wait();
    assert_eq!(fresh.state, JobState::Completed);

    // Both chunks "done" by the old binary.
    let ckpt = tmp("stale-rev.ckpt");
    let stale = spec("stale", 7);
    let text = finished_checkpoint(unrevisioned_checkpoint_key(&stale));
    std::fs::write(&ckpt, text).unwrap();

    let mut resumed = stale;
    resumed.checkpoint = Some(ckpt.clone());
    let redocked = service.submit(resumed).unwrap().wait();
    assert_eq!(redocked.state, JobState::Completed);
    assert_eq!(
        redocked.replayed_chunks, 0,
        "a chunk scored under another revision was replayed"
    );
    assert_eq!(redocked.ligands_done, N_LIGANDS);
    assert_same_ranking(&redocked.top, &fresh.top);

    // The file was restarted under this binary's key, and resumes.
    let mut again = spec("again", 7);
    again.checkpoint = Some(ckpt.clone());
    let replayed = service.submit(again).unwrap().wait();
    assert_eq!(replayed.replayed_chunks, 2);
    assert_same_ranking(&replayed.top, &fresh.top);

    service.shutdown();
    std::fs::remove_file(&ckpt).ok();
}

/// The key this binary stamps on the checkpoint of an `autovec` `spec` on
/// a host of arithmetic class `class`: everything `job_fingerprint`
/// hashes.
fn autovec_checkpoint_key(spec: &JobSpec, class: &str) -> u64 {
    let mut h = checkpoint_key_head(spec);
    h.write(b"autovec")
        .write(class.as_bytes())
        .write_u32(mudock_core::SCORING_REV);
    h.finish()
}

/// `"autovec"` names two roundings — fused multiply-adds where the CPU
/// has AVX2+FMA, separate ones elsewhere. A checkpoint written on a host
/// of one class and resumed on a host of the other (a migrated VM, a
/// shared checkpoint directory) must be refused, not merged into a
/// ranking neither host would reproduce.
#[test]
fn an_autovec_checkpoint_of_the_other_arithmetic_class_is_refused() {
    let autovec = |name: &str| {
        let mut spec = spec(name, 7);
        spec.campaign.backend = BackendPolicy::Fixed(Backend::AutoVec);
        spec
    };
    let here = mudock_core::autovec::arithmetic();
    let elsewhere = if here == "fused" { "unfused" } else { "fused" };

    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 8,
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    // A fresh run stamps its checkpoint with this host's class.
    let own = tmp("own-class.ckpt");
    let mut first = autovec("fresh");
    first.checkpoint = Some(own.clone());
    let fresh = service.submit(first).unwrap().wait();
    assert_eq!(fresh.state, JobState::Completed);
    let header = std::fs::read_to_string(&own).unwrap();
    assert_eq!(
        header.lines().next(),
        Some(
            format!(
                "mudock-checkpoint v1 key {:016x}",
                autovec_checkpoint_key(&autovec("fresh"), here)
            )
            .as_str()
        ),
    );

    // The same job, both chunks "done" on a host of the other class.
    let ckpt = tmp("other-class.ckpt");
    let stale = autovec("stale");
    let text = finished_checkpoint(autovec_checkpoint_key(&stale, elsewhere));
    std::fs::write(&ckpt, text).unwrap();

    let mut resumed = stale;
    resumed.checkpoint = Some(ckpt.clone());
    let redocked = service.submit(resumed).unwrap().wait();
    assert_eq!(redocked.state, JobState::Completed);
    assert_eq!(
        redocked.replayed_chunks, 0,
        "a chunk scored under the other rounding was replayed"
    );
    assert_eq!(redocked.ligands_done, N_LIGANDS);
    assert_same_ranking(&redocked.top, &fresh.top);

    // The file was restarted under this host's key, and resumes.
    let mut again = autovec("again");
    again.checkpoint = Some(ckpt.clone());
    let replayed = service.submit(again).unwrap().wait();
    assert_eq!(replayed.replayed_chunks, 2);
    assert_same_ranking(&replayed.top, &fresh.top);

    service.shutdown();
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&own).ok();
}
