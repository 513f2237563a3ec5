//! Warm-restart acceptance tests at the service level: a node killed
//! and restarted on the same `--spill-dir` must serve its first job on
//! a previously-cached receptor from the restored spill tier — zero
//! grid rebuilds, rankings bit-identical to the pre-kill run — and so
//! must jobs that queue up behind a running one. Both lives record a
//! cache trace, and replaying each must reproduce that life's counters,
//! with the shipped row no worse than the `lru` what-if on hits or
//! rebuilds; the second life's trace (warm + restore lines included) is
//! left at `$CARGO_TARGET_TMPDIR/warm_restart.trace` for `cache_replay`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mudock_core::{Backend, BackendPolicy, Campaign, CampaignSpec, ChunkPolicy};
use mudock_grids::{GridDims, SimdLevel};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::synthetic_receptor;
use mudock_serve::cache::policy::{self, ModelConfig};
use mudock_serve::cache::CacheStats;
use mudock_serve::{
    read_trace, Checkpoint, JobSpec, JobState, LigandSource, RankedLigand, ScreenService,
    ServeConfig, SpillConfig,
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
/// names, must reproduce the service's cache counters — and the shipped
/// row must be no worse than the `lru` what-if on hits and rebuilds.
fn assert_replay_matches(trace_path: &Path, live: &CacheStats) {
    let trace = read_trace(trace_path).expect("the recorded trace parses");
    let header = trace.header.as_ref().expect("header line present");
    let row = |name| {
        let cfg = ModelConfig::for_policy(name, header.capacity, header.spill_capacity)
            .expect("a replay row");
        policy::replay(&trace.events, cfg)
    };
    let (model, lru) = (row(&header.policy), row("lru"));
    assert!(
        model.hits >= lru.hits && model.builds <= lru.builds,
        "{} regresses lru on {}: {model:?} vs {lru:?}",
        header.policy,
        trace_path.display()
    );
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
        assert_eq!(
            (g.index, &g.name, g.score.to_bits()),
            (w.index, &w.name, w.score.to_bits())
        );
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

/// On a warm-restarted node, jobs that queue up behind a running one
/// reload their receptors' grids from the restored tier too: every miss
/// of the second life is a reload, and its trace replays to its
/// counters.
#[test]
fn queued_jobs_reload_their_receptors_grids_from_the_warm_tier() {
    let dir = tmp("queued");
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

    // Restart. A blocker job on receptor A parks in its progress
    // callback so that B and then A queue up behind it.
    let trace = tmp("queued.trace");
    let second = ScreenService::start(ServeConfig {
        cache_trace: Some(trace.clone()),
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

    let s2 = second.stats();
    // Blocker (A), B, A through a one-entry cache: three misses, each
    // served from disk.
    assert_eq!(
        (s2.cache.misses, s2.cache.reloads),
        (3, 3),
        "zero rebuilds: {:?}",
        s2.cache
    );
    assert_replay_matches(&trace, &s2.cache);
    second.shutdown();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// After an upgrade whose builder changed the maps' bits, the spill tier
/// still holds the old binary's files. One at a job's key is
/// quarantined at startup, never loaded: the job rebuilds and ranks
/// exactly as a fresh build does.
#[test]
fn a_spill_file_of_the_previous_grid_revision_is_quarantined_not_loaded() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        queue_capacity: 8,
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    let fresh = service.submit(spec("fresh", 7)).unwrap().wait();
    assert_eq!(fresh.state, JobState::Completed);
    service.shutdown();

    // What the previous binary spilled at the job's key: revision-1
    // magic, and maps that would rank differently if they were loaded.
    let dir = tmp("revision-1");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let job = spec("upgraded", 7);
    let dims = job.campaign.dims_for(&job.receptor);
    let level = job.campaign.grid_level();
    let key = mudock_grids::grid_cache_key(&job.receptor, &dims);
    let file = dir.join(format!("{key:016x}-{}.grid", level.name()));
    let grids = mudock_grids::GridBuilder::new(&job.receptor, dims).build_simd(level);
    mudock_grids::save_grids(&grids, &file).unwrap();
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[..8].copy_from_slice(b"MDKGRID1");
    let data = bytes.len() - grids.data.len() * 4;
    bytes[data..].fill(0);
    std::fs::write(&file, &bytes).unwrap();

    let upgraded = ScreenService::start(config(&dir));
    assert_eq!(upgraded.stats().cache.quarantined, 1);
    assert!(!file.exists());
    let mut bad = file.into_os_string();
    bad.push(".bad");
    assert_eq!(
        std::fs::read(&bad).unwrap(),
        bytes,
        "renamed aside, untouched"
    );

    let out = upgraded.submit(job).unwrap().wait();
    assert_eq!(out.state, JobState::Completed);
    let s = upgraded.stats();
    assert_eq!(
        (s.cache.misses, s.cache.reloads),
        (1, 0),
        "rebuilt, not reloaded"
    );
    let bits = |top: &[RankedLigand]| -> Vec<(usize, u32)> {
        top.iter().map(|r| (r.index, r.score.to_bits())).collect()
    };
    assert_eq!(bits(&out.top), bits(&fresh.top));
    upgraded.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The key a binary that left `mudock_core::SCORING_REV` out would
/// stamp on `spec`'s checkpoint on this host: this binary's key in every
/// field but the revision.
fn unrevisioned_checkpoint_key(spec: &JobSpec) -> u64 {
    let dims = spec.campaign.dims_for(&spec.receptor);
    let search = spec
        .campaign
        .unrevisioned_search_hash(mudock_simd::frame())
        .finish();
    let mut h = mudock_grids::Fnv64::new();
    h.write_u64(mudock_grids::grid_cache_key(&spec.receptor, &dims))
        .write_u64(search);
    h.finish()
}

/// The key this binary stamps on the checkpoint of `spec`, docked by an
/// engine scoring in `frame`: everything `job_fingerprint` hashes.
fn checkpoint_key_in(spec: &JobSpec, frame: SimdLevel) -> u64 {
    let dims = spec.campaign.dims_for(&spec.receptor);
    let mut h = mudock_grids::Fnv64::new();
    h.write_u64(mudock_grids::grid_cache_key(&spec.receptor, &dims))
        .write_u64(spec.campaign.search_fingerprint(frame));
    h.finish()
}

/// The key this binary stamps on `spec`'s checkpoint on this host.
fn checkpoint_key(spec: &JobSpec) -> u64 {
    checkpoint_key_in(spec, mudock_simd::frame())
}

/// Write at `path` a checkpoint under `key` whose two chunks are done,
/// with scores that would take the whole ranking if they were replayed.
fn finished_checkpoint(path: &Path, key: u64) {
    std::fs::remove_file(path).ok();
    let mut ckpt = Checkpoint::open(path, key).unwrap();
    for chunk in 0..2 {
        let top: Vec<RankedLigand> = (0..TOP_K)
            .map(|k| RankedLigand {
                index: chunk * 4 + k,
                name: format!("stale-{k}"),
                score: -1000.0 - k as f32,
            })
            .collect();
        ckpt.record(chunk, 4, &top).unwrap();
    }
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

    // Control: the same file under this binary's key is replayed, so
    // the refusal below is the key's doing, not the file's.
    let ckpt = tmp("stale-rev.ckpt");
    let mut control = spec("control", 7);
    finished_checkpoint(&ckpt, checkpoint_key(&control));
    control.checkpoint = Some(ckpt.clone());
    let replayed = service.submit(control).unwrap().wait();
    assert_eq!(replayed.replayed_chunks, 2);
    assert!(
        replayed.top.iter().all(|r| r.name.starts_with("stale-")),
        "the replayed scores take the whole ranking"
    );

    // Both chunks "done" by the old binary.
    let stale = spec("stale", 7);
    finished_checkpoint(&ckpt, unrevisioned_checkpoint_key(&stale));

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
/// a host of arithmetic class `class`: its engine scores in a wide frame
/// where the class is fused, in the baseline frame elsewhere.
fn autovec_checkpoint_key(spec: &JobSpec, class: &str) -> u64 {
    let frame = match class {
        "fused" => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    };
    checkpoint_key_in(spec, frame)
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
    let here = mudock_core::autovec::arithmetic_at(mudock_simd::frame());
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
    let own_key = autovec_checkpoint_key(&autovec("fresh"), here);
    assert_eq!(own_key, checkpoint_key(&autovec("fresh")));
    let written = Checkpoint::open(&own, own_key).unwrap();
    assert_eq!(
        written.completed().len(),
        2,
        "resumable under this class's key"
    );

    // The same job, both chunks "done" on a host of the other class.
    let ckpt = tmp("other-class.ckpt");
    let stale = autovec("stale");
    finished_checkpoint(&ckpt, autovec_checkpoint_key(&stale, elsewhere));

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
