//! Multi-receptor service tests: the grid-spill acceptance scenario
//! (capacity-1 cache + two receptors → spill→reload with rankings
//! bit-identical to an unlimited cache) and shard-aware scheduling (an
//! idle receptor's job overtakes a hot receptor's backlog).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mudock_core::{Campaign, CampaignSpec, ChunkPolicy};
use mudock_grids::GridDims;
use mudock_mol::{Molecule, Vec3};
use mudock_molio::synthetic_receptor;
use mudock_serve::{
    JobOutcome, JobSpec, JobState, LigandSource, ScreenService, ServeConfig, SpillConfig,
};

const SEED: u64 = 42;
const N_LIGANDS: usize = 24;
const TOP_K: usize = 5;

fn receptor_a() -> Arc<Molecule> {
    Arc::new(synthetic_receptor(7, 120, 8.0))
}

fn receptor_b() -> Arc<Molecule> {
    Arc::new(synthetic_receptor(8, 120, 8.0))
}

fn campaign(name: &str) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(10)
        .generations(5)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
        .chunk(ChunkPolicy::Fixed(6))
        .grid_dims(GridDims::centered(Vec3::ZERO, 10.0, 0.7))
        .build()
        .expect("the test campaign is valid")
}

fn spec(name: &str, receptor: Arc<Molecule>) -> JobSpec {
    JobSpec {
        receptor,
        ligands: LigandSource::synth(SEED, N_LIGANDS),
        ..JobSpec::from(campaign(name))
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mudock-sharding-{}-{name}", std::process::id()))
}

fn assert_same_ranking(got: &JobOutcome, want: &JobOutcome) {
    assert_eq!(got.top.len(), want.top.len());
    for (g, w) in got.top.iter().zip(&want.top) {
        assert_eq!(
            (g.index, &g.name, g.score.to_bits()),
            (w.index, &w.name, w.score.to_bits()),
            "spilled-and-reloaded grids must score bit-identically"
        );
    }
}

/// The acceptance scenario for the spill tier: two receptors
/// interleaved through a single-slot cache force an evict→spill→reload
/// cycle at every target switch, and every ranking matches an
/// unlimited-cache service bit for bit.
#[test]
fn interleaved_receptors_spill_reload_and_stay_bit_identical() {
    let dir = tmp("spill");
    std::fs::remove_dir_all(&dir).ok();

    // Reference: same four jobs through a cache that never evicts.
    let reference = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        cache_capacity: 4,
        ..ServeConfig::default()
    });
    // One executor + sequential waits make the evict/spill/reload
    // sequence fully deterministic.
    let spilling = ScreenService::try_start(ServeConfig {
        total_threads: 2,
        job_slots: 1,
        cache_capacity: 1,
        spill: Some(SpillConfig::new(&dir)),
        ..ServeConfig::default()
    })
    .expect("spill dir is creatable");

    let plan = [
        ("a1", receptor_a()),
        ("b1", receptor_b()),
        ("a2", receptor_a()),
        ("b2", receptor_b()),
    ];
    for (name, receptor) in plan {
        let want = reference
            .submit(spec(name, Arc::clone(&receptor)))
            .unwrap()
            .wait();
        let got = spilling.submit(spec(name, receptor)).unwrap().wait();
        assert_eq!(want.state, JobState::Completed);
        assert_eq!(got.state, JobState::Completed);
        assert_same_ranking(&got, &want);
    }

    let stats = spilling.stats();
    // a1 builds A; b1 evicts+spills A, builds B; a2 evicts+spills B,
    // *reloads* A from disk; b2 evicts+spills A again, reloads B.
    assert_eq!(stats.cache.misses, 4, "every target switch is a miss");
    assert!(
        stats.cache.spills >= 2,
        "evicting built grids must spill them (got {})",
        stats.cache.spills
    );
    assert_eq!(
        stats.cache.reloads, 2,
        "the second visit to each receptor must reload from disk"
    );
    assert_eq!(stats.shards.len(), 2, "two receptors, two shards");
    assert!(stats.shards.iter().all(|s| s.submitted == 2));

    // And the unlimited cache never touched the spill machinery.
    let ref_stats = reference.stats();
    assert_eq!(ref_stats.cache.spills, 0);
    assert_eq!(ref_stats.cache.reloads, 0);

    spilling.shutdown();
    reference.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The scheduling half of the tentpole: with one receptor's job still
/// occupying an executor, the next free slot goes to the *idle*
/// receptor's job even though the hot receptor's backlog was submitted
/// first — the starvation plain priority-then-FIFO order allowed.
#[test]
fn idle_receptor_overtakes_the_hot_receptors_backlog() {
    let service = ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        ..ServeConfig::default()
    });

    let started: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let record = |name: &'static str| {
        let started = Arc::clone(&started);
        Arc::new(move |p: &mudock_serve::ChunkProgress<'_>| {
            if p.chunks_done == 1 {
                started.lock().unwrap().push(name);
            }
        })
    };
    // Two blockers against receptor A park in their progress callback,
    // pinning both executor slots to shard A.
    let gate = |release: &Arc<AtomicBool>| {
        let release = Arc::clone(release);
        Arc::new(move |_: &mudock_serve::ChunkProgress<'_>| {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let small = |name: &str, receptor: Arc<Molecule>| {
        let mut s = spec(name, receptor);
        s.ligands = LigandSource::synth(SEED, 2);
        s.campaign.chunk = ChunkPolicy::Fixed(4);
        s
    };
    let release1 = Arc::new(AtomicBool::new(false));
    let release2 = Arc::new(AtomicBool::new(false));
    let mut blocker1 = small("blocker1", receptor_a());
    blocker1.progress = Some(gate(&release1));
    let mut blocker2 = small("blocker2", receptor_a());
    blocker2.progress = Some(gate(&release2));
    let b1 = service.submit(blocker1).unwrap();
    let b2 = service.submit(blocker2).unwrap();
    while b1.chunks_done() < 1 || b2.chunks_done() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // The hot receptor queues more work *first*; the idle receptor's
    // job arrives later.
    let mut hot_backlog = small("hot-backlog", receptor_a());
    hot_backlog.progress = Some(record("hot-backlog"));
    let mut idle_job = small("idle-receptor", receptor_b());
    idle_job.progress = Some(record("idle-receptor"));
    let hot_handle = service.submit(hot_backlog).unwrap();
    let idle_handle = service.submit(idle_job).unwrap();

    // Free exactly one slot. Shard A still occupies the other, so the
    // router must hand the freed slot to receptor B.
    release1.store(true, Ordering::SeqCst);
    assert_eq!(b1.wait().state, JobState::Completed);
    assert_eq!(idle_handle.wait().state, JobState::Completed);
    assert_eq!(
        started.lock().unwrap().first(),
        Some(&"idle-receptor"),
        "the idle receptor's job must start before the hot backlog"
    );

    release2.store(true, Ordering::SeqCst);
    assert_eq!(b2.wait().state, JobState::Completed);
    assert_eq!(hot_handle.wait().state, JobState::Completed);

    // Join the executors first: a job's shard slot is handed back just
    // *after* its outcome publishes, so occupancy is only guaranteed
    // drained once the workers are gone.
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.shards.len(), 2);
    let by_submitted: Vec<u64> = {
        let mut s: Vec<u64> = stats.shards.iter().map(|s| s.submitted).collect();
        s.sort_unstable();
        s
    };
    assert_eq!(by_submitted, vec![1, 3]);
    assert!(
        stats.shards.iter().all(|s| s.active == 0 && s.queued == 0),
        "drained shards report zero occupancy: {:?}",
        stats.shards
    );
}
