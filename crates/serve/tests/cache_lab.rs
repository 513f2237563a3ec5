//! The cache lab's core contract: replaying a trace recorded by a
//! *live* `GridCache` at the geometry it ran under reproduces the live
//! counters exactly — hits, misses, reloads, spills, evictions.
//!
//! Both sides hold the same `cache::directory::Directory`, so parity is
//! by construction; what this pins is the glue on either side of it —
//! the live cache performing exactly the I/O the directory planned, the
//! trace carrying everything the replayer needs. The fixed sequences
//! are the ones a one-file spill tier used to get wrong (the access
//! that reloaded a key pruned that key's file first), plus the
//! benchmark's own `serve_churn` order.
//!
//! Also compiled into the root package's `tests/cache_directory.rs`,
//! so the tier-1 command reaches the cache tier.

use std::sync::atomic::{AtomicU64, Ordering};

use mudock_grids::{GridDims, SimdLevel};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::synthetic_receptor;
use mudock_serve::cache::policy::{self, ModelConfig};
use mudock_serve::cache::{CacheStats, GridCache, SpillConfig};
use mudock_serve::{read_trace, GridSource, Trace, TraceEventKind};
use proptest::prelude::*;

/// A live cache over tiny grids, recording its trace.
struct Lab {
    cache: GridCache,
    receptors: Vec<Molecule>,
    capacity: usize,
    spill_cap: usize,
    spill_dir: std::path::PathBuf,
    trace_path: std::path::PathBuf,
}

impl Lab {
    fn new(capacity: usize, spill_cap: usize) -> Lab {
        // Unique scratch paths per lab (tests share one process).
        static LAB: AtomicU64 = AtomicU64::new(0);
        let n = LAB.fetch_add(1, Ordering::Relaxed);
        let base =
            std::env::temp_dir().join(format!("mudock-cache-lab-{}-{n}", std::process::id()));
        let (spill_dir, trace_path) = (base.join("spill"), base.with_extension("trace"));
        std::fs::remove_dir_all(&spill_dir).ok();
        let spill = SpillConfig {
            dir: spill_dir.clone(),
            capacity: spill_cap,
        };
        let cache = GridCache::builder(capacity)
            .spill(spill)
            .trace(&trace_path)
            .build()
            .expect("spill dir and trace file are creatable");
        Lab {
            cache,
            receptors: (1..=6)
                .map(|seed| synthetic_receptor(seed, 12, 4.0))
                .collect(),
            capacity,
            spill_cap,
            spill_dir,
            trace_path,
        }
    }

    fn run(&self, accesses: &[usize]) -> Vec<GridSource> {
        let dims = GridDims::centered(Vec3::ZERO, 3.0, 1.0);
        let get = |&i: &usize| {
            self.cache
                .get_or_build(&self.receptors[i], dims, SimdLevel::detect(), 1)
        };
        accesses.iter().map(|i| get(i).1).collect()
    }

    /// Replay the recorded trace at the recorded geometry and hold it
    /// to the live counters; returns those, and the trace.
    fn replayed(self) -> (CacheStats, Trace) {
        let live = self.cache.stats();
        let trace = read_trace(&self.trace_path).expect("trace parses");
        let header = trace.header.as_ref().expect("header line present");
        assert_eq!(header.policy, live.policy);
        assert_eq!(
            (header.capacity, header.spill_capacity),
            (self.capacity, self.spill_cap)
        );
        let cfg = ModelConfig::for_policy(&header.policy, self.capacity, self.spill_cap)
            .expect("the live policy is a replay row");
        let model = policy::replay(&trace.events, cfg);

        assert_eq!(model.accesses, live.hits + live.misses, "access count");
        assert_eq!(model.hits, live.hits, "hits");
        assert_eq!(model.misses, live.misses, "misses");
        assert_eq!(model.reloads, live.reloads, "reloads");
        assert_eq!(model.builds, live.misses - live.reloads, "builds");
        assert_eq!(model.spills, live.spills, "spills");
        assert_eq!(model.evictions, live.evictions, "evictions");
        assert_eq!(
            model.spills - model.spill_drops,
            live.spilled as u64,
            "files on disk"
        );
        let on_disk = std::fs::read_dir(&self.spill_dir)
            .expect("spill dir")
            .count();
        assert_eq!(
            on_disk, live.spilled,
            "the file table matches the directory on disk"
        );

        std::fs::remove_dir_all(&self.spill_dir).ok();
        std::fs::remove_file(&self.trace_path).ok();
        (live, trace)
    }
}

/// No access may defeat its own I/O: the file it reloads from is not
/// pruned by it, and nothing it spills is pruned by it. An access's
/// evict/spill/prune events precede its `access` line.
fn assert_no_self_defeating_io(trace: &Trace) {
    let (mut spilled, mut dropped) = (Vec::new(), Vec::new());
    for ev in &trace.events {
        match ev.kind {
            TraceEventKind::Spill { key, .. } => spilled.push(key),
            TraceEventKind::SpillDrop { key } => dropped.push(key),
            TraceEventKind::Access { key, source, .. } => {
                assert!(
                    source != GridSource::Reloaded || !dropped.contains(&key),
                    "access at {} ns pruned the file it reloaded",
                    ev.t_ns
                );
                assert!(
                    spilled.iter().all(|k| !dropped.contains(k)),
                    "access at {} ns wrote a file and pruned it",
                    ev.t_ns
                );
                spilled.clear();
                dropped.clear();
            }
            _ => {}
        }
    }
}

use GridSource::{Built, Hit, Reloaded};

#[test]
fn a_one_file_tier_serves_reloads_at_capacity_1() {
    let lab = Lab::new(1, 1);
    let sources = lab.run(&[0, 1, 0, 1, 0]);
    assert_eq!(sources, [Built, Built, Reloaded, Built, Reloaded]);
    let (live, trace) = lab.replayed();
    assert_eq!((live.reloads, live.spills, live.spilled), (2, 1, 1));
    assert_no_self_defeating_io(&trace);
}

#[test]
fn a_one_file_tier_serves_reloads_at_capacity_2() {
    let lab = Lab::new(2, 1);
    let sources = lab.run(&[0, 1, 2, 0, 1, 2, 0]);
    assert_eq!(
        sources,
        [Built, Built, Built, Reloaded, Built, Built, Reloaded]
    );
    let (live, trace) = lab.replayed();
    assert!(live.reloads >= 1);
    assert_no_self_defeating_io(&trace);
}

#[test]
fn churn_order_settles_at_10_hits_8_reloads_6_rebuilds_0_spills() {
    // `bench_ladder`'s `serve_churn` pass: 24 jobs, Zipf(1) over six
    // receptors, through its capacity-2 cache over a two-file tier.
    const CHURN_RANKS: [usize; 24] = [
        0, 0, 1, 0, 2, 0, 1, 3, 0, 0, 1, 4, 0, 2, 1, 5, 0, 0, 3, 1, 0, 2, 4, 5,
    ];
    let lab = Lab::new(2, 2);
    lab.run(&CHURN_RANKS);
    let first = lab.cache.stats();
    let second = lab.run(&CHURN_RANKS);
    let count = |s: GridSource| second.iter().filter(|&&got| got == s).count();
    assert_eq!((count(Hit), count(Reloaded), count(Built)), (10, 8, 6));
    let (live, trace) = lab.replayed();
    assert_eq!(live.spills - first.spills, 0);
    assert_no_self_defeating_io(&trace);
}

proptest! {
    // Every case builds real grid sets; keep the count tame.
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn replay_reproduces_live_counters_exactly(
        // Access pattern over a small receptor population: long enough
        // to evict, spill, reload, and revisit.
        accesses in prop::collection::vec(0usize..5, 4..24),
        capacity in 1usize..4,
        spill_cap in 1usize..4,
    ) {
        let lab = Lab::new(capacity, spill_cap);
        lab.run(&accesses);
        let (_, trace) = lab.replayed();
        assert_no_self_defeating_io(&trace);
    }
}
