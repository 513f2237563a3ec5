//! The grid cache tier, live: real `GridCache`s with a spill tier on
//! tiny grids. The fixed sequences pin every access's source and the
//! counters they leave — among them the ones a one-file spill tier used
//! to get wrong (the access that reloaded a key pruned that key's file
//! first) and the benchmark's own `serve_churn` order. Every run, fixed
//! or generated, also holds the invariants any sequence keeps: each
//! lookup is a hit or a miss, each resident entry is a miss not yet
//! evicted, the spill directory holds exactly the files the counters
//! report and no more than its bound, and every reloaded grid set is
//! bit-equal to a fresh build.
//!
//! Also compiled into the root package's `tests/cache_directory.rs`,
//! so the tier-1 command reaches the cache tier.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mudock_grids::{GridBuilder, GridDims, GridSet, SimdLevel};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::synthetic_receptor;
use mudock_serve::cache::{CacheStats, GridCache, SpillConfig};
use mudock_serve::GridSource;
use proptest::prelude::*;

/// A live cache with a spill tier over tiny grids.
struct Lab {
    cache: GridCache,
    receptors: Vec<Molecule>,
    /// Each receptor's grids, built fresh outside the cache.
    fresh: Vec<GridSet>,
    capacity: usize,
    spill_cap: usize,
    spill_dir: std::path::PathBuf,
    lookups: Cell<u64>,
}

fn dims() -> GridDims {
    GridDims::centered(Vec3::ZERO, 3.0, 1.0)
}

impl Lab {
    fn new(capacity: usize, spill_cap: usize) -> Lab {
        // Unique scratch paths per lab (tests share one process).
        static LAB: AtomicU64 = AtomicU64::new(0);
        let n = LAB.fetch_add(1, Ordering::Relaxed);
        let spill_dir =
            std::env::temp_dir().join(format!("mudock-cache-lab-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&spill_dir).ok();
        let spill = SpillConfig {
            dir: spill_dir.clone(),
            capacity: spill_cap,
        };
        let cache = GridCache::with_spill(capacity, spill).expect("spill dir is creatable");
        let receptors: Vec<Molecule> = (1..=6)
            .map(|seed| synthetic_receptor(seed, 12, 4.0))
            .collect();
        let fresh = (receptors.iter())
            .map(|r| GridBuilder::new(r, dims()).build_simd(SimdLevel::detect()))
            .collect();
        Lab {
            cache,
            receptors,
            fresh,
            capacity,
            spill_cap,
            spill_dir,
            lookups: Cell::new(0),
        }
    }

    /// Look the receptors up in order; every reload is checked against
    /// a fresh build as it is served.
    fn run(&self, accesses: &[usize]) -> Vec<GridSource> {
        let get = |&i: &usize| {
            let (grids, source) =
                self.cache
                    .get_or_build(&self.receptors[i], dims(), SimdLevel::detect(), 1);
            self.lookups.set(self.lookups.get() + 1);
            if source == GridSource::Reloaded {
                let want = &self.fresh[i];
                assert_eq!((grids.dims, &grids.built), (want.dims, &want.built));
                let bits = |g: &GridSet| g.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&grids) == bits(want),
                    "receptor {i} reloaded other bits"
                );
            }
            source
        };
        accesses.iter().map(get).collect()
    }

    /// Hold the live counters to the invariants every sequence keeps;
    /// returns them.
    fn checked(self) -> CacheStats {
        let live = self.cache.stats();
        assert_eq!(self.lookups.get(), live.hits + live.misses, "lookups");
        assert_eq!(
            live.entries as u64,
            live.misses - live.evictions,
            "each resident entry is a miss not yet evicted"
        );
        assert!(live.entries <= self.capacity, "{live:?}");
        let on_disk = std::fs::read_dir(&self.spill_dir)
            .expect("spill dir")
            .count();
        assert_eq!(
            on_disk, live.spilled,
            "the file table matches the directory on disk"
        );
        assert!(live.spilled <= self.spill_cap, "{live:?}");
        assert!(live.spilled as u64 <= live.spills, "{live:?}");
        std::fs::remove_dir_all(&self.spill_dir).ok();
        live
    }
}

use GridSource::{Built, Hit, Reloaded};

#[test]
fn a_one_file_tier_serves_reloads_at_capacity_1() {
    let lab = Lab::new(1, 1);
    let sources = lab.run(&[0, 1, 0, 1, 0]);
    assert_eq!(sources, [Built, Built, Reloaded, Built, Reloaded]);
    let live = lab.checked();
    assert_eq!((live.reloads, live.spills, live.spilled), (2, 1, 1));
}

#[test]
fn a_one_file_tier_serves_reloads_at_capacity_2() {
    let lab = Lab::new(2, 1);
    let sources = lab.run(&[0, 1, 2, 0, 1, 2, 0]);
    assert_eq!(
        sources,
        [Built, Built, Built, Reloaded, Built, Built, Reloaded]
    );
    let live = lab.checked();
    assert!(live.reloads >= 1);
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
    let live = lab.checked();
    assert_eq!(live.spills - first.spills, 0);
}

proptest! {
    // Every case builds real grid sets; keep the count tame.
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn live_counters_hold_their_invariants(
        // Access pattern over a small receptor population: long enough
        // to evict, spill, reload, and revisit.
        accesses in prop::collection::vec(0usize..5, 4..24),
        capacity in 1usize..4,
        spill_cap in 1usize..4,
    ) {
        let lab = Lab::new(capacity, spill_cap);
        lab.run(&accesses);
        lab.checked();
    }
}
