//! Property test pinning the cache lab's core contract: replaying a
//! trace recorded by a *live* `GridCache` through the offline policy
//! model of the same policy reproduces the live counters exactly —
//! hits, misses, reloads, spills, evictions, bit for bit.
//!
//! This is what makes `cache_replay`'s comparisons trustworthy: the
//! models are not approximations of the live cache, they are the same
//! bookkeeping (same victim selection, same spill-once-per-key rule,
//! same file-table touch order) driven from the recorded event stream.
//! Any divergence — in either direction — is a bug worth failing loud.

use std::sync::atomic::{AtomicU64, Ordering};

use mudock_grids::{GridDims, SimdLevel};
use mudock_mol::Vec3;
use mudock_molio::synthetic_receptor;
use mudock_serve::cache::policy::{self, CachePolicy, ModelConfig};
use mudock_serve::{read_trace, GridCache, SpillConfig};
use proptest::prelude::*;

/// Unique scratch paths per case (cases run within one process).
fn case_paths() -> (std::path::PathBuf, std::path::PathBuf) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let base =
        std::env::temp_dir().join(format!("mudock-cache-lab-prop-{}-{n}", std::process::id()));
    (base.join("spill"), base.with_extension("trace"))
}

proptest! {
    // Every case builds real grid sets; keep the count tame.
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn model_replay_reproduces_live_counters_exactly(
        // Access pattern over a small receptor population: long enough
        // to evict, spill, reload, and revisit.
        accesses in prop::collection::vec(0usize..5, 4..24),
        capacity in 1usize..4,
        spill_cap in 1usize..4,
        policy_is_slru in prop::sample::select(vec![false, true]),
    ) {
        let (spill_dir, trace_path) = case_paths();
        std::fs::remove_dir_all(&spill_dir).ok();
        let policy = if policy_is_slru { CachePolicy::Slru } else { CachePolicy::Lru };
        let cache = GridCache::builder(capacity)
            .policy(policy)
            .spill(SpillConfig { dir: spill_dir.clone(), capacity: spill_cap })
            .trace(&trace_path)
            .build()
            .expect("spill dir and trace file are creatable");

        let receptors: Vec<_> = (0..5)
            .map(|seed| synthetic_receptor(seed as u64 + 1, 12, 4.0))
            .collect();
        let dims = GridDims::centered(Vec3::ZERO, 3.0, 1.0);
        let level = SimdLevel::detect();
        for &i in &accesses {
            cache.get_or_build(&receptors[i], dims, level);
        }
        let live = cache.stats();

        let trace = read_trace(&trace_path).expect("trace parses");
        let header = trace.header.as_ref().expect("header line present");
        prop_assert_eq!(header.policy.as_str(), policy.name());
        prop_assert_eq!(header.capacity, capacity);
        prop_assert_eq!(header.spill_capacity, spill_cap);

        let cfg = ModelConfig::for_policy(policy.name(), capacity, spill_cap)
            .expect("live policies are model policies");
        let model = policy::replay(&trace.events, cfg);

        prop_assert_eq!(model.accesses, live.hits + live.misses, "access count");
        prop_assert_eq!(model.hits, live.hits, "hits");
        prop_assert_eq!(model.misses, live.misses, "misses");
        prop_assert_eq!(model.reloads, live.reloads, "reloads");
        prop_assert_eq!(model.builds, live.misses - live.reloads, "builds");
        prop_assert_eq!(model.spills, live.spills, "spills");
        prop_assert_eq!(model.evictions, live.evictions, "evictions");
        prop_assert_eq!(model.spills - model.spill_drops, live.spilled as u64,
            "files on disk");

        std::fs::remove_dir_all(&spill_dir).ok();
        std::fs::remove_file(&trace_path).ok();
    }
}
