//! Property tests on the grid spill tier: for any receptor pair and
//! lattice the builder accepts, a cache-evicted `GridSet` must survive
//! `grids::io::save` → `load` with every f32 bit intact — both through
//! the raw io API and through the `GridCache` spill/reload path the
//! service actually exercises.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mudock_grids::{save_grids, GridDims, GridSet, SimdLevel};
use mudock_mol::Vec3;
use mudock_molio::synthetic_receptor;
use mudock_serve::{GridCache, SpillConfig};
use proptest::prelude::*;

/// Unique spill directory per case (cases run within one process).
fn case_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mudock-grid-spill-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_bits_equal(a: &GridSet, b: &GridSet) {
    assert_eq!(a.dims, b.dims);
    assert_eq!(a.built, b.built);
    assert_eq!(a.data.len(), b.data.len());
    for (x, y) in a.data.iter().zip(&b.data) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    // Each case builds several grid sets; keep the count tame.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn evicted_grid_sets_round_trip_bit_identically(
        seed_a in 1u64..1000,
        seed_delta in 1u64..1000,
        atoms in 5usize..40,
        extent in 3.0f32..6.0,
        spacing in 0.8f32..1.2,
    ) {
        let dir = case_dir();
        std::fs::remove_dir_all(&dir).ok();
        let cache = GridCache::with_spill(1, SpillConfig::new(&dir))
            .expect("spill dir is creatable");
        let dims = GridDims::centered(Vec3::ZERO, extent, spacing);
        let rec_a = synthetic_receptor(seed_a, atoms, extent);
        let rec_b = synthetic_receptor(seed_a + seed_delta, atoms, extent);
        let level = SimdLevel::detect();

        // Build A, then B: the capacity-1 cache evicts A and spills it.
        let (built_a, _) = cache.get_or_build(&rec_a, dims, level);
        cache.get_or_build(&rec_b, dims, level);
        prop_assert_eq!(cache.stats().spills, 1);

        // The spilled file itself round-trips through the raw io API…
        let spilled = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .expect("one spill file")
            .unwrap()
            .path();
        let loaded = mudock_grids::load_grids(&spilled)
            .map_err(|e| TestCaseError::fail(format!("load {}: {e}", spilled.display())))?;
        assert_bits_equal(&built_a, &loaded);

        // …and a second save of the loaded set is byte-for-byte stable
        // (no drift through repeated spill cycles).
        let resaved = dir.join("resaved.grid");
        save_grids(&loaded, &resaved)
            .map_err(|e| TestCaseError::fail(format!("re-save: {e}")))?;
        prop_assert_eq!(
            std::fs::read(&spilled).unwrap(),
            std::fs::read(&resaved).unwrap()
        );
        std::fs::remove_file(&resaved).ok();

        // The cache's own miss path reloads those exact bits.
        let (reloaded, src) = cache.get_or_build(&rec_a, dims, level);
        prop_assert_eq!(src, mudock_obs::GridSource::Reloaded);
        prop_assert_eq!(cache.stats().reloads, 1);
        prop_assert!(!Arc::ptr_eq(&built_a, &reloaded), "must come from disk");
        assert_bits_equal(&built_a, &reloaded);

        std::fs::remove_dir_all(&dir).ok();
    }
}
