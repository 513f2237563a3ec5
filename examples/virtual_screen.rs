//! Virtual screening: dock a MEDIATE-like batch over all cores with the
//! thread pool and rank the hits (the paper's Figure 2b scenario,
//! scaled to a laptop).
//!
//! The whole run is described by one `Campaign::builder()` spec — the
//! same shape the `mudock-serve` service and the CLI consume — lowered
//! here onto the local batch path `screen_campaign`.
//!
//! ```text
//! cargo run --release --example virtual_screen [n_ligands] [threads]
//! ```

use mudock::core::{screen_campaign, Campaign, ChunkPolicy};
use mudock::grids::{GridBuilder, GridDims};
use mudock::mol::Vec3;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_ligands: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let threads: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(mudock::pool::default_threads);

    let spec = Campaign::builder()
        .name("virtual-screen")
        .population(50)
        .generations(60)
        .seed(7)
        .search_radius(5.0)
        .top_k(5)
        // Chunks sized to ~250 ms of measured docking each, so progress
        // (and, in the service, checkpoints) land at a steady cadence
        // whatever the GA parameters cost.
        .chunk(ChunkPolicy::Adaptive {
            target: std::time::Duration::from_millis(250),
        })
        .grid_dims(GridDims::centered(Vec3::ZERO, 11.0, 0.6))
        .build()
        .expect("a valid campaign");

    let receptor = mudock::molio::synthetic_receptor(0xcafe, 300, 9.0);
    let ligands = mudock::molio::mediate_like_set(0xf00d, n_ligands);
    println!(
        "screening {} ligands on {} threads…",
        ligands.len(),
        threads
    );

    // Screening sets span many atom types: build the full map set once,
    // at the campaign's (detected or pinned) SIMD level.
    let maps = GridBuilder::new(&receptor, spec.dims_for(&receptor)).build_simd(spec.grid_level());
    println!(
        "grid maps: {:.1} MiB",
        maps.bytes() as f64 / (1024.0 * 1024.0)
    );

    let summary = screen_campaign(&maps, &ligands, &spec, threads);

    println!(
        "\n{} ligands in {:.2?} → {:.1} ligands/s on {} threads",
        summary.results.len(),
        summary.elapsed,
        summary.throughput,
        summary.threads
    );
    let stats = summary.total_stats();
    println!(
        "kernel work: {} poses, {} pair evaluations, {} grid lookups",
        stats.poses_scored, stats.pairs_evaluated, stats.grid_lookups
    );

    println!("\ntop {} hits:", spec.top_k);
    for (rank, idx) in summary.top_k(spec.top_k).into_iter().enumerate() {
        let r = &summary.results[idx];
        println!(
            "  #{} {:<28} {:>9.3} kcal/mol",
            rank + 1,
            r.name,
            r.best_score.unwrap()
        );
    }
}
