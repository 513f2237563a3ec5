//! The screening *service*: submit concurrent jobs against one receptor
//! and watch the serve layer at work — the grid cache absorbing the
//! dominant fixed cost, chunks streaming through the thread pool,
//! and per-job top-k rankings folding incrementally.
//!
//! Each job is a `Campaign::builder()` spec bound to the service by
//! `JobSpec::from`. The last job shows two policies the campaign API
//! adds: it may stop early once its ranking stabilizes, and jobs could
//! equally pin distinct SIMD levels (`.pin_level(...)`) and still share
//! this node — the grid cache keys entries per level.
//!
//! ```text
//! cargo run --release --example serve_screen [n_ligands_per_job] [jobs]
//! ```

use std::sync::Arc;

use mudock::core::{Campaign, ChunkPolicy, StopPolicy};
use mudock::grids::GridDims;
use mudock::mol::Vec3;
use mudock::serve::{JobSpec, LigandSource, Priority, ScreenService, ServeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_ligands: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let threads = mudock::pool::default_threads();
    let service = ScreenService::start(ServeConfig {
        total_threads: threads,
        job_slots: 2,
        ..ServeConfig::default()
    });
    println!("service up: {threads} threads, 2 job slots");

    // One hot target shared by every job: only the first build pays.
    let receptor = Arc::new(mudock::molio::synthetic_receptor(0xcafe, 300, 9.0));
    let dims = GridDims::centered(Vec3::ZERO, 11.0, 0.6);

    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|j| {
            let mut builder = Campaign::builder()
                .name(format!("campaign-{j}"))
                .population(50)
                .generations(60)
                .seed(7)
                .search_radius(5.0)
                .top_k(5)
                .chunk(ChunkPolicy::Fixed(8))
                .grid_dims(dims);
            // The last job demonstrates early termination: once its
            // top-5 has held still for two consecutive chunks, the stop
            // policy cancels the rest of its stream.
            if j == jobs - 1 {
                builder = builder.stop(StopPolicy::RankingStable {
                    window: 2,
                    epsilon: 0.0,
                });
            }
            let campaign = builder.build().expect("a valid demo campaign");
            service
                .submit(JobSpec {
                    receptor: Arc::clone(&receptor),
                    ligands: LigandSource::synth(0xf00d + j as u64, n_ligands),
                    // The last-submitted job jumps the queue.
                    priority: if j == jobs - 1 {
                        Priority::High
                    } else {
                        Priority::Normal
                    },
                    ..JobSpec::from(campaign)
                })
                .expect("service accepts the demo jobs")
        })
        .collect();

    for handle in handles {
        let o = handle.wait();
        println!(
            "\n{} ({:?}{}): {} ligands in {:.2?}, grid {}",
            o.name,
            o.state,
            if o.stopped_early {
                ", stopped early"
            } else {
                ""
            },
            o.ligands_done,
            o.elapsed,
            if o.grid_cache_hit {
                "from cache"
            } else {
                "built fresh"
            }
        );
        for (rank, r) in o.top.iter().enumerate() {
            println!("  #{} {:<28} {:>9.3} kcal/mol", rank + 1, r.name, r.score);
        }
    }

    let stats = service.stats();
    println!(
        "\n{} ligands in {:.2?} → {:.1} ligands/s",
        stats.ligands_docked,
        t0.elapsed(),
        stats.ligands_docked as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    );
    println!(
        "grid cache: {} hits / {} misses ({:.0} % hit rate) — the paper's dominant fixed cost, paid once",
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate()
    );
    // The same histogram `GET /metrics` renders: registering a name
    // the cache already registered hands back its instrument.
    let builds = service
        .registry()
        .histogram(mudock::serve::cache::GRID_BUILD_METRIC, &[], "")
        .snapshot();
    if builds.count > 0 {
        println!(
            "grid builds: {} × {:.2?} total",
            builds.count,
            std::time::Duration::from_nanos(builds.sum_ns)
        );
    }
    service.shutdown();
}
