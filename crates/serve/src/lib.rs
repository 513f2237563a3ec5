//! # mudock-serve — the virtual-screening service layer
//!
//! The kernels below this crate make one docking *fast*; this crate makes
//! a node full of them a *service*. It turns the one-shot
//! [`mudock_core::screen()`] call into a long-running screening server in
//! the shape of the paper's full-node scenario (Fig. 2b — one ligand per
//! task, parallelism across inputs), organized as four cooperating
//! pieces:
//!
//! * **job queue** ([`queue`]) — bounded submission of [`JobSpec`]s with
//!   priorities, cancellation, and backpressure: when the queue is full,
//!   `try_submit` refuses and `submit` blocks, so a burst of requests
//!   degrades to queuing delay instead of memory growth. Each dequeue
//!   gives every live receptor (keyed by grid content fingerprint) an
//!   equal share of the executor slots, so a burst of jobs against one
//!   hot target cannot monopolize the node;
//! * **grid cache** ([`cache`]) — built [`GridSet`](mudock_grids::GridSet)s
//!   are cached by receptor/geometry content fingerprints
//!   ([`mudock_grids::hash`]), so repeat jobs against a hot target skip
//!   the dominant fixed cost; hit/miss counters surface in `/stats` and
//!   build timings in the `mudock_grid_build_seconds` histogram on
//!   `/metrics`; with a [`SpillConfig`], evicted grid sets spill to a
//!   bounded on-disk tier and reload bit-identically instead of
//!   rebuilding;
//! * **streaming ingest** ([`ingest`]) — ligands are pulled lazily in
//!   chunks (from synthetic generators or multi-model PDBQT via
//!   [`mudock_molio::stream`]) and fanned out over `mudock-pool`'s
//!   self-scheduling workers, with the thread share divided across
//!   concurrently running jobs;
//! * **result sink** ([`sink`]) — per-ligand results stream to JSONL as
//!   each chunk completes, the global ranking folds incrementally into a
//!   bounded [`TopK`](mudock_core::TopK) (no collect-then-sort), and a
//!   checkpoint file records completed chunks so a killed job resumes
//!   where it stopped with an identical final ranking.
//!
//! A node becomes remotely reachable through the [`net`] frontend: a
//! dependency-free readiness-driven HTTP/1.1 server (`POST /jobs`,
//! `GET /jobs/{id}`, `GET /jobs/{id}/results`, `DELETE /jobs/{id}`,
//! `GET /healthz`, `GET /stats`) speaking the JSON schema of [`wire`]
//! (the codec under it is `mudock_obs::json`). One event-loop thread multiplexes the connections
//! over one listener and one [`reactor`] ([`reactor::Reactor`]):
//! `epoll` on Linux, `poll(2)` on every other unix. On top of that: keep-alive, one
//! request in flight per connection (pipelined requests answered one
//! after another), per-phase deadlines that evict slow, idle, and
//! non-reading peers, bodies held until complete and then parsed in one
//! pass ([`wire::parse_bytes`]), and the same bounded-backpressure discipline
//! at the socket edge (a capped connection count that sheds overload
//! with `503` instead of unbounded buffering). The job API exists once
//! (a [`net::JobTier`] mounted on a [`net::HttpFrontend`]) — the
//! cluster coordinator serves the same routes over its own tier. A
//! matching keep-alive client lives in [`net::client`].
//!
//! Jobs are described by the campaign API: a
//! [`CampaignSpec`](mudock_core::CampaignSpec) built through
//! [`Campaign::builder`](mudock_core::Campaign) carries the GA shape and
//! the backend/stop/chunk policies — including per-job SIMD pinning
//! (grids are cached per `(content, dims, level)`, so heterogeneous
//! clients share a node without poisoning each other's grids), ranking-
//! stability early termination, and adaptive chunk sizing. A [`JobSpec`]
//! is the thin adapter binding that campaign to a receptor, a ligand
//! stream, and the sinks.
//!
//! [`ScreenService`] wires them together. The 30-second version:
//!
//! ```
//! use mudock_serve::{JobSpec, LigandSource, ScreenService, ServeConfig};
//! use mudock_core::Campaign;
//! use std::sync::Arc;
//!
//! let service = ScreenService::start(ServeConfig {
//!     total_threads: 2,
//!     ..ServeConfig::default()
//! });
//! let campaign = Campaign::builder()
//!     .name("demo")
//!     .population(8)
//!     .generations(4)
//!     .search_radius(3.0)
//!     .top_k(3)
//!     .build()
//!     .expect("a valid campaign");
//! let handle = service
//!     .submit(JobSpec {
//!         receptor: Arc::new(mudock_molio::synthetic_receptor(7, 80, 8.0)),
//!         ligands: LigandSource::synth(42, 6),
//!         ..JobSpec::from(campaign)
//!     })
//!     .unwrap();
//! let outcome = handle.wait();
//! assert_eq!(outcome.ligands_done, 6);
//! assert_eq!(outcome.top.len(), 3);
//! service.shutdown();
//! ```

pub mod cache;
pub mod ingest;
pub mod job;
pub mod net;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod sink;
pub mod telemetry;
pub mod wire;

pub use cache::{CacheStats, GridCache, GridCacheBuilder, SpillConfig};
pub use ingest::LigandSource;
pub use job::{
    ChunkProgress, FinishHook, JobHandle, JobId, JobOutcome, JobSpec, JobState, LigandSlice,
    Priority, ProgressFn, RankedLigand,
};
pub use mudock_obs::{GridSource, Registry, StageTimings};
pub use net::{
    Body, FrontendBuilder, HttpFrontend, JobTier, JobWaker, NetConfig, NetServer, Response,
};
pub use queue::{ShardStat, SubmitError};
pub use server::{ScreenService, ServeConfig, ServiceStats};
pub use sink::{Checkpoint, JsonlSink};
pub use telemetry::ServeObs;
pub use wire::{JobStatus, ReceptorSource, WireError};
