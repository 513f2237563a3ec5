//! The network frontend: a dependency-free HTTP/1.1 listener over
//! [`ScreenService`](crate::ScreenService).
//!
//! [`NetServer::bind`] opens a [`std::net::TcpListener`] (no async
//! runtime, matching the workspace's minimal-dependency policy) and
//! serves a small JSON API speaking the [`wire`](crate::wire) module's
//! schema:
//!
//! | Method   | Path                 | Meaning                                   |
//! |----------|----------------------|-------------------------------------------|
//! | `POST`   | `/jobs`              | submit a campaign + receptor + ligands    |
//! | `GET`    | `/jobs/{id}`         | status / progress / terminal outcome      |
//! | `GET`    | `/jobs/{id}?wait_ms=N` | the same, once terminal or after `N` ms |
//! | `GET`    | `/jobs/{id}/results` | the job's per-ligand JSONL stream so far  |
//! | `DELETE` | `/jobs/{id}`         | request cancellation                      |
//! | `GET`    | `/healthz`           | liveness, boot-random node id, version, selected SIMD kernels |
//! | `GET`    | `/stats`             | service + cache + connection counters     |
//!
//! ## Connection model
//!
//! One event-loop thread drives every connection: it owns the one
//! listener, the [`reactor`](crate::reactor) (`epoll` on Linux,
//! `poll(2)` on every other unix) and the connection table, and runs a
//! non-blocking accept, read and write with a per-connection state
//! machine (idle → header → body → write). The state machines are
//! single-threaded and take no locks; only the metric atomics are
//! shared, with `/stats` and in-process readers. Connections are
//! HTTP/1.1 **keep-alive** by default and requests may be
//! **pipelined**: each completed request is answered in order, and any
//! bytes already buffered behind it are processed immediately. A
//! long-poll (`GET /jobs/{id}?wait_ms=N`, `N` ≤ [`MAX_WAIT_MS`]) on a job
//! that is not terminal is *parked*: the connection stops reading (so
//! requests pipelined behind it wait) and costs no thread, until the
//! job's tier pokes the loop's waker pair through a [`JobWaker`] or
//! the `N` ms deadline comes; either way the answer is the body a plain
//! `GET` returns at that moment. A request body is held until all of it has arrived, then parsed in one
//! pass ([`wire::parse_bytes`](crate::wire::parse_bytes)) on the loop's
//! thread, so one large body stalls every connection on the node
//! while it parses; [`NetConfig::max_body_bytes`] bounds both the bytes
//! one connection holds and that pass.
//!
//! Slow and dead peers are bounded by per-state deadlines
//! ([`NetConfig::idle_timeout`], [`NetConfig::header_timeout`],
//! [`NetConfig::body_timeout`], [`NetConfig::write_timeout`]) plus one
//! end-to-end bound per request ([`NetConfig::request_timeout`], first
//! header byte → response flushed — the backstop for a response stuck
//! behind a slow downstream while the peer keeps the per-phase clocks
//! fresh): a slow-loris client dripping header bytes is closed at the
//! header deadline while thousands of idle keep-alive connections cost
//! only their sockets. Beyond [`NetConfig::max_connections`] open
//! connections the server sheds load gracefully: accept, answer a
//! canned `503`, close — instead of letting the kernel backlog time
//! clients out, and job submission uses
//! [`ScreenService::try_submit`](crate::ScreenService::try_submit) so a
//! full queue is a `503` the client retries rather than a wedged
//! executor. An accept that fails outright (descriptors exhausted)
//! takes the listener out of the reactor for 100 ms rather than
//! spinning on its still-readable backlog.
//!
//! The job API above exists once, in `api`: [`HttpFrontend`] serves it
//! over a [`JobTier`]. [`NetServer`] is the screening node's tier; the
//! cluster coordinator mounts its own on the same frontend, so both tiers
//! share one dialect, one connection model and one metrics surface.
//!
//! Error mapping: malformed HTTP or JSON → `400`, unknown job → `404`,
//! wrong method → `405`, oversized body → `413`, campaign validation
//! ([`CampaignError`](mudock_core::CampaignError)) → `422`, queue full
//! or shutting down → `503`. Protocol-level failures close the
//! connection (framing is unrecoverable); a body that is merely bad
//! JSON keeps it open — the byte framing was intact.
//!
//! The [`client`] module is the matching blocking client (used by the
//! `mudock submit`/`mudock poll` CLI, the cluster coordinator, and the
//! end-to-end tests); [`client::Client`] holds its connection open
//! across requests, so poll loops stop paying a handshake per poll.
//!
//! ## Layout
//!
//! `http` frames request heads and defines [`Response`]; `conn` is the
//! per-connection state machine; `frontend` owns the listener, the
//! event loop and its metrics; `api` is the job API and
//! the [`JobTier`] seam; `node` is the node's tier ([`NetServer`]);
//! [`client`] is the other end of the wire.

use std::path::PathBuf;
use std::time::Duration;

mod api;
pub mod client;
mod conn;
mod frontend;
mod http;
mod node;

pub use api::JobTier;
pub use frontend::{ConnectionStats, FrontendBuilder, HttpFrontend, JobWaker};
pub use http::{Body, Response};
pub use node::NetServer;

/// The longest `wait_ms` a `GET /jobs/{id}` may ask for; more is a
/// `400`. Below [`client::Client`]'s 30 s read timeout, so a client
/// never gives up on a poll the server is still holding.
pub const MAX_WAIT_MS: u64 = 10_000;

/// Network-frontend sizing and timeouts. `Default` fits a CI host.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Open connections the reactor will hold at once. Beyond this,
    /// new connections are accepted, answered a canned `503`, and
    /// closed (graceful shedding — the client sees the overload signal
    /// instead of a backlog timeout).
    pub max_connections: usize,
    /// Request bodies larger than this are refused with `413`.
    pub max_body_bytes: usize,
    /// Per-job JSONL result files are written here (served back by
    /// `GET /jobs/{id}/results`). Created on bind.
    pub results_dir: PathBuf,
    /// Finished jobs kept queryable (status + results). When more
    /// than this many *terminal* jobs are retained, the oldest are
    /// evicted and their result files deleted, so a long-running
    /// server does not grow memory and disk per submission. Running
    /// and queued jobs are never evicted.
    pub max_retained_jobs: usize,
    /// Accept `{"path": …}` receptor/ligand sources, which make the
    /// *server* read the named file. Off by default: on an
    /// unauthenticated socket they are a filesystem probe (error
    /// responses would reveal whether arbitrary paths exist). Enable
    /// only on trusted networks where clients legitimately share the
    /// server's filesystem; inline `pdbqt` text always works.
    pub allow_path_sources: bool,
    /// How long a keep-alive connection may sit between requests.
    pub idle_timeout: Duration,
    /// From the first byte of a request until its headers complete.
    /// This is the slow-loris bound: a client dripping header bytes is
    /// closed here, not at some multi-minute global deadline.
    pub header_timeout: Duration,
    /// From headers-complete until the body's last byte.
    pub body_timeout: Duration,
    /// From response-queued until it is fully flushed.
    pub write_timeout: Duration,
    /// End-to-end bound per request: first header byte until the
    /// response is fully flushed. The per-phase deadlines above each
    /// reset as a connection changes state; this one does not, so a
    /// response stuck behind a slow downstream (a job poll that never
    /// resolves, say) on a connection whose peer keeps the per-phase
    /// clocks fresh is still bounded.
    pub request_timeout: Duration,
    /// Kept only because the benchmark rigs set it to `1`; removed
    /// with their next change (ROADMAP item 2). The frontend runs one
    /// event loop: `0` and `1` both mean it, and any other value makes
    /// [`FrontendBuilder::bind`] fail with
    /// [`std::io::ErrorKind::InvalidInput`].
    pub event_loops: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
            max_body_bytes: 8 << 20,
            results_dir: std::env::temp_dir().join(format!("mudock-net-{}", std::process::id())),
            max_retained_jobs: 256,
            allow_path_sources: false,
            idle_timeout: Duration::from_secs(60),
            header_timeout: Duration::from_secs(10),
            body_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            request_timeout: Duration::from_secs(300),
            event_loops: 0,
        }
    }
}

#[cfg(test)]
mod tests;
