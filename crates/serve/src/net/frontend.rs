//! The frontend: one listener, one reactor and the one event-loop
//! thread that drives every connection, plus the metrics it writes.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mudock_obs::{now_ns, Counter, Gauge, Histogram, Registry};

use super::api::{JobRoutes, JobTier};
use super::conn::{do_read, do_write, resume, Action, Conn};
use super::http::Response;
use super::NetConfig;
use crate::reactor::{Event, Interest, Reactor, Token};
use crate::wire::{Json, WireError};

/// The frontend's registry-backed instruments. Every gauge/counter
/// here *is* the `/metrics` series of the same name — `/stats` and
/// Prometheus scrape one set of atomics, so they can never disagree.
pub(super) struct NetMetrics {
    /// Connections currently registered with the reactor.
    open: Arc<Gauge>,
    /// Connections accepted since bind (shed ones included).
    accepted: Arc<Counter>,
    /// Connections answered the canned `503` at the cap.
    shed: Arc<Counter>,
    /// Requests dispatched to a route.
    pub(super) requests: Arc<Counter>,
    /// Requests refused for malformed HTTP or JSON (4xx/5xx protocol
    /// and syntax refusals — not semantic errors like 404 or 422).
    pub(super) parse_errors: Arc<Counter>,
    /// Header-first-byte → response-flushed, per request.
    pub(super) request_seconds: Arc<Histogram>,
    /// Time the event loop spends blocked in the reactor.
    reactor_wait: Arc<Histogram>,
    /// Time the event loop spends dispatching a non-empty wakeup.
    reactor_dispatch: Arc<Histogram>,
    /// Full iteration time (wait + dispatch) of non-empty wakeups.
    reactor_iteration: Arc<Histogram>,
}

impl NetMetrics {
    pub(super) fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            open: registry.gauge(
                "mudock_connections_open",
                &[],
                "Connections currently registered with the reactor",
            ),
            accepted: registry.counter(
                "mudock_connections_accepted_total",
                &[],
                "Connections accepted since bind (shed ones included)",
            ),
            shed: registry.counter(
                "mudock_connections_shed_total",
                &[],
                "Connections answered the canned 503 at the connection cap",
            ),
            requests: registry.counter(
                "mudock_requests_total",
                &[],
                "Requests dispatched to a route",
            ),
            parse_errors: registry.counter(
                "mudock_request_parse_errors_total",
                &[],
                "Requests refused for malformed HTTP or JSON",
            ),
            request_seconds: registry.histogram(
                "mudock_request_seconds",
                &[],
                "Request latency, header first byte to response flushed",
            ),
            reactor_wait: registry.histogram(
                "mudock_reactor_wait_seconds",
                &[],
                "Event-loop time blocked waiting for readiness",
            ),
            reactor_dispatch: registry.histogram(
                "mudock_reactor_dispatch_seconds",
                &[],
                "Event-loop time dispatching a non-empty wakeup",
            ),
            reactor_iteration: registry.histogram(
                "mudock_reactor_iteration_seconds",
                &[],
                "Full event-loop iteration time (wait + dispatch)",
            ),
        }
    }

    /// A torn-view-proof snapshot of the connection gauges. `open` is
    /// read *first*: every open connection incremented `accepted`
    /// before registering, and `accepted` only grows, so the loads can
    /// never observe `open > accepted` — and the final clamp makes the
    /// invariant structural rather than an ordering argument.
    pub(super) fn snapshot(&self) -> ConnectionStats {
        let open = self.open.get().max(0) as u64;
        let accepted = self.accepted.get();
        ConnectionStats {
            open: open.min(accepted),
            accepted,
            shed: self.shed.get(),
            parse_errors: self.parse_errors.get(),
            requests: self.requests.get(),
        }
    }
}

/// Connection-level counters, as served under `"connections"` in
/// `GET /stats` and readable in-process for tests and benches.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionStats {
    pub open: u64,
    pub accepted: u64,
    pub shed: u64,
    pub parse_errors: u64,
    pub requests: u64,
}

/// The frontend's seam to what it serves: the event loop frames
/// requests and calls this; [`JobRoutes`] (the job API over a
/// [`JobTier`]) is the one implementation.
///
/// `route` runs on the event-loop thread: it must not block on slow
/// work. Submissions go through non-blocking `try_submit`-style paths,
/// large payloads stream from disk via
/// [`Body::File`](super::Body::File), and a request that has to wait
/// for a job is [`Routed::Park`]ed instead of holding the thread.
pub(super) trait HttpRoutes: Send + Sync + 'static {
    /// Whether `method path` carries a JSON body, parsed once all of it
    /// has arrived. Bodies of other requests are drained for framing and
    /// discarded.
    fn wants_body(&self, method: &str, path: &str) -> bool;

    /// Dispatch one parsed request. `body` is `Some` only when
    /// [`HttpRoutes::wants_body`] said yes — `Err` when the body bytes
    /// were not valid JSON (the HTTP framing was still intact, so the
    /// connection survives).
    fn route(&self, method: &str, path: &str, body: Option<Result<Json, WireError>>) -> Routed;
}

/// What a route hands back: an answer now, or a request to hold until
/// its job is terminal or the wait runs out.
pub(super) enum Routed {
    Answer(Response),
    Park(Box<dyn Parked>, Duration),
}

impl From<Response> for Routed {
    fn from(response: Response) -> Routed {
        Routed::Answer(response)
    }
}

/// A parked request. The event loop asks it again after every
/// [`JobWaker::wake`] and once at its deadline; it holds no thread.
pub(super) trait Parked {
    /// The response, once there is one to give: `None` keeps the
    /// request parked. `expired` (the deadline came) always answers.
    fn answer(&self, expired: bool) -> Option<Response>;
}

/// Wakes a frontend's event loop so it asks its parked requests again.
/// A [`JobTier`] calls [`JobWaker::wake`] after each of its jobs turns
/// terminal (after the terminal status is readable); without it a
/// parked long-poll is answered only at its deadline. Cheap to clone;
/// waking a frontend that has shut down does nothing.
#[derive(Clone)]
pub struct JobWaker(Arc<UnixStream>);

impl JobWaker {
    /// One byte on the loop's waker pair. A full pair (`WouldBlock`)
    /// already holds a wakeup, so the write error is of no interest.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// What the event loop and its [`HttpFrontend`] handle share.
pub(super) struct FrontendShared {
    pub(super) routes: Arc<dyn HttpRoutes>,
    pub(super) cfg: NetConfig,
    pub(super) metrics: NetMetrics,
}

/// Phase one of bringing up a frontend: socket bound, address and
/// node id resolved, nothing running yet. The two-phase shape exists
/// because a tier wants both before the loop starts routing to it.
pub struct FrontendBuilder {
    addr: SocketAddr,
    node_id: u64,
    cfg: NetConfig,
    listener: TcpListener,
    /// The waker pair: shutdown and [`JobWaker`]s write, the loop reads.
    waker: JobWaker,
    waker_rx: UnixStream,
}

impl FrontendBuilder {
    /// Bind the frontend's one listen socket; `addr` may name port 0.
    /// A [`NetConfig::event_loops`] other than `0` or `1` is refused
    /// with [`io::ErrorKind::InvalidInput`] before anything is bound:
    /// the frontend runs one event loop.
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<FrontendBuilder> {
        if cfg.event_loops > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "event_loops = {}: the frontend now runs one event loop (set 0 or 1)",
                    cfg.event_loops
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // A waker pair, so neither shutdown nor a finished job waits
        // out a reactor timeout.
        let (waker, waker_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        Ok(FrontendBuilder {
            addr,
            node_id: boot_node_id(addr),
            cfg,
            listener,
            waker: JobWaker(Arc::new(waker)),
            waker_rx,
        })
    }

    /// The bound address (resolved, if `bind` was given port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The boot-random identity `/healthz` will serve.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// The waker a tier calls when one of its jobs turns terminal.
    pub fn waker(&self) -> JobWaker {
        self.waker.clone()
    }

    /// Phase two: register metrics in `registry` (also what `/metrics`
    /// renders), spawn the event loop, and start serving the job API
    /// over `tier`. [`NetConfig::allow_path_sources`] and
    /// [`NetConfig::max_retained_jobs`] are the API's policy.
    pub fn start<T: JobTier>(self, tier: T, registry: &Registry) -> io::Result<HttpFrontend> {
        let shared = Arc::new(FrontendShared {
            routes: Arc::new(JobRoutes {
                tier: Arc::new(tier),
                jobs: Mutex::new(HashMap::new()),
                registry: registry.clone(),
                node_id: self.node_id,
                allow_path_sources: self.cfg.allow_path_sources,
                max_retained_jobs: self.cfg.max_retained_jobs,
            }),
            cfg: self.cfg,
            metrics: NetMetrics::register(registry),
        });
        let reactor = Reactor::new()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (listener, waker_rx) = (self.listener, self.waker_rx);
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("net-loop".into())
                .spawn(move || event_loop(listener, waker_rx, reactor, &shared, &stop))?
        };
        Ok(HttpFrontend {
            addr: self.addr,
            shared,
            stop,
            waker: self.waker,
            thread: Some(thread),
        })
    }
}

/// Boot-random node identity: an FNV mix of the wall clock, the pid,
/// and the bound address. Not cryptographic — it only needs to differ
/// between two boots behind one address with overwhelming probability,
/// so a coordinator polling `/healthz` can detect a restart (grids
/// cold, in-flight jobs gone) even though the socket still answers.
fn boot_node_id(addr: SocketAddr) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mudock_grids::Fnv64::new()
        .write_u64(nanos)
        .write_u64(std::process::id() as u64)
        .write(addr.to_string().as_bytes())
        .finish()
}

/// A running HTTP frontend serving the job API.
/// [`NetServer`](super::NetServer) wraps one for the screening node;
/// the cluster coordinator mounts its own [`JobTier`] on the same
/// machinery.
pub struct HttpFrontend {
    addr: SocketAddr,
    shared: Arc<FrontendShared>,
    stop: Arc<AtomicBool>,
    waker: JobWaker,
    thread: Option<JoinHandle<()>>,
}

impl HttpFrontend {
    /// The bound address (resolves the port for `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection gauges as of now.
    pub fn connection_stats(&self) -> ConnectionStats {
        self.shared.metrics.snapshot()
    }

    /// Stop the event loop and join it; open connections are dropped.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if let Some(t) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            self.waker.wake();
            let _ = t.join();
        }
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const LISTENER: Token = Token(0);
/// The read end of the loop's waker pair, poked by
/// [`HttpFrontend::shutdown`] and by [`JobWaker::wake`].
const WAKER: Token = Token(1);
/// Connection tokens start above the reserved ones.
const FIRST_CONN_TOKEN: usize = 2;

/// How long the listener sits out after an accept fails for a reason
/// other than `WouldBlock` or `Interrupted` (descriptor exhaustion,
/// mostly). The reactor is level-triggered: a queued connection the
/// loop cannot take keeps the listener readable, so asking again at
/// once would spin. Nothing is shed; the connection waits in the
/// backlog until the pause ends.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

fn event_loop(
    listener: TcpListener,
    waker_rx: UnixStream,
    mut reactor: Reactor,
    ctx: &FrontendShared,
    stop: &AtomicBool,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    // The connections whose current request is parked: what a wakeup
    // asks again, without scanning the whole table.
    let mut parked: HashSet<usize> = HashSet::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let listener_fd = listener.as_raw_fd();
    if reactor
        .register(listener_fd, LISTENER, Interest::READ)
        .is_err()
        || reactor
            .register(waker_rx.as_raw_fd(), WAKER, Interest::READ)
            .is_err()
    {
        return;
    }
    let request_timeout = ctx.cfg.request_timeout;
    let metrics = &ctx.metrics;
    // Cache of the earliest effective deadline across the table (and
    // the end of an accept pause); `None` forces a rescan. This keeps a
    // wakeup's work proportional to the events it carries, not the
    // table it guards: a deadline only moves for a connection an event
    // touched (folded below as they are handled), so the
    // O(connections) expiry sweep runs when the cached deadline
    // actually comes due — never as a per-request tax on a
    // 10k-connection herd. The cache may run early (a closed or
    // re-phased connection can leave a stale earlier value); the cost
    // is one spurious sweep, never a missed eviction.
    let mut next_deadline: Option<Instant> = None;
    // While set, the listener's read interest is dropped (see
    // [`ACCEPT_PAUSE`]).
    let mut accept_paused_until: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        if accept_paused_until.is_some_and(|t| now >= t) {
            accept_paused_until = reactor
                .modify(listener_fd, LISTENER, Interest::READ)
                .is_err()
                .then_some(now + ACCEPT_PAUSE);
        }
        // Deadlines: a parked request past its deadline is answered
        // with the status as it stands; any other connection past its
        // phase deadline (or its oldest request's end-to-end bound) is
        // closed — that is the slow-loris/dead-peer/wedged-response
        // bound.
        if next_deadline.is_none_or(|d| now >= d) {
            let expired: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| now >= c.effective_deadline(request_timeout))
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                if let Some(conn) = conns.get_mut(&id) {
                    let action = resume(conn, ctx, now, true).unwrap_or(Action::Close);
                    settle(&mut reactor, &mut conns, &mut parked, id, action, ctx);
                }
            }
            next_deadline = conns
                .values()
                .map(|c| c.effective_deadline(request_timeout))
                .chain(accept_paused_until)
                .min();
        }
        // Sleep until the nearest deadline (capped for robustness).
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(Duration::from_secs(1))
            .min(Duration::from_secs(1));
        let wait_t0 = now_ns();
        let n_events = match reactor.wait(&mut events, Some(timeout)) {
            Ok(n) => n,
            Err(_) => break, // reactor fd gone — unrecoverable
        };
        let wake_ns = now_ns();
        metrics
            .reactor_wait
            .record_ns(wake_ns.saturating_sub(wait_t0));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let mut adopted_any = false;
        let mut woken = false;
        for &ev in &events {
            if ev.token == LISTENER {
                let paused = Interest {
                    readable: false,
                    writable: false,
                };
                if accept_all(&listener, &mut reactor, &mut conns, &mut next_token, ctx).is_err()
                    && reactor.modify(listener_fd, LISTENER, paused).is_ok()
                {
                    let d = now + ACCEPT_PAUSE;
                    accept_paused_until = Some(d);
                    next_deadline = Some(next_deadline.map_or(d, |nd| nd.min(d)));
                }
                adopted_any = true;
                continue;
            }
            if ev.token == WAKER {
                // Drained before the parked requests are asked again
                // (below), so a wake that lands after this drain leaves
                // a byte for the next wait.
                drain_waker(&waker_rx);
                woken = true;
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token.0) else {
                continue; // closed earlier this batch
            };
            let mut action = Action::Keep;
            if ev.readable || ev.hangup {
                action = do_read(conn, ctx, now);
            }
            if action == Action::Keep && (ev.writable || conn.has_output()) {
                action = do_write(conn, now, ctx);
            }
            // Fold the (possibly now earlier) deadline into the cache —
            // a fresh request start binds it to `request_timeout` even
            // under a lazier phase deadline.
            let d = settle(
                &mut reactor,
                &mut conns,
                &mut parked,
                ev.token.0,
                action,
                ctx,
            );
            next_deadline = earliest(next_deadline, d);
        }
        if woken {
            // A job turned terminal: ask every parked request again.
            let waiting: Vec<usize> = parked.iter().copied().collect();
            for id in waiting {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if let Some(action) = resume(conn, ctx, now, false) {
                    let d = settle(&mut reactor, &mut conns, &mut parked, id, action, ctx);
                    next_deadline = earliest(next_deadline, d);
                }
            }
        }
        if adopted_any {
            // Freshly adopted connections start at `now + idle_timeout`;
            // folding that bound keeps the cache exact without a rescan.
            let d = now + ctx.cfg.idle_timeout;
            next_deadline = Some(next_deadline.map_or(d, |nd| nd.min(d)));
        }
        // Empty wakeups are pure timer ticks; folding them in would
        // drown the dispatch/iteration histograms in near-zeros.
        if n_events > 0 {
            let done = now_ns();
            metrics
                .reactor_dispatch
                .record_ns(done.saturating_sub(wake_ns));
            metrics
                .reactor_iteration
                .record_ns(done.saturating_sub(wait_t0));
        }
    }
    // Per-connection teardown, not `open.set(0)`: another frontend on
    // the same registry counts in the same gauge.
    let open: Vec<usize> = conns.keys().copied().collect();
    for id in open {
        settle(
            &mut reactor,
            &mut conns,
            &mut parked,
            id,
            Action::Close,
            ctx,
        );
    }
}

/// The nearer of a cached deadline and a new one.
fn earliest(cached: Option<Instant>, d: Option<Instant>) -> Option<Instant> {
    match (cached, d) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Apply what handling connection `id` decided: close it, or re-arm
/// its interest (only a connection an event or a wakeup touched can
/// want a change, so there is no table scan) and record whether its
/// request is parked. Returns the open connection's effective deadline.
fn settle(
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    parked: &mut HashSet<usize>,
    id: usize,
    action: Action,
    ctx: &FrontendShared,
) -> Option<Instant> {
    if action == Action::Close {
        parked.remove(&id);
        if let Some(conn) = conns.remove(&id) {
            let _ = reactor.deregister(conn.stream.as_raw_fd());
            ctx.metrics.open.sub(1);
        }
        return None;
    }
    let conn = conns.get_mut(&id)?;
    let want = conn.wanted_interest();
    if want != conn.interest
        && reactor
            .modify(conn.stream.as_raw_fd(), conn.token, want)
            .is_ok()
    {
        conn.interest = want;
    }
    if conn.is_parked() {
        parked.insert(id);
    } else {
        parked.remove(&id);
    }
    Some(conn.effective_deadline(ctx.cfg.request_timeout))
}

/// Swallow whatever bytes are queued on the waker pair; each byte was
/// only ever a "wake up and look around" signal.
fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&mut &*rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Accept until the backlog is empty. An error other than `WouldBlock`
/// (ECONNABORTED, descriptor exhaustion) is returned with the backlog
/// possibly still queued: the caller pauses the listener.
fn accept_all(
    listener: &TcpListener,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &FrontendShared,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        adopt(stream, reactor, conns, next_token, ctx);
    }
}

/// Register a freshly accepted connection and insert it in the table,
/// or shed it with a canned `503` when [`NetConfig::max_connections`]
/// are already open.
fn adopt(
    stream: TcpStream,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &FrontendShared,
) {
    let metrics = &ctx.metrics;
    metrics.accepted.inc();
    if conns.len() >= ctx.cfg.max_connections.max(1) {
        // Graceful shedding: the overload answer reaches the client
        // instead of a backlog timeout.
        metrics.shed.inc();
        shed_503(stream);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = Token(*next_token);
    *next_token += 1;
    if reactor
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        return;
    }
    metrics.open.add(1);
    let deadline = Instant::now() + ctx.cfg.idle_timeout;
    conns.insert(token.0, Conn::new(stream, token, deadline));
}

/// Best-effort canned `503` at the connection cap: one non-blocking
/// write (the payload is far below a socket send buffer), then drop.
/// The accept path must NEVER block on a rejected client.
fn shed_503(stream: TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let body = Json::Obj(vec![(
        "error".into(),
        Json::str("server is saturated; retry later"),
    )])
    .encode();
    let msg = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = (&stream).write(msg.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}
