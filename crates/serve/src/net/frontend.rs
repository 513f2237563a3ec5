//! The frontend: listeners, the event-loop pool, and the metrics every
//! loop shares.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mudock_obs::{now_ns, Counter, Gauge, Histogram, Registry};

use super::api::{JobRoutes, JobTier};
use super::conn::{do_read, do_write, Action, Conn};
use super::http::Response;
use super::NetConfig;
use crate::reactor::{Event, Interest, Reactor, Token};
use crate::wire::{Json, WireError};

/// The connection instruments, registered once without labels (the
/// frontend-wide totals) and once per loop as `{loop="N"}` under the
/// same names. Every site that moves a total moves its loop's slice
/// with it, so at quiescence the labelled series sum to the totals —
/// the invariant the CI net-scale smoke asserts.
pub(super) struct ConnMetrics {
    /// Connections currently registered with the reactor.
    open: Arc<Gauge>,
    /// Connections accepted since bind (shed ones included).
    accepted: Arc<Counter>,
    /// Connections answered the canned `503` at the cap.
    shed: Arc<Counter>,
    /// Requests dispatched to a route.
    pub(super) requests: Arc<Counter>,
}

impl ConnMetrics {
    fn register(registry: &Registry, labels: &[(&str, &str)]) -> ConnMetrics {
        ConnMetrics {
            open: registry.gauge(
                "mudock_connections_open",
                labels,
                "Connections currently registered with the reactor",
            ),
            accepted: registry.counter(
                "mudock_connections_accepted_total",
                labels,
                "Connections accepted since bind (shed ones included)",
            ),
            shed: registry.counter(
                "mudock_connections_shed_total",
                labels,
                "Connections answered the canned 503 at the connection cap",
            ),
            requests: registry.counter(
                "mudock_requests_total",
                labels,
                "Requests dispatched to a route",
            ),
        }
    }
}

/// The frontend's registry-backed instruments. Every gauge/counter
/// here *is* the `/metrics` series of the same name — `/stats` and
/// Prometheus scrape one set of atomics, so they can never disagree.
pub(super) struct NetMetrics {
    /// The unlabelled connection series.
    pub(super) totals: ConnMetrics,
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
            totals: ConnMetrics::register(registry, &[]),
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
        let open = self.totals.open.get().max(0) as u64;
        let accepted = self.totals.accepted.get();
        ConnectionStats {
            open: open.min(accepted),
            accepted,
            shed: self.totals.shed.get(),
            parse_errors: self.parse_errors.get(),
            requests: self.totals.requests.get(),
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

/// The frontend's seam to what it serves: the event loops frame
/// requests and call this; [`JobRoutes`] (the job API over a
/// [`JobTier`]) is the one implementation.
///
/// `route` runs on an event-loop thread: it must not block on slow
/// work. Submissions go through non-blocking `try_submit`-style paths
/// and large payloads stream from disk via
/// [`Body::File`](super::Body::File).
pub(super) trait HttpRoutes: Send + Sync + 'static {
    /// Whether `method path` carries a JSON body, parsed once all of it
    /// has arrived. Bodies of other requests are drained for framing and
    /// discarded.
    fn wants_body(&self, method: &str, path: &str) -> bool;

    /// Dispatch one parsed request. `body` is `Some` only when
    /// [`HttpRoutes::wants_body`] said yes — `Err` when the body bytes
    /// were not valid JSON (the HTTP framing was still intact, so the
    /// connection survives).
    fn route(&self, method: &str, path: &str, body: Option<Result<Json, WireError>>) -> Response;
}

/// State shared by every event loop of one frontend.
pub(super) struct FrontendShared {
    pub(super) routes: Arc<dyn HttpRoutes>,
    pub(super) cfg: NetConfig,
    pub(super) metrics: NetMetrics,
    /// Exact open-connection count across all loops, for the
    /// [`NetConfig::max_connections`] cap. A per-loop split of the cap
    /// would be cheaper but wrong: REUSEPORT's flow hash has enough
    /// variance at 10k connections that one loop would breach its
    /// share while the others sit under theirs.
    open_conns: AtomicUsize,
}

/// Phase one of bringing up a frontend: sockets bound, address and
/// node id resolved, nothing running yet. The two-phase shape exists
/// because a tier wants both before the loops start routing to it.
pub struct FrontendBuilder {
    addr: SocketAddr,
    node_id: u64,
    cfg: NetConfig,
    /// One per event loop: their count *is* the loop count.
    listeners: Vec<TcpListener>,
}

impl FrontendBuilder {
    /// Bind one listen socket per event loop: a plain listener for a
    /// single loop, per-loop `SO_REUSEPORT` listeners for more (Linux;
    /// see [`NetConfig::event_loops`] for the other platforms). Any
    /// bind failure — a sibling's included — is returned: the frontend
    /// never starts under a different accept model than it was asked
    /// for. `addr` may name port 0; the resolved port is shared by
    /// every sibling listener.
    pub fn bind(addr: impl ToSocketAddrs, mut cfg: NetConfig) -> io::Result<FrontendBuilder> {
        let want = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to bind"))?;
        let listeners = bind_listeners(want, cfg.event_loops)?;
        cfg.event_loops = listeners.len();
        let addr = listeners[0].local_addr()?;
        Ok(FrontendBuilder {
            addr,
            node_id: boot_node_id(addr),
            cfg,
            listeners,
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

    /// Phase two: register metrics in `registry` (also what `/metrics`
    /// renders), spawn one loop per listener, and start serving the
    /// job API over `tier`. [`NetConfig::allow_path_sources`] and
    /// [`NetConfig::max_retained_jobs`] are the API's policy.
    pub fn start<T: JobTier>(self, tier: T, registry: &Registry) -> io::Result<HttpFrontend> {
        let shared = Arc::new(FrontendShared {
            routes: Arc::new(JobRoutes {
                tier,
                jobs: Mutex::new(HashMap::new()),
                registry: registry.clone(),
                node_id: self.node_id,
                allow_path_sources: self.cfg.allow_path_sources,
                max_retained_jobs: self.cfg.max_retained_jobs,
            }),
            cfg: self.cfg,
            metrics: NetMetrics::register(registry),
            open_conns: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let mut wakers = Vec::with_capacity(self.listeners.len());
        let mut threads = Vec::with_capacity(self.listeners.len());
        for (i, listener) in self.listeners.into_iter().enumerate() {
            // A waker pair per loop, so shutdown never waits out a
            // reactor timeout.
            let (waker_tx, waker_rx) = UnixStream::pair()?;
            waker_tx.set_nonblocking(true)?;
            waker_rx.set_nonblocking(true)?;
            wakers.push(waker_tx);
            let reactor = Reactor::new()?;
            let ctx = LoopCtx {
                shared: Arc::clone(&shared),
                lm: ConnMetrics::register(registry, &[("loop", &i.to_string())]),
            };
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-loop-{i}"))
                    .spawn(move || event_loop(listener, waker_rx, reactor, &ctx, &stop))?,
            );
        }

        Ok(HttpFrontend {
            addr: self.addr,
            shared,
            stop,
            wakers,
            threads,
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

/// The listeners for a frontend asked to run `event_loops` loops
/// (`0`: the default count) — one listener per loop.
#[cfg(target_os = "linux")]
fn bind_listeners(addr: SocketAddr, event_loops: usize) -> io::Result<Vec<TcpListener>> {
    let n = match event_loops {
        0 => super::default_event_loops(),
        n => n,
    };
    if n == 1 {
        return Ok(vec![bind_plain(addr)?]);
    }
    let first = reuseport::bind_reuseport(addr)?;
    // `addr` may have named port 0; siblings must bind the port the
    // kernel actually picked.
    let resolved = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..n {
        listeners.push(reuseport::bind_reuseport(resolved)?);
    }
    Ok(listeners)
}

/// Without `SO_REUSEPORT` flow hashing there is no way to share a port
/// between listeners, so every requested count resolves to one loop.
#[cfg(not(target_os = "linux"))]
fn bind_listeners(addr: SocketAddr, _event_loops: usize) -> io::Result<Vec<TcpListener>> {
    Ok(vec![bind_plain(addr)?])
}

fn bind_plain(addr: SocketAddr) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// A running multi-loop HTTP frontend serving the job API.
/// [`NetServer`](super::NetServer) wraps one for the screening node;
/// the cluster coordinator mounts its own [`JobTier`] on the same
/// machinery.
pub struct HttpFrontend {
    addr: SocketAddr,
    shared: Arc<FrontendShared>,
    stop: Arc<AtomicBool>,
    wakers: Vec<UnixStream>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpFrontend {
    /// The bound address (resolves the port for `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection gauges as of now, aggregated across loops.
    pub fn connection_stats(&self) -> ConnectionStats {
        self.shared.metrics.snapshot()
    }

    /// Stop every loop and join them; open connections are dropped.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for tx in &self.wakers {
            let _ = (&mut &*tx).write(&[1]);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `SO_REUSEPORT` listener sockets via direct FFI — `std` exposes no
/// pre-bind socket options, and the whole point is setting the option
/// *before* `bind(2)`. Linux-only: the kernel's REUSEPORT flow hash is
/// what spreads connections across the per-loop listeners.
#[cfg(target_os = "linux")]
pub(crate) mod reuseport {
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const IPPROTO_IPV6: c_int = 41;
    const IPV6_V6ONLY: c_int = 26;

    /// `struct sockaddr_in`; `port` and `addr` in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    fn opt(fd: c_int, level: c_int, name: c_int, value: c_int) -> io::Result<()> {
        let rc = unsafe {
            setsockopt(
                fd,
                level,
                name,
                &value as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Bind a non-blocking `SO_REUSEPORT` listener on `addr`. Several
    /// listeners bound this way to one port each receive a
    /// kernel-hashed share of incoming connections.
    pub(crate) fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Owns the fd from here: every early return closes it.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        opt(fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
        opt(fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                unsafe {
                    bind(
                        fd,
                        &sa as *const SockAddrIn as *const c_void,
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                opt(fd, IPPROTO_IPV6, IPV6_V6ONLY, 1)?;
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                unsafe {
                    bind(
                        fd,
                        &sa as *const SockAddrIn6 as *const c_void,
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if unsafe { listen(fd, 1024) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(TcpListener::from(owned))
    }
}

const LISTENER: Token = Token(0);
/// The read end of the loop's waker pair, poked by
/// [`HttpFrontend::shutdown`].
const WAKER: Token = Token(1);
/// Connection tokens start above the reserved ones.
const FIRST_CONN_TOKEN: usize = 2;

/// Everything one event loop needs: the frontend-wide shared state
/// plus this loop's labelled metric slice.
pub(super) struct LoopCtx {
    pub(super) shared: Arc<FrontendShared>,
    pub(super) lm: ConnMetrics,
}

fn event_loop(
    listener: TcpListener,
    waker_rx: UnixStream,
    mut reactor: Reactor,
    ctx: &LoopCtx,
    stop: &AtomicBool,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    if reactor
        .register(listener.as_raw_fd(), LISTENER, Interest::READ)
        .is_err()
        || reactor
            .register(waker_rx.as_raw_fd(), WAKER, Interest::READ)
            .is_err()
    {
        return;
    }
    let request_timeout = ctx.shared.cfg.request_timeout;
    let metrics = &ctx.shared.metrics;
    // Cache of the earliest effective deadline across the table; `None`
    // forces a rescan. This keeps a wakeup's work proportional to the
    // events it carries, not the table it guards: a deadline only moves
    // for a connection an event touched (folded below as they are
    // handled), so the O(connections) expiry sweep runs when the cached
    // deadline actually comes due — never as a per-request tax on a
    // 10k-connection herd. The cache may run early (a closed or
    // re-phased connection can leave a stale earlier value); the cost
    // is one spurious sweep, never a missed eviction.
    let mut next_deadline: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        // Deadlines: a connection past its phase deadline (or its
        // oldest request's end-to-end bound) is closed — that is the
        // slow-loris/dead-peer/wedged-response bound.
        if next_deadline.is_none_or(|d| now >= d) {
            let expired: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| now >= c.effective_deadline(request_timeout))
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                close_conn(&mut reactor, &mut conns, id, ctx);
            }
            next_deadline = conns
                .values()
                .map(|c| c.effective_deadline(request_timeout))
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
        for &ev in &events {
            if ev.token == LISTENER {
                accept_all(&listener, &mut reactor, &mut conns, &mut next_token, ctx);
                adopted_any = true;
                continue;
            }
            if ev.token == WAKER {
                drain_waker(&waker_rx);
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
            if action == Action::Close {
                close_conn(&mut reactor, &mut conns, ev.token.0, ctx);
            } else if let Some(conn) = conns.get_mut(&ev.token.0) {
                // Re-arm interest for the connection this event
                // touched. Untouched connections kept their interest —
                // no table scan.
                let want = conn.wanted_interest();
                if want != conn.interest
                    && reactor
                        .modify(conn.stream.as_raw_fd(), conn.token, want)
                        .is_ok()
                {
                    conn.interest = want;
                }
                // Fold the (possibly now earlier) deadline into the
                // cache — a fresh request start binds it to
                // `request_timeout` even under a lazier phase deadline.
                let d = conn.effective_deadline(request_timeout);
                next_deadline = Some(next_deadline.map_or(d, |nd| nd.min(d)));
            }
        }
        if adopted_any {
            // Freshly adopted connections start at `now + idle_timeout`;
            // folding that bound keeps the cache exact without a rescan.
            let d = now + ctx.shared.cfg.idle_timeout;
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
    // Per-connection teardown, not `open.set(0)`: sibling loops are
    // still counting in the same gauge.
    let open: Vec<usize> = conns.keys().copied().collect();
    for id in open {
        close_conn(&mut reactor, &mut conns, id, ctx);
    }
}

fn close_conn(reactor: &mut Reactor, conns: &mut HashMap<usize, Conn>, id: usize, ctx: &LoopCtx) {
    if let Some(conn) = conns.remove(&id) {
        let _ = reactor.deregister(conn.stream.as_raw_fd());
        ctx.shared.metrics.totals.open.sub(1);
        ctx.lm.open.sub(1);
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Swallow whatever bytes are queued on the waker pair; each byte was
/// only ever a "wake up and look around" signal.
fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&mut &*rx).read(&mut buf), Ok(n) if n > 0) {}
}

fn accept_all(
    listener: &TcpListener,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &LoopCtx,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient (ECONNABORTED, fd exhaustion): the next
            // readiness event retries; never spin.
            Err(_) => return,
        };
        adopt(stream, reactor, conns, next_token, ctx);
    }
}

/// Pin a freshly accepted connection to this loop: count it against
/// the frontend-wide cap, register it, insert it. From here on only
/// this loop ever touches it.
fn adopt(
    stream: TcpStream,
    reactor: &mut Reactor,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &LoopCtx,
) {
    ctx.shared.metrics.totals.accepted.inc();
    ctx.lm.accepted.inc();
    // The cap is exact and frontend-wide: reserve a slot first, give it
    // back on any failure path. (A per-loop split would be cheaper but
    // REUSEPORT's flow hash is uneven enough at 10k connections that
    // one loop would breach its share early.)
    let cap = ctx.shared.cfg.max_connections.max(1);
    let prev = ctx.shared.open_conns.fetch_add(1, Ordering::AcqRel);
    if prev >= cap {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        // Graceful shedding: the overload answer reaches the client
        // instead of a backlog timeout.
        ctx.shared.metrics.totals.shed.inc();
        ctx.lm.shed.inc();
        shed_503(stream);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = Token(*next_token);
    *next_token += 1;
    if reactor
        .register(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        ctx.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    ctx.shared.metrics.totals.open.add(1);
    ctx.lm.open.add(1);
    let deadline = Instant::now() + ctx.shared.cfg.idle_timeout;
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
