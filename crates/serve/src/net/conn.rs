//! One connection's request/response state machine (idle → header →
//! body → [parked →] write), driven by the readiness events the event
//! loop delivers. Everything here runs on that loop's thread.
//!
//! A connection owes at most one response: once a request is routed,
//! reads pause until its answer (immediate or parked) has fully
//! flushed, and only then is the next request parsed from whatever is
//! already buffered. Pipelined requests are answered in order, one at
//! a time, and each phase deadline bounds the one request in flight.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mudock_obs::now_ns;

use super::frontend::{FrontendShared, Parked, Routed};
use super::http::{find_head_end, parse_head, reason, Body, RequestHead, Response, MAX_HEAD_BYTES};
use crate::reactor::{Interest, Token};
use crate::wire::{parse_bytes, WireError};

/// Result files stream to the socket in chunks of this size.
const FILE_CHUNK: usize = 64 << 10;
/// Bytes a closing connection will still drain so the final response
/// is not lost to a reset while the client is mid-write.
const DRAIN_BUDGET: usize = 256 << 10;
/// How long a closing connection lingers draining after its last
/// response flushed.
const LINGER: Duration = Duration::from_secs(1);

/// Where a connection is in its request/response cycle.
enum Phase {
    /// Keep-alive, between requests (or writing the answer to the last
    /// one: output is queued).
    Idle,
    /// Accumulating head bytes (first byte seen, terminator not yet).
    Header,
    /// Waiting until `buf` holds the whole body (`head.content_length`
    /// bytes). Then a route that takes JSON (`POST /jobs`) gets it
    /// parsed in one pass; other bodies are dropped, their bytes drained
    /// for framing either way.
    Body { head: RequestHead },
    /// The request was routed and waits for its answer (a long-poll on
    /// a job that is not terminal yet); `deadline` is when it is
    /// answered regardless.
    Parked {
        poll: Box<dyn Parked>,
        keep_alive: bool,
    },
    /// Close-bound: once the final response has flushed, drain
    /// (bounded) whatever the peer still sends so it is delivered,
    /// then close.
    Lingering { budget: usize },
}

/// One queued slice of response data.
enum OutItem {
    Bytes(Vec<u8>),
    /// A results file streamed in [`FILE_CHUNK`]s; `remaining` is the
    /// advertised `Content-Length` tail still to send.
    File {
        file: std::fs::File,
        remaining: u64,
    },
}

pub(super) struct Conn {
    pub(super) stream: TcpStream,
    pub(super) token: Token,
    buf: Vec<u8>,
    phase: Phase,
    /// When the current phase gives up: the connection closes, or a
    /// parked request is answered.
    pub(super) deadline: Instant,
    /// The response owed, queued in order.
    out: VecDeque<OutItem>,
    /// Bytes of `out.front()` already written.
    front_off: usize,
    /// Interest currently registered with the reactor.
    pub(super) interest: Interest,
    /// Wall-clock ns of the current request's first header byte, for
    /// the latency histogram.
    started: u64,
}

impl Conn {
    /// A freshly accepted connection: between requests, registered for
    /// reads, closed at `deadline` if nothing arrives.
    pub(super) fn new(stream: TcpStream, token: Token, deadline: Instant) -> Conn {
        Conn {
            stream,
            token,
            buf: Vec::new(),
            phase: Phase::Idle,
            deadline,
            out: VecDeque::new(),
            front_off: 0,
            interest: Interest::READ,
            started: 0,
        }
    }

    pub(super) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    pub(super) fn is_parked(&self) -> bool {
        matches!(self.phase, Phase::Parked { .. })
    }

    /// A routed request whose answer has not fully flushed.
    fn owes_response(&self) -> bool {
        self.has_output() || self.is_parked()
    }

    /// The interest this connection should be registered with: read
    /// only while it owes no response, write only while output is
    /// queued.
    pub(super) fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.owes_response(),
            writable: self.has_output(),
        }
    }
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
pub(super) enum Action {
    Keep,
    Close,
}

/// Drain the socket into the connection buffer and answer whatever
/// requests arrived. Stops reading as soon as a response is owed; on a
/// hangup it is called anyway, and what it reads then waits in `buf`.
pub(super) fn do_read(conn: &mut Conn, ctx: &FrontendShared, now: Instant) -> Action {
    let mut tmp = [0u8; 16 << 10];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                // EOF. Clean between requests; abrupt mid-request.
                return Action::Close;
            }
            Ok(n) => {
                if let Phase::Lingering { budget } = &mut conn.phase {
                    *budget = budget.saturating_sub(n);
                    if *budget == 0 {
                        return Action::Close;
                    }
                    continue;
                }
                conn.buf.extend_from_slice(&tmp[..n]);
                // Owed before the read only on a hangup: the bytes wait
                // in `buf` until that response has flushed.
                if !conn.owes_response() && pump(conn, ctx, now) == Action::Close {
                    return Action::Close;
                }
                if conn.owes_response() {
                    return Action::Keep; // reads pause until it flushes
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Action::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
}

/// Flush the owed response, then parse and answer the requests already
/// buffered, one at a time: each answer flushes before the next request
/// is parsed. Returns once the socket is full, a request parks, or the
/// buffer holds no whole request. A loop, not a recursion, so a burst of
/// tiny pipelined requests does not deepen the stack.
pub(super) fn pump(conn: &mut Conn, ctx: &FrontendShared, now: Instant) -> Action {
    loop {
        if do_write(conn, now, ctx) == Action::Close {
            return Action::Close;
        }
        if conn.owes_response() {
            return Action::Keep;
        }
        route_next(conn, ctx, now);
        if !conn.has_output() {
            return Action::Keep;
        }
    }
}

/// Advance the request state machine over `conn.buf` until one request
/// is routed (its answer queued or parked) or more bytes are needed.
fn route_next(conn: &mut Conn, ctx: &FrontendShared, now: Instant) {
    loop {
        match &mut conn.phase {
            Phase::Idle => {
                if conn.buf.is_empty() {
                    return;
                }
                // Request latency starts at the header's first byte.
                conn.started = now_ns();
                conn.phase = Phase::Header;
                conn.deadline = now + ctx.cfg.header_timeout;
            }
            Phase::Header => {
                let Some(head_len) = find_head_end(&conn.buf) else {
                    if conn.buf.len() > MAX_HEAD_BYTES {
                        let msg = format!("request head exceeds {MAX_HEAD_BYTES} bytes");
                        refuse(conn, ctx, now, 400, msg);
                    }
                    return; // need more bytes
                };
                let head_bytes: Vec<u8> = conn.buf.drain(..head_len).collect();
                let head = match parse_head(&head_bytes) {
                    Ok(h) => h,
                    Err((status, msg)) => return refuse(conn, ctx, now, status, msg),
                };
                if head.content_length > ctx.cfg.max_body_bytes {
                    return refuse(
                        conn,
                        ctx,
                        now,
                        413,
                        format!(
                            "body of {} bytes exceeds the {}-byte limit",
                            head.content_length, ctx.cfg.max_body_bytes
                        ),
                    );
                }
                conn.deadline = now + ctx.cfg.body_timeout;
                conn.phase = Phase::Body { head };
            }
            Phase::Body { head } => {
                let len = head.content_length;
                if conn.buf.len() < len {
                    return; // need more bytes
                }
                let body = ctx
                    .routes
                    .wants_body(&head.method, &head.path)
                    .then(|| parse_bytes(&conn.buf[..len]));
                conn.buf.drain(..len);
                // A large body must not pin its buffer for the life of
                // a keep-alive connection.
                conn.buf.shrink_to(MAX_HEAD_BYTES);
                let Phase::Body { head } = std::mem::replace(&mut conn.phase, Phase::Idle) else {
                    unreachable!("we are in Body");
                };
                if let Some(Err(WireError::Syntax { .. })) = &body {
                    ctx.metrics.parse_errors.inc();
                }
                // Panic isolation: a panicking route must cost one
                // response, never the whole event loop.
                let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.routes.route(&head.method, &head.path, body)
                }))
                .unwrap_or_else(|_| Response::error(500, "internal error").into());
                ctx.metrics.requests.inc();
                match routed {
                    Routed::Answer(response) => {
                        queue_response(conn, response, head.keep_alive, now, ctx)
                    }
                    Routed::Park(poll, wait) => {
                        conn.phase = Phase::Parked {
                            poll,
                            keep_alive: head.keep_alive,
                        };
                        conn.deadline = now + wait;
                    }
                }
                return;
            }
            // A close-bound connection parses nothing more; a parked
            // one waits for its answer.
            Phase::Parked { .. } | Phase::Lingering { .. } => return,
        }
    }
}

/// Ask a parked request for its answer (`expired`: its deadline came,
/// so it must give one) and, once answered, carry on with whatever was
/// pipelined behind it. `None` when the connection is not parked or
/// its request stays parked.
pub(super) fn resume(
    conn: &mut Conn,
    ctx: &FrontendShared,
    now: Instant,
    expired: bool,
) -> Option<Action> {
    let Phase::Parked { poll, keep_alive } = &conn.phase else {
        return None;
    };
    let keep_alive = *keep_alive;
    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poll.answer(expired)))
        .unwrap_or_else(|_| Some(Response::error(500, "internal error")))?;
    queue_response(conn, response, keep_alive, now, ctx);
    Some(pump(conn, ctx, now))
}

/// Queue a protocol-level refusal; the connection is close-bound (its
/// framing can no longer be trusted).
fn refuse(conn: &mut Conn, ctx: &FrontendShared, now: Instant, status: u16, message: String) {
    ctx.metrics.parse_errors.inc();
    queue_response(conn, Response::error(status, message), false, now, ctx);
}

/// Serialize the answer to the current request onto the output queue.
/// Without keep-alive the connection turns close-bound: what is
/// buffered behind the request is dropped.
fn queue_response(
    conn: &mut Conn,
    response: Response,
    keep_alive: bool,
    now: Instant,
    ctx: &FrontendShared,
) {
    let Response {
        status,
        content_type,
        body,
    } = response;
    let len = match &body {
        Body::Text(t) => t.len() as u64,
        Body::File(_, len) => *len,
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: {}\r\n\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut first = head.into_bytes();
    let file = match body {
        Body::Text(t) => {
            first.extend_from_slice(t.as_bytes());
            None
        }
        Body::File(file, remaining) => Some(OutItem::File { file, remaining }),
    };
    conn.out.push_back(OutItem::Bytes(first));
    conn.out.extend(file);
    conn.phase = if keep_alive {
        Phase::Idle
    } else {
        conn.buf.clear();
        Phase::Lingering {
            budget: DRAIN_BUDGET,
        }
    };
    conn.deadline = now + ctx.cfg.write_timeout;
}

/// Push queued output to the socket until it blocks or drains. When the
/// response drains, its latency is recorded and the connection waits
/// for the next request (or, close-bound, half-closes and lingers).
fn do_write(conn: &mut Conn, now: Instant, ctx: &FrontendShared) -> Action {
    if conn.out.is_empty() {
        return Action::Keep;
    }
    while let Some(front) = conn.out.front_mut() {
        match front {
            OutItem::Bytes(bytes) => {
                while conn.front_off < bytes.len() {
                    match conn.stream.write(&bytes[conn.front_off..]) {
                        Ok(0) => return Action::Close,
                        Ok(n) => conn.front_off += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return Action::Keep;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return Action::Close,
                    }
                }
                conn.front_off = 0;
                conn.out.pop_front();
            }
            OutItem::File { file, remaining } => {
                if *remaining == 0 {
                    conn.out.pop_front();
                    continue;
                }
                let want = (*remaining).min(FILE_CHUNK as u64) as usize;
                let mut chunk = vec![0u8; want];
                match file.read(&mut chunk) {
                    // Truncated under us: the advertised Content-Length
                    // cannot be met — the framing is broken, close.
                    Ok(0) => return Action::Close,
                    Ok(n) => {
                        chunk.truncate(n);
                        *remaining -= n as u64;
                        // The chunk is the file's next bytes: it goes
                        // *in front of* the file item it came from.
                        conn.out.push_front(OutItem::Bytes(chunk));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Action::Close,
                }
            }
        }
    }
    ctx.metrics
        .request_seconds
        .record_ns(now_ns().saturating_sub(conn.started));
    if matches!(conn.phase, Phase::Lingering { .. }) {
        // Half-close so the last response's bytes are delivered, then
        // linger draining (bounded) until the peer hangs up — closing
        // with unread input would RST the response away.
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.deadline = now + LINGER;
    } else {
        conn.deadline = now + ctx.cfg.idle_timeout;
    }
    Action::Keep
}
