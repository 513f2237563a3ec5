//! One connection's request/response state machine (idle → header →
//! body → [parked →] write), driven by the readiness events the event
//! loop delivers. Everything here runs on that loop's thread.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use mudock_obs::now_ns;

use super::frontend::{FrontendShared, Parked, Routed};
use super::http::{find_head_end, parse_head, reason, Body, RequestHead, Response, MAX_HEAD_BYTES};
use crate::reactor::{Interest, Token};
use crate::wire::{parse_bytes, WireError};

/// Responses queued behind one connection beyond this pause its reads:
/// a client pipelining requests faster than it drains responses gets
/// TCP backpressure, not server memory growth.
const MAX_PENDING_OUT: usize = 1 << 20;
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
    /// Keep-alive, between requests.
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
    /// answered regardless. Reads pause: pipelined requests wait in the
    /// socket behind this one.
    Parked {
        poll: Box<dyn Parked>,
        keep_alive: bool,
    },
    /// Close-bound: drain (bounded) whatever the peer still sends so
    /// the final response is delivered, then close.
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
    /// Zero-byte end-of-response marker: when the writer reaches it,
    /// the oldest in-flight request's latency is recorded. Pipelined
    /// requests match FIFO because responses are queued in order.
    Mark,
}

pub(super) struct Conn {
    pub(super) stream: TcpStream,
    pub(super) token: Token,
    buf: Vec<u8>,
    phase: Phase,
    deadline: Instant,
    out: VecDeque<OutItem>,
    /// Bytes of `out.front()` already written.
    front_off: usize,
    close_after_flush: bool,
    /// Interest currently registered with the reactor.
    pub(super) interest: Interest,
    /// Header-first-byte stamps of requests awaiting a flushed
    /// response, oldest first (pipelining keeps several in flight).
    /// The `u64` is the wall-clock ns for the latency histogram; the
    /// `Instant` anchors the request-level deadline.
    req_starts: VecDeque<(u64, Instant)>,
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
            close_after_flush: false,
            interest: Interest::READ,
            req_starts: VecDeque::new(),
        }
    }

    pub(super) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    pub(super) fn is_parked(&self) -> bool {
        matches!(self.phase, Phase::Parked { .. })
    }

    /// The interest this connection should be registered with: read
    /// unless its request is parked or output backpressure says pause,
    /// write only while output is queued.
    pub(super) fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.is_parked() && self.pending_out() <= MAX_PENDING_OUT,
            writable: self.has_output(),
        }
    }

    fn pending_out(&self) -> usize {
        self.out
            .iter()
            .map(|i| match i {
                OutItem::Bytes(b) => b.len(),
                OutItem::File { remaining, .. } => *remaining as usize,
                OutItem::Mark => 0,
            })
            .sum::<usize>()
            .saturating_sub(self.front_off)
    }

    /// The nearest of the phase deadline and the oldest unanswered
    /// request's end-to-end bound. The phase deadlines reset as the
    /// connection changes state; the request bound does not, so a
    /// response wedged behind a slow route cannot be kept alive forever
    /// by a peer that keeps the phase clocks fresh.
    pub(super) fn effective_deadline(&self, request_timeout: Duration) -> Instant {
        match self.req_starts.front() {
            Some(&(_, started)) => self.deadline.min(started + request_timeout),
            None => self.deadline,
        }
    }
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
pub(super) enum Action {
    Keep,
    Close,
}

/// Drain the socket into the connection buffer and run the request
/// state machine over whatever arrived.
pub(super) fn do_read(conn: &mut Conn, ctx: &FrontendShared, now: Instant) -> Action {
    let mut tmp = [0u8; 16 << 10];
    loop {
        // Backpressure: stop pulling bytes while responses are backed
        // up (interest re-arming pauses the readiness events too).
        if conn.pending_out() > MAX_PENDING_OUT {
            return Action::Keep;
        }
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
                if process_input(conn, ctx, now) == Action::Close {
                    return Action::Close;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Action::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Close,
        }
    }
}

/// Advance the request state machine over `conn.buf`. Loops so that
/// pipelined requests already buffered are answered back-to-back.
fn process_input(conn: &mut Conn, ctx: &FrontendShared, now: Instant) -> Action {
    loop {
        match &mut conn.phase {
            Phase::Idle => {
                if conn.buf.is_empty() {
                    return Action::Keep;
                }
                // Request latency (and the request-level deadline)
                // starts at the header's first byte.
                conn.req_starts.push_back((now_ns(), now));
                conn.phase = Phase::Header;
                conn.deadline = now + ctx.cfg.header_timeout;
            }
            Phase::Header => {
                let Some(head_len) = find_head_end(&conn.buf) else {
                    if conn.buf.len() > MAX_HEAD_BYTES {
                        return refuse(
                            conn,
                            ctx,
                            now,
                            400,
                            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                        );
                    }
                    return Action::Keep; // need more bytes
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
                    return Action::Keep; // need more bytes
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
                        if answered(conn, ctx, now, response, head.keep_alive) {
                            return Action::Keep;
                        }
                    }
                    Routed::Park(poll, wait) => {
                        conn.phase = Phase::Parked {
                            poll,
                            keep_alive: head.keep_alive,
                        };
                        conn.deadline = now + wait;
                        return Action::Keep;
                    }
                }
            }
            // Bytes that arrive behind a parked request (read on a
            // hangup) stay buffered until it is answered.
            Phase::Parked { .. } => return Action::Keep,
            Phase::Lingering { budget } => {
                *budget = budget.saturating_sub(conn.buf.len());
                conn.buf.clear();
                if *budget == 0 {
                    return Action::Close;
                }
                return Action::Keep;
            }
        }
    }
}

/// Queue the answer to the request just routed or resumed and return
/// the connection to between requests. `true` when there is nothing
/// more to parse now (close-bound, or no pipelined bytes buffered).
fn answered(
    conn: &mut Conn,
    ctx: &FrontendShared,
    now: Instant,
    response: Response,
    keep_alive: bool,
) -> bool {
    conn.phase = Phase::Idle;
    queue_response(conn, response, keep_alive, now, ctx);
    if conn.close_after_flush {
        conn.buf.clear();
        conn.phase = Phase::Lingering {
            budget: DRAIN_BUDGET,
        };
        return true;
    }
    // Keep-alive: pipelined bytes may already hold the next request.
    if conn.buf.is_empty() {
        conn.deadline = now + ctx.cfg.idle_timeout.max(ctx.cfg.write_timeout);
        return true;
    }
    false
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
    if answered(conn, ctx, now, response, keep_alive) {
        return Some(Action::Keep);
    }
    Some(process_input(conn, ctx, now))
}

/// Queue a protocol-level refusal and mark the connection close-bound
/// (its framing can no longer be trusted).
fn refuse(
    conn: &mut Conn,
    ctx: &FrontendShared,
    now: Instant,
    status: u16,
    message: String,
) -> Action {
    ctx.metrics.parse_errors.inc();
    queue_response(conn, Response::error(status, message), false, now, ctx);
    conn.buf.clear();
    conn.phase = Phase::Lingering {
        budget: DRAIN_BUDGET,
    };
    Action::Keep
}

/// Serialize a response onto the connection's output queue and attempt
/// an optimistic flush (most responses fit the socket buffer whole, so
/// the common case never waits for a writability event).
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
    conn.out.push_back(OutItem::Mark);
    conn.close_after_flush |= !keep_alive;
    conn.deadline = now + ctx.cfg.write_timeout;
    let _ = do_write(conn, now, ctx);
}

/// Push queued output to the socket until it blocks or drains.
pub(super) fn do_write(conn: &mut Conn, now: Instant, ctx: &FrontendShared) -> Action {
    loop {
        let Some(front) = conn.out.front_mut() else {
            // Fully flushed.
            if conn.close_after_flush {
                // Half-close so the last response's bytes are
                // delivered, then linger draining (bounded) until the
                // peer hangs up — closing with unread input would RST
                // the response away.
                let _ = conn.stream.shutdown(Shutdown::Write);
                if !matches!(conn.phase, Phase::Lingering { .. }) {
                    conn.phase = Phase::Lingering {
                        budget: DRAIN_BUDGET,
                    };
                }
                conn.deadline = now + LINGER;
            }
            return Action::Keep;
        };
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
            OutItem::Mark => {
                // Everything queued for this response hit the socket:
                // the oldest in-flight request is answered.
                conn.out.pop_front();
                if let Some((t0, _)) = conn.req_starts.pop_front() {
                    ctx.metrics
                        .request_seconds
                        .record_ns(now_ns().saturating_sub(t0));
                }
            }
        }
    }
}
