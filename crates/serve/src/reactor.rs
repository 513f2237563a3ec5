//! A dependency-free readiness reactor for the network frontend.
//!
//! The workspace's no-deps discipline rules out `mio`/`tokio`, so this
//! module speaks to the kernel directly, through `extern "C"`
//! declarations against the libc that `std` already links. There is
//! one selector per platform: `epoll(7)` on Linux and `poll(2)` on
//! every other unix. Both are level-triggered — the event loop in
//! [`crate::net`] re-arms interest explicitly (read always, write only
//! while a response is queued), which keeps the state machine simple
//! and makes missed-wakeup bugs structurally impossible.
//!
//! The `poll` selector is compiled on Linux as well, and the tests at
//! the bottom run one contract body against both, so the selector the
//! other platforms depend on is executed by Linux CI rather than only
//! type-checked by a cross build.
//!
//! The surface is the minimal readiness vocabulary an event loop
//! needs: [`Reactor::register`] / [`Reactor::modify`] /
//! [`Reactor::deregister`] a file descriptor with a caller-chosen
//! [`Token`], then [`Reactor::wait`] for [`Event`]s. Timeouts are the
//! caller's problem (the net loop passes its nearest deadline), and
//! `EINTR` surfaces as an empty wakeup rather than an error.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(unix))]
compile_error!("the serve reactor requires a unix-like host (epoll or poll)");

/// Caller-chosen identifier attached to a registered fd and echoed
/// back in every [`Event`] for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness classes to watch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification. `hangup` folds `EPOLLHUP`/`EPOLLERR`
/// (and their `poll` equivalents): the fd needs attention and the next
/// read/write will report the specific condition.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// What a kernel readiness interface must provide. Level-triggered:
/// a condition is reported by every `wait` until it is consumed.
trait Selector: Sized {
    fn new() -> io::Result<Self>;
    fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;
    fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Append one [`Event`] per ready fd to `out`; a signal
    /// interruption appends nothing.
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

#[cfg(target_os = "linux")]
type Sys = epoll::Epoll;
#[cfg(not(target_os = "linux"))]
type Sys = poll::Poll;

/// A readiness selector over many file descriptors.
pub struct Reactor {
    sys: Sys,
}

impl Reactor {
    pub fn new() -> io::Result<Reactor> {
        Ok(Reactor { sys: Sys::new()? })
    }

    /// Start watching `fd`. The fd must stay valid until
    /// [`Reactor::deregister`] (the reactor never closes it).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.sys.register(fd, token, interest)
    }

    /// Change the interest set (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.sys.modify(fd, token, interest)
    }

    /// Stop watching `fd`. Must precede closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.sys.deregister(fd)
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits forever). Events are appended to `out`
    /// (cleared first); the count of delivered events is returned so
    /// callers can split wait-time from dispatch-time without touching
    /// `out`. A signal interruption returns `Ok(0)` with no events —
    /// callers already loop.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        self.sys.wait(out, timeout)?;
        Ok(out.len())
    }
}

/// Clamp a timeout to the millisecond `int` the kernel interfaces
/// take, rounding up so a 100 µs deadline does not busy-spin at 0 ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! `epoll(7)` via direct FFI: O(ready) wakeups, no per-wait scan of
    //! the registration table, which is what makes the 10k-connection
    //! herd cheap.

    use super::{timeout_ms, Event, Interest, Selector, Token};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the ABI
    /// quirk epoll is famous for); natural alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    pub struct Epoll {
        ep: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        fn ctl(&self, op: i32, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = ev;
            let p = ev
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `self.ep` is a live epoll fd, and `p` is either
            // null (which `EPOLL_CTL_DEL` permits) or points at `ev`,
            // which outlives the call; the kernel only reads it.
            if unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, p) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    fn event(token: Token, interest: Interest) -> EpollEvent {
        let mut events = 0;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        EpollEvent {
            events,
            data: token.0 as u64,
        }
    }

    impl Selector for Epoll {
        fn new() -> io::Result<Epoll> {
            // SAFETY: a plain syscall taking no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                // SAFETY: `fd` was just returned by `epoll_create1`, is
                // valid, and is owned by nothing else.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some(event(token, interest)))
        }

        fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some(event(token, interest)))
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            // SAFETY: `self.ep` is a live epoll fd and `self.buf` is an
            // initialized allocation of exactly `self.buf.len()` events
            // that the kernel may overwrite.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                let (events, data) = (ev.events, ev.data);
                out.push(Event {
                    token: Token(data as usize),
                    readable: events & EPOLLIN != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

// Built on Linux too, where only the contract tests construct it: that
// is what lets Linux CI execute the selector the other platforms use.
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod poll {
    //! `poll(2)`: the selector of every non-Linux unix. O(registered)
    //! per wait, which is fine where it runs; production deployments
    //! are Linux.

    use super::{timeout_ms, Event, Interest, Selector, Token};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `nfds_t`: `unsigned long` on Linux and the Solaris family,
    /// `unsigned int` on the BSDs and macOS.
    #[cfg(any(target_os = "linux", target_os = "solaris", target_os = "illumos"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "solaris", target_os = "illumos")))]
    type Nfds = std::os::raw::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    pub struct Poll {
        reg: BTreeMap<RawFd, (Token, Interest)>,
    }

    impl Selector for Poll {
        fn new() -> io::Result<Poll> {
            Ok(Poll {
                reg: BTreeMap::new(),
            })
        }

        fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            if self.reg.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.reg.insert(fd, (token, interest));
            Ok(())
        }

        fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            match self.reg.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.reg.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .reg
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is an initialized allocation of exactly
            // `fds.len()` entries that the kernel may overwrite, and it
            // outlives the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms(timeout)) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for pfd in fds.iter().filter(|p| p.revents != 0) {
                let (token, _) = self.reg[&pfd.fd];
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    /// One wakeup's events, as [`Reactor::wait`] delivers them.
    fn wait<S: Selector>(s: &mut S, timeout: Duration) -> Vec<Event> {
        let mut events = Vec::new();
        s.wait(&mut events, Some(timeout)).unwrap();
        events
    }

    /// A connected loopback pair: (the side under test, its peer).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, peer)
    }

    // The selector contract the event loop stands on. Each body is
    // generic; `selector_contract!` below runs all of them against every
    // selector this platform builds.

    fn wait_times_out_with_no_ready_fds<S: Selector>() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut s = S::new().unwrap();
        s.register(listener.as_raw_fd(), Token(1), Interest::READ)
            .unwrap();
        let t0 = Instant::now();
        assert!(wait(&mut s, Duration::from_millis(30)).is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    fn readable_and_writable_events_carry_their_tokens<S: Selector>() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut s = S::new().unwrap();
        s.register(listener.as_raw_fd(), Token(7), Interest::READ)
            .unwrap();

        // A connect makes the listener readable (acceptable).
        let mut clientside = TcpStream::connect(addr).unwrap();
        let events = wait(&mut s, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == Token(7) && e.readable));

        let (mut serverside, _) = listener.accept().unwrap();
        serverside.set_nonblocking(true).unwrap();
        s.register(serverside.as_raw_fd(), Token(9), Interest::BOTH)
            .unwrap();

        // A fresh socket with room in its send buffer is writable; once
        // the peer sends, it turns readable too.
        clientside.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut saw_read, mut saw_write) = (false, false);
        while !(saw_read && saw_write) && Instant::now() < deadline {
            for e in wait(&mut s, Duration::from_millis(100)) {
                if e.token == Token(9) {
                    saw_read |= e.readable;
                    saw_write |= e.writable;
                }
            }
        }
        assert!(saw_read && saw_write);
        let mut buf = [0u8; 8];
        assert_eq!(serverside.read(&mut buf).unwrap(), 4);

        // After deregistering, the fd produces no further events.
        s.deregister(serverside.as_raw_fd()).unwrap();
        clientside.write_all(b"more").unwrap();
        let events = wait(&mut s, Duration::from_millis(50));
        assert!(events.iter().all(|e| e.token != Token(9)));
    }

    fn modify_toggles_write_interest<S: Selector>() {
        let (server, _peer) = pair();
        let mut s = S::new().unwrap();
        // Read-only: an idle writable socket must NOT wake the loop.
        s.register(server.as_raw_fd(), Token(3), Interest::READ)
            .unwrap();
        let events = wait(&mut s, Duration::from_millis(30));
        assert!(events.is_empty(), "level-triggered write storm: {events:?}");
        // Now ask for write readiness: an empty send buffer reports
        // immediately.
        s.modify(server.as_raw_fd(), Token(3), Interest::BOTH)
            .unwrap();
        let events = wait(&mut s, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == Token(3) && e.writable));
        // And back: with write interest dropped the socket is quiet
        // again, which is what lets the loop stop polling a flushed
        // connection.
        s.modify(server.as_raw_fd(), Token(3), Interest::READ)
            .unwrap();
        assert!(wait(&mut s, Duration::from_millis(30)).is_empty());
    }

    fn unread_input_is_reported_again<S: Selector>() {
        let (mut server, mut peer) = pair();
        let mut s = S::new().unwrap();
        s.register(server.as_raw_fd(), Token(4), Interest::READ)
            .unwrap();
        peer.write_all(b"ping").unwrap();
        // Level-triggered: the event loop may leave bytes unread (a
        // connection owing a response pauses its reads) and must be
        // told again.
        for round in 0..2 {
            let events = wait(&mut s, Duration::from_secs(5));
            assert!(
                events.iter().any(|e| e.token == Token(4) && e.readable),
                "round {round}: unread input not reported: {events:?}"
            );
        }
        // With no interest the fd is quiet, unread input or not (the
        // loop pauses its listener this way), and re-arming reports it.
        let none = Interest {
            readable: false,
            writable: false,
        };
        s.modify(server.as_raw_fd(), Token(4), none).unwrap();
        assert!(wait(&mut s, Duration::from_millis(30)).is_empty());
        s.modify(server.as_raw_fd(), Token(4), Interest::READ)
            .unwrap();
        let events = wait(&mut s, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == Token(4) && e.readable));
        // Consumed: the condition clears.
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        assert!(wait(&mut s, Duration::from_millis(30)).is_empty());
    }

    fn peer_close_wakes_the_fd<S: Selector>() {
        let (mut server, peer) = pair();
        let mut s = S::new().unwrap();
        s.register(server.as_raw_fd(), Token(5), Interest::READ)
            .unwrap();
        drop(peer);
        // The loop reads on `readable || hangup`; which of the two a
        // selector reports for an orderly close is its own business.
        let events = wait(&mut s, Duration::from_secs(5));
        assert!(
            events
                .iter()
                .any(|e| e.token == Token(5) && (e.readable || e.hangup)),
            "peer close not reported: {events:?}"
        );
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "the read sees EOF");
    }

    fn a_deregistered_fd_can_be_registered_again<S: Selector>() {
        let (server, mut peer) = pair();
        let fd = server.as_raw_fd();
        let mut s = S::new().unwrap();
        s.register(fd, Token(10), Interest::READ).unwrap();
        assert!(
            s.register(fd, Token(11), Interest::READ).is_err(),
            "a double registration is refused"
        );
        s.deregister(fd).unwrap();
        assert!(s.modify(fd, Token(10), Interest::BOTH).is_err());
        assert!(s.deregister(fd).is_err());
        // The kernel hands a closed connection's fd number to the next
        // accept: a stale registration must not shadow the new one.
        s.register(fd, Token(12), Interest::READ).unwrap();
        peer.write_all(b"x").unwrap();
        let events = wait(&mut s, Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == Token(12) && e.readable));
        assert!(events.iter().all(|e| e.token != Token(10)));
    }

    macro_rules! selector_contract {
        ($($module:ident: $selector:ty,)*) => {$(
            mod $module {
                selector_contract!(@tests $selector:
                    wait_times_out_with_no_ready_fds,
                    readable_and_writable_events_carry_their_tokens,
                    modify_toggles_write_interest,
                    unread_input_is_reported_again,
                    peer_close_wakes_the_fd,
                    a_deregistered_fd_can_be_registered_again,
                );
            }
        )*};
        (@tests $selector:ty: $($body:ident,)*) => {$(
            #[test]
            fn $body() {
                super::$body::<$selector>()
            }
        )*};
    }

    #[cfg(target_os = "linux")]
    selector_contract! {
        epoll: crate::reactor::epoll::Epoll,
        poll: crate::reactor::poll::Poll,
    }
    #[cfg(not(target_os = "linux"))]
    selector_contract! {
        poll: crate::reactor::poll::Poll,
    }
}
