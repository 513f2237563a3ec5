//! The client reads a response under the limits a server reads a
//! request with: a peer that advertises a huge body or sends a header
//! line that never ends costs a `ClientError`, not an allocation of
//! what it claims or sends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

use mudock_serve::net::client::{Client, ClientError};

/// The largest single allocation this binary may make; a larger one is
/// refused (`null`, so the process aborts) before it reaches the system.
const REFUSED_ABOVE: usize = 1 << 30;

/// The largest allocation asked for since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Watch;

// SAFETY: every call forwards to `System` with the caller's layout, or
// returns null, which `GlobalAlloc` allows.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::SeqCst);
        if layout.size() > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::SeqCst);
        if layout.size() > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::SeqCst);
        if new_size > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Watch = Watch;

/// A loopback peer that answers one request with `reply`, then closes.
fn responder(reply: fn(&mut TcpStream)) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = [0u8; 4096];
        let _ = stream.read(&mut request);
        reply(&mut stream);
    });
    (addr, peer)
}

/// `GET /healthz` against `reply`: the error, and the largest
/// allocation the exchange asked for.
fn exchange_with(reply: fn(&mut TcpStream)) -> (ClientError, usize) {
    let (addr, peer) = responder(reply);
    PEAK.store(0, Ordering::SeqCst);
    let got = Client::new(&addr).request("GET", "/healthz", None);
    let peak = PEAK.load(Ordering::SeqCst);
    peer.join().expect("the responder ends");
    (got.expect_err("a lying peer is an error"), peak)
}

#[test]
fn a_lying_content_length_ends_in_an_error_not_an_allocation() {
    let (err, peak) = exchange_with(|stream| {
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{\"ok\":1}";
        stream.write_all(head.as_bytes()).unwrap();
    });
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    assert!(
        peak < 1 << 20,
        "the exchange asked for {peak} bytes at once"
    );
}

#[test]
fn a_header_line_that_never_ends_is_cut_at_the_head_limit() {
    let (err, peak) = exchange_with(|stream| {
        // 4 MiB of one header line, far past the 32 KiB head limit; the
        // client hangs up long before, which ends the writes.
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nX-Endless: ");
        let line = [b'a'; 64 << 10];
        for _ in 0..64 {
            if stream.write_all(&line).is_err() {
                return;
            }
        }
    });
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    assert!(err.to_string().contains("head exceeds"), "{err}");
    assert!(
        peak < 1 << 20,
        "the exchange asked for {peak} bytes at once"
    );
}

#[test]
fn conflicting_content_lengths_are_refused() {
    let (err, _) = exchange_with(|stream| {
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!";
        stream.write_all(head.as_bytes()).unwrap();
    });
    assert!(
        err.to_string().contains("conflicting content-length"),
        "{err}"
    );
}

#[test]
fn a_head_cut_off_before_its_blank_line_is_an_error() {
    let (err, _) = exchange_with(|stream| {
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n";
        stream.write_all(head.as_bytes()).unwrap();
    });
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    assert!(err.to_string().contains("closed before"), "{err}");
}
