//! A multi-loop frontend that cannot bind every one of its per-loop
//! `SO_REUSEPORT` listeners must fail to bind — never come up under a
//! different accept model than it was asked for.
//!
//! The sibling bind is made to fail by lowering this process's
//! descriptor limit, which is why the test has a binary to itself.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::os::fd::AsRawFd;

use mudock_serve::{FrontendBuilder, NetConfig};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[test]
fn a_failed_sibling_bind_is_the_error_bind_returns() {
    // Descriptors are handed out lowest-free-first, so the third probe's
    // number is the one the third listener would get.
    let probes: Vec<File> = (0..3).map(|_| File::open("/dev/null").unwrap()).collect();
    let third = probes[2].as_raw_fd() as u64;
    drop(probes);

    let mut saved = RLimit { cur: 0, max: 0 };
    // SAFETY: `saved` is a live, correctly laid out `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut saved) }, 0);
    // Two more descriptors may be opened; the third is over the limit.
    let tight = RLimit {
        cur: third,
        max: saved.max,
    };
    // SAFETY: `tight` is a live `struct rlimit`; lowering the soft limit
    // is always permitted.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &tight) }, 0);

    let bound = FrontendBuilder::bind(
        "127.0.0.1:0",
        NetConfig {
            event_loops: 4,
            ..NetConfig::default()
        },
    );

    // SAFETY: as above; restores the limit the process started with.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &saved) }, 0);
    let err = match bound {
        Err(e) => e,
        Ok(b) => panic!(
            "two of four listeners could be bound, yet a frontend came up on {}",
            b.local_addr()
        ),
    };
    assert_eq!(err.raw_os_error(), Some(EMFILE), "unexpected error: {err}");
}
