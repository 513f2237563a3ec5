//! An accept that fails for want of a descriptor must pause the
//! listener, never spin: the reactor is level-triggered, so the queued
//! connection the loop cannot take keeps the listener readable. Once
//! descriptors are free again, that connection is served.
//!
//! The accept is made to fail by lowering this process's descriptor
//! limit, which is why the test has a binary to itself.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use mudock_serve::{NetConfig, NetServer, ScreenService, ServeConfig};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[test]
fn an_accept_out_of_descriptors_pauses_the_listener_instead_of_spinning() {
    let service = Arc::new(ScreenService::start(ServeConfig {
        total_threads: 1,
        job_slots: 1,
        ..ServeConfig::default()
    }));
    let results_dir =
        std::env::temp_dir().join(format!("mudock-accept-exhaustion-{}", std::process::id()));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            results_dir: results_dir.clone(),
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let waits = service
        .registry()
        .histogram("mudock_reactor_wait_seconds", &[], "");

    // Descriptors are handed out lowest-free-first: the probe's number
    // is the one the client socket gets, and the next one — what the
    // server's accept would take — is over the tightened limit.
    let next_free = File::open("/dev/null").unwrap().as_raw_fd() as u64;
    let mut saved = RLimit { cur: 0, max: 0 };
    // SAFETY: `saved` is a live, correctly laid out `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut saved) }, 0);
    let tight = RLimit {
        cur: next_free + 1,
        max: saved.max,
    };
    // SAFETY: `tight` is a live `struct rlimit`; lowering the soft limit
    // is always permitted.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &tight) }, 0);
    let connected = TcpStream::connect(server.local_addr());
    let before = waits.count();
    std::thread::sleep(Duration::from_millis(300));
    let spun = waits.count() - before;
    // SAFETY: as above; restores the limit the process started with.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &saved) }, 0);

    let mut client = connected.expect("the client takes the last allowed descriptor");
    assert!(
        spun <= 20,
        "the event loop woke {spun} times in 300 ms while the accept kept failing"
    );
    // The queued connection is accepted once the pause ends.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    server.shutdown();
    service.shutdown();
    std::fs::remove_dir_all(&results_dir).ok();
}
