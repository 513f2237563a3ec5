//! The harness the CLI integration tests share: real `mudock` processes
//! listening on ephemeral loopback ports, driven by the real client
//! subcommands. Every wait has a deadline and every process dies with
//! its handle.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const DEADLINE: Duration = Duration::from_secs(120);

/// A `mudock … --listen 127.0.0.1:0` child — a node or a coordinator —
/// stopped on drop (`SIGTERM`, then `SIGKILL` after 5 s).
pub struct Server {
    child: Child,
    pub addr: String,
    results_dir: Option<PathBuf>,
}

impl Server {
    /// `mudock serve --listen 127.0.0.1:0` with `extra` flags and a
    /// fresh `--results` directory named after `tag`.
    pub fn node(tag: &str, extra: &[&str]) -> Server {
        let results_dir = std::env::temp_dir().join(format!("mudock-{tag}-{}", std::process::id()));
        let results = results_dir.to_str().expect("a UTF-8 temp dir");
        let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--results", results];
        args.extend_from_slice(extra);
        let mut server = Server::start(&args);
        server.results_dir = Some(results_dir);
        server
    }

    /// Run `mudock args…`, which must print a `listening on ADDR` line.
    pub fn start(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("the mudock binary runs");
        // The address comes from the `listening on` line itself, read
        // on a helper thread so a server that never prints it fails the
        // deadline instead of hanging the test.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some((_, addr)) = line.split_once("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                    return;
                }
            }
        });
        let Ok(addr) = rx.recv_timeout(DEADLINE) else {
            let _ = child.kill();
            panic!(
                "`mudock {}` never printed its `listening on` line",
                args.join(" ")
            );
        };
        Server {
            child,
            addr,
            results_dir: None,
        }
    }

    /// Run one client subcommand against this server; its stdout.
    pub fn cli(&self, args: &[&str]) -> String {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(args)
            .args(["--addr", &self.addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the mudock binary runs");
        // Both pipes drain on threads, so a chatty child can never block
        // on a full pipe while this thread waits for it to exit.
        let stdout = drain(child.stdout.take().expect("piped stdout"));
        let stderr = drain(child.stderr.take().expect("piped stderr"));
        let give_up = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for the client") {
                break status;
            }
            if Instant::now() >= give_up {
                let _ = child.kill();
                panic!("`mudock {}` did not finish in {DEADLINE:?}", args.join(" "));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
        assert!(
            status.success(),
            "`mudock {}` exited {status}: {stderr}",
            args.join(" ")
        );
        stdout
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kill the process now (`SIGKILL`), as a crash would.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Send `SIGTERM` and wait up to 5 s for the process to exit; its
    /// exit status, or `None` if it is still running.
    pub fn terminate(&mut self) -> Option<ExitStatus> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Some(status);
        }
        let _ = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status();
        let give_up = Instant::now() + Duration::from_secs(5);
        while Instant::now() < give_up {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    })
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.terminate().is_none() {
            self.kill();
        }
        if let Some(dir) = &self.results_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The value of the first sample line starting with `prefix`.
pub fn sample(metrics: &str, prefix: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` sample in:\n{metrics}"));
    let value = line.rsplit(' ').next().unwrap();
    value
        .parse::<f64>()
        .unwrap_or_else(|_| panic!("bad sample {line:?}")) as u64
}
