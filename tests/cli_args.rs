//! CLI argument handling: malformed or invalid campaign values must
//! surface a typed validation message on stderr and exit with code 2
//! (usage error) — never a panic, a silent default, or a generic
//! failure. Runs the real `mudock` binary.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mudock(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mudock"))
        .args(args)
        .output()
        .expect("the mudock binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn invalid_campaign_values_exit_2_with_a_typed_message() {
    // (args, fragment the validation message must contain)
    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--demo", "4", "--top", "0"], "top-k"),
        (&["serve", "--demo", "4", "--chunk", "0"], "chunk"),
        (&["screen", "--demo", "4", "--top", "0"], "top-k"),
        (&["screen", "--demo", "4", "--chunk", "0"], "chunk"),
        (&["dock", "--demo", "--radius", "-3"], "radius"),
        (&["dock", "--demo", "--population", "1"], "population"),
        (&["dock", "--demo", "--generations", "0"], "generations"),
        (&["screen", "--demo", "4", "--stable-window", "0"], "window"),
        (&["screen", "--demo", "4", "--max-evals", "0"], "budget"),
        (&["screen", "--demo", "4", "--chunk", "999999"], "chunk"),
        // Negative/non-finite deadlines must be usage errors, not the
        // Duration::from_secs_f64 panic.
        (&["screen", "--demo", "4", "--deadline-s", "-1"], "deadline"),
        (
            &["screen", "--demo", "4", "--deadline-s", "nan"],
            "deadline",
        ),
        // Finite but beyond what a Duration can hold: still exit 2,
        // never the Duration::from_secs_f64 panic.
        (
            &["screen", "--demo", "4", "--deadline-s", "1e300"],
            "deadline",
        ),
        // Conflicting or orphaned stop flags are rejected, not silently
        // resolved by precedence.
        (
            &[
                "screen",
                "--demo",
                "4",
                "--max-evals",
                "10",
                "--deadline-s",
                "5",
            ],
            "one stop policy",
        ),
        (
            &["screen", "--demo", "4", "--stable-eps", "0.1"],
            "--stable-window",
        ),
        // A retired level's name is refused, never remapped, and the
        // refusal names the portable arm that replaced it.
        (&["dock", "--demo", "--backend", "sse2"], "autovec"),
    ];
    for (args, fragment) in cases {
        let out = mudock(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {}",
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            err.contains("error:") && err.to_lowercase().contains(fragment),
            "{args:?} stderr must mention {fragment:?}: {err}"
        );
    }
}

#[test]
fn malformed_numbers_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--demo", "4", "--top", "abc"], "--top"),
        (&["serve", "--demo", "4", "--chunk", "1.5"], "--chunk"),
        (&["screen", "--demo", "4", "--seed", "0x"], "--seed"),
        (&["screen", "--demo", "nope"], "--demo"),
        (&["dock", "--demo", "--backend", "neon"], "backend"),
        // A flag the subcommand does not read is refused, never dropped:
        // a retired flag, a misspelling, another subcommand's flag.
        (
            &["serve", "--demo", "1", "--cache-prefetch"],
            "--cache-prefetch",
        ),
        (
            &["screen", "--demo", "2", "--popluation", "8"],
            "--popluation",
        ),
        (
            &["screen", "--demo", "2", "--spill-dir", "x"],
            "--spill-dir",
        ),
        (&["poll", "--addr", "127.0.0.1:1", "--top", "3"], "--top"),
        // The retired scheduling knobs: every receptor gets an equal
        // share, and there is nothing left to tune.
        (
            &["serve", "--demo", "1", "--shards", "2"],
            "unknown flag --shards",
        ),
        (
            &[
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--demo",
                "2",
                "--shard-weight",
                "2",
            ],
            "unknown flag --shard-weight",
        ),
        (
            &[
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--demo",
                "2",
                "--single-queue",
            ],
            "unknown flag --single-queue",
        ),
        // The frontend runs one event loop: there is no count to pick.
        (
            &["serve", "--listen", "127.0.0.1:0", "--event-loops", "2"],
            "unknown flag --event-loops",
        ),
        (
            &[
                "coordinator",
                "--listen",
                "127.0.0.1:0",
                "--nodes",
                "127.0.0.1:1",
                "--event-loops",
                "4",
            ],
            "unknown flag --event-loops",
        ),
    ];
    for (args, flag) in cases {
        let out = mudock(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(flag),
            "{args:?} stderr must name {flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn the_retired_backend_variable_is_refused_by_name() {
    // `detect` follows the CPU alone: a leftover pin must not change
    // rankings without a word, whatever its value, and whatever command.
    for (value, args) in [
        ("avx2", &["screen", "--demo", "2"][..]),
        ("", &["help"][..]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(args)
            .env("MUDOCK_BACKEND", value)
            .output()
            .expect("the mudock binary runs");
        assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "nothing runs before the refusal");
        let err = stderr(&out);
        for fragment in ["MUDOCK_BACKEND", "retired", "--backend", "\"fixed\""] {
            assert!(
                err.contains(fragment),
                "stderr must mention {fragment:?}: {err}"
            );
        }
    }
}

#[test]
fn serve_refuses_the_other_modes_flags() {
    // (args, the flag the refusal names). A regression would bind and
    // serve (or dock) instead, so each run has a deadline.
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--backend",
                "avx2",
                "--generations",
                "3",
                "--checkpoint",
                "/nonexistent",
                "--jsonl",
                "/nonexistent",
            ],
            "--backend",
        ),
        (
            &[
                "serve",
                "--demo",
                "2",
                "--jobs",
                "1",
                "--threads",
                "1",
                "--generations",
                "2",
                "--population",
                "4",
                "--max-conns",
                "7",
                "--results",
                "/nonexistent",
                "--idle-s",
                "1",
            ],
            "--max-conns",
        ),
    ];
    for (args, flag) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(*args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the mudock binary runs");
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().expect("wait on mudock").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect mudock's output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("listening on"),
            "{args:?} served: {stdout}"
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}, stderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(flag),
            "{args:?} stderr must name {flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn unknown_commands_and_missing_input_are_usage_errors() {
    let out = mudock(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));

    let out = mudock(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
}

#[test]
fn valid_demo_run_succeeds_quickly() {
    let out = mudock(&[
        "screen",
        "--demo",
        "2",
        "--population",
        "8",
        "--generations",
        "3",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ligands"), "stdout: {stdout}");
}

#[test]
fn network_subcommands_validate_their_flags() {
    // (args, fragment the usage message must contain)
    let cases: &[(&[&str], &str)] = &[
        (&["submit", "--demo", "4"], "--addr"),
        (&["submit", "--addr", "127.0.0.1:1"], "--receptor"),
        (
            &["submit", "--addr", "127.0.0.1:1", "--receptor", "r.pdbqt"],
            "--ligands",
        ),
        (
            &[
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--demo",
                "4",
                "--priority",
                "urgent",
            ],
            "--priority",
        ),
        (
            &[
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--demo",
                "4",
                "--top",
                "0",
            ],
            "top-k",
        ),
        (&["poll", "--addr", "127.0.0.1:1"], "job id"),
        (&["poll", "--addr", "127.0.0.1:1", "seven"], "job id"),
        (&["poll", "3"], "--addr"),
        (&["serve"], "--listen"),
        (&["serve", "--listen"], "ADDR"),
    ];
    for (args, fragment) in cases {
        let out = mudock(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(fragment),
            "{args:?} stderr must mention {fragment:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn unreachable_server_is_a_runtime_error_not_a_panic() {
    // Port 1 on loopback: connection refused. Must exit 1 with a typed
    // message, never a panic or exit 2 (the flags were fine).
    let out = mudock(&["poll", "--addr", "127.0.0.1:1", "3"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("connection failed"),
        "stderr: {}",
        stderr(&out)
    );

    // Boolean flags must not swallow the positional job id: with
    // `--wait` right before `42`, the id still parses and the failure
    // is the unreachable server (exit 1), not a usage error (exit 2).
    let out = mudock(&["poll", "--addr", "127.0.0.1:1", "--wait", "42"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("connection failed"),
        "stderr: {}",
        stderr(&out)
    );

    let out = mudock(&[
        "submit",
        "--addr",
        "127.0.0.1:1",
        "--demo",
        "2",
        "--population",
        "4",
        "--generations",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
}
