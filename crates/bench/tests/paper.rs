//! The `paper` binary's exit codes and CSV output, each case run in a
//! fresh working directory.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty directory for one case.
fn fresh_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mudock-paper-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn paper(cwd: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap()
}

#[test]
fn a_table_writes_its_csv_and_exits_0() {
    let dir = fresh_dir("table1");
    let out = paper(&dir, &["table1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let csv = std::fs::read_to_string(dir.join("results/table1_cpus.csv")).unwrap();
    assert_eq!(
        csv.lines().next(),
        Some("Vendor,CPU,Architecture,Clock(GHz),Cores*,Threads*,VecExt,TDP(W),$/NH,Year")
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("CSV outputs written under results/."));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_csv_that_cannot_be_written_exits_1_naming_the_file() {
    let dir = fresh_dir("blocked");
    std::fs::write(dir.join("results"), "a file, not a directory").unwrap();
    let out = paper(&dir, &["table1"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("table1_cpus.csv"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("CSV outputs written"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_target_exits_2_listing_the_targets() {
    let dir = fresh_dir("unknown");
    let out = paper(&dir, &["fig8"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for target in [
        "table1", "table2", "table3", "table4", "table5", "fig2a", "fig2b", "fig3", "fig4", "fig5",
        "fig6", "fig7", "host", "all",
    ] {
        assert!(stderr.contains(target), "{target} missing from {stderr}");
    }
    assert!(
        !dir.join("results").exists(),
        "nothing runs on a bad target"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
