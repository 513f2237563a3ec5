//! Smoke: every workload runs a few reps, untraced and traced, with a
//! seed no baseline uses, and prints exactly the metrics that
//! `BENCHMARK.json` declares — every declared name present, with its
//! unit, in order, and no undeclared name.

use bench_ladder::compare::{parse_declared, Declared};
use bench_ladder::report::{parse_metrics, result_json};
use bench_ladder::run::{run, RunArgs};
use bench_ladder::spec::{Workload, END_TO_END, PER_LAYER};

const SEED: u64 = 0xbeef;
/// Long enough for a handful of reps of the slowest workload.
const SECONDS: f64 = 0.4;

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench_ladder sits in the repository root")
        .to_path_buf()
}

fn declared() -> Declared {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    parse_declared(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_declares_what_spec_rs_declares() {
    let d = declared();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(d.workloads, workloads);
    let e2e: Vec<(&str, &str, &str)> = d
        .end_to_end
        .iter()
        .map(|(n, u, b, _)| (n.as_str(), u.as_str(), b.as_str()))
        .collect();
    let spec_e2e: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(e2e, spec_e2e);
    let layers: Vec<(&str, &str, &str)> = d
        .per_layer
        .iter()
        .map(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()))
        .collect();
    let spec_layers: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(layers, spec_layers);
    for (name, _, _, bound) in &d.end_to_end {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
    }
    assert!((1..=60).contains(&d.run_seconds));
}

/// One test for all eight runs: they change the working directory (the
/// benchmark writes under `bench_ladder/target/` of the checkout it is
/// run from) and share the host's two cores.
#[test]
fn every_workload_prints_every_declared_metric() {
    std::env::set_current_dir(repo_root()).expect("the repository root is a directory");
    let d = declared();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let context = format!("{} trace={trace}", workload.name());
            let out = run(RunArgs {
                workload,
                seed: SEED,
                seconds: SECONDS,
                trace,
            })
            .unwrap_or_else(|why| panic!("{context}: {why}"));
            assert!(out.correct, "{context}: {:?}", out.first_failure);
            assert!(out.attempted >= 2 && out.failed == 0, "{context}");

            // What the driver reads back from the printed line.
            let line = result_json(&out).encode();
            let json = mudock_serve::wire::parse(&line).expect("the result line is JSON");
            let printed = parse_metrics(&json).expect("the result line has metrics");
            let want: Vec<(String, String)> = if trace {
                d.per_layer
                    .iter()
                    .map(|(n, u, _)| (n.clone(), u.clone()))
                    .collect()
            } else {
                d.end_to_end
                    .iter()
                    .map(|(n, u, _, _)| (n.clone(), u.clone()))
                    .collect()
            };
            let got: Vec<(String, String)> = printed
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, want, "{context}");
            for (name, value, _) in &printed {
                assert!(value.is_finite(), "{context}: {name} is {value}");
                if !trace {
                    assert!(*value > 0.0, "{context}: {name} is {value}");
                }
            }
            if trace {
                let value = |name: &str| printed.iter().find(|m| m.0 == name).unwrap().1;
                let shares = value("cache.hit_share")
                    + value("cache.reload_share")
                    + value("cache.rebuild_share");
                assert!(
                    (shares - 1.0).abs() < 1e-9,
                    "{context}: cache shares sum to {shares}"
                );
                assert!(value("trace.root_coverage") >= 0.95, "{context}");
                let file = out.trace_file.expect("a traced run writes its spans");
                let spans = std::fs::read_to_string(&file).expect("the trace file is readable");
                assert_eq!(
                    spans.lines().count() as f64,
                    value("trace.spans"),
                    "{context}"
                );
            }
        }
    }
}
