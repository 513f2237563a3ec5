//! Offline grid-cache policy lab: replay a recorded `*.trace` file
//! against alternative replacement policies and compare hit rates.
//!
//! ```text
//! cargo run --release -p mudock-bench --bin cache_replay -- TRACE \
//!     [--capacity N] [--spill-cap N] [--policies lru,slru,...] \
//!     [--live HITS,MISSES,SPILLS,RELOADS] [--assert-default] [--json]
//! ```
//!
//! `TRACE` is a file recorded by a serve node started with
//! `--cache-trace` (every admission, hit, eviction, spill, reload and
//! restore, with timestamps and per-acquisition wall-clock). The
//! replayer drives the recorded access stream through the cache's
//! own `Directory` (`mudock_serve`'s `cache::policy` module) once per
//! row and prints the rows side by side — so "would a protected segment
//! or a larger cache have helped this campaign?" is answered from
//! production evidence, not intuition. A trace of another format
//! version than this binary records is refused by version: version 1
//! was recorded while the spill tier wrote every eviction and pruned
//! its oldest file, version 2 listed accesses in the order their grids
//! were served rather than looked up, and today's directory would replay
//! either to counters the node never had.
//!
//! Swept by default: `slru` (what the node runs) and the what-if row
//! `lru` (protected segment of 0); both run the directory's frequency
//! admission to the spill tier, as the node does. The retired
//! `tinylfu` row (a frequency filter in front of residency) is refused
//! by name.
//! Capacities default to what the trace header recorded (the live
//! node's configuration); `--capacity`/`--spill-cap` ask "what if the
//! node were sized differently" against the same workload.
//!
//! Two assertions make the tool CI-able:
//!
//! * `--live H,M,SP,RL` — the row named by the trace header, at the
//!   recorded sizes, must reproduce the live node's
//!   hits/misses/spills/reloads *exactly* (both sides run the same
//!   directory; any drift is a bug in the glue). Exits 1 on mismatch.
//! * `--assert-default` — the shipped policy's hit rate must be at
//!   least the `lru` what-if row's on this trace, and its rebuilds at
//!   most that row's. Exits 1 if what ships ever regresses the workload
//!   it ships for.

use std::process::ExitCode;

use mudock_serve::cache::directory::POLICY_NAME;
use mudock_serve::cache::trace::TRACE_VERSION;
use mudock_serve::wire::Json;
use mudock_serve::{read_trace, ModelConfig, ModelStats, TraceHeader};

const DEFAULT_POLICIES: &[&str] = &["lru", "slru"];

/// The configuration of the row `name`; a retired row is refused by
/// name, never remapped.
fn row_config(name: &str, capacity: usize, spill_cap: usize) -> Result<ModelConfig, String> {
    if name == "tinylfu" {
        return Err(
            "policy \"tinylfu\" is retired: its frequency test now decides \
             which evictions the spill tier writes, in every row"
                .into(),
        );
    }
    ModelConfig::for_policy(name, capacity, spill_cap)
        .ok_or_else(|| format!("unknown policy {name:?} (lru, slru)"))
}

/// Refuse a trace recorded under other directory rules than this
/// binary replays; a headerless trace cannot tell, and is replayed.
fn check_version(header: Option<&TraceHeader>) -> Result<(), String> {
    match header.map(|h| h.version) {
        Some(v @ (1 | 2)) => Err(format!(
            "trace version {v} was recorded while {}; this replayer would report \
             counters that node never had — record the trace again",
            match v {
                1 => "the spill tier wrote every eviction and pruned its oldest file",
                _ => "accesses were listed as their grids were served, not looked up",
            }
        )),
        Some(v) if v != TRACE_VERSION => Err(format!(
            "trace version {v} is not one this replayer reads (it reads {TRACE_VERSION})"
        )),
        _ => Ok(()),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cache_replay TRACE [--capacity N] [--spill-cap N] \
         [--policies a,b,...] [--live HITS,MISSES,SPILLS,RELOADS] \
         [--assert-default] [--json]"
    );
    std::process::exit(2);
}

struct Row {
    label: String,
    stats: ModelStats,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut capacity: Option<usize> = None;
    let mut spill_cap: Option<usize> = None;
    let mut policies: Vec<String> = DEFAULT_POLICIES.iter().map(|s| s.to_string()).collect();
    let mut live: Option<[u64; 4]> = None;
    let mut assert_default = false;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--capacity" => capacity = it.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--spill-cap" => spill_cap = it.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--policies" => {
                policies = match it.next() {
                    Some(v) => v.split(',').map(|s| s.trim().to_string()).collect(),
                    None => usage(),
                }
            }
            "--live" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let nums: Vec<u64> = spec
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
                match <[u64; 4]>::try_from(nums) {
                    Ok(n) => live = Some(n),
                    Err(_) => usage(),
                }
            }
            "--assert-default" => assert_default = true,
            "--json" => json = true,
            _ if trace_path.is_none() && !a.starts_with("--") => trace_path = Some(a),
            _ => usage(),
        }
    }
    let trace_path = trace_path.unwrap_or_else(|| usage());
    let trace = match read_trace(std::path::Path::new(&trace_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cache_replay: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = trace.header;
    if let Err(e) = check_version(header.as_ref()) {
        eprintln!("cache_replay: {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    let capacity = capacity
        .or(header.as_ref().map(|h| h.capacity))
        .unwrap_or(4);
    let spill_cap = spill_cap
        .or(header.as_ref().map(|h| h.spill_capacity))
        .unwrap_or(0);

    let mut rows: Vec<Row> = Vec::new();
    for name in &policies {
        let cfg = match row_config(name, capacity, spill_cap) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("cache_replay: {e}");
                return ExitCode::FAILURE;
            }
        };
        rows.push(Row {
            label: name.clone(),
            stats: mudock_serve::cache::policy::replay(&trace.events, cfg),
        });
    }

    if json {
        println!(
            "{}",
            report(&trace_path, capacity, spill_cap, &rows).encode()
        );
    } else {
        print_table(&trace_path, capacity, spill_cap, header.as_ref(), &rows);
    }

    let mut failed = false;
    if let Some([hits, misses, spills, reloads]) = live {
        // Compare against the row the header names (`lru` in traces
        // recorded before plain LRU stopped being a live option) at the
        // recorded sizes. Only meaningful at the trace's own capacities.
        let live_policy = header
            .as_ref()
            .map(|h| h.policy.clone())
            .unwrap_or_else(|| POLICY_NAME.to_string());
        let recorded = header.as_ref().map(|h| (h.capacity, h.spill_capacity));
        let (live_capacity, live_spill) = recorded.unwrap_or((capacity, spill_cap));
        let Some(cfg) = ModelConfig::for_policy(&live_policy, live_capacity, live_spill) else {
            eprintln!("cache_replay: trace header names unknown policy {live_policy:?}");
            return ExitCode::FAILURE;
        };
        let m = mudock_serve::cache::policy::replay(&trace.events, cfg);
        let model = [m.hits, m.misses, m.spills, m.reloads];
        if model == [hits, misses, spills, reloads] {
            println!("live parity: model[{live_policy}] == live ({hits} hits, {misses} misses, {spills} spills, {reloads} reloads)");
        } else {
            eprintln!(
                "live parity FAILED: model[{live_policy}] {model:?} != live [{hits}, {misses}, {spills}, {reloads}] (hits, misses, spills, reloads)"
            );
            failed = true;
        }
    }
    if assert_default {
        let default_name = POLICY_NAME;
        let find = |name: &str| rows.iter().find(|r| r.label == name).map(|r| &r.stats);
        match (find(default_name), find("lru")) {
            (Some(d), Some(l)) => {
                let (hits, builds) = (
                    format!("hit rate {:.4} vs {:.4}", d.hit_rate(), l.hit_rate()),
                    format!("rebuilds {} vs {}", d.builds, l.builds),
                );
                if d.hit_rate() + 1e-12 >= l.hit_rate() && d.builds <= l.builds {
                    println!("shipped policy {default_name} vs lru what-if: {hits}, {builds}");
                } else {
                    eprintln!(
                        "shipped policy {default_name} REGRESSES the lru what-if on this trace: {hits}, {builds}"
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!("--assert-default needs both {default_name:?} and \"lru\" in --policies");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_table(
    path: &str,
    capacity: usize,
    spill_cap: usize,
    header: Option<&TraceHeader>,
    rows: &[Row],
) {
    match header {
        Some(h) => println!(
            "trace {path}: recorded by policy={} capacity={} spill={}",
            h.policy, h.capacity, h.spill_capacity
        ),
        None => println!("trace {path}: headerless (partial trace?)"),
    }
    println!("replaying at capacity={capacity} spill-cap={spill_cap}");
    println!(
        "{:<8} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>12}",
        "policy", "accesses", "hits", "hit%", "builds", "reloads", "spills", "est-stall-ms"
    );
    for r in rows {
        let s = &r.stats;
        println!(
            "{:<8} {:>9} {:>7} {:>6.1}% {:>7} {:>8} {:>7} {:>12.2}",
            r.label,
            s.accesses,
            s.hits,
            s.hit_rate() * 100.0,
            s.builds,
            s.reloads,
            s.spills,
            s.stall_ns as f64 / 1e6
        );
    }
}

/// The `--json` report: the replay geometry and one object per row.
fn report(path: &str, capacity: usize, spill_cap: usize, rows: &[Row]) -> Json {
    let row = |r: &Row| {
        let s = &r.stats;
        Json::Obj(vec![
            ("policy".into(), Json::str(&r.label)),
            ("accesses".into(), Json::u64(s.accesses)),
            ("hits".into(), Json::u64(s.hits)),
            ("misses".into(), Json::u64(s.misses)),
            ("hit_rate".into(), Json::f64(s.hit_rate())),
            ("builds".into(), Json::u64(s.builds)),
            ("reloads".into(), Json::u64(s.reloads)),
            ("spills".into(), Json::u64(s.spills)),
            ("evictions".into(), Json::u64(s.evictions)),
            ("spill_drops".into(), Json::u64(s.spill_drops)),
            ("stall_ns".into(), Json::u64(s.stall_ns)),
        ])
    };
    Json::Obj(vec![
        ("trace".into(), Json::str(path)),
        ("capacity".into(), Json::usize(capacity)),
        ("spill_capacity".into(), Json::usize(spill_cap)),
        ("policies".into(), Json::Arr(rows.iter().map(row).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_serve::wire;

    #[test]
    fn the_json_report_parses_for_any_trace_path() {
        let path = "odd \"dir\"\\\nnew\tline.trace";
        let rows = [Row {
            label: "slru".into(),
            stats: ModelStats {
                accesses: 3,
                hits: 1,
                ..ModelStats::default()
            },
        }];
        let text = report(path, 2, 4, &rows).encode();
        let v = wire::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(v.get("trace").and_then(Json::as_str), Some(path));
        let Some(Json::Arr(policies)) = v.get("policies") else {
            panic!("no policies array: {text}");
        };
        assert_eq!(policies[0].get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(policies[0].get("hit_rate"), Some(&Json::f64(1.0 / 3.0)));
    }

    #[test]
    fn the_retired_tinylfu_row_is_refused_by_name() {
        let err = row_config("tinylfu", 2, 2).unwrap_err();
        assert!(err.starts_with("policy \"tinylfu\" is retired"), "{err}");
        let err = row_config("fifo", 2, 2).unwrap_err();
        assert_eq!(err, "unknown policy \"fifo\" (lru, slru)");
        for name in DEFAULT_POLICIES {
            assert_eq!(row_config(name, 2, 2).unwrap().label, *name);
        }
    }

    #[test]
    fn older_traces_are_refused_by_version() {
        let header = |version| TraceHeader {
            version,
            capacity: 2,
            spill_capacity: 2,
            policy: POLICY_NAME.into(),
        };
        for old in [1, 2] {
            let err = check_version(Some(&header(old))).unwrap_err();
            assert!(
                err.starts_with(&format!("trace version {old} was recorded while")),
                "{err}"
            );
        }
        let err = check_version(Some(&header(4))).unwrap_err();
        assert_eq!(
            err,
            "trace version 4 is not one this replayer reads (it reads 3)"
        );
        assert_eq!(check_version(Some(&header(TRACE_VERSION))), Ok(()));
        assert_eq!(
            check_version(None),
            Ok(()),
            "a headerless trace cannot tell"
        );
    }
}
