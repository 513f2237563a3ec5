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
//! `--cache-trace` (every admission, hit, eviction, spill, reload, and
//! router hint, with timestamps and per-acquisition wall-clock). The
//! replayer drives the recorded access/hint stream through the cache's
//! own `Directory` (`mudock_serve`'s `cache::policy` module) once per
//! row and prints the rows side by side — so "would a frequency filter
//! have helped this campaign?" is answered from production evidence,
//! not intuition.
//!
//! Swept by default: `slru` (what the node runs), the what-if rows
//! `lru` (protected segment of 0) and `tinylfu` (frequency admission in
//! front of the directory), and `lru+prefetch` / `slru+prefetch`.
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
//!   least the `lru` what-if row's on this trace. Exits 1 if what ships
//!   ever regresses the workload it ships for.

use std::process::ExitCode;

use mudock_serve::cache::directory::POLICY_NAME;
use mudock_serve::{read_trace, ModelConfig, ModelStats};

const DEFAULT_POLICIES: &[&str] = &["lru", "slru", "tinylfu", "lru+prefetch", "slru+prefetch"];

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
    let capacity = capacity
        .or(header.as_ref().map(|h| h.capacity))
        .unwrap_or(4);
    let spill_cap = spill_cap
        .or(header.as_ref().map(|h| h.spill_capacity))
        .unwrap_or(0);

    let mut rows: Vec<Row> = Vec::new();
    for name in &policies {
        let cfg = match ModelConfig::for_policy(name, capacity, spill_cap) {
            Some(cfg) => cfg,
            None => {
                eprintln!("cache_replay: unknown policy {name:?} (lru, slru, tinylfu, +prefetch)");
                return ExitCode::FAILURE;
            }
        };
        rows.push(Row {
            label: name.clone(),
            stats: mudock_serve::cache::policy::replay(&trace.events, cfg),
        });
    }

    if json {
        print_json(&trace_path, capacity, spill_cap, &rows);
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
                if d.hit_rate() + 1e-12 >= l.hit_rate() {
                    println!(
                        "shipped policy {default_name}: hit rate {:.4} >= lru what-if {:.4}",
                        d.hit_rate(),
                        l.hit_rate()
                    );
                } else {
                    eprintln!(
                        "shipped policy {default_name} REGRESSES the lru what-if on this trace: {:.4} < {:.4}",
                        d.hit_rate(),
                        l.hit_rate()
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
    header: Option<&mudock_serve::TraceHeader>,
    rows: &[Row],
) {
    match header {
        Some(h) => println!(
            "trace {path}: recorded by policy={} capacity={} spill={} prefetch={}",
            h.policy, h.capacity, h.spill_capacity, h.prefetch
        ),
        None => println!("trace {path}: headerless (partial trace?)"),
    }
    println!("replaying at capacity={capacity} spill-cap={spill_cap}");
    println!(
        "{:<14} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>10} {:>12}",
        "policy",
        "accesses",
        "hits",
        "hit%",
        "builds",
        "reloads",
        "spills",
        "prefetches",
        "est-stall-ms"
    );
    for r in rows {
        let s = &r.stats;
        println!(
            "{:<14} {:>9} {:>7} {:>6.1}% {:>7} {:>8} {:>7} {:>10} {:>12.2}",
            r.label,
            s.accesses,
            s.hits,
            s.hit_rate() * 100.0,
            s.builds,
            s.reloads,
            s.spills,
            s.prefetches,
            s.stall_ns as f64 / 1e6
        );
    }
}

fn print_json(path: &str, capacity: usize, spill_cap: usize, rows: &[Row]) {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"trace\":\"{}\",\"capacity\":{capacity},\"spill_capacity\":{spill_cap},\"policies\":[",
        path.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &r.stats;
        out.push_str(&format!(
            "{{\"policy\":\"{}\",\"accesses\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\"builds\":{},\"reloads\":{},\"spills\":{},\"evictions\":{},\"spill_drops\":{},\"prefetches\":{},\"stall_ns\":{}}}",
            r.label,
            s.accesses,
            s.hits,
            s.misses,
            s.hit_rate(),
            s.builds,
            s.reloads,
            s.spills,
            s.evictions,
            s.spill_drops,
            s.prefetches,
            s.stall_ns
        ));
    }
    out.push_str("]}");
    println!("{out}");
}
