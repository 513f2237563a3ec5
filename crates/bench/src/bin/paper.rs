//! Prints the paper's tables and figures and writes their CSVs under
//! `results/`:
//!
//! ```text
//! cargo run --release -p mudock-bench --bin paper -- [TARGET...]
//! ```
//!
//! Targets are `table1`…`table5`, `fig2a`, `fig2b`, `fig3`…`fig7`,
//! `host`, and `all` (the default: every target in that order). Each is
//! one call into `mudock_bench::report`. Exit 0 when every CSV was
//! written, 1 naming the file that was not, 2 on an unknown target.

use std::io;
use std::process::ExitCode;

use mudock_archsim::Study;
use mudock_bench::report;

/// Every target, in `all`'s order.
const TARGETS: [&str; 13] = [
    "table1", "table2", "table3", "table4", "table5", "fig2a", "fig2b", "fig3", "fig4", "fig5",
    "fig6", "fig7", "host",
];

/// Poses the `host` target times per backend.
const HOST_POSES: usize = 400;

/// Build the cross-architecture study the modelled targets share.
fn study() -> Study {
    println!("Building the cross-architecture study (runs real docking on this host)…\n");
    let study = Study::new();
    assert_eq!(
        report::coverage(&study),
        19,
        "19 (arch, compiler) pairs as in the paper"
    );
    study
}

fn run(target: &str, study: &mut Option<Study>) -> io::Result<()> {
    match target {
        "table1" => report::table1(),
        "table2" => report::table2(),
        "table3" => report::table3(),
        "host" => report::host(HOST_POSES),
        modelled => {
            let study = study.get_or_insert_with(self::study);
            match modelled {
                "table4" => report::table4(study),
                "table5" => report::table5(study),
                "fig2a" => report::fig2a(study),
                "fig2b" => report::fig2b(study),
                "fig3" => report::fig3(study),
                "fig4" => report::fig4(study),
                "fig5" => report::fig5(study),
                "fig6" => report::fig6(study),
                "fig7" => report::fig7(study),
                other => unreachable!("unchecked target {other}"),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !TARGETS.contains(&a.as_str()))
    {
        eprintln!(
            "paper: unknown target `{bad}`; targets: {} all",
            TARGETS.join(" ")
        );
        return ExitCode::from(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let targets: Vec<&str> = if all {
        println!("=== mudock-rs: reproducing every table & figure (CLUSTER 2025) ===\n");
        TARGETS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut study = None;
    for target in targets {
        if let Err(e) = run(target, &mut study) {
            eprintln!("paper: {target}: cannot write {e}");
            return ExitCode::from(1);
        }
    }
    println!("CSV outputs written under results/.");
    ExitCode::SUCCESS
}
