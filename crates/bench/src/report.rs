//! Report generators: each function formats one table/figure of the paper
//! (from a shared [`Study`] where it is modelled), prints it, and writes a
//! CSV under `results/`. The `paper` binary calls one per target.

use std::io;

use mudock_archsim::scenario::Point;
use mudock_archsim::{all_archs, all_compilers, compiler, peak, Roofline, Study};
use mudock_simd::SimdLevel;

use crate::fmt;

fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Table I: CPU feature comparison.
pub fn table1() -> io::Result<()> {
    let rows: Vec<Vec<String>> = all_archs()
        .iter()
        .map(|a| {
            vec![
                a.vendor.to_string(),
                a.name.to_string(),
                a.codename.to_string(),
                f(a.max_clock_ghz as f64, 1),
                a.cores_per_socket.to_string(),
                (a.cores_per_socket * a.threads_per_core).to_string(),
                a.vec_ext.to_string(),
                f(a.tdp_w as f64, 0),
                f(a.cost_per_node_hour as f64, 2),
                a.year.to_string(),
            ]
        })
        .collect();
    let headers = [
        "Vendor",
        "CPU",
        "Architecture",
        "Clock(GHz)",
        "Cores*",
        "Threads*",
        "VecExt",
        "TDP(W)",
        "$/NH",
        "Year",
    ];
    println!("TABLE I: Comparison of CPU Features (* per socket)\n");
    println!("{}", fmt::table(&headers, &rows));
    fmt::write_csv("table1_cpus.csv", &headers, &rows)
}

/// Table II: out-of-order resources.
pub fn table2() -> io::Result<()> {
    let rows: Vec<Vec<String>> = all_archs()
        .iter()
        .map(|a| {
            vec![
                a.codename.to_string(),
                format!("{:?}", a.isa),
                a.scalar_regs.to_string(),
                a.vector_regs.to_string(),
                a.vec_exec_bits.to_string(),
                a.vec_pipes.to_string(),
                a.rob.to_string(),
            ]
        })
        .collect();
    let headers = [
        "Microarch",
        "ISA",
        "ScalarReg",
        "VectorReg",
        "VectorALU",
        "VectorPipes",
        "ROB",
    ];
    println!("TABLE II: Comparison of CPUs out-of-order resources\n");
    println!("{}", fmt::table(&headers, &rows));
    fmt::write_csv("table2_ooo.csv", &headers, &rows)
}

/// Table III: compiler versions and flags.
pub fn table3() -> io::Result<()> {
    let rows: Vec<Vec<String>> = all_compilers()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.version.to_string(),
                c.flags_x86.unwrap_or("N/A").to_string(),
                c.flags_arm.unwrap_or("N/A").to_string(),
            ]
        })
        .collect();
    let headers = ["Compiler", "Version", "Flags (x86)", "Flags (ARM)"];
    println!("TABLE III: Compiler versions and flags\n");
    println!("{}", fmt::table(&headers, &rows));
    fmt::write_csv("table3_flags.csv", &headers, &rows)
}

/// Table IV: LLC miss rates, single vs multi-core (Clang).
pub fn table4(study: &Study) -> io::Result<()> {
    let rows: Vec<Vec<String>> = study
        .tables45()
        .iter()
        .map(|r| {
            vec![
                r.arch.clone(),
                format!("{:.2e}", r.llc_miss_single),
                format!("{:.2e}", r.llc_miss_multi),
            ]
        })
        .collect();
    let headers = ["Arch", "Single-core", "Multi-core"];
    println!("TABLE IV (modeled): LLC miss-rate for Clang\n");
    println!("{}", fmt::table(&headers, &rows));
    println!(
        "paper: Grace 1.0e-4→3.4e-4, SPR 2.0e-7→1.0e-5, Genoa 8.7e-5→2.1e-2, A64FX 6.9e-6→7.2e-4\n"
    );
    fmt::write_csv("table4_llc.csv", &headers, &rows)
}

/// Table V: arithmetic intensity, single vs multi-core (Clang).
pub fn table5(study: &Study) -> io::Result<()> {
    let rows: Vec<Vec<String>> = study
        .tables45()
        .iter()
        .map(|r| vec![r.arch.clone(), f(r.ai_single, 0), f(r.ai_multi, 0)])
        .collect();
    let headers = ["Arch", "AI single", "AI multi"];
    println!("TABLE V (modeled): Arithmetic intensity for Clang\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper: Grace 21→9313, SPR 133→12762, Genoa 184→96, A64FX 3700→34\n");
    fmt::write_csv("table5_ai.csv", &headers, &rows)
}

fn figure_bars(
    title: &str,
    csv: &str,
    points: &[Point],
    unit: &str,
    shape: &str,
) -> io::Result<()> {
    let max = points.iter().map(|p| p.value).fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.arch.clone(),
                p.compiler.clone(),
                f(p.value, 3),
                fmt::bar(p.value, max, 44),
            ]
        })
        .collect();
    let headers = ["Arch", "Compiler", unit, ""];
    println!("{title}\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper shape: {shape}\n");
    fmt::write_csv(
        csv,
        &["arch", "compiler", unit],
        &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
    )
}

/// Figure 2a: single-core execution time, reduced dataset.
pub fn fig2a(study: &Study) -> io::Result<()> {
    figure_bars(
        "FIGURE 2a (modeled): single-core execution time, reduced dataset",
        "fig2a_single_core.csv",
        &study.fig2a(),
        "seconds",
        "HWY fastest on SPR; FCC fastest on A64FX; GCC off-scale on A64FX (444 s); Clang best on Grace/Graviton",
    )
}

/// Figure 2b: full-node execution time, MEDIATE-like dataset.
pub fn fig2b(study: &Study) -> io::Result<()> {
    figure_bars(
        "FIGURE 2b (modeled): full-node execution time, MEDIATE-like dataset",
        "fig2b_multi_core.csv",
        &study.fig2b(),
        "seconds",
        "x86 nodes fastest; Graviton comparable to Genoa; A64FX & Grace slower; GCC-on-ARM off-scale",
    )
}

/// Figure 3: vectorization ratio + speedup over the no-vec baseline.
pub fn fig3(study: &Study) -> io::Result<()> {
    let rows: Vec<Vec<String>> = study
        .fig3()
        .iter()
        .map(|p| {
            vec![
                p.arch.clone(),
                p.compiler.clone(),
                f(p.vec_ratio, 2),
                f(p.speedup, 2),
                fmt::bar(p.speedup, 8.0, 32),
            ]
        })
        .collect();
    let headers = ["Arch", "Compiler", "Vect-Ratio", "Speedup", ""];
    println!("FIGURE 3 (modeled): vectorization ratio and speedup vs no-vec\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper shape: ratio ≈ 1 when vectorization succeeds; ≈ 0 for GCC/NVCC on ARM; largest speedups on 512-bit machines, smallest on Genoa\n");
    fmt::write_csv(
        "fig3_vectorization.csv",
        &["arch", "compiler", "vect_ratio", "speedup"],
        &rows.iter().map(|r| r[..4].to_vec()).collect::<Vec<_>>(),
    )
}

/// Figure 4: pipeline stall fraction.
pub fn fig4(study: &Study) -> io::Result<()> {
    figure_bars(
        "FIGURE 4 (modeled): stall fraction of the execution pipeline",
        "fig4_stalls.csv",
        &study.fig4(),
        "stall-frac",
        "≈70 % of A64FX cycles are stalls (small ROB); far less elsewhere",
    )
}

/// The first line of one roofline: its peak, bandwidth and ridge point.
fn roofline_header(name: &str, roof: &Roofline) -> String {
    format!(
        "{name}: peak {:.0} GFLOP/s, bw {:.0} GB/s, ridge AI {:.2}",
        roof.peak_gflops(),
        roof.bw_gbs,
        roof.ridge_ai()
    )
}

/// Print one roofline's header and compute ceilings.
fn print_roofline(name: &str, roof: &Roofline) {
    println!("{}", roofline_header(name, roof));
    for c in &roof.ceilings {
        println!("  ceiling {:<16} {:>10.1} GFLOP/s", c.name, c.gflops);
    }
}

/// Figure 5: rooflines per architecture with kernel points.
pub fn fig5(study: &Study) -> io::Result<()> {
    println!("FIGURE 5 (modeled): rooflines (log-log; series in CSV)\n");
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for plot in study.fig5() {
        print_roofline(&plot.arch, &plot.roofline);
        for (comp, ai, gflops) in &plot.points {
            println!(
                "  kernel  {:<8} AI {:>9.1} FLOP/B  attained {:>8.2} GFLOP/s ({:.0}% of roof)",
                comp,
                ai,
                gflops,
                100.0 * gflops / plot.roofline.attainable(*ai)
            );
            csv_rows.push(vec![
                plot.arch.clone(),
                comp.clone(),
                f(*ai, 2),
                f(*gflops, 3),
            ]);
        }
        println!();
    }
    println!(
        "paper shape: all kernel points sit right of the ridge (compute-bound), Section VIII-b\n"
    );
    fmt::write_csv(
        "fig5_roofline.csv",
        &["arch", "compiler", "ai_flop_per_byte", "gflops"],
        &csv_rows,
    )
}

/// The paper's Figure 6, per architecture, for comparison.
const FIG6_PAPER: &str = "\
paper: grace     gcc=0.50  clang=1.00  hwy=0.76  nvcc=0.43
paper: genoa     gcc=1.00  clang=0.78  hwy=0.93  aocc=0.91
paper: spr       gcc=0.71  clang=0.75  hwy=1.00  icpx=0.85
paper: a64fx     gcc=0.12  clang=0.84  hwy=0.80  fcc=1.00
paper: graviton  gcc=0.49  clang=1.00  hwy=0.73";

/// Figure 6: performance-portability matrix + harmonic means.
pub fn fig6(study: &Study) -> io::Result<()> {
    let m = study.fig6();
    println!("FIGURE 6 (modeled): application performance portability\n");
    let mut rows = Vec::new();
    for (r, arch) in m.archs.iter().enumerate() {
        let mut row = vec![arch.clone()];
        for c in 0..m.compilers.len() {
            row.push(match m.eff[r][c] {
                Some(e) => f(e, 2),
                None => "-".into(),
            });
        }
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["Arch"];
    for c in &m.compilers {
        headers.push(c);
    }
    println!("{}", fmt::table(&headers, &rows));
    let h = m.harmonic_means();
    print!("HarmonicMean  ");
    for (c, v) in m.compilers.iter().zip(&h) {
        print!("{c}={v:.2}  ");
    }
    println!("\npaper: GCC=0.33 Clang=0.86 HWY=0.83, vendor compilers 0.00");
    println!("{FIG6_PAPER}\n");
    fmt::write_csv("fig6_portability.csv", &headers, &rows)
}

/// Figure 7: cost and energy per ligand.
pub fn fig7(study: &Study) -> io::Result<()> {
    let rows: Vec<Vec<String>> = study
        .fig7()
        .iter()
        .map(|p| {
            vec![
                p.arch.clone(),
                p.compiler.clone(),
                format!("{:.3}", p.cost_per_ligand * 1e4),
                f(p.energy_per_ligand, 3),
            ]
        })
        .collect();
    let headers = ["Arch", "Compiler", "Cost (1e-4 $)", "Energy (J)"];
    println!("FIGURE 7 (modeled): cost and energy per evaluated ligand\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper shape: ARM cheapest per ligand (A64FX best value, SPR close); GCC-on-ARM spikes energy; Grace expensive (GPU-inclusive node pricing)\n");
    fmt::write_csv(
        "fig7_cost_energy.csv",
        &["arch", "compiler", "cost_usd", "energy_j"],
        &rows,
    )
}

/// Host ground truth, measured on this machine: seconds per pose of
/// every backend the host runs (the experimental axis the model's
/// compiler profiles rest on), then the same timings on this host's
/// roofline — the paper's Figure 5 method, with its ceilings measured by
/// [`peak`]'s `likwid-bench`-style loops.
pub fn host(n_poses: usize) -> io::Result<()> {
    let wl = crate::HostWorkload::standard(n_poses);
    let timed = wl.backend_comparison();
    let rows: Vec<Vec<String>> = timed
        .iter()
        .map(|(name, secs, speedup)| {
            vec![
                name.clone(),
                format!("{:.2}", secs * 1e6),
                f(*speedup, 2),
                fmt::bar(*speedup, 8.0, 32),
            ]
        })
        .collect();
    let headers = ["Backend", "µs/pose", "Speedup vs reference", ""];
    println!("HOST GROUND TRUTH: pose-scoring backends on this machine\n");
    println!("{}", fmt::table(&headers, &rows));

    let scalar_gflops = peak::peakflops_scalar(3_000_000);
    let lanes = SimdLevel::detect().lanes() as f64;
    let roof = Roofline::new("host", peak::load_bandwidth(64, 3))
        .with_ceiling("sp_scalar", scalar_gflops)
        .with_ceiling("sp_vector+fma", scalar_gflops * lanes);
    let flops = wl.flops_per_pose();
    println!("HOST ROOFLINE (measured): {flops:.0} FLOP/pose counted from archsim::opmix\n");
    print_roofline(&roof.name, &roof);
    for (name, secs, _) in &timed {
        let gflops = flops / secs / 1e9;
        println!(
            "  kernel  {name:<10} attained {gflops:>8.2} GFLOP/s ({:.0}% of peak)",
            100.0 * gflops / roof.peak_gflops()
        );
    }
    println!("\nAI is not measured on this host (no memory counters); the modeled kernels sit right of every ridge (Table V), so their roof is the peak\n");
    fmt::write_csv(
        "host_backends.csv",
        &["backend", "us_per_pose", "speedup"],
        &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
    )
}

/// Sanity: make sure every compiler/arch pair the paper evaluates is
/// covered by the study (the `paper` binary checks it for 19).
pub fn coverage(study: &Study) -> usize {
    let mut n = 0;
    for a in &study.archs {
        for c in &study.compilers {
            if compiler::codegen(c, a).is_some() {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_roofline_header_carries_the_bandwidth() {
        let roof = Roofline::new("spr", 307.0).with_ceiling("sp_avx512+fma", 160.0);
        assert_eq!(
            roofline_header("spr", &roof),
            "spr: peak 160 GFLOP/s, bw 307 GB/s, ridge AI 0.52"
        );
    }
}
