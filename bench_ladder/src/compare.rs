//! `bench_ladder compare <A> <B>`: two sets of run records, one row
//! per (workload, end-to-end metric) with each side's median and
//! quartiles, the bound, and a verdict.

use std::path::Path;

use mudock_serve::wire::{self, Json};

use crate::report::{field, parse_record, string, whole, Record};
use crate::stats::{quartiles, spread};

/// What `BENCHMARK.json` declares, as far as this crate reads it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
}

fn list<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(v, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("\"{key}\" is not a list")),
    }
}

pub fn parse_declared(json: &str) -> Result<Declared, String> {
    let v = wire::parse(json).map_err(|e| format!("not JSON: {e:?}"))?;
    let metric =
        |m: &Json| Ok::<_, String>((string(m, "name")?, string(m, "unit")?, string(m, "better")?));
    Ok(Declared {
        run_seconds: whole(&v, "run_seconds")?,
        workloads: list(&v, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list(&v, "end_to_end")?
            .iter()
            .map(|m| {
                let (name, unit, better) = metric(m)?;
                let bound = match field(m, "bound")? {
                    Json::Num(n) => n.as_f64().ok_or("a bound that is not a number")?,
                    _ => return Err(format!("{name}: \"bound\" is not a number")),
                };
                Ok((name, unit, better, bound))
            })
            .collect::<Result<_, String>>()?,
        per_layer: list(&v, "per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// Every `*.json` record of a directory, in file-name order.
pub fn read_set(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_record(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own spread is wider than the bound: the runs cannot
    /// tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// First quartile, median, third quartile of each side.
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub runs: (usize, usize),
    pub bound: f64,
    pub verdict: Verdict,
}

/// By how much of A's median B's median is worse (negative: better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "lower" {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, seed)` pairs whose `count.*` metrics were compared,
    /// and the differences found.
    pub counts_compared: usize,
    pub count_differences: Vec<String>,
    /// Records with a failed op, in either set.
    pub failed_runs: usize,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }
}

fn values(set: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric).map(|m| m.1))
        .collect()
}

pub fn compare(a: &[Record], b: &[Record], declared: &Declared) -> Result<Comparison, String> {
    // Like hardware, like threads — the rule `bench_gate` applies to
    // `threads`, extended to the SIMD level.
    for w in &declared.workloads {
        let mut kinds: Vec<(usize, &str)> = a
            .iter()
            .chain(b)
            .filter(|r| &r.workload == w)
            .map(|r| (r.threads, r.simd_level.as_str()))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        if kinds.len() > 1 {
            return Err(format!(
                "{w}: runs differ in threads or SIMD level ({kinds:?}); refusing to compare"
            ));
        }
    }

    let mut rows = Vec::new();
    for w in &declared.workloads {
        for (metric, unit, better, bound) in &declared.end_to_end {
            let (va, vb) = (values(a, w, false, metric), values(b, w, false, metric));
            let (Some(qa), Some(qb)) = (quartiles(&va), quartiles(&vb)) else {
                return Err(format!(
                    "{w} / {metric}: {} and {} runs; each side needs at least two",
                    va.len(),
                    vb.len()
                ));
            };
            let wide = |v: &[f64]| spread(v).is_none_or(|s| s > *bound);
            let verdict = if wide(&va) || wide(&vb) {
                Verdict::Unresolved
            } else if worsening(qa[1], qb[1], better) > *bound {
                Verdict::Regressed
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: w.clone(),
                metric: metric.clone(),
                unit: unit.clone(),
                a: qa,
                b: qb,
                runs: (va.len(), vb.len()),
                bound: *bound,
                verdict,
            });
        }
    }

    // The exact work counters of one (workload, seed) must not differ
    // between any two traced runs, in either set.
    let mut counts_compared = 0;
    let mut count_differences = Vec::new();
    let traced: Vec<&Record> = a.iter().chain(b).filter(|r| r.trace).collect();
    for (i, r) in traced.iter().enumerate() {
        let Some(first) = traced[..i]
            .iter()
            .find(|p| p.workload == r.workload && p.seed == r.seed)
        else {
            continue;
        };
        counts_compared += 1;
        for (name, value, _) in r.metrics.iter().filter(|m| m.0.starts_with("count.")) {
            let before = first.metrics.iter().find(|m| &m.0 == name).map(|m| m.1);
            if before != Some(*value) {
                count_differences.push(format!(
                    "{} seed {}: {name} is {value}, was {before:?}",
                    r.workload, r.seed
                ));
            }
        }
    }

    Ok(Comparison {
        rows,
        counts_compared,
        count_differences,
        failed_runs: a
            .iter()
            .chain(b)
            .filter(|r| r.failed > 0 || !r.correct)
            .count(),
    })
}

/// The table `compare` prints.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<12} {:<24} {:>10} {:>34} {:>34} {:>6}  {}\n",
        "workload",
        "metric",
        "unit",
        "A  q1 / median / q3  (runs)",
        "B  q1 / median / q3  (runs)",
        "bound",
        "verdict"
    );
    for r in &c.rows {
        let side =
            |q: &[f64; 3], n: usize| format!("{:.4} / {:.4} / {:.4} ({n})", q[0], q[1], q[2]);
        out.push_str(&format!(
            "{:<12} {:<24} {:>10} {:>34} {:>34} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.unit,
            side(&r.a, r.runs.0),
            side(&r.b, r.runs.1),
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out.push_str(&format!(
        "count.* metrics: {} repeated (workload, seed) pairs compared, {} differences\n",
        c.counts_compared,
        c.count_differences.len()
    ));
    for d in &c.count_differences {
        out.push_str(&format!("  {d}\n"));
    }
    out.push_str(&format!("runs with a failed op: {}\n", c.failed_runs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Declared {
        Declared {
            run_seconds: 20,
            workloads: vec!["w".into()],
            end_to_end: vec![
                ("rate".into(), "1/s".into(), "higher".into(), 0.10),
                ("cost".into(), "ms".into(), "lower".into(), 0.10),
            ],
            per_layer: vec![],
        }
    }

    fn record(rate: f64, cost: f64) -> Record {
        Record {
            workload: "w".into(),
            seed: 1,
            trace: false,
            threads: 1,
            simd_level: "avx512".into(),
            commit: "c".into(),
            correct: true,
            failed: 0,
            metrics: vec![
                ("rate".into(), rate, "1/s".into()),
                ("cost".into(), cost, "ms".into()),
            ],
        }
    }

    fn set(rates: &[f64], costs: &[f64]) -> Vec<Record> {
        rates
            .iter()
            .zip(costs)
            .map(|(&r, &c)| record(r, c))
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = set(&[100.0, 101.0, 99.0], &[10.0, 10.1, 9.9]);
        // Rate 15 % lower: regressed. Cost 15 % lower: better, within.
        let b = set(&[85.0, 86.0, 84.0], &[8.5, 8.6, 8.4]);
        let c = compare(&a, &b, &declared()).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Regressed);
        assert_eq!(c.rows[1].verdict, Verdict::Within);
        assert!(c.regressed());
        // The same shift inside a spread wider than the bound says
        // nothing.
        let noisy = set(&[70.0, 85.0, 100.0], &[8.5, 8.6, 8.4]);
        let c = compare(&a, &noisy, &declared()).unwrap();
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert!(!c.regressed());
        assert!(render(&c).contains("unresolved"));
    }

    #[test]
    fn unlike_hosts_are_not_compared() {
        let a = set(&[100.0, 101.0], &[10.0, 10.1]);
        let mut b = a.clone();
        b[0].simd_level = "avx2".into();
        assert!(compare(&a, &b, &declared()).is_err());
        let mut b = a.clone();
        b[1].threads = 2;
        assert!(compare(&a, &b, &declared()).is_err());
        assert!(compare(&a, &a[..1], &declared()).is_err());
    }

    #[test]
    fn a_changed_work_counter_is_reported() {
        let traced = |count: f64| Record {
            trace: true,
            metrics: vec![("count.poses_scored".into(), count, "count".into())],
            ..record(0.0, 0.0)
        };
        let mut a = set(&[100.0, 101.0], &[10.0, 10.1]);
        let mut b = a.clone();
        a.push(traced(96000.0));
        b.push(traced(96000.0));
        let c = compare(&a, &b, &declared()).unwrap();
        assert_eq!((c.counts_compared, c.count_differences.len()), (1, 0));
        b.push(traced(96001.0));
        let c = compare(&a, &b, &declared()).unwrap();
        assert_eq!((c.counts_compared, c.count_differences.len()), (2, 1));
    }
}
