//! What a run prints and what `all` stores: the one-line result the
//! driver reads, and the full record (arguments, host, result) that
//! `compare` reads back.

use mudock_serve::wire::{self, Json};

use crate::host::Host;
use crate::run::RunOutput;

fn metrics_json(out: &RunOutput) -> Json {
    Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::f64(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(out: &RunOutput) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::u64(out.attempted)),
        ("failed".into(), Json::u64(out.failed)),
        ("metrics".into(), metrics_json(out)),
    ])
}

pub fn host_json(host: &Host) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::usize(host.nproc)),
        ("threads".into(), Json::usize(host.threads)),
        ("simd_level".into(), Json::str(&host.simd_level)),
        ("cpu_model".into(), Json::str(&host.cpu_model)),
        ("caches".into(), Json::str(&host.caches)),
        ("rustc".into(), Json::str(&host.rustc)),
        ("commit".into(), Json::str(&host.commit)),
    ])
}

/// The full record of a run.
pub fn record_json(out: &RunOutput) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::str(out.args.workload.name())),
        ("seed".into(), Json::u64(out.args.seed)),
        ("seconds".into(), Json::f64(out.args.seconds)),
        ("trace".into(), Json::Bool(out.args.trace)),
        ("host".into(), host_json(&out.host)),
        ("result".into(), result_json(out)),
    ])
}

/// A stored run, as `compare` needs it.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub threads: usize,
    pub simd_level: String,
    pub commit: String,
    pub correct: bool,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("no \"{key}\" member"))
}

pub(crate) fn string(v: &Json, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("\"{key}\" is not a string")),
    }
}

pub(crate) fn whole(v: &Json, key: &str) -> Result<u64, String> {
    match field(v, key)? {
        Json::Num(n) => n
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" is not a whole number")),
        _ => Err(format!("\"{key}\" is not a number")),
    }
}

fn boolean(v: &Json, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("\"{key}\" is not a boolean")),
    }
}

/// `(name, value, unit)` of a result object's `metrics`.
pub fn parse_metrics(result: &Json) -> Result<Vec<(String, f64, String)>, String> {
    let Json::Obj(members) = field(result, "metrics")? else {
        return Err("\"metrics\" is not an object".into());
    };
    members
        .iter()
        .map(|(name, m)| {
            let value = match field(m, "value")? {
                Json::Num(n) => n.as_f64().ok_or("a value that is not a number")?,
                _ => return Err(format!("{name}: \"value\" is not a number")),
            };
            Ok((name.clone(), value, string(m, "unit")?))
        })
        .collect()
}

pub fn parse_record(text: &str) -> Result<Record, String> {
    let v = wire::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    let host = field(&v, "host")?;
    let result = field(&v, "result")?;
    Ok(Record {
        workload: string(&v, "workload")?,
        seed: whole(&v, "seed")?,
        trace: boolean(&v, "trace")?,
        threads: whole(host, "threads")? as usize,
        simd_level: string(host, "simd_level")?,
        commit: string(host, "commit")?,
        correct: boolean(result, "correct")?,
        failed: whole(result, "failed")?,
        metrics: parse_metrics(result)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Metric, RunArgs};
    use crate::spec::Workload;

    fn output() -> RunOutput {
        RunOutput {
            args: RunArgs {
                workload: Workload::ServeHot,
                seed: 18_446_744_073_709_551_557,
                seconds: 2.5,
                trace: false,
            },
            host: Host {
                nproc: 2,
                threads: 2,
                simd_level: "avx512".into(),
                cpu_model: "Some \"CPU\" @ 2.10GHz".into(),
                caches: "48K/2048K/266240K".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
            },
            correct: true,
            attempted: 1234,
            failed: 0,
            first_failure: None,
            metrics: vec![
                Metric {
                    name: "ligands_per_s",
                    value: 701.234_567_891,
                    unit: "ligands/s",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
            trace_file: None,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_json(&output()).encode();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1234,\"failed\":0,\"metrics\":{\
             \"ligands_per_s\":{\"value\":701.234567891,\"unit\":\"ligands/s\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_record_reads_back() {
        let out = output();
        let rec = parse_record(&record_json(&out).encode()).unwrap();
        assert_eq!(rec.workload, "serve_hot");
        assert_eq!(rec.seed, out.args.seed);
        assert_eq!((rec.threads, rec.simd_level.as_str()), (2, "avx512"));
        assert!(rec.correct && !rec.trace);
        assert_eq!(
            rec.metrics,
            vec![
                ("ligands_per_s".into(), 701.234_567_891, "ligands/s".into()),
                ("setup_s".into(), 0.5, "s".into()),
            ]
        );
    }

    #[test]
    fn a_truncated_record_is_refused() {
        assert!(parse_record("{\"workload\":\"serve_hot\"}").is_err());
        assert!(parse_record("not json").is_err());
    }
}
