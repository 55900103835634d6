//! The repo's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--aa]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with every end-to-end metric, or with `--trace 1` every per-layer metric.

mod child;
mod gen;
mod http;
mod load;
mod offline;
mod rng;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{RunResult, Workload, ALL, END_TO_END};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

const USAGE: &str =
    "usage: llmms-benchmark [--workload chat_sse_open|rag_rw_open|saturate_closed|eval_offline] \
                     [--seed N] [--seconds N] [--trace [0|1]] [--aa]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        aa: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).map(String::as_str);
        match flag {
            "--workload" => {
                let name = value.ok_or("--workload needs a name")?;
                args.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
                i += 1;
            }
            "--seed" => {
                args.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = value
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds needs a number in (0, 60]")?;
                i += 1;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match value {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(trace::PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Print the run for a reader on stderr and the result object on stdout.
/// A traced run reports every per-layer metric, 0 where a layer did no work.
fn report(w: Workload, args: &Args, result: &RunResult) {
    let names: Vec<&str> = if args.trace {
        trace::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    eprintln!(
        "== {} seed {} {} s{} — attempted {}, failed {}, {} — steal {:.4}, calibration drift {:+.3}",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace { " (traced)" } else { "" },
        result.attempted,
        result.failed,
        if result.correct { "outputs correct" } else { "OUTPUT CHECK FAILED" },
        result.steal_share,
        result.calib_drift,
    );
    let mut fields = Vec::new();
    for name in names {
        let value = result.metrics.get(name).copied().unwrap_or(0.0);
        let unit = unit_of(name);
        eprintln!("  {name:<36} {value:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for note in &result.notes {
        eprintln!("  note: {note}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        fields.join(",")
    );
}

/// `--aa`: run the workload twice on the same build and compare every
/// end-to-end metric against its bound in `BENCHMARK.json`.
fn run_aa(w: Workload, args: &Args) -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = workloads::run(w, args.seed, args.seconds, false)?;
    let b = workloads::run(w, args.seed, args.seconds, false)?;
    let mut clean = a.correct && b.correct;
    println!("A/A {} seed {} {} s", w.name(), args.seed, args.seconds);
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "first", "second", "worse by", "bound"
    );
    for m in spec["end_to_end"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or(&[])
    {
        let name = m["name"].as_str().unwrap_or("");
        let bound = m["bound"].as_f64().unwrap_or(0.0);
        let (x, y) = (
            a.metrics.get(name).copied().unwrap_or(0.0),
            b.metrics.get(name).copied().unwrap_or(0.0),
        );
        // How much worse the second run is than the first, as a share of
        // the first, in the metric's own direction.
        let gap = if x == 0.0 {
            0.0
        } else if m["better"] == "lower" {
            (y - x) / x
        } else {
            (x - y) / x
        };
        let verdict = if gap.abs() <= bound { "ok" } else { "BREACH" };
        clean &= gap.abs() <= bound;
        println!(
            "{name:<18} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.1}% {verdict}",
            gap * 100.0,
            bound * 100.0
        );
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<Workload> = args.workload.map_or_else(|| ALL.to_vec(), |w| vec![w]);
    let mut clean = true;
    for w in selected {
        let outcome = if args.aa {
            run_aa(w, &args)
        } else {
            workloads::run(w, args.seed, args.seconds, args.trace).map(|result| {
                report(w, &args, &result);
                result.correct && result.failed == 0
            })
        };
        match outcome {
            Ok(ok) => clean &= ok,
            Err(why) => {
                eprintln!("{}: {why}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_and_issue_argument_forms_both_parse() {
        let a = parse_args(&argv(
            "--workload rag_rw_open --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RagRwOpen));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, false));
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        assert!(parse_args(&argv("--trace --seed 3")).unwrap().trace);
        assert!(
            parse_args(&argv("--workload eval_offline --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    /// `BENCHMARK.json` and the code name the same metrics, with the same
    /// units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap_or("").to_owned(),
                    )
                })
                .collect()
        };
        let in_code = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), in_code(&END_TO_END));
        assert_eq!(listed("per_layer"), in_code(&trace::PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<String> = ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, names);
        assert_eq!(spec["run_seconds"], 20);
    }
}
