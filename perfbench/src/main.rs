//! `perfbench`: the repository benchmark. Runs one workload for a fixed time
//! and prints its metrics, as one JSON object on the last line of standard
//! output. See `BENCHMARK.json` at the repository root for the workloads and
//! metrics, and `perfbench/run.py` for how it is built and invoked.
//!
//! ```text
//! perfbench --workload <pure-alloc|mutate-promote|serve-gc> --seed N --seconds S
//!           --trace <0|1> [--trace-out FILE]
//! ```
//!
//! Exit status: 0 when every output check passed, 1 when one failed, 2 on a
//! usage error.

mod bench;
mod kernels;
mod stats;
mod wrap;

use bench::{Outcome, RunCfg, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <pure-alloc|mutate-promote|serve-gc> --seed N \
         --seconds S --trace <0|1> [--trace-out FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u32>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed,
        seconds: f64::from(seconds),
        trace,
        scale: 1.0,
        trace_out,
        workers,
    };
    hh_api::silence_expected_aborts();
    let out = bench::run(w, &cfg);
    report(w, &cfg, &out)
}

/// Prints the human-readable lines, then the JSON result line.
fn report(w: Workload, cfg: &RunCfg, out: &Outcome) -> ExitCode {
    println!(
        "perfbench {} seed={} seconds={} trace={} workers={}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.workers
    );
    for m in &out.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_frac = {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
