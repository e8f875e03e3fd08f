//! `repro` — regenerate the paper's tables and figures from the command line.
//!
//! ```text
//! repro <experiment> [--scale S] [--procs P] [--grain G] [--json PATH]
//!
//! experiments:
//!   fig8        cost of memory operations
//!   fig9        representative operations per benchmark
//!   fig10       pure benchmarks (times, overheads, speedups, GC%)
//!   fig11       imperative benchmarks
//!   fig12       speedup vs. worker count
//!   fig13       memory consumption and inflation
//!   promotion   promotion volume on `map` (§4.4)
//!   promote     promotion v2: ns/object micro table + workload counters + rate sweep
//!   ablation    fast-path ablation (DESIGN.md A1)
//!   sched       scheduler counters (steals, parks, wakes, heaps elided)
//!   mem         memory lifecycle (peak/live/free words, recycle rates)
//!   gc          GC v3: pause CDF, copied words, team/steal counters (DESIGN.md §9, §11)
//!   adversarial adversarial workloads: wavefront ns/cell, entangle promotion cost (§12)
//!   serve       hh-server: overlapping runs under epoch-watermark reclamation
//!   chaos       seeded fault-injection sweep (DESIGN.md §13); --seeds N picks the
//!               sweep width; exits nonzero when any seed violates an invariant
//!   all         everything above except chaos
//! ```
//!
//! `--json PATH` (the `gc` and `adversarial` experiments) appends one JSON
//! line per benchmark × runtime with the headline metrics — the
//! machine-readable artifact (`BENCH_pr8.json`) the CI bench gate diffs across
//! PRs. `chaos` appends one line per *dirty* seed (also to `$HH_VIOLATION_JSON`
//! when set) so CI archives the replay seed.

use hh_harness::experiments::{
    ablation_fastpath, adversarial_report, fig10, fig11, fig12, fig13, fig8, fig9, gc_pause_report,
    mem_lifecycle, promote_micro, promote_rate_sweep, promote_workloads, promotion_volume,
    sched_counters, serve_overlap, ExpConfig,
};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig8|fig9|fig10|fig11|fig12|fig13|promotion|promote|ablation|sched|mem|gc|adversarial|serve|chaos|all> \
         [--scale S] [--procs P] [--grain G] [--seeds N] [--json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let which = args[0].clone();
    let mut cfg = ExpConfig::default();
    let mut json_path: Option<String> = None;
    let mut chaos_seeds: u64 = 64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--procs" => {
                cfg.procs = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--grain" => {
                cfg.grain = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seeds" => {
                chaos_seeds = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }

    println!(
        "# hierheap repro — scale {:.4} of the paper's sizes, {} workers, grain {}\n",
        cfg.scale, cfg.procs, cfg.grain
    );

    let run = |name: &str| match name {
        "fig8" => println!("{}", fig8(200_000).render()),
        "fig9" => println!("{}", fig9(cfg).render()),
        "fig10" => println!("{}", fig10(cfg).render()),
        "fig11" => println!("{}", fig11(cfg).render()),
        "fig12" => println!("{}", fig12(cfg).render()),
        "fig13" => println!("{}", fig13(cfg).render()),
        "promotion" => println!("{}", promotion_volume(cfg).render()),
        "promote" => {
            println!("{}", promote_micro(cfg).render());
            println!("{}", promote_workloads(cfg).render());
            println!("{}", promote_rate_sweep(cfg).render());
        }
        "ablation" => println!("{}", ablation_fastpath(cfg).render()),
        "sched" => println!("{}", sched_counters(cfg).render()),
        "mem" => println!("{}", mem_lifecycle(cfg).render()),
        "gc" => {
            let (table, json) = gc_pause_report(cfg);
            println!("{}", table.render());
            append_json(&json_path, &json);
        }
        "adversarial" => {
            let (table, json) = adversarial_report(cfg);
            println!("{}", table.render());
            append_json(&json_path, &json);
        }
        "serve" => println!("{}", serve_overlap(cfg, 1000).render()),
        "chaos" => run_chaos(chaos_seeds, cfg.procs, &json_path),
        _ => usage(),
    };

    if which == "all" {
        for name in [
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "promotion",
            "promote",
            "ablation",
            "sched",
            "mem",
            "gc",
            "adversarial",
            "serve",
        ] {
            run(name);
        }
    } else {
        run(&which);
    }
}

/// The chaos lane: sweep `seeds` seeded fault-injection serve experiments and
/// check each one's post-mortem invariants (at least one aborted attempt,
/// quiescent store, no leaked run epoch, checksum-correct survivors). Dirty
/// seeds get one JSON forensics line each — appended to `--json` and to
/// `$HH_VIOLATION_JSON` when set — and a nonzero exit.
fn run_chaos(seeds: u64, workers: usize, json_path: &Option<String>) {
    let ccfg = hh_server::ChaosConfig {
        seeds,
        workers,
        ..hh_server::ChaosConfig::default()
    };
    println!(
        "chaos sweep: {} seeds from {:#x}, {} runs x {} executors per seed, {} workers",
        ccfg.seeds, ccfg.base_seed, ccfg.runs, ccfg.executors, ccfg.workers
    );
    let mut dirty: Vec<String> = Vec::new();
    for (i, out) in hh_server::chaos_sweep(&ccfg).into_iter().enumerate() {
        let verdict = if out.clean() { "clean" } else { "VIOLATION" };
        println!(
            "seed {:#010x}  rate {:>7} ppm  injected {:>4}  aborted {:>3}  retried {:>3}  \
             rescues {:>2}  completed {:>3}/{:<3}  {verdict}",
            out.seed,
            out.rate_ppm,
            out.injected,
            out.report.aborted,
            out.report.retried,
            out.finalize_rescues,
            out.report.runs,
            out.report.requested,
        );
        if !out.clean() {
            let reason = out
                .violation
                .as_ref()
                .map(|v| v.reason.clone())
                .unwrap_or_else(|| {
                    if !out.checksum_ok {
                        "survivor checksum mismatch".to_string()
                    } else {
                        format!("{} leaked run epoch(s)", out.active_runs)
                    }
                });
            dirty.push(format!(
                "{{\"kind\":\"chaos-violation\",\"sweep_index\":{i},\"seed\":{},\"rate_ppm\":{},\
                 \"reason\":{:?},\"active_runs\":{},\"checksum_ok\":{},\"report\":{}}}",
                out.seed,
                out.rate_ppm,
                reason,
                out.active_runs,
                out.checksum_ok,
                out.report.to_json(),
            ));
        }
    }
    if !dirty.is_empty() {
        let mut sinks: Vec<String> = json_path.iter().cloned().collect();
        if let Ok(p) = std::env::var("HH_VIOLATION_JSON") {
            if !p.is_empty() && !sinks.contains(&p) {
                sinks.push(p);
            }
        }
        for line in &dirty {
            eprintln!("{line}");
        }
        for path in sinks {
            append_json(&Some(path), &dirty);
        }
        eprintln!(
            "chaos: {} of {} seeds violated invariants (HH_CHAOS_SEED=<sweep_index> replays one)",
            dirty.len(),
            seeds
        );
        std::process::exit(1);
    }
    println!("chaos: all {seeds} seeds clean");
}

/// Appends JSON lines to `--json PATH` when one was given.
fn append_json(json_path: &Option<String>, json: &[String]) {
    if let Some(path) = json_path {
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
        for line in json {
            writeln!(out, "{line}").expect("writing JSON report");
        }
        println!("wrote {} JSON record(s) to {path}\n", json.len());
    }
}
