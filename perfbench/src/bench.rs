//! The three workloads: their set-up, timed loop, output checks and metrics.

use crate::kernels::Kernel;
use crate::stats::{median, percentile, supported_percentile, TAIL_SAMPLES};
use crate::wrap::{Audit, Metered, Op, OpTotals, Traced, Tracer};
use hh_api::{hash64, RunCtl, RunStats, Runtime};
use hh_baselines::SeqRuntime;
use hh_runtime::{HhConfig, HhRuntime};
use hh_server::{serve, ServeConfig, ServeReport};
use hh_workloads::ServeWorkloadId;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    PureAlloc,
    MutatePromote,
    ServeGc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PureAlloc,
        Workload::MutatePromote,
        Workload::ServeGc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PureAlloc => "pure-alloc",
            Workload::MutatePromote => "mutate-promote",
            Workload::ServeGc => "serve-gc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one benchmark run is made.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed loop runs; it always completes at least one round.
    pub seconds: f64,
    pub trace: bool,
    /// Problem-size multiplier: 1.0 for the benchmark, a small fraction in tests.
    pub scale: f64,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Pool workers of the parallel runtime.
    pub workers: usize,
}

/// Times set-up this many times and reports the median.
const SETUPS: usize = 3;
/// Service-time samples a run takes at least, so the median has the tail
/// samples it needs.
const MIN_SAMPLES: usize = 2 * TAIL_SAMPLES;

/// One emitted metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Human-readable notes (sample counts, percentiles used).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric; a value that is not finite (a failed operation in a
    /// percentile) fails the run.
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("{name} is {value}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

pub fn run(w: Workload, cfg: &RunCfg) -> Outcome {
    match w {
        Workload::PureAlloc => batch(&Kernel::PURE_ALLOC, cfg),
        Workload::MutatePromote => batch(&Kernel::MUTATE_PROMOTE, cfg),
        Workload::ServeGc => serve_gc(cfg),
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// The chunk store's peak of live words over the runtime's life, in MiB. The
/// serve report's footprint also counts the free pool, whose size depends on
/// timing: 8-13 MiB from run to run against 2.6 MiB of live peak.
fn peak_mib(rt: &HhRuntime) -> f64 {
    rt.store_stats().peak_words as f64 * 8.0 / MIB
}

/// Sets up `n` times, dropping each set-up before making the next; returns the
/// last one and the seconds each took.
fn set_up(n: usize, mut f: impl FnMut() -> Rts) -> (Rts, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut rts = None;
    for _ in 0..n {
        drop(rts.take());
        let start = Instant::now();
        rts = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (rts.expect("at least one set-up"), times)
}

/// Median and highest supported percentile (≤ p99) of `ms`, with a note saying
/// which percentile was used. Failed operations enter as infinitely slow.
fn service(out: &mut Outcome, ms: &mut [f64]) {
    ms.sort_by(f64::total_cmp);
    let p = supported_percentile(ms.len(), 99);
    let (p50, tail) = match p {
        Some(p) => (percentile(ms, 50), percentile(ms, p)),
        None => (median(ms), f64::INFINITY),
    };
    out.notes.push(format!(
        "service_p99_ms is p{} of {} samples",
        p.map_or("-".into(), |p| p.to_string()),
        ms.len()
    ));
    out.push("service_p50_ms", p50, "ms");
    out.push("service_p99_ms", tail, "ms");
}

// ---------------------------------------------------------------------------
// Batch workloads (pure-alloc, mutate-promote).
// ---------------------------------------------------------------------------

/// The three runtimes every workload compares: P workers, 1 worker, and the
/// sequential baseline (the T1-overhead denominator).
struct Rts {
    p: HhRuntime,
    one: HhRuntime,
    seq: SeqRuntime,
}

struct Batch<'a> {
    kernels: &'a [Kernel],
    scale: f64,
    seed: u64,
    /// Expected checksum per kernel: its oracle, else the first SeqRuntime run.
    expect: Vec<Option<u64>>,
}

impl Batch<'_> {
    /// Runs every kernel once on `rt` and checks each result; returns the
    /// kernel times in seconds.
    fn pass<R: Audit>(&mut self, rt: &R, out: &mut Outcome) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.kernels.len());
        for (i, &k) in self.kernels.iter().enumerate() {
            let (scale, seed) = (self.scale, self.seed);
            let r = rt.try_run(&RunCtl::new(), move |ctx| k.run(ctx, scale, seed));
            out.attempted += 1;
            let who = format!("{} on {}/{}", k.name(), rt.name(), rt.n_workers());
            if let Err(e) = rt.audit() {
                out.fail(format!("{who}: {e}"));
            }
            match r {
                Ok((t, sum)) => {
                    let want = *self.expect[i].get_or_insert(sum);
                    if sum != want {
                        out.fail(format!("{who}: checksum {sum:#x} != {want:#x}"));
                    }
                    times.push(t.as_secs_f64());
                }
                Err(e) => {
                    out.fail(format!("{who}: {e:?}"));
                    times.push(f64::INFINITY);
                }
            }
        }
        times
    }

    fn setup(&mut self, cfg: &RunCfg, out: &mut Outcome) -> Rts {
        let rts = Rts {
            p: HhRuntime::new(HhConfig::with_workers(cfg.workers)),
            one: HhRuntime::new(HhConfig::with_workers(1)),
            seq: SeqRuntime::new(),
        };
        // The sequential pass goes first: it fixes the expected checksums.
        self.pass(&rts.seq, out);
        self.pass(&rts.p, out);
        self.pass(&rts.one, out);
        rts
    }
}

/// Per-kernel times of every round, per runtime.
#[derive(Default)]
struct Times {
    p: Vec<Vec<f64>>,
    one: Vec<Vec<f64>>,
    seq: Vec<Vec<f64>>,
}

/// The median over rounds of one round's total time on `num` divided by the
/// same round's total on `den`: both passes of a round see the same host.
fn paired_ratio(num: &[Vec<f64>], den: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(n, d)| n.iter().sum::<f64>() / d.iter().sum::<f64>())
        .collect();
    median(&ratios)
}

/// Each kernel's median time over the passes.
fn kernel_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

fn batch(kernels: &[Kernel], cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut b = Batch {
        kernels,
        scale: cfg.scale,
        seed: cfg.seed,
        expect: kernels
            .iter()
            .map(|k| k.oracle(cfg.scale, cfg.seed))
            .collect(),
    };
    for k in kernels.iter().filter(|k| k.seedless()) {
        out.notes.push(format!("{} is seedless", k.name()));
    }
    let setups = if cfg.trace { 1 } else { SETUPS };
    let (rts, setup) = set_up(setups, || b.setup(cfg, &mut out));

    let mut t = Times::default();
    let mut layers = Layers::default();
    let tracer = Tracer::leak();
    let start = Instant::now();
    loop {
        t.p.push(b.pass(&rts.p, &mut out));
        if cfg.trace {
            let before = layer_before(&rts.p);
            let times = b.pass(&Traced::new(&rts.p, tracer), &mut out);
            layers.add_traced(&rts.p, before, times.iter().sum(), tracer.take_totals());
        }
        let before = cfg.trace.then(|| layer_before(&rts.one));
        t.one.push(b.pass(&rts.one, &mut out));
        if let Some(before) = before {
            layers.add_p1(&rts.one, before);
        }
        t.seq.push(b.pass(&rts.seq, &mut out));
        let samples = t.p.len() * kernels.len();
        if start.elapsed().as_secs_f64() >= cfg.seconds && samples >= MIN_SAMPLES {
            break;
        }
    }
    let (p, one, seq) = (
        kernel_medians(&t.p),
        kernel_medians(&t.one),
        kernel_medians(&t.seq),
    );
    out.notes.push(format!("{} rounds", t.p.len()));
    for (i, k) in kernels.iter().enumerate() {
        out.notes.push(format!(
            "{}: P {:.1} ms, T1 {:.1} ms, seq {:.1} ms",
            k.name(),
            p[i] * 1e3,
            one[i] * 1e3,
            seq[i] * 1e3
        ));
        for (suffix, v) in [("wall_s", p[i]), ("t1_s", one[i]), ("seq_s", seq[i])] {
            layers.add(&format!("workloads.kernel.{}.{suffix}", k.name()), v);
        }
    }
    let (wall, t1): (f64, f64) = (p.iter().sum(), one.iter().sum());
    if cfg.trace {
        layers.finish(&mut out, wall, cfg, tracer);
        return out;
    }
    out.push("setup_s", median(&setup), "s");
    out.push("wall_s", wall, "s");
    out.push("t1_s", t1, "s");
    out.push("t1_overhead", paired_ratio(&t.one, &t.seq), "ratio");
    out.push("throughput_rps", kernels.len() as f64 / wall, "req/s");
    // Each kernel run's time relative to its kernel's median, pooled and scaled
    // back by the mean kernel median: kernels of different lengths would
    // otherwise make the pooled distribution multimodal, and a percentile at a
    // gap between two kernels would jump from run to run.
    let mean = wall / kernels.len() as f64;
    let mut ms: Vec<f64> =
        t.p.iter()
            .flat_map(|pass| pass.iter().zip(&p).map(|(t, m)| t / m * mean * 1e3))
            .collect();
    service(&mut out, &mut ms);
    out.push("peak_mem_mb", peak_mib(&rts.p), "MiB");
    out
}

// ---------------------------------------------------------------------------
// serve-gc.
// ---------------------------------------------------------------------------

/// Requests per session (warm-up sessions included) and request scale, at
/// full benchmark scale.
const SESSION_RUNS: usize = 48;
const REQUEST_SCALE: usize = 100;
/// Low enough that every request collects.
const GC_THRESHOLD_WORDS: usize = 16 * 1024;

fn serve_runtime(workers: usize) -> HhRuntime {
    HhRuntime::new(HhConfig {
        gc_threshold_words: GC_THRESHOLD_WORDS,
        ..HhConfig::incremental(workers)
    })
}

struct Sessions {
    runs: usize,
    scale: usize,
    seed: u64,
    /// Sequential checksum by sorted completed-seed list, so a session whose
    /// requests all completed on several runtimes is recomputed once.
    seq_checksums: BTreeMap<Vec<u64>, (u64, f64)>,
}

impl Sessions {
    fn config(&self, session: u64) -> ServeConfig {
        ServeConfig {
            runs: self.runs,
            clients: 1,
            executors: 2,
            queue_cap: 2,
            seed: hash64(self.seed ^ session.wrapping_mul(0xA24B_AED4_963E_E407)),
            scale: self.scale,
            ..ServeConfig::default()
        }
    }

    /// The checksum of `seeds` recomputed request by request on `seq`, and the
    /// seconds that took.
    fn seq_checksum(&mut self, seq: &SeqRuntime, seeds: &[u64]) -> (u64, f64) {
        let mut key = seeds.to_vec();
        key.sort_unstable();
        let scale = self.scale;
        *self.seq_checksums.entry(key).or_insert_with(|| {
            let start = Instant::now();
            let sum = seeds.iter().fold(0u64, |acc, &s| {
                let w = ServeWorkloadId::from_mix_seed(s);
                acc.wrapping_add(seq.run(move |c| w.run(c, s, scale)))
            });
            (sum, start.elapsed().as_secs_f64())
        })
    }

    /// Runs one session on `rt` and checks it; returns the report and the
    /// sequential time of the same requests.
    fn session<R: Audit>(
        &mut self,
        rt: &R,
        seq: &SeqRuntime,
        cfg: &ServeConfig,
        out: &mut Outcome,
    ) -> (ServeReport, f64) {
        let report = serve(rt, cfg, "epoch-inc");
        let who = format!("serve-gc session on {}/{}", rt.name(), rt.n_workers());
        out.attempted += cfg.runs as u64;
        for _ in 0..report.failed + report.rejected + report.deadline_hits {
            out.fail(format!("{who}: request failed or refused"));
        }
        let (want, seq_s) = self.seq_checksum(seq, &report.completed_seeds);
        let mut broken = Vec::new();
        if report.checksum != want {
            broken.push(format!("checksum {:#x} != {want:#x}", report.checksum));
        }
        if let Err(e) = rt.audit() {
            broken.push(e);
        }
        if !broken.is_empty() {
            // A broken session fails every request it completed.
            for _ in 0..report.runs {
                out.fail(format!("{who}: {}", broken.join("; ")));
            }
        }
        (report, seq_s)
    }

    fn setup(&mut self, workers: usize, out: &mut Outcome) -> Rts {
        // A fresh baseline recomputes the warm-up requests, so it warms too.
        self.seq_checksums.clear();
        let rts = Rts {
            p: serve_runtime(workers),
            one: serve_runtime(1),
            // The baseline keeps its default threshold: its semispace collector
            // copies the whole flat heap, and at 16K words it would take ~15x
            // longer than the requests themselves.
            seq: SeqRuntime::new(),
        };
        let cfg = self.config(u64::MAX);
        self.session(&rts.p, &rts.seq, &cfg, out);
        self.session(&rts.one, &rts.seq, &cfg, out);
        rts
    }
}

fn serve_gc(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Sessions {
        runs: ((SESSION_RUNS as f64 * cfg.scale) as usize).max(4),
        scale: ((REQUEST_SCALE as f64 * cfg.scale) as usize).max(1),
        seed: cfg.seed,
        seq_checksums: BTreeMap::new(),
    };
    let setups = if cfg.trace { 1 } else { SETUPS };
    let (rts, setup) = set_up(setups, || s.setup(cfg.workers, &mut out));

    let metered = Metered::new(&rts.p);
    let (mut wall, mut t1, mut seq) = (Vec::new(), Vec::new(), Vec::new());
    let (mut completed, mut elapsed) = (0u64, 0.0);
    let mut layers = Layers::default();
    let tracer = Tracer::leak();
    let start = Instant::now();
    for session in 0.. {
        let scfg = s.config(session);
        let (r, seq_s) = s.session(&metered, &rts.seq, &scfg, &mut out);
        wall.push(r.elapsed_s);
        seq.push(seq_s);
        completed += r.runs;
        elapsed += r.elapsed_s;
        if cfg.trace {
            metered.take_service();
            let traced_metered = Metered::new(&rts.p);
            let traced = Traced::new(&traced_metered, tracer);
            let before = layer_before(&rts.p);
            let (r, _) = s.session(&traced, &rts.seq, &scfg, &mut out);
            layers.add_traced(&rts.p, before, r.elapsed_s, tracer.take_totals());
            layers.add_server(&r, &traced_metered.take_service());
        }
        let before = cfg.trace.then(|| layer_before(&rts.one));
        let (r, _) = s.session(&rts.one, &rts.seq, &scfg, &mut out);
        t1.push(r.elapsed_s);
        if let Some(before) = before {
            layers.add_p1(&rts.one, before);
        }
        let samples = wall.len() * s.runs;
        if start.elapsed().as_secs_f64() >= cfg.seconds && samples >= MIN_SAMPLES {
            break;
        }
    }
    out.notes
        .push(format!("{} sessions of {} requests", wall.len(), s.runs));
    if cfg.trace {
        layers.finish(&mut out, median(&wall), cfg, tracer);
        return out;
    }
    out.push("setup_s", median(&setup), "s");
    out.push("wall_s", median(&wall), "s");
    out.push("t1_s", median(&t1), "s");
    // A sequential recomputation of 48 requests takes ~0.1 s, too short for a
    // steady per-session ratio: the ratio is taken over the whole run.
    out.push(
        "t1_overhead",
        t1.iter().sum::<f64>() / seq.iter().sum::<f64>(),
        "ratio",
    );
    out.push("throughput_rps", completed as f64 / elapsed, "req/s");
    let mut ms: Vec<f64> = metered
        .take_service()
        .into_iter()
        .map(|ns| ns.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
        .collect();
    service(&mut out, &mut ms);
    out.push("peak_mem_mb", peak_mib(&rts.p), "MiB");
    out
}

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run.
// ---------------------------------------------------------------------------

/// Runtime counters taken before a traced pass: the resettable counters are
/// reset first, so the difference after the pass covers that pass alone for
/// both the resettable and the monotone ones.
fn layer_before<R: Runtime>(rt: &R) -> RunStats {
    rt.reset_stats();
    rt.stats()
}

/// Per-layer values of every traced pass or session, by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, Vec<f64>>,
    traced_wall: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    fn add(&mut self, name: &str, v: f64) {
        self.values.entry(name.to_string()).or_default().push(v);
    }

    fn add_traced(&mut self, rt: &HhRuntime, s0: RunStats, wall: f64, ops: OpTotals) {
        let s1 = rt.stats();
        let d = |f: fn(&RunStats) -> u64| f(&s1).saturating_sub(f(&s0)) as f64;
        self.traced_wall.push(wall);

        let minted = d(|s| s.chunks_created);
        let recycled = d(|s| s.chunks_recycled);
        self.add("objmodel.chunks_minted", minted);
        self.add(
            "objmodel.cache_hit_ratio",
            ratio(d(|s| s.alloc_cache_hits), minted + recycled).min(1.0),
        );
        self.add("objmodel.recycle_ratio", ratio(recycled, recycled + minted));
        self.add(
            "objmodel.quarantine_peak_words",
            ops.quarantine_peak_words as f64,
        );
        self.add("objmodel.epoch_reclaims", d(|s| s.epoch_reclaims));
        self.add("objmodel.peak_live_words", s1.peak_live_words as f64);

        for (i, op) in Op::ALL.iter().enumerate() {
            self.add(
                &format!("runtime.op.{}.calls", op.name()),
                ops.calls[i] as f64,
            );
            self.add(&format!("runtime.op.{}.ns", op.name()), ops.ns[i]);
        }
        let calls = |op: Op| ops.calls[op as usize] as f64;
        self.add("runtime.op.alloc.words", ops.alloc_words as f64);
        self.add(
            "runtime.op.fwd_hops_per_read_mut",
            ratio(d(|s| s.fwd_hops), calls(Op::ReadMut)),
        );

        let promoted_words = d(|s| s.promoted_words);
        self.add("runtime.promote.passes", d(|s| s.promotions));
        self.add("runtime.promote.objects", d(|s| s.promoted_objects));
        self.add("runtime.promote.words", promoted_words);
        self.add(
            "runtime.promote.words_per_write_ptr",
            ratio(promoted_words, calls(Op::WritePtr)),
        );

        let gc_s = s1.gc_time.saturating_sub(s0.gc_time).as_secs_f64();
        let copied = d(|s| s.gc_copied_words);
        self.add("runtime.gc.count", d(|s| s.gc_count));
        self.add("runtime.gc.busy_s", gc_s);
        self.add(
            "runtime.gc.share",
            ratio(gc_s, wall * rt.n_workers() as f64),
        );
        self.add("runtime.gc.copied_words", copied);
        self.add("runtime.gc.ns_per_copied_word", ratio(gc_s * 1e9, copied));
        self.add("runtime.gc.pause_p50_us", s1.gc_pause_p50_ns as f64 / 1e3);
        self.add("runtime.gc.pause_p99_us", s1.gc_pause_p99_ns as f64 / 1e3);
        self.add("runtime.gc.pause_max_us", s1.gc_max_pause_ns as f64 / 1e3);
        self.add("runtime.gc.increments", d(|s| s.gc_increments));
        self.add(
            "runtime.gc.incremental_collections",
            d(|s| s.gc_incremental_collections),
        );
        self.add("runtime.gc.team_steal_blocks", d(|s| s.gc_steal_blocks));

        let steals = d(|s| s.sched_steals);
        let (created, elided) = (d(|s| s.heaps_created), d(|s| s.heaps_elided));
        self.add("sched.join.calls", ops.joins as f64);
        self.add("sched.join.self_ns", ops.join_self_ns);
        self.add("sched.join.wait_ns", ops.join_wait_ns);
        self.add("sched.steals", steals);
        self.add("sched.steal_ratio", ratio(steals, ops.joins as f64));
        self.add("sched.heaps_elided_ratio", ratio(elided, created + elided));
        self.add("sched.parks", d(|s| s.sched_parks));
        self.add("sched.wakes", d(|s| s.sched_wakes));
    }

    /// The promotion and steal counts of a 1-worker pass.
    fn add_p1(&mut self, rt: &HhRuntime, s0: RunStats) {
        let s1 = rt.stats();
        let d = |f: fn(&RunStats) -> u64| f(&s1).saturating_sub(f(&s0)) as f64;
        self.add("runtime.promote.objects_p1", d(|s| s.promoted_objects));
        self.add("sched.steals_p1", d(|s| s.sched_steals));
    }

    fn add_server(&mut self, r: &ServeReport, service_ns: &[Option<u64>]) {
        let svc: Vec<f64> = service_ns
            .iter()
            .map(|ns| ns.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
            .collect();
        let latency_p50 = r.latency.p50_ns as f64 / 1e6;
        self.add("server.latency_p50_ms", latency_p50);
        self.add("server.latency_p99_ms", r.latency.p99_ns as f64 / 1e6);
        let svc_p50 = if svc.is_empty() { 0.0 } else { median(&svc) };
        self.add("server.queue_wait_p50_ms", (latency_p50 - svc_p50).max(0.0));
        self.add("server.completed", r.runs as f64);
        self.add("server.aborted", r.aborted as f64);
        self.add("server.retried", r.retried as f64);
        self.add("server.rejected", r.rejected as f64);
    }

    /// Emits the medians over passes of every per-layer metric (0 for metrics
    /// the workload does not exercise) and writes the trace.
    fn finish(mut self, out: &mut Outcome, untraced_wall: f64, cfg: &RunCfg, tracer: &Tracer) {
        let overhead = median(&self.traced_wall) / untraced_wall;
        self.add("trace.overhead", overhead);
        for (name, unit) in layer_metric_names() {
            let v = self.values.remove(&name).map_or(0.0, |vs| median(&vs));
            out.push(name, v, unit);
        }
        let (kept, dropped) = tracer.span_counts();
        out.notes
            .push(format!("{kept} spans kept, {dropped} dropped"));
        if let Some(path) = &cfg.trace_out {
            match tracer.write_chrome(path) {
                Ok(()) => out
                    .notes
                    .push(format!("trace written to {}", path.display())),
                Err(e) => out.fail(format!("writing {}: {e}", path.display())),
            }
        }
    }
}

/// Every per-layer metric the traced run emits, with its unit.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("objmodel.chunks_minted", "count"),
        ("objmodel.cache_hit_ratio", "ratio"),
        ("objmodel.recycle_ratio", "ratio"),
        ("objmodel.quarantine_peak_words", "words"),
        ("objmodel.epoch_reclaims", "count"),
        ("objmodel.peak_live_words", "words"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .to_vec();
    for op in Op::ALL {
        v.push((format!("runtime.op.{}.calls", op.name()), "count"));
        v.push((format!("runtime.op.{}.ns", op.name()), "ns"));
    }
    let rest: &[(&str, &'static str)] = &[
        ("runtime.op.alloc.words", "words"),
        ("runtime.op.fwd_hops_per_read_mut", "ratio"),
        ("runtime.promote.passes", "count"),
        ("runtime.promote.objects", "count"),
        ("runtime.promote.objects_p1", "count"),
        ("runtime.promote.words", "words"),
        ("runtime.promote.words_per_write_ptr", "ratio"),
        ("runtime.gc.count", "count"),
        ("runtime.gc.busy_s", "s"),
        ("runtime.gc.share", "ratio"),
        ("runtime.gc.copied_words", "words"),
        ("runtime.gc.ns_per_copied_word", "ns"),
        ("runtime.gc.pause_p50_us", "us"),
        ("runtime.gc.pause_p99_us", "us"),
        ("runtime.gc.pause_max_us", "us"),
        ("runtime.gc.increments", "count"),
        ("runtime.gc.incremental_collections", "count"),
        ("runtime.gc.team_steal_blocks", "count"),
        ("sched.join.calls", "count"),
        ("sched.join.self_ns", "ns"),
        ("sched.join.wait_ns", "ns"),
        ("sched.steals", "count"),
        ("sched.steals_p1", "count"),
        ("sched.steal_ratio", "ratio"),
        ("sched.heaps_elided_ratio", "ratio"),
        ("sched.parks", "count"),
        ("sched.wakes", "count"),
        ("server.latency_p50_ms", "ms"),
        ("server.latency_p99_ms", "ms"),
        ("server.queue_wait_p50_ms", "ms"),
        ("server.completed", "count"),
        ("server.aborted", "count"),
        ("server.retried", "count"),
        ("server.rejected", "count"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in Kernel::PURE_ALLOC.iter().chain(&Kernel::MUTATE_PROMOTE) {
        for suffix in ["wall_s", "t1_s", "seq_s"] {
            v.push((format!("workloads.kernel.{}.{suffix}", k.name()), "s"));
        }
    }
    v.push(("trace.overhead".to_string(), "ratio"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Problem-size multiplier of the tests.
    const TINY: f64 = 0.01;

    fn tiny(trace: bool) -> RunCfg {
        RunCfg {
            seed: 11,
            seconds: 0.0,
            trace,
            scale: TINY,
            trace_out: None,
            workers: 2,
        }
    }

    fn tiny_sessions() -> Sessions {
        Sessions {
            runs: 6,
            scale: 2,
            seed: 5,
            seq_checksums: BTreeMap::new(),
        }
    }

    #[test]
    fn traced_and_untraced_checksums_agree() {
        let rt = HhRuntime::with_workers(2);
        let tr = Tracer::leak();
        for k in Kernel::PURE_ALLOC.iter().chain(&Kernel::MUTATE_PROMOTE) {
            let plain = rt.run(|c| k.run(c, TINY, 3).1);
            let traced = Traced::new(&rt, tr).run(|c| k.run(c, TINY, 3).1);
            assert_eq!(plain, traced, "{}", k.name());
        }
        let rt = serve_runtime(2);
        let s = tiny_sessions();
        let cfg = s.config(0);
        let plain = serve(&rt, &cfg, "epoch-inc");
        let traced = serve(&Traced::new(&rt, tr), &cfg, "epoch-inc");
        assert_eq!(plain.runs, cfg.runs as u64);
        assert_eq!(plain.checksum, traced.checksum, "serve-gc");
    }

    /// Op, join and allocated-field counts of one traced 1-worker pass per
    /// workload on a fresh runtime.
    fn p1_counts() -> Vec<(u64, u64, [u64; 8])> {
        let mut counts = Vec::new();
        for kernels in [&Kernel::PURE_ALLOC, &Kernel::MUTATE_PROMOTE] {
            let rt = HhRuntime::with_workers(1);
            let tr = Tracer::leak();
            let traced = Traced::new(&rt, tr);
            for k in kernels {
                traced.run(|c| k.run(c, TINY, 3));
            }
            let t = tr.take_totals();
            counts.push((t.joins, t.alloc_words, t.calls));
        }
        let rt = serve_runtime(1);
        let tr = Tracer::leak();
        let s = tiny_sessions();
        serve(&Traced::new(&rt, tr), &s.config(0), "epoch-inc");
        let t = tr.take_totals();
        counts.push((t.joins, t.alloc_words, t.calls));
        counts
    }

    #[test]
    fn exact_op_counts_repeat_across_identical_single_worker_runs() {
        let (a, b) = (p1_counts(), p1_counts());
        assert_eq!(a, b);
        assert!(a.iter().all(|(joins, words, calls)| *joins > 0
            && *words > 0
            && calls[Op::Alloc as usize] > 0));
    }

    /// `(name, unit)` of every metric a section of `BENCHMARK.json` declares,
    /// read from its one-object-per-line layout.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let mut current = "";
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            for key in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
                if line.starts_with(key) {
                    current = key;
                }
            }
            let field = |k: &str| {
                let rest = &line[line.find(&format!("\"{k}\": \""))? + k.len() + 5..];
                Some(rest[..rest.find('"')?].to_string())
            };
            if current.trim_matches('"') == section {
                if let Some(name) = field("name") {
                    out.push((name, field("unit").unwrap_or_default()));
                }
            }
        }
        out
    }

    #[test]
    fn every_emitted_metric_is_well_named_and_declared() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        for trace in [false, true] {
            let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
            want.sort();
            assert!(!want.is_empty());
            for w in Workload::ALL {
                let out = run(w, &tiny(trace));
                assert_eq!(
                    out.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    out.errors
                );
                assert!(out.attempted > 0);
                let mut got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                for (name, _) in &got {
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{name}"
                    );
                }
                got.sort();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                if !trace {
                    assert!(
                        out.metrics.iter().all(|m| m.value > 0.0),
                        "{:?}",
                        out.metrics
                    );
                }
            }
        }
    }
}
