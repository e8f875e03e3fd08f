//! Wrappers that time the unchanged program from outside: [`Metered`] times each
//! root run (the service time of a request), and [`Traced`] additionally counts
//! and samples every `ParCtx` operation and records spans at every run, `join`
//! and `maybe_collect` boundary.

use hh_api::{ObjKind, ObjPtr, ParCtx, RunCtl, RunError, RunStats, Runtime};
use hh_baselines::SeqRuntime;
use hh_objmodel::StoreStats;
use hh_runtime::HhRuntime;
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runtime-specific checks and gauges the benchmark needs beyond [`Runtime`].
pub trait Audit: Runtime {
    /// The post-run invariant checks: quiescence (chunk conservation, no active
    /// run, disentanglement) and a zero disentanglement-violation count.
    fn audit(&self) -> Result<(), String>;
    /// The chunk store's statistics, for runtimes that expose them.
    fn store_stats(&self) -> Option<StoreStats>;
}

impl Audit for HhRuntime {
    fn audit(&self) -> Result<(), String> {
        hh_server::verify_quiescent(self).map_err(|v| v.reason)?;
        match self.check_disentangled() {
            0 => Ok(()),
            n => Err(format!("{n} disentanglement violations")),
        }
    }
    fn store_stats(&self) -> Option<StoreStats> {
        Some(HhRuntime::store_stats(self))
    }
}

impl Audit for SeqRuntime {
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }
    fn store_stats(&self) -> Option<StoreStats> {
        None
    }
}

/// A runtime whose root runs are timed: two clock reads per run, so it is a
/// measurement, not tracing. A failed run is recorded as `None`.
pub struct Metered<'r, R> {
    inner: &'r R,
    service_ns: Mutex<Vec<Option<u64>>>,
}

impl<'r, R: Audit> Metered<'r, R> {
    pub fn new(inner: &'r R) -> Self {
        Metered {
            inner,
            service_ns: Mutex::new(Vec::new()),
        }
    }

    /// Drains the service times recorded so far.
    pub fn take_service(&self) -> Vec<Option<u64>> {
        std::mem::take(&mut *self.service_ns.lock().expect("service lock poisoned"))
    }
}

impl<R: Audit> Runtime for Metered<'_, R> {
    type Ctx = R::Ctx;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }
    fn run<T: Send, F: FnOnce(&Self::Ctx) -> T + Send>(&self, f: F) -> T {
        self.inner.run(f)
    }
    fn try_run<T: Send, F: FnOnce(&Self::Ctx) -> T + Send>(
        &self,
        ctl: &Arc<RunCtl>,
        f: F,
    ) -> Result<T, RunError> {
        let start = Instant::now();
        let r = self.inner.try_run(ctl, f);
        let ns = start.elapsed().as_nanos() as u64;
        self.service_ns
            .lock()
            .expect("service lock poisoned")
            .push(r.is_ok().then_some(ns));
        r
    }
    fn stats(&self) -> RunStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

impl<R: Audit> Audit for Metered<'_, R> {
    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }
    fn store_stats(&self) -> Option<StoreStats> {
        self.inner.store_stats()
    }
}

/// The operation kinds the tracer counts. `Bulk` covers the five bulk field
/// operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Alloc,
    ReadImm,
    ReadMut,
    WriteNonptr,
    WritePtr,
    Cas,
    Bulk,
    MaybeCollect,
}

impl Op {
    pub const ALL: [Op; 8] = [
        Op::Alloc,
        Op::ReadImm,
        Op::ReadMut,
        Op::WriteNonptr,
        Op::WritePtr,
        Op::Cas,
        Op::Bulk,
        Op::MaybeCollect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Alloc => "alloc",
            Op::ReadImm => "read_imm",
            Op::ReadMut => "read_mut",
            Op::WriteNonptr => "write_nonptr",
            Op::WritePtr => "write_ptr",
            Op::Cas => "cas",
            Op::Bulk => "bulk",
            Op::MaybeCollect => "maybe_collect",
        }
    }
}

const N_OPS: usize = Op::ALL.len();
/// Counter slots per shard: one per op, then allocated fields, then joins.
const ALLOC_WORDS: usize = N_OPS;
const JOINS: usize = N_OPS + 1;
const N_COUNTERS: usize = N_OPS + 2;
/// Most threads that may use tracers at once.
const N_SHARDS: usize = 128;
/// One call in this many of each field operation is timed. Safe points are
/// rarer and may collect, so every one is timed and gets a span.
const SAMPLE_EVERY: u64 = 64;
/// One `join` in this many is timed and gets a span, as does one safe point in
/// this many.
const JOIN_SAMPLE_EVERY: u64 = 16;
/// A safe point at least this long always gets a span.
const LONG_SAFE_POINT_NS: u64 = 20_000;
/// Spans kept per tracer; later spans are counted as dropped.
pub const SPAN_CAPACITY: usize = 50_000;
/// Histogram buckets: 4 linear sub-buckets per power of two up to 2^63 ns.
const HIST_BUCKETS: usize = 256;

#[repr(align(128))]
struct Shard([AtomicU64; N_COUNTERS]);

/// A fixed-size log-linear histogram of sampled durations, with the sum and
/// count of the current pass.
struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 4 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        4 * (e - 1) + ((ns >> (e - 2)) & 3) as usize
    }

    /// The lower bound of bucket `b`.
    fn bucket_floor(b: usize) -> u64 {
        if b < 4 {
            return b as u64;
        }
        let e = b / 4 + 1;
        (4 + (b % 4) as u64) << (e - 2)
    }

    fn record(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub tid: u64,
}

/// Per-thread state: the thread's trace id, the counter shard it alone writes
/// while it lives, and its sampling ticks (one per op, plus one for `join`).
struct Local {
    tid: u64,
    shard: usize,
    ticks: [Cell<u64>; N_OPS + 1],
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
/// Shards of exited threads, reused so no two live threads share a shard.
static FREE_SHARDS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

impl Local {
    fn new() -> Local {
        let reused = FREE_SHARDS.lock().ok().and_then(|mut f| f.pop());
        let shard = reused.unwrap_or_else(|| NEXT_SHARD.fetch_add(1, Relaxed));
        assert!(shard < N_SHARDS, "more than {N_SHARDS} live traced threads");
        Local {
            tid: NEXT_TID.fetch_add(1, Relaxed),
            shard,
            ticks: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut free) = FREE_SHARDS.lock() {
            free.push(self.shard);
        }
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

/// The calling thread's trace id and shard.
fn local() -> (u64, usize) {
    LOCAL.with(|l| (l.tid, l.shard))
}

/// The calling thread's trace id and shard, and whether its `slot`-th sampling
/// tick falls on a sample.
fn tick(slot: usize, every: u64) -> (u64, usize, bool) {
    LOCAL.with(|l| {
        let t = l.ticks[slot].get();
        l.ticks[slot].set(t + 1);
        (l.tid, l.shard, t % every == 0)
    })
}

/// Totals of one traced pass or session, read by [`Tracer::take_totals`].
#[derive(Clone, Debug, Default)]
pub struct OpTotals {
    pub calls: [u64; N_OPS],
    /// Mean sampled duration per op with the empty-span cost subtracted.
    pub ns: [f64; N_OPS],
    pub alloc_words: u64,
    pub joins: u64,
    /// Mean self time and wait time of the sampled joins.
    pub join_self_ns: f64,
    pub join_wait_ns: f64,
    pub quarantine_peak_words: u64,
}

/// Counts, histograms and spans of a traced run. Memory is fixed at creation
/// apart from the span buffer, which is capped at [`SPAN_CAPACITY`].
pub struct Tracer {
    epoch: Instant,
    calib_ns: f64,
    shards: Box<[Shard]>,
    hists: [Hist; N_OPS],
    join_samples: AtomicU64,
    join_self_ns: AtomicU64,
    join_wait_ns: AtomicU64,
    quarantine_peak: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    spans_dropped: AtomicU64,
}

impl Tracer {
    /// A new tracer, leaked so trace contexts can hold it without a lifetime.
    pub fn leak() -> &'static Tracer {
        let epoch = Instant::now();
        // The cost of an empty span: two clock reads with nothing between them.
        let mut empty: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        Box::leak(Box::new(Tracer {
            epoch,
            calib_ns: empty[empty.len() / 2] as f64,
            shards: (0..N_SHARDS)
                .map(|_| Shard(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            hists: std::array::from_fn(|_| Hist::new()),
            join_samples: AtomicU64::new(0),
            join_self_ns: AtomicU64::new(0),
            join_wait_ns: AtomicU64::new(0),
            quarantine_peak: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAPACITY)),
            spans_dropped: AtomicU64::new(0),
        }))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    fn count(&self, shard: usize, slot: usize, n: u64) {
        // Only the thread owning `shard` writes it, so a plain load and store
        // lose no update and avoid a locked read-modify-write per operation.
        let c = &self.shards[shard].0[slot];
        c.store(c.load(Relaxed) + n, Relaxed);
    }

    fn span(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span lock poisoned");
        if spans.len() < SPAN_CAPACITY {
            spans.push(span);
        } else {
            self.spans_dropped.fetch_add(1, Relaxed);
        }
    }

    /// Counts one call of `op` and times it if it falls on a sample.
    #[inline]
    fn op<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        let (_, shard, sampled) = tick(op as usize, SAMPLE_EVERY);
        self.count(shard, op as usize, 1);
        if !sampled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.hists[op as usize].record(start.elapsed().as_nanos() as u64);
        r
    }

    /// Reads and zeroes the counters and op-time sums of the pass just ended.
    pub fn take_totals(&self) -> OpTotals {
        let mut t = OpTotals::default();
        let mut sums = [0u64; N_COUNTERS];
        for shard in self.shards.iter() {
            for (sum, c) in sums.iter_mut().zip(&shard.0) {
                *sum += c.swap(0, Relaxed);
            }
        }
        t.calls.copy_from_slice(&sums[..N_OPS]);
        t.alloc_words = sums[ALLOC_WORDS];
        t.joins = sums[JOINS];
        // The buckets keep the whole run for the trace file; sum and count
        // restart with every pass.
        for (ns, h) in t.ns.iter_mut().zip(&self.hists) {
            let n = h.count.swap(0, Relaxed);
            if n > 0 {
                *ns = (h.sum_ns.swap(0, Relaxed) as f64 / n as f64 - self.calib_ns).max(0.0);
            }
        }
        let joins = self.join_samples.swap(0, Relaxed);
        if joins > 0 {
            t.join_self_ns = self.join_self_ns.swap(0, Relaxed) as f64 / joins as f64;
            t.join_wait_ns = self.join_wait_ns.swap(0, Relaxed) as f64 / joins as f64;
        }
        t.quarantine_peak_words = self.quarantine_peak.swap(0, Relaxed);
        t
    }

    /// Number of spans recorded and dropped so far.
    pub fn span_counts(&self) -> (usize, u64) {
        let n = self.spans.lock().expect("span lock poisoned").len();
        (n, self.spans_dropped.load(Relaxed))
    }

    /// Writes the spans as a Chrome Trace Event file, with the op histograms
    /// (`[bucket floor ns, count]` pairs) under `otherData`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.tid,
                    s.id,
                    s.parent,
                    s.req
                )
            })
            .collect();
        let hists: Vec<String> = Op::ALL
            .iter()
            .zip(&self.hists)
            .map(|(op, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.load(Relaxed) > 0)
                    .map(|(b, c)| format!("[{},{}]", Hist::bucket_floor(b), c.load(Relaxed)))
                    .collect();
                format!("\"{}\":[{}]", op.name(), buckets.join(","))
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!(
                "{{\"traceEvents\":[\n{}\n],\"otherData\":{{\"op_histograms\":{{{}}}}}}}\n",
                events.join(",\n"),
                hists.join(",")
            ),
        )
    }
}

/// A runtime whose every context is a [`TCtx`].
pub struct Traced<'r, R> {
    inner: &'r R,
    tracer: &'static Tracer,
}

impl<'r, R: Audit> Traced<'r, R> {
    pub fn new(inner: &'r R, tracer: &'static Tracer) -> Self {
        Traced { inner, tracer }
    }

    /// Wraps a root run: a span around it, and the store's quarantine gauge
    /// sampled when it ends.
    fn root<T>(&self, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
        let tr = self.tracer;
        let id = tr.new_id();
        let start = tr.now();
        let r = f(id);
        let end = tr.now();
        tr.span(Span {
            name,
            start_ns: start,
            dur_ns: end - start,
            id,
            parent: 0,
            req: id,
            tid: local().0,
        });
        if let Some(s) = self.inner.store_stats() {
            tr.quarantine_peak
                .fetch_max(s.quarantined_words as u64, Relaxed);
        }
        r
    }
}

impl<R: Audit> Runtime for Traced<'_, R> {
    type Ctx = TCtx<R::Ctx>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }
    fn run<T: Send, F: FnOnce(&Self::Ctx) -> T + Send>(&self, f: F) -> T {
        let tr = self.tracer;
        self.root("run", |id| {
            self.inner.run(move |c| f(&TCtx::new(c, tr, id, id)))
        })
    }
    fn try_run<T: Send, F: FnOnce(&Self::Ctx) -> T + Send>(
        &self,
        ctl: &Arc<RunCtl>,
        f: F,
    ) -> Result<T, RunError> {
        let tr = self.tracer;
        self.root("try_run", |id| {
            self.inner
                .try_run(ctl, move |c| f(&TCtx::new(c, tr, id, id)))
        })
    }
    fn stats(&self) -> RunStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

impl<R: Audit> Audit for Traced<'_, R> {
    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }
    fn store_stats(&self) -> Option<StoreStats> {
        self.inner.store_stats()
    }
}

/// A traced task context wrapping the runtime's own context `C`.
///
/// It holds a raw pointer because `ParCtx::join` hands each branch a context
/// borrowed only for the branch's call, while `Self` cannot name that borrow.
/// A `TCtx` is created only by this module, inside the closure that holds the
/// borrow, and handed out only as `&TCtx` for that call. It is neither `Clone`
/// nor `Send`, so it cannot outlive the borrow.
pub struct TCtx<C> {
    inner: *const C,
    tr: &'static Tracer,
    /// Innermost recorded span enclosing this task.
    span: u64,
    /// Root run (request) this task belongs to.
    req: u64,
}

/// When a `join` branch started and ended, and on which thread.
#[derive(Default)]
struct Branch {
    start: AtomicU64,
    end: AtomicU64,
    tid: AtomicU64,
}

impl Branch {
    fn run<T>(&self, tr: &Tracer, f: impl FnOnce() -> T) -> T {
        self.start.store(tr.now(), Relaxed);
        let r = f();
        self.end.store(tr.now(), Relaxed);
        self.tid.store(local().0, Relaxed);
        r
    }

    fn dur(&self) -> u64 {
        self.end.load(Relaxed) - self.start.load(Relaxed)
    }
}

impl<C: ParCtx> TCtx<C> {
    fn new(inner: &C, tr: &'static Tracer, span: u64, req: u64) -> TCtx<C> {
        TCtx {
            inner,
            tr,
            span,
            req,
        }
    }

    #[inline]
    fn c(&self) -> &C {
        // SAFETY: `inner` was created from a `&C` that outlives this `TCtx`: every
        // `TCtx` is built inside the closure the runtime called with that `&C` and
        // is dropped before the closure returns (see the type's docs).
        unsafe { &*self.inner }
    }
}

impl<C: ParCtx> ParCtx for TCtx<C> {
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        self.tr
            .count(local().1, ALLOC_WORDS, (n_ptr + n_nonptr) as u64);
        self.tr
            .op(Op::Alloc, || self.c().alloc(n_ptr, n_nonptr, kind))
    }
    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
        self.tr.op(Op::ReadImm, || self.c().read_imm(obj, field))
    }
    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
        self.tr.op(Op::ReadMut, || self.c().read_mut(obj, field))
    }
    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
        self.tr
            .op(Op::WriteNonptr, || self.c().write_nonptr(obj, field, val))
    }
    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
        self.tr
            .op(Op::WritePtr, || self.c().write_ptr(obj, field, ptr))
    }
    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.tr
            .op(Op::Cas, || self.c().cas_nonptr(obj, field, expected, new))
    }
    fn obj_len(&self, obj: ObjPtr) -> usize {
        self.c().obj_len(obj)
    }

    fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let (tr, req) = (self.tr, self.req);
        let (tid, shard, sampled) = tick(N_OPS, JOIN_SAMPLE_EVERY);
        tr.count(shard, JOINS, 1);
        if !sampled {
            let span = self.span;
            return self.c().join(
                move |c| fa(&TCtx::new(c, tr, span, req)),
                move |c| fb(&TCtx::new(c, tr, span, req)),
            );
        }
        let id = tr.new_id();
        let (a, b) = (Branch::default(), Branch::default());
        let (ra, rb) = (&a, &b);
        let start = tr.now();
        let r = self.c().join(
            move |c| ra.run(tr, || fa(&TCtx::new(c, tr, id, req))),
            move |c| rb.run(tr, || fb(&TCtx::new(c, tr, id, req))),
        );
        let end = tr.now();
        // Self time excludes the branches run on this thread; wait time is what
        // this thread spent after its own branches while a stolen one ran.
        let own: Vec<&Branch> = [&a, &b]
            .into_iter()
            .filter(|br| br.tid.load(Relaxed) == tid)
            .collect();
        let own_end = own
            .iter()
            .map(|br| br.end.load(Relaxed))
            .max()
            .unwrap_or(start);
        let wait = if own.len() < 2 { end - own_end } else { 0 };
        let children: u64 = own.iter().map(|br| br.dur()).sum();
        tr.join_samples.fetch_add(1, Relaxed);
        tr.join_wait_ns.fetch_add(wait, Relaxed);
        tr.join_self_ns
            .fetch_add((end - start).saturating_sub(children + wait), Relaxed);
        tr.span(Span {
            name: "join",
            start_ns: start,
            dur_ns: end - start,
            id,
            parent: self.span,
            req,
            tid,
        });
        r
    }

    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        self.tr
            .op(Op::Bulk, || self.c().read_imm_bulk(obj, start, out))
    }
    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        self.tr
            .op(Op::Bulk, || self.c().read_mut_bulk(obj, start, out))
    }
    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        self.tr
            .op(Op::Bulk, || self.c().write_nonptr_bulk(obj, start, vals))
    }
    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        self.tr
            .op(Op::Bulk, || self.c().fill_nonptr(obj, start, len, val))
    }
    fn copy_nonptr(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        self.tr.op(Op::Bulk, || {
            self.c().copy_nonptr(src, src_start, dst, dst_start, len)
        })
    }

    fn pin(&self, obj: ObjPtr) {
        self.c().pin(obj)
    }
    fn unpin(&self, obj: ObjPtr) {
        self.c().unpin(obj)
    }

    fn maybe_collect(&self) {
        let tr = self.tr;
        let (tid, shard, sampled) = tick(Op::MaybeCollect as usize, JOIN_SAMPLE_EVERY);
        tr.count(shard, Op::MaybeCollect as usize, 1);
        let start = tr.now();
        self.c().maybe_collect();
        let end = tr.now();
        tr.hists[Op::MaybeCollect as usize].record(end - start);
        // Every safe point is timed; it gets a span when sampled or when it
        // was long enough to have collected.
        if !sampled && end - start < LONG_SAFE_POINT_NS {
            return;
        }
        tr.span(Span {
            name: "maybe_collect",
            start_ns: start,
            dur_ns: end - start,
            id: tr.new_id(),
            parent: self.span,
            req: self.req,
            tid,
        });
    }

    fn n_workers(&self) -> usize {
        self.c().n_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_cover_their_floor() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            3,
            4,
            5,
            7,
            8,
            100,
            1_000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let b = Hist::bucket(ns);
            assert!(b >= last && b < HIST_BUCKETS, "ns={ns} b={b}");
            assert!(Hist::bucket_floor(b) <= ns, "ns={ns}");
            assert_eq!(Hist::bucket(Hist::bucket_floor(b)), b, "ns={ns}");
            last = b;
        }
    }
}
