//! A Doligez–Leroy–Gonthier / Manticore-style baseline: per-worker local heaps, a
//! shared global heap, and eager promotion of data that escapes a local heap.
//!
//! The policy modelled here (see §6 of the paper and DESIGN.md):
//!
//! * ordinary allocation goes to the allocating *worker's* local heap;
//! * storing a pointer into an object that lives in the global heap first promotes the
//!   pointee — and everything reachable from it — into the global heap (the DLG
//!   invariant forbids global→local pointers);
//! * tasks created by a *steal* allocate directly in the global heap, modelling
//!   Manticore's promotion of data communicated between processors (task results,
//!   scheduler cells). The volume of such allocation is reported as promotion volume,
//!   which is what the paper's §4.4 measurement ("manticore promoted nearly 340 MB of
//!   data on `map`") compares against.
//! * collection is stop-the-world over all heaps (a simplification — Manticore collects
//!   local heaps independently — that does not affect the promotion-cost comparison this
//!   baseline exists for; the paper does not report Manticore GC percentages either).

use crate::common::{
    baseline_stats, par_semispace_collect, resolve_tracked, FlatHeap, QuiescentHorizon,
    RootRegistry, OWNER_GLOBAL,
};
use hh_api::{Counters, ParCtx, RunStats, Runtime};
use hh_objmodel::{ChunkStore, Header, ObjKind, ObjPtr};
use hh_sched::{Pool, Safepoints, Worker};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) struct DlgInner {
    pub(crate) store: Arc<ChunkStore>,
    pub(crate) global: FlatHeap,
    pub(crate) locals: Vec<FlatHeap>,
    pub(crate) roots: RootRegistry,
    pub(crate) safepoints: Arc<Safepoints>,
    pub(crate) pool: Pool,
    pub(crate) counters: Counters,
    pub(crate) horizon: QuiescentHorizon,
    pub(crate) promote_lock: Mutex<()>,
    pub(crate) gc_threshold_words: usize,
    pub(crate) enable_gc: bool,
}

/// The DLG / Manticore-style baseline runtime.
pub struct DlgRuntime {
    inner: Arc<DlgInner>,
}

impl DlgRuntime {
    /// Creates a runtime with `n_workers` workers and default memory parameters.
    pub fn with_workers(n_workers: usize) -> DlgRuntime {
        Self::with_params(n_workers, 8 * 1024, 4 * 1024 * 1024, true)
    }

    /// Creates a runtime with explicit chunk size and GC threshold (in words).
    pub fn with_params(
        n_workers: usize,
        chunk_words: usize,
        gc_threshold_words: usize,
        enable_gc: bool,
    ) -> DlgRuntime {
        let n = n_workers.max(1);
        let store = Arc::new(ChunkStore::new(chunk_words));
        let global = FlatHeap::new(Arc::clone(&store), OWNER_GLOBAL, n);
        let locals = (0..n)
            .map(|w| FlatHeap::new(Arc::clone(&store), w as u32, 1))
            .collect();
        let safepoints = Arc::new(Safepoints::new());
        for _ in 0..n {
            safepoints.register();
        }
        let pool = Pool::new(n);
        {
            let sp = Arc::clone(&safepoints);
            pool.set_idle_hook(move |_| sp.poll());
        }
        // Parking interplay: see `StwRuntime::with_params` — a requested collection
        // wakes pool-parked workers so they reach the safepoint promptly.
        {
            let waker = pool.waker();
            safepoints.set_wake_hook(move || waker.wake_all());
        }
        DlgRuntime {
            inner: Arc::new(DlgInner {
                store,
                global,
                locals,
                roots: RootRegistry::new(),
                safepoints,
                pool,
                counters: Counters::default(),
                horizon: QuiescentHorizon::new(),
                promote_lock: Mutex::new(()),
                gc_threshold_words,
                enable_gc,
            }),
        }
    }
}

impl DlgInner {
    fn total_allocated_words(&self) -> usize {
        self.global.allocated_words()
            + self
                .locals
                .iter()
                .map(|h| h.allocated_words())
                .sum::<usize>()
    }

    fn is_global(&self, obj: ObjPtr) -> bool {
        self.store.chunk_owner(obj) == OWNER_GLOBAL
    }

    /// Transitively copies `root` into the global heap, installing forwarding pointers,
    /// and returns the address of the global copy. Serialized by `promote_lock`.
    fn promote_to_global(&self, lane: usize, root: ObjPtr) -> ObjPtr {
        if root.is_null() {
            return ObjPtr::NULL;
        }
        let _guard = self.promote_lock.lock();
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        let store = &self.store;
        let mut pending: Vec<ObjPtr> = Vec::new();

        let forward = |cur_in: ObjPtr, pending: &mut Vec<ObjPtr>, this: &DlgInner| -> ObjPtr {
            if cur_in.is_null() {
                return ObjPtr::NULL;
            }
            let mut cur = cur_in;
            loop {
                if this.is_global(cur) {
                    return cur;
                }
                let v = store.view(cur);
                if v.has_fwd() {
                    cur = v.fwd();
                    continue;
                }
                let header = v.header();
                let copy = this.global.alloc(lane, header);
                let cv = store.view(copy);
                v.set_fwd(copy);
                for f in 0..header.n_fields() {
                    cv.set_field(f, v.field(f));
                }
                this.counters
                    .promoted_objects
                    .fetch_add(1, Ordering::Relaxed);
                this.counters
                    .promoted_words
                    .fetch_add(header.size_words() as u64, Ordering::Relaxed);
                pending.push(copy);
                return copy;
            }
        };

        let result = forward(root, &mut pending, self);
        while let Some(copy) = pending.pop() {
            let v = store.view(copy);
            for f in 0..v.n_ptr() {
                let old = v.field_ptr(f);
                let new = forward(old, &mut pending, self);
                v.set_field_ptr(f, new);
            }
        }
        result
    }

    fn safepoint_and_maybe_collect(&self) {
        self.safepoints.poll();
        if !self.enable_gc || self.total_allocated_words() < self.gc_threshold_words {
            return;
        }
        let collected = self.safepoints.stop_the_world(|| {
            if self.total_allocated_words() < self.gc_threshold_words {
                return;
            }
            let start = Instant::now();
            let mut zone = self.global.chunks();
            for local in &self.locals {
                zone.extend(local.chunks());
            }
            // GC v2: draft the safepoint-parked workers into the collection team
            // (same parallel evacuation as the hierarchical and STW collectors).
            let helpers = self.pool.n_workers().saturating_sub(1);
            let outcome = par_semispace_collect(
                &self.store,
                OWNER_GLOBAL,
                &zone,
                &self.roots,
                &mut [],
                Some((&self.safepoints, helpers)),
            );
            // Survivors all land in the global heap; local heaps restart empty.
            self.global
                .replace_chunks(outcome.new_chunks, outcome.occupied_words);
            for local in &self.locals {
                local.replace_chunks(Vec::new(), 0);
            }
            self.counters.record_collection(
                outcome.copied_words as u64,
                outcome.steal_blocks,
                helpers > 0,
                false,
            );
            let pause = start.elapsed();
            self.counters.add_gc_time(pause);
            self.counters.record_gc_pause(pause);
        });
        if collected {
            self.counters.world_stops.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-task context of the DLG baseline.
pub struct DlgCtx {
    inner: Arc<DlgInner>,
    worker: Worker,
    /// True if this task was obtained by a steal: its allocations go to the global heap
    /// (modelling promotion of communicated data).
    stolen: bool,
    root_id: u64,
    roots: Arc<Mutex<Vec<ObjPtr>>>,
}

impl DlgCtx {
    fn new(inner: Arc<DlgInner>, worker: Worker, stolen: bool) -> DlgCtx {
        let (root_id, roots) = inner.roots.register();
        DlgCtx {
            inner,
            worker,
            stolen,
            root_id,
            roots,
        }
    }
}

impl Drop for DlgCtx {
    fn drop(&mut self) {
        self.inner.roots.unregister(self.root_id);
    }
}

impl ParCtx for DlgCtx {
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        self.inner.safepoint_and_maybe_collect();
        let header = Header::new(n_ptr + n_nonptr, n_ptr, kind);
        let words = header.size_words() as u64;
        self.inner
            .counters
            .allocated_words
            .fetch_add(words, Ordering::Relaxed);
        let lane = self.worker.index();
        if self.stolen {
            // Communicated-task allocation: counts as promotion volume.
            self.inner
                .counters
                .promoted_words
                .fetch_add(words, Ordering::Relaxed);
            self.inner
                .counters
                .promoted_objects
                .fetch_add(1, Ordering::Relaxed);
            self.inner.global.alloc(lane, header)
        } else {
            self.inner.locals[lane].alloc(0, header)
        }
    }

    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
        self.inner.store.view(obj).field(field)
    }

    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
        self.inner.safepoints.poll();
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).field(field)
    }

    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
        self.inner.safepoints.poll();
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).set_field(field, val);
    }

    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
        self.inner.safepoints.poll();
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        let mut ptr = ptr;
        if !ptr.is_null() {
            ptr = resolve_tracked(&self.inner.store, &self.inner.counters, ptr);
            // The DLG invariant: no pointers from the global heap into a local heap.
            if self.inner.is_global(obj) && !self.inner.is_global(ptr) {
                ptr = self.inner.promote_to_global(self.worker.index(), ptr);
            }
        }
        self.inner.store.view(obj).set_field(field, ptr.to_bits());
    }

    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.inner.safepoints.poll();
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).cas_field(field, expected, new)
    }

    fn obj_len(&self, obj: ObjPtr) -> usize {
        self.inner.store.view(obj).n_fields()
    }

    // Bulk operations (ParCtx v2): shared bodies in `common` — one safepoint poll and
    // one forwarding resolution per operand (scalar-equivalent under concurrent
    // promotion; see `common`).

    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        crate::common::bulk_read_imm(&self.inner.store, &self.inner.counters, obj, start, out);
    }

    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        crate::common::bulk_read_mut(
            &self.inner.store,
            &self.inner.counters,
            Some(&self.inner.safepoints),
            obj,
            start,
            out,
        );
    }

    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        crate::common::bulk_write_nonptr(
            &self.inner.store,
            &self.inner.counters,
            Some(&self.inner.safepoints),
            obj,
            start,
            vals,
        );
    }

    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        crate::common::bulk_fill_nonptr(
            &self.inner.store,
            &self.inner.counters,
            Some(&self.inner.safepoints),
            obj,
            start,
            len,
            val,
        );
    }

    fn copy_nonptr(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        crate::common::bulk_copy_nonptr(
            &self.inner.store,
            &self.inner.counters,
            Some(&self.inner.safepoints),
            src,
            src_start,
            dst,
            dst_start,
            len,
        );
    }

    fn join<RA, RB, FA, FB>(&self, fa: FA, fb: FB) -> (RA, RB)
    where
        FA: FnOnce(&Self) -> RA + Send,
        FB: FnOnce(&Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.inner.safepoints.poll();
        let inner_a = Arc::clone(&self.inner);
        let inner_b = Arc::clone(&self.inner);
        self.worker.join_context(
            move || {
                let worker = Worker::current_in(&inner_a.pool)
                    .expect("task branch must execute on a pool worker");
                // The left branch always runs inline on the parent's worker.
                let ctx = DlgCtx::new(inner_a, worker, false);
                fa(&ctx)
            },
            // The scheduler's per-fork steal flag replaces the old worker-index
            // comparison: a stolen right branch models a task communicated between
            // processors, whose allocations Manticore promotes to the global heap.
            move |stolen| {
                let worker = Worker::current_in(&inner_b.pool)
                    .expect("task branch must execute on a pool worker");
                let ctx = DlgCtx::new(inner_b, worker, stolen);
                fb(&ctx)
            },
        )
    }

    fn pin(&self, obj: ObjPtr) {
        self.roots.lock().push(obj);
    }

    fn unpin(&self, obj: ObjPtr) {
        let mut roots = self.roots.lock();
        if let Some(pos) = roots.iter().rposition(|r| *r == obj) {
            roots.swap_remove(pos);
            return;
        }
        // A collection or promotion (DLG's promote-on-communication) between pin
        // and unpin rewrote the pin slot in place, and path compression can
        // shortcut either pointer past the other's hop. Forwarding is confluent,
        // so compare resolved masters rather than raw pointers to keep pin/unpin
        // balanced across collections.
        if obj.is_null() {
            return;
        }
        let master = crate::common::resolve(&self.inner.store, obj);
        if let Some(pos) = roots
            .iter()
            .rposition(|r| !r.is_null() && crate::common::resolve(&self.inner.store, *r) == master)
        {
            roots.swap_remove(pos);
        }
    }

    fn maybe_collect(&self) {
        self.inner.safepoint_and_maybe_collect();
    }

    fn n_workers(&self) -> usize {
        self.inner.pool.n_workers()
    }
}

impl Runtime for DlgRuntime {
    type Ctx = DlgCtx;

    fn name(&self) -> &'static str {
        "dlg"
    }

    fn n_workers(&self) -> usize {
        self.inner.pool.n_workers()
    }

    fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        // Completed runs' memory is disposed of and recycled here, at the reuse
        // horizon (see `QuiescentHorizon`); the guard ends the run even if `f` panics out
        // through `Pool::run`.
        let _run = self.inner.horizon.begin(|| {
            self.inner.global.dispose();
            for local in &self.inner.locals {
                local.dispose();
            }
            self.inner.store.reclaim_retired();
        });
        let _store_epoch = crate::common::StoreEpochGuard::begin(&self.inner.store);
        let inner = Arc::clone(&self.inner);
        self.inner.pool.run(move |worker| {
            let ctx = DlgCtx::new(inner, worker.clone(), false);
            f(&ctx)
        })
    }

    fn stats(&self) -> RunStats {
        let inner = &self.inner;
        let heaps = 1 + inner.locals.len() as u64;
        baseline_stats(&inner.counters, &inner.store, heaps, Some(&inner.pool))
    }

    fn reset_stats(&self) {
        self.inner.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_allocation_and_global_write_barrier() {
        let rt = DlgRuntime::with_workers(2);
        let v = rt.run(|ctx| {
            // A ref allocated by the root task lives in a local heap; move it to the
            // global heap by making it reachable from a global object first.
            let global_cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let payload = c.alloc_ref_data(31);
                    c.write_ptr(global_cell, 0, payload);
                },
                |_| (),
            );
            let p = ctx.read_mut_ptr(global_cell, 0);
            ctx.read_mut(p, 0)
        });
        assert_eq!(v, 31);
    }

    #[test]
    fn writes_into_global_objects_promote_transitively() {
        let rt = DlgRuntime::with_workers(1);
        rt.run(|ctx| {
            // Build a global array by promoting: first allocate locally, then force it
            // global by writing it into an object we make global via stolen allocation…
            // Simpler: allocate a chain locally and write it into a cell that is already
            // global because it was itself promoted.
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let holder = ctx.alloc_ref_ptr(ObjPtr::NULL);
            // Make `holder` global by promoting it through a write into `cell` after
            // `cell` is promoted… to bootstrap, promote `cell` directly:
            let promoted_cell = rt_inner_promote(&rt, cell);
            // Now a write of a local chain into the (global) promoted cell must promote
            // the whole chain.
            let mut chain = ObjPtr::NULL;
            for i in 0..5u64 {
                chain = ctx.alloc_cons(ObjPtr::NULL, chain, i);
            }
            ctx.write_ptr(promoted_cell, 0, chain);
            let mut cur = ctx.read_mut_ptr(promoted_cell, 0);
            let mut count = 0;
            while !cur.is_null() {
                count += 1;
                cur = ctx.read_imm_ptr(cur, 1);
            }
            assert_eq!(count, 5);
            let _ = holder;
        });
        let s = rt.stats();
        assert!(
            s.promoted_objects >= 5,
            "chain must have been promoted, saw {}",
            s.promoted_objects
        );
    }

    // Test helper: reach into the runtime to promote an object to the global heap.
    fn rt_inner_promote(rt: &DlgRuntime, obj: ObjPtr) -> ObjPtr {
        rt.inner.promote_to_global(0, obj)
    }

    #[test]
    fn parallel_reduction_is_correct_and_counts_stolen_allocation() {
        let rt = DlgRuntime::with_workers(4);
        let total = rt.run(|ctx| {
            fn build<C: ParCtx>(c: &C, lo: u64, hi: u64) -> u64 {
                if hi - lo <= 32 {
                    let arr = c.alloc_data_array((hi - lo) as usize);
                    for (k, i) in (lo..hi).enumerate() {
                        c.write_nonptr(arr, k, hh_api::hash64(i) % 1000);
                    }
                    (0..(hi - lo) as usize).map(|k| c.read_mut(arr, k)).sum()
                } else {
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = c.join(|c| build(c, lo, mid), |c| build(c, mid, hi));
                    a + b
                }
            }
            build(ctx, 0, 2048)
        });
        let expected: u64 = (0..2048u64).map(|i| hh_api::hash64(i) % 1000).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn stop_the_world_collection_preserves_pinned_data() {
        let rt = DlgRuntime::with_params(2, 256, 20_000, true);
        rt.run(|ctx| {
            let keep = ctx.alloc_ref_data(9);
            ctx.pin(keep);
            for _ in 0..300 {
                let _g = ctx.alloc_data_array(100);
            }
            assert_eq!(ctx.read_mut(keep, 0), 9);
        });
        assert!(rt.stats().gc_count >= 1);
    }
}
