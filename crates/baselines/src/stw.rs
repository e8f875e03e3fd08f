//! The `mlton-spoonhower` baseline: parallel fork/join execution and parallel
//! allocation, but *sequential, stop-the-world* garbage collection.
//!
//! All workers allocate into one shared global heap through per-worker allocation lanes.
//! When the heap exceeds its threshold, the allocating worker requests a collection
//! through [`Safepoints`]: every other worker parks at its next safe point (allocations,
//! mutable accesses, fork/join boundaries, and the scheduler's idle / help loops all
//! poll), and a single thread performs a semispace collection of the whole heap while
//! the world is stopped. This reproduces the property the paper's speedup comparison
//! hinges on: GC work is serialized and every processor pays for it.

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

pub(crate) struct StwInner {
    pub(crate) store: Arc<ChunkStore>,
    pub(crate) heap: FlatHeap,
    pub(crate) roots: RootRegistry,
    pub(crate) safepoints: Arc<Safepoints>,
    pub(crate) pool: Pool,
    pub(crate) counters: Counters,
    pub(crate) horizon: QuiescentHorizon,
    pub(crate) gc_threshold_words: usize,
    pub(crate) enable_gc: bool,
}

/// The stop-the-world parallel baseline runtime.
pub struct StwRuntime {
    inner: Arc<StwInner>,
}

impl StwRuntime {
    /// Creates a runtime with `n_workers` workers and default memory parameters.
    pub fn with_workers(n_workers: usize) -> StwRuntime {
        Self::with_params(n_workers, 8 * 1024, 4 * 1024 * 1024, true)
    }

    /// Creates a runtime with explicit chunk size and GC threshold (in words).
    pub fn with_params(
        n_workers: usize,
        chunk_words: usize,
        gc_threshold_words: usize,
        enable_gc: bool,
    ) -> StwRuntime {
        let store = Arc::new(ChunkStore::new(chunk_words));
        let heap = FlatHeap::new(Arc::clone(&store), OWNER_GLOBAL, n_workers.max(1));
        let safepoints = Arc::new(Safepoints::new());
        // Every worker participates in the safepoint protocol for the lifetime of the
        // pool (it polls either from mutator operations or from the idle/help hooks).
        for _ in 0..n_workers.max(1) {
            safepoints.register();
        }
        let pool = Pool::new(n_workers.max(1));
        {
            let sp = Arc::clone(&safepoints);
            pool.set_idle_hook(move |_| sp.poll());
        }
        // Parking interplay: workers asleep on the pool condvar are not polling, so a
        // requested collection must kick them awake; they then re-run the idle hook,
        // hit `poll`, and park at the safepoint where the collector can count them.
        {
            let waker = pool.waker();
            safepoints.set_wake_hook(move || waker.wake_all());
        }
        StwRuntime {
            inner: Arc::new(StwInner {
                store,
                heap,
                roots: RootRegistry::new(),
                safepoints,
                pool,
                counters: Counters::default(),
                horizon: QuiescentHorizon::new(),
                gc_threshold_words,
                enable_gc,
            }),
        }
    }
}

impl StwInner {
    /// Safe point plus, if the heap is over threshold, a stop-the-world collection.
    pub(crate) fn safepoint_and_maybe_collect(&self) {
        self.safepoints.poll();
        if !self.enable_gc || self.heap.allocated_words() < self.gc_threshold_words {
            return;
        }
        let collected = self.safepoints.stop_the_world(|| {
            // Re-check under exclusion: another collection may just have run.
            if self.heap.allocated_words() < self.gc_threshold_words {
                return;
            }
            let start = Instant::now();
            let zone = self.heap.chunks();
            // GC v2: the world is stopped, so every other worker is parked at the
            // safepoint — draft them into the collection team instead of letting
            // them sleep through the pause.
            let helpers = self.pool.n_workers().saturating_sub(1);
            let outcome = par_semispace_collect(
                &self.store,
                OWNER_GLOBAL,
                &zone,
                &self.roots,
                &mut [],
                Some((&self.safepoints, helpers)),
            );
            self.heap
                .replace_chunks(outcome.new_chunks, outcome.occupied_words);
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

/// Per-task context of the stop-the-world baseline.
pub struct StwCtx {
    inner: Arc<StwInner>,
    worker: Worker,
    root_id: u64,
    roots: Arc<Mutex<Vec<ObjPtr>>>,
}

impl StwCtx {
    fn new(inner: Arc<StwInner>, worker: Worker) -> StwCtx {
        let (root_id, roots) = inner.roots.register();
        StwCtx {
            inner,
            worker,
            root_id,
            roots,
        }
    }
}

impl Drop for StwCtx {
    fn drop(&mut self) {
        self.inner.roots.unregister(self.root_id);
    }
}

impl ParCtx for StwCtx {
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        self.inner.safepoint_and_maybe_collect();
        let header = Header::new(n_ptr + n_nonptr, n_ptr, kind);
        self.inner
            .counters
            .allocated_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        self.inner.heap.alloc(self.worker.index(), header)
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
    // one forwarding resolution per operand.

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
        self.worker.join(
            move || {
                let worker = Worker::current_in(&inner_a.pool)
                    .expect("task branch must execute on a pool worker");
                let ctx = StwCtx::new(inner_a, worker);
                fa(&ctx)
            },
            move || {
                let worker = Worker::current_in(&inner_b.pool)
                    .expect("task branch must execute on a pool worker");
                let ctx = StwCtx::new(inner_b, worker);
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
        // A collection between pin and unpin rewrote the pin slot in place, and
        // path compression can shortcut either pointer past the other's hop.
        // Forwarding is confluent, so compare resolved masters rather than raw
        // pointers to keep pin/unpin balanced across collections.
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

impl Runtime for StwRuntime {
    type Ctx = StwCtx;

    fn name(&self) -> &'static str {
        "stw"
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
            self.inner.heap.dispose();
            self.inner.store.reclaim_retired();
        });
        let _store_epoch = crate::common::StoreEpochGuard::begin(&self.inner.store);
        let inner = Arc::clone(&self.inner);
        self.inner.pool.run(move |worker| {
            let ctx = StwCtx::new(inner, worker.clone());
            f(&ctx)
        })
    }

    fn stats(&self) -> RunStats {
        let inner = &self.inner;
        baseline_stats(&inner.counters, &inner.store, 1, Some(&inner.pool))
    }

    fn reset_stats(&self) {
        self.inner.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sum_with_shared_mutation() {
        let rt = StwRuntime::with_workers(4);
        let total = rt.run(|ctx| {
            fn sum<C: ParCtx>(c: &C, lo: u64, hi: u64) -> u64 {
                if hi - lo <= 64 {
                    (lo..hi).map(hh_api::hash64).fold(0u64, u64::wrapping_add)
                } else {
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = c.join(|c| sum(c, lo, mid), |c| sum(c, mid, hi));
                    a.wrapping_add(b)
                }
            }
            sum(ctx, 0, 4096)
        });
        let expected = (0..4096u64)
            .map(hh_api::hash64)
            .fold(0u64, u64::wrapping_add);
        assert_eq!(total, expected);
    }

    #[test]
    fn stop_the_world_collections_happen_under_allocation_pressure() {
        let rt = StwRuntime::with_params(4, 256, 20_000, true);
        rt.run(|ctx| {
            fn churn<C: ParCtx>(c: &C, depth: usize, keep: ObjPtr) {
                if depth == 0 {
                    for _ in 0..50 {
                        let _g = c.alloc_data_array(64);
                    }
                    assert_eq!(c.read_mut(keep, 0), 123);
                } else {
                    c.join(|c| churn(c, depth - 1, keep), |c| churn(c, depth - 1, keep));
                }
            }
            let keep = ctx.alloc_ref_data(123);
            ctx.pin(keep);
            churn(ctx, 4, keep);
            assert_eq!(ctx.read_mut(keep, 0), 123);
        });
        let s = rt.stats();
        assert!(
            s.gc_count >= 1,
            "expected at least one stop-the-world collection"
        );
        assert_eq!(s.gc_count, s.world_stops);
        assert_eq!(s.promoted_objects, 0);
    }

    #[test]
    fn shared_ref_visible_across_tasks() {
        let rt = StwRuntime::with_workers(2);
        let v = rt.run(|ctx| {
            let r = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let payload = c.alloc_ref_data(55);
                    c.write_ptr(r, 0, payload);
                },
                |_| (),
            );
            let p = ctx.read_mut_ptr(r, 0);
            ctx.read_mut(p, 0)
        });
        assert_eq!(v, 55);
    }
}
