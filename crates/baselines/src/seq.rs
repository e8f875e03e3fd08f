//! The sequential baseline (`mlton` in the paper's tables).
//!
//! One flat heap, no locks, no parallelism: `join` simply runs both branches in order on
//! the calling thread, and a plain semispace collection runs at safe points when the
//! heap exceeds its threshold. Benchmark times measured on this runtime are the `T_s`
//! baseline against which the parallel runtimes' overhead and speedup are computed.

use crate::common::{
    baseline_stats, resolve_tracked, semispace_collect, FlatHeap, QuiescentHorizon, RootRegistry,
};
use hh_api::{Counters, ParCtx, RunStats, Runtime};
use hh_objmodel::{ChunkStore, Header, ObjKind, ObjPtr};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Raw heap-owner id used by the sequential baseline.
const OWNER_SEQ: u32 = u32::MAX - 2;

struct SeqInner {
    store: Arc<ChunkStore>,
    heap: FlatHeap,
    roots: RootRegistry,
    counters: Counters,
    horizon: QuiescentHorizon,
    gc_threshold_words: usize,
    enable_gc: bool,
}

/// The sequential baseline runtime.
pub struct SeqRuntime {
    inner: Arc<SeqInner>,
}

impl SeqRuntime {
    /// Creates a sequential runtime with default memory parameters.
    pub fn new() -> SeqRuntime {
        Self::with_params(8 * 1024, 4 * 1024 * 1024, true)
    }

    /// Creates a sequential runtime with explicit chunk size and GC threshold (words).
    pub fn with_params(
        chunk_words: usize,
        gc_threshold_words: usize,
        enable_gc: bool,
    ) -> SeqRuntime {
        let store = Arc::new(ChunkStore::new(chunk_words));
        let heap = FlatHeap::new(Arc::clone(&store), OWNER_SEQ, 1);
        SeqRuntime {
            inner: Arc::new(SeqInner {
                store,
                heap,
                roots: RootRegistry::new(),
                counters: Counters::default(),
                horizon: QuiescentHorizon::new(),
                gc_threshold_words,
                enable_gc,
            }),
        }
    }
}

impl Default for SeqRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-task context of the sequential baseline (all tasks share the single heap).
pub struct SeqCtx {
    inner: Arc<SeqInner>,
    root_id: u64,
    roots: Arc<Mutex<Vec<ObjPtr>>>,
}

impl Drop for SeqCtx {
    fn drop(&mut self) {
        self.inner.roots.unregister(self.root_id);
    }
}

impl SeqInner {
    fn collect(&self) {
        let start = Instant::now();
        let zone = self.heap.chunks();
        let outcome = semispace_collect(&self.store, OWNER_SEQ, &zone, &self.roots, &mut []);
        self.heap
            .replace_chunks(outcome.new_chunks, outcome.occupied_words);
        self.counters
            .record_collection(outcome.copied_words as u64, 0, false, false);
        let pause = start.elapsed();
        self.counters.add_gc_time(pause);
        self.counters.record_gc_pause(pause);
    }
}

impl ParCtx for SeqCtx {
    fn alloc(&self, n_ptr: usize, n_nonptr: usize, kind: ObjKind) -> ObjPtr {
        let header = Header::new(n_ptr + n_nonptr, n_ptr, kind);
        self.inner
            .counters
            .allocated_words
            .fetch_add(header.size_words() as u64, Ordering::Relaxed);
        self.inner.heap.alloc(0, header)
    }

    fn read_imm(&self, obj: ObjPtr, field: usize) -> u64 {
        self.inner.store.view(obj).field(field)
    }

    fn read_mut(&self, obj: ObjPtr, field: usize) -> u64 {
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).field(field)
    }

    fn write_nonptr(&self, obj: ObjPtr, field: usize, val: u64) {
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).set_field(field, val);
    }

    fn write_ptr(&self, obj: ObjPtr, field: usize, ptr: ObjPtr) {
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).set_field(field, ptr.to_bits());
    }

    fn cas_nonptr(&self, obj: ObjPtr, field: usize, expected: u64, new: u64) -> Result<u64, u64> {
        let obj = resolve_tracked(&self.inner.store, &self.inner.counters, obj);
        self.inner.store.view(obj).cas_field(field, expected, new)
    }

    fn obj_len(&self, obj: ObjPtr) -> usize {
        self.inner.store.view(obj).n_fields()
    }

    // Bulk operations (ParCtx v2): shared bodies in `common` — one forwarding
    // resolution per operand, no safepoints (single-threaded).

    fn read_imm_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        crate::common::bulk_read_imm(&self.inner.store, &self.inner.counters, obj, start, out);
    }

    fn read_mut_bulk(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        crate::common::bulk_read_mut(
            &self.inner.store,
            &self.inner.counters,
            None,
            obj,
            start,
            out,
        );
    }

    fn write_nonptr_bulk(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        crate::common::bulk_write_nonptr(
            &self.inner.store,
            &self.inner.counters,
            None,
            obj,
            start,
            vals,
        );
    }

    fn fill_nonptr(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        crate::common::bulk_fill_nonptr(
            &self.inner.store,
            &self.inner.counters,
            None,
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
            None,
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
        // Sequential elision of parallelism: run left then right on the same context.
        (fa(self), fb(self))
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
        if self.inner.enable_gc
            && self.inner.heap.allocated_words() >= self.inner.gc_threshold_words
        {
            self.inner.collect();
        }
    }

    fn n_workers(&self) -> usize {
        1
    }
}

impl Runtime for SeqRuntime {
    type Ctx = SeqCtx;

    fn name(&self) -> &'static str {
        "seq"
    }

    fn n_workers(&self) -> usize {
        1
    }

    fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&Self::Ctx) -> R + Send,
    {
        // Completed runs' memory is disposed of and recycled here, at the reuse
        // horizon (see `QuiescentHorizon`); the guard ends the run even if `f` panics.
        let _run = self.inner.horizon.begin(|| {
            self.inner.heap.dispose();
            self.inner.store.reclaim_retired();
        });
        let _store_epoch = crate::common::StoreEpochGuard::begin(&self.inner.store);
        let (root_id, roots) = self.inner.roots.register();
        let ctx = SeqCtx {
            inner: Arc::clone(&self.inner),
            root_id,
            roots,
        };
        f(&ctx)
    }

    fn stats(&self) -> RunStats {
        baseline_stats(&self.inner.counters, &self.inner.store, 1, None)
    }

    fn reset_stats(&self) {
        self.inner.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops_and_join() {
        let rt = SeqRuntime::new();
        let v = rt.run(|ctx| {
            let r = ctx.alloc_ref_data(10);
            let (a, b) = ctx.join(|c| c.read_mut(r, 0) + 1, |c| c.read_mut(r, 0) + 2);
            ctx.write_nonptr(r, 0, a + b);
            ctx.read_mut(r, 0)
        });
        assert_eq!(v, 23);
        assert_eq!(rt.name(), "seq");
        assert!(rt.stats().allocated_words >= 3);
    }

    #[test]
    fn gc_triggers_and_preserves_pinned_data() {
        let rt = SeqRuntime::with_params(256, 5_000, true);
        rt.run(|ctx| {
            let keep = ctx.alloc_data_array(16);
            ctx.write_nonptr(keep, 3, 777);
            ctx.pin(keep);
            for _ in 0..200 {
                let _garbage = ctx.alloc_data_array(100);
                ctx.maybe_collect();
            }
            assert_eq!(ctx.read_mut(keep, 3), 777);
        });
        let s = rt.stats();
        assert!(s.gc_count >= 1);
        assert!(s.gc_copied_words > 0);
    }

    #[test]
    fn pointer_writes_never_promote() {
        let rt = SeqRuntime::new();
        rt.run(|ctx| {
            let cell = ctx.alloc_ref_ptr(ObjPtr::NULL);
            let (_, _) = ctx.join(
                |c| {
                    let local = c.alloc_ref_data(5);
                    c.write_ptr(cell, 0, local);
                },
                |c| {
                    let p = c.read_mut_ptr(cell, 0);
                    if !p.is_null() {
                        assert_eq!(c.read_mut(p, 0), 5);
                    }
                },
            );
        });
        assert_eq!(rt.stats().promoted_objects, 0);
    }
}
