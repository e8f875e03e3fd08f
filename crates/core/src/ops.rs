//! Mutable-access operations: `findMaster`, `readMutable`, `writeNonptr`, `writePtr`
//! (the paper's Figure 6 and the dispatch part of Figure 7).

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::ObjPtr;
use std::sync::atomic::Ordering;

impl Inner {
    /// `findMaster` (Figure 6, lines 5–10): walks the forwarding chain to the master
    /// copy using double-checked locking, and returns with a READ lock held on the
    /// master's heap. **The caller must release that lock.**
    ///
    /// Promotion v2: chains of two or more hops are **path-compressed** after the
    /// chase — every intermediate hop is CAS-shortcut to the chain's end (see
    /// [`hh_objmodel::ChunkStore::compress_fwd_chain`]) — so an object promoted `k` times costs `O(k)`
    /// once and `O(1)` on every later resolution. The fast path (no forwarding
    /// pointer) performs no extra atomic traffic; hops and compressions are counted
    /// only when a chain was actually walked.
    pub(crate) fn find_master(&self, obj: ObjPtr) -> (ObjPtr, HeapId) {
        let store: &hh_objmodel::ChunkStore = self.registry.store();
        let mut start = obj;
        loop {
            // Chase forwarding pointers without holding any lock.
            let mut cur = start;
            let mut hops = 0u64;
            loop {
                let v = store.view(cur);
                if !v.has_fwd() {
                    break;
                }
                cur = v.fwd();
                hops += 1;
            }
            if hops > 0 {
                self.counters.fwd_hops.fetch_add(hops, Ordering::Relaxed);
                if hops >= 2 {
                    let done = store.compress_fwd_chain(start, cur);
                    if done > 0 {
                        self.counters
                            .fwd_compressions
                            .fetch_add(done, Ordering::Relaxed);
                    }
                }
            }
            // Candidate master found: lock its heap in shared mode and re-check. A
            // concurrent promotion may have installed a forwarding pointer in between;
            // if so, drop the lock and chase again from the candidate.
            let heap = self.registry.heap_of(cur);
            self.registry.heap(heap).lock.lock_shared();
            if !store.view(cur).has_fwd() {
                return (cur, heap);
            }
            self.registry.heap(heap).lock.unlock_shared();
            start = cur;
        }
    }

    /// `readMutable` (Figure 6, lines 11–17).
    pub(crate) fn read_mut_impl(&self, obj: ObjPtr, field: usize) -> u64 {
        let store = self.registry.store();
        if self.config.enable_read_write_fast_path {
            // Fast path: read optimistically, then check that the object has no copies.
            let v = store.view(obj);
            let res = v.field(field);
            if !v.has_fwd() {
                return res;
            }
        }
        let (master, heap) = self.find_master(obj);
        let res = store.view(master).field(field);
        self.registry.heap(heap).lock.unlock_shared();
        res
    }

    /// `writeNonptr` (Figure 6, lines 18–23).
    pub(crate) fn write_nonptr_impl(&self, obj: ObjPtr, field: usize, val: u64) {
        // Incremental-GC write barrier: ensure a from-space `obj` is forwarded
        // *before* the store below, so the optimistic-write recheck (and
        // `find_master`) necessarily lands in to-space and the update cannot be
        // lost to a concurrent evacuation snapshot.
        self.gc_barrier(obj);
        let store = self.registry.store();
        if self.config.enable_read_write_fast_path {
            // Fast path: write optimistically, then check whether `obj` was the master.
            let v = store.view(obj);
            v.set_field(field, val);
            if !v.has_fwd() {
                return;
            }
        }
        let (master, heap) = self.find_master(obj);
        store.view(master).set_field(field, val);
        self.registry.heap(heap).lock.unlock_shared();
    }

    /// Atomic compare-and-swap on a mutable non-pointer field.
    ///
    /// Not part of the paper's Figure 6, but required by the BFS benchmarks (§4.2),
    /// which mark vertices visited with a compare-and-swap. The structure mirrors
    /// `writeNonptr`: apply to the object, then re-apply to the master copy if the
    /// object turns out to have been promoted.
    pub(crate) fn cas_nonptr_impl(
        &self,
        obj: ObjPtr,
        field: usize,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        self.gc_barrier(obj);
        let store = self.registry.store();
        if self.config.enable_read_write_fast_path {
            let v = store.view(obj);
            if !v.has_fwd() {
                let res = v.cas_field(field, expected, new);
                if !v.has_fwd() {
                    return res;
                }
                // A promotion raced with us; fall through and apply on the master copy
                // (the promotion copied either the pre- or post-CAS value, and the CAS
                // below re-establishes the intended outcome on the authoritative copy).
            }
        }
        let (master, heap) = self.find_master(obj);
        let res = store.view(master).cas_field(field, expected, new);
        self.registry.heap(heap).lock.unlock_shared();
        res
    }

    // ------------------------------------------------------------------
    // Bulk field operations (ParCtx v2).
    //
    // The scalar operations above pay one `findMaster` (forwarding-chain walk plus a
    // heap lock round-trip) per word in the slow path, and one forwarding check per
    // word even in the fast path. The bulk operations resolve the master copy exactly
    // once per object operand and hold that heap's READ lock across the whole slice:
    // the lock is what keeps a concurrent promotion from installing a new copy
    // mid-slice (promotion takes the exclusive lock), so the slice is read or written
    // on a single authoritative copy.
    // ------------------------------------------------------------------

    /// As [`Inner::find_master`], but also counts the lookup in the bulk-op statistics.
    /// Every bulk implementation resolves masters through this wrapper, so the
    /// `bulk_master_lookups` counter is a measurement: if an implementation regressed
    /// to per-element resolution, the counter would expose it.
    fn find_master_counted(&self, obj: ObjPtr) -> (ObjPtr, HeapId) {
        self.counters
            .bulk_master_lookups
            .fetch_add(1, Ordering::Relaxed);
        self.find_master(obj)
    }

    /// Bulk `readMutable`: one `findMaster`, then a straight field loop under the
    /// master heap's read lock.
    pub(crate) fn read_mut_bulk_impl(&self, obj: ObjPtr, start: usize, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        self.counters.record_bulk(out.len() as u64);
        let store = self.registry.store();
        let (master, heap) = self.find_master_counted(obj);
        let v = store.view(master);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = v.field(start + k);
        }
        self.registry.heap(heap).lock.unlock_shared();
    }

    /// Bulk `writeNonptr`: one `findMaster`, then a straight field-store loop under the
    /// master heap's read lock.
    pub(crate) fn write_nonptr_bulk_impl(&self, obj: ObjPtr, start: usize, vals: &[u64]) {
        if vals.is_empty() {
            return;
        }
        self.gc_barrier(obj);
        self.counters.record_bulk(vals.len() as u64);
        let store = self.registry.store();
        let (master, heap) = self.find_master_counted(obj);
        let v = store.view(master);
        for (k, &val) in vals.iter().enumerate() {
            v.set_field(start + k, val);
        }
        self.registry.heap(heap).lock.unlock_shared();
    }

    /// Bulk fill: one `findMaster`, then a repeated store under the read lock.
    pub(crate) fn fill_nonptr_impl(&self, obj: ObjPtr, start: usize, len: usize, val: u64) {
        if len == 0 {
            return;
        }
        self.gc_barrier(obj);
        self.counters.record_bulk(len as u64);
        let store = self.registry.store();
        let (master, heap) = self.find_master_counted(obj);
        let v = store.view(master);
        for k in 0..len {
            v.set_field(start + k, val);
        }
        self.registry.heap(heap).lock.unlock_shared();
    }

    /// Object→object range copy: one `findMaster` per operand (two in total).
    ///
    /// The source slice is staged through a buffer between the two lock scopes, so
    /// at most one heap read lock is held at a time — taking both at once could
    /// deadlock against a writer waiting between the two acquisitions under the
    /// writer-preferring heap lock. The buffer is a **per-worker thread-local**,
    /// reused across calls (GC v2 satellite): the old `vec![0u64; len]` paid one
    /// heap allocation per copy on a hot bulk path. Growth is accounted to the
    /// `promo_buf_allocs` scratch-buffer counter, so `tests/promo_alloc.rs` can
    /// assert the steady state allocates nothing. Capacity beyond
    /// `COPY_BUF_RETAIN_WORDS` is returned once a copy no longer needs it, so an
    /// occasional huge copy doesn't pin its footprint on the thread for life.
    pub(crate) fn copy_nonptr_impl(
        &self,
        src: ObjPtr,
        src_start: usize,
        dst: ObjPtr,
        dst_start: usize,
        len: usize,
    ) {
        use std::cell::RefCell;
        thread_local! {
            static COPY_BUF: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        /// Capacity retained across calls (words). An oversized copy must not pin
        /// its capacity on the worker thread for the process lifetime, so the
        /// excess is given back — but only once a copy arrives that no longer
        /// needs it (hysteresis: a steady stream of oversized copies keeps
        /// reusing the large buffer instead of churning allocate/free per call).
        const COPY_BUF_RETAIN_WORDS: usize = 64 * 1024;
        if len == 0 {
            return;
        }
        // Only the destination is written; source reads resolve through
        // `find_master` and from-space stays readable until finalize retires it.
        self.gc_barrier(dst);
        self.counters.record_bulk(len as u64);
        let store = self.registry.store();
        COPY_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            let cap_before = buf.capacity();
            buf.clear();
            buf.resize(len, 0);
            {
                let (master, heap) = self.find_master_counted(src);
                let v = store.view(master);
                for (k, slot) in buf.iter_mut().enumerate() {
                    *slot = v.field(src_start + k);
                }
                self.registry.heap(heap).lock.unlock_shared();
            }
            {
                let (master, heap) = self.find_master_counted(dst);
                let v = store.view(master);
                for (k, &val) in buf.iter().enumerate() {
                    v.set_field(dst_start + k, val);
                }
                self.registry.heap(heap).lock.unlock_shared();
            }
            if buf.capacity() != cap_before {
                self.promo_buf_allocs.fetch_add(1, Ordering::Relaxed);
            }
            if len <= COPY_BUF_RETAIN_WORDS && buf.capacity() > COPY_BUF_RETAIN_WORDS {
                buf.clear();
                buf.shrink_to(COPY_BUF_RETAIN_WORDS);
            }
        });
    }

    /// `writePtr` (Figure 7, lines 1–12).
    pub(crate) fn write_ptr_impl(
        &self,
        current_heap: HeapId,
        obj: ObjPtr,
        field: usize,
        ptr: ObjPtr,
    ) {
        // Barrier the written-to object *and* the written value: storing a
        // from-space address would outlive the window's from-space chunks, so
        // the value is substituted with its to-space copy here.
        self.gc_barrier(obj);
        let ptr = self.gc_barrier_value(ptr);
        let store = self.registry.store();

        // Fast path (lines 2–5): the object lives in the current task's heap — which is
        // necessarily a leaf, so no promotion can be needed — and has no copies.
        if self.config.enable_write_ptr_fast_path {
            let v = store.view(obj);
            if !v.has_fwd() && self.registry.heap_of(obj) == current_heap {
                v.set_field(field, ptr.to_bits());
                return;
            }
        }

        // Slow path: find the master copy (read lock held on its heap).
        let (master, master_heap) = self.find_master(obj);

        // Writing NULL can never create entanglement.
        let no_promotion_needed = ptr.is_null() || {
            let obj_depth = self.registry.heap(master_heap).depth();
            let ptr_depth = self.registry.depth(self.registry.heap_of(ptr));
            obj_depth >= ptr_depth
        };

        if no_promotion_needed {
            // Lines 7–10: the pointee is at the same level or above; write directly.
            store.view(master).set_field(field, ptr.to_bits());
            self.registry.heap(master_heap).lock.unlock_shared();
            return;
        }

        // Lines 11–12: writing would create a down-pointer; promote first.
        self.registry.heap(master_heap).lock.unlock_shared();
        self.write_promote(master, field, ptr);
    }
}
