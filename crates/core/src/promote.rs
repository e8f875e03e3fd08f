//! Promotion: copying data up the hierarchy to preserve disentanglement
//! (the paper's Figure 7, `writePromote` and `promote`).
//!
//! The locking protocol and copy order are Figure 7's; the cost of a promotion is
//! paid per *pass* rather than per object:
//!
//! * **Batched transitive promotion** (`promote_value_batched`): the
//!   pointee's reachable closure is evacuated in one Cheney-style pass holding a
//!   single allocation cursor ([`hh_heaps::Heap::with_cursor`]) on the target heap —
//!   one allocation-mutex acquisition, one heap-statistics update, and one flush of the
//!   global counters per *pass*.
//! * **Forwarding-chain path compression**: whenever a chase walks a chain of two or
//!   more hops, every intermediate hop is CAS-shortcut to the chain's end
//!   ([`hh_objmodel::ObjView::compress_fwd`]), so the amortized `find_master` is
//!   O(1) even for objects promoted many times. Compressions and hops are counted
//!   (`fwd_compressions`, `fwd_hops`).
//! * **Reusable per-worker scratch** (`PromoScratch`): the lock path, the Cheney
//!   worklist, and the debug-checker's copy log live in thread-local buffers reused
//!   across promotions, so the lock path performs no heap allocation after warm-up
//!   (regression-tested via the `promo_buf_allocs` counter).
//!
//! See DESIGN.md §6.

use crate::runtime::Inner;
use hh_heaps::HeapId;
use hh_objmodel::{Chunk, ChunkCursor, ChunkStore, Init, ObjPtr, ObjView};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-worker scratch buffers reused across promotions (cleared, never shrunk).
#[derive(Default)]
struct PromoScratch {
    /// Heaps locked by the current `write_promote`, deepest first.
    locked: Vec<HeapId>,
    /// Cheney worklist of copies whose pointer fields still need scanning, with
    /// each copy's pointer-field count (saves a header reload in the scan phase).
    pending: Vec<(ObjPtr, u32)>,
    /// Debug-build invariant checker's log of the pass's copies.
    copies: Vec<ObjPtr>,
}

thread_local! {
    static SCRATCH: RefCell<PromoScratch> = RefCell::new(PromoScratch::default());
}

/// Per-pass tallies, flushed to the global atomic counters once per promotion.
#[derive(Default)]
struct PassStats {
    objects: u64,
    hops: u64,
    compressions: u64,
}

/// A tiny per-pass cache mapping chunk ids to their depth classification relative
/// to the promotion target ("does this chunk's heap lie strictly deeper?").
///
/// Sound for the duration of one promotion pass: every heap the closure can touch
/// is an ancestor-or-self of the promoting task's heap (disentanglement), and none
/// of those heaps can be `join_heap`-merged while the pass runs — their owner tasks
/// are the promoter's own ancestors, suspended at forks that cannot complete before
/// the promoter returns. Chunk recycling is likewise impossible mid-pass (the
/// promoter's run holds its epoch, which keeps the watermark from passing its
/// chunks). So a chunk's classification is stable for the pass, and the cache turns
/// the dominant per-field cost (`heap_of` → `resolve` → `depth`, several dependent
/// atomic loads) into one integer compare for the common case of bump-allocation
/// locality (consecutive closure objects share chunks).
struct ChunkClassCache<'s> {
    entries: [Option<(u32, bool, &'s Arc<Chunk>)>; 4],
    next: usize,
}

impl<'s> ChunkClassCache<'s> {
    fn new() -> ChunkClassCache<'s> {
        ChunkClassCache {
            entries: [None; 4],
            next: 0,
        }
    }

    #[inline]
    fn get(&self, chunk: u32) -> Option<(bool, &'s Arc<Chunk>)> {
        self.entries
            .iter()
            .flatten()
            .find(|&&(c, _, _)| c == chunk)
            .map(|&(_, deeper, r)| (deeper, r))
    }

    #[inline]
    fn insert(&mut self, chunk: u32, deeper: bool, chunk_ref: &'s Arc<Chunk>) {
        self.entries[self.next] = Some((chunk, deeper, chunk_ref));
        self.next = (self.next + 1) % self.entries.len();
    }
}

impl Inner {
    /// `writePromote` (Figure 7, lines 13–27).
    ///
    /// Preconditions: `obj` is (a candidate for) the master copy of the object being
    /// written, and its heap is strictly shallower than `ptr`'s heap.
    ///
    /// The three phases of the paper:
    /// 1. lock, in WRITE mode and bottom-up, every heap on the path from `heapOf(ptr)`
    ///    to the heap of the *current* master copy of `obj` (re-chasing forwarding
    ///    pointers that appear while we climb);
    /// 2. promote the pointee into the master's heap and store the promoted address;
    /// 3. unlock the path top-down.
    ///
    /// The lock path is recorded in a reusable per-worker buffer (no allocation on
    /// this path after warm-up) and the promotion itself runs as one batched pass
    /// (see the module docs).
    pub(crate) fn write_promote(&self, mut obj: ObjPtr, field: usize, ptr: ObjPtr) {
        let store = self.registry.store();
        debug_assert!(!ptr.is_null());
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let scratch = &mut *scratch;
            let caps_before =
                scratch.locked.capacity() + scratch.pending.capacity() + scratch.copies.capacity();
            scratch.locked.clear();

            // Phase 1: path locking, deepest heap first. The ancestor walk pushes
            // straight into the reusable buffer instead of materializing a path `Vec`
            // per climb.
            let mut prev_heap = self.registry.heap_of(ptr);
            self.registry.heap(prev_heap).lock.lock_exclusive();
            scratch.locked.push(prev_heap);
            loop {
                let obj_heap = self.registry.heap_of(obj);
                let to = self.registry.resolve(obj_heap);
                let mut cur = self.registry.resolve(prev_heap);
                while cur != to {
                    let parent = self.registry.heap(cur).parent();
                    if parent.is_none() {
                        // `to` was not an ancestor: treat the root as the end of the
                        // path (defensive — disentanglement violations would already
                        // have been detected by the depth comparison in
                        // `write_ptr_impl`).
                        break;
                    }
                    let parent = self.registry.resolve(parent);
                    self.registry.heap(parent).lock.lock_exclusive();
                    scratch.locked.push(parent);
                    cur = parent;
                }
                if !store.view(obj).has_fwd() {
                    break;
                }
                // The master moved further up while we were climbing; keep locking
                // upward from where we are.
                prev_heap = obj_heap;
                obj = store.view(obj).fwd();
            }

            // Phase 2: promote and publish. We hold WRITE locks on every heap between
            // the pointee and the master (inclusive), so no concurrent `findMaster`
            // can observe a half-copied object and no concurrent promotion can race
            // on the same forwarding pointers.
            let target_heap = self.registry.heap_of(obj);
            self.counters.promotions.fetch_add(1, Ordering::Relaxed);
            let promoted = self.promote_value_batched(
                target_heap,
                ptr,
                &mut scratch.pending,
                &mut scratch.copies,
            );
            store.view(obj).set_field(field, promoted.to_bits());

            // Phase 3: unlock top-down.
            for h in scratch.locked.iter().rev() {
                self.registry.heap(*h).lock.unlock_exclusive();
            }
            scratch.locked.clear();

            // Regression guard: the reusable buffers grow at most a handful of times
            // per worker thread, ever; a per-promotion allocation would show up as a
            // monotonically climbing counter (see `tests/promo_alloc.rs`).
            let caps_after =
                scratch.locked.capacity() + scratch.pending.capacity() + scratch.copies.capacity();
            if caps_after != caps_before {
                self.promo_buf_allocs.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// `promote` (Figure 7, lines 28–40) as one batched Cheney pass: the reachable
    /// closure of `root` that lies below `target` is evacuated into `target` through
    /// a single allocation cursor, and every forwarding chain walked on the way is
    /// path-compressed. Returns a pointer to a copy of `root` residing in `target`
    /// or one of its ancestors.
    fn promote_value_batched(
        &self,
        target: HeapId,
        root: ObjPtr,
        pending: &mut Vec<(ObjPtr, u32)>,
        copies: &mut Vec<ObjPtr>,
    ) -> ObjPtr {
        let store: &ChunkStore = self.registry.store();
        let target = self.registry.resolve(target);
        let target_depth = self.registry.depth(target);
        let heap = self.registry.heap(target);
        let record_copies = self.invariants_enabled();
        pending.clear();
        copies.clear();
        let mut stats = PassStats::default();
        let mut cache = ChunkClassCache::new();

        let dest = (heap.id().raw(), heap.run_tag());
        // One allocation-mutex acquisition for the whole pass. The heap WRITE lock
        // held by `write_promote` already excludes readers; the cursor additionally
        // excludes concurrent allocators (the target heap's own domain) for the
        // duration of the pass.
        let (result, words) = heap.with_cursor(|cursor| {
            let words_before = cursor.words();
            let result = self.forward_batched(
                store,
                target_depth,
                root,
                cursor,
                dest,
                pending,
                copies,
                record_copies,
                &mut stats,
                &mut cache,
            );
            // Scan phase: fix up the pointer fields of every copy we made,
            // transitively promoting what they reach. Copy chunks always belong to
            // the target heap, so a cache miss here may classify them as
            // not-deeper without consulting the registry.
            while let Some((copy, n_ptr)) = pending.pop() {
                let chunk_id = copy.chunk().0;
                let chunk_ref = match cache.get(chunk_id) {
                    Some((_, r)) => r,
                    None => {
                        let r = store.chunk(copy.chunk());
                        cache.insert(chunk_id, false, r);
                        r
                    }
                };
                let v = ObjView::new(chunk_ref, copy.offset());
                for f in 0..n_ptr as usize {
                    let old = v.field_ptr(f);
                    let new = self.forward_batched(
                        store,
                        target_depth,
                        old,
                        cursor,
                        dest,
                        pending,
                        copies,
                        record_copies,
                        &mut stats,
                        &mut cache,
                    );
                    v.set_field_ptr(f, new);
                }
            }
            (result, cursor.words() - words_before)
        });

        // One statistics flush per pass instead of several atomics per object.
        heap.note_promoted_in_batch(stats.objects as usize, words);
        self.counters
            .promoted_objects
            .fetch_add(stats.objects, Ordering::Relaxed);
        self.counters
            .promoted_words
            .fetch_add(words as u64, Ordering::Relaxed);
        if stats.hops > 0 {
            self.counters
                .fwd_hops
                .fetch_add(stats.hops, Ordering::Relaxed);
        }
        if stats.compressions > 0 {
            self.counters
                .fwd_compressions
                .fetch_add(stats.compressions, Ordering::Relaxed);
        }

        if record_copies {
            self.verify_promotion(target, copies);
            copies.clear();
        }
        result
    }

    /// One step of the batched pass: returns an existing copy of `obj` at or above
    /// `target_depth` if one exists (lines 29–31), otherwise copies `obj` through the
    /// target heap's cursor (allocating for `dest`, the heap's raw id and run tag),
    /// installs its forwarding pointer, and schedules the copy for
    /// scanning (leaf objects with no pointer fields skip the worklist). Chains of
    /// two or more hops are compressed to their end; the depth classification is
    /// served from the per-pass chunk cache (see [`ChunkClassCache`]).
    #[allow(clippy::too_many_arguments)]
    fn forward_batched<'s>(
        &self,
        store: &'s ChunkStore,
        target_depth: u32,
        obj: ObjPtr,
        cursor: &mut ChunkCursor,
        dest: (u32, u64),
        pending: &mut Vec<(ObjPtr, u32)>,
        copies: &mut Vec<ObjPtr>,
        record_copies: bool,
        stats: &mut PassStats,
        cache: &mut ChunkClassCache<'s>,
    ) -> ObjPtr {
        if obj.is_null() {
            return ObjPtr::NULL;
        }
        let mut cur = obj;
        let mut hops = 0u64;
        let resolved = loop {
            let chunk_id = cur.chunk().0;
            let (deeper, chunk_ref) = match cache.get(chunk_id) {
                Some(hit) => hit,
                None => {
                    let r = store.chunk(cur.chunk());
                    let d = self.registry.depth(self.registry.heap_of(cur)) > target_depth;
                    cache.insert(chunk_id, d, r);
                    (d, r)
                }
            };
            if !deeper {
                // Already at or above the target heap: no copy needed.
                break cur;
            }
            let v = ObjView::new(chunk_ref, cur.offset());
            if v.has_fwd() {
                cur = v.fwd();
                hops += 1;
                continue;
            }
            // Introduce a new copy in the target heap. The forwarding pointer is
            // installed *before* the fields are filled in (as in the paper);
            // concurrent `findMaster` calls cannot observe the half-initialized copy
            // because we hold the target heap's WRITE lock, and `readImmutable`
            // never follows forwarding pointers. `Init::Copy` leaves the fields raw —
            // the loop below stores every one before the lock is released.
            let header = v.header();
            let placed = cursor.alloc(store, dest.0, dest.1, header, Init::Copy);
            let copy = placed.ptr;
            let cv = ObjView::new(placed.chunk, copy.offset());
            if self.incremental_active.load(Ordering::Acquire) {
                // An incremental collection may be evacuating `cur`'s heap right
                // now: idle-worker drains install forwarding pointers without
                // holding our write locks, so the install must be a CAS. Fields
                // are filled *before* publishing the copy (engine scanners chase
                // forwarding chains outside our locks and must never observe a
                // half-written copy). On loss the copy is retagged as an opaque
                // filler and the winner's copy — the engine's to-space copy,
                // still deeper than the target — is promoted on the next trip
                // around the loop.
                for f in 0..header.n_fields() {
                    cv.set_field(f, v.field(f));
                }
                if v.try_set_fwd(copy).is_err() {
                    cv.retag_as_filler();
                    cur = v.fwd();
                    hops += 1;
                    continue;
                }
            } else {
                v.set_fwd(copy);
                for f in 0..header.n_fields() {
                    cv.set_field(f, v.field(f));
                }
            }
            stats.objects += 1;
            if header.n_ptr() > 0 {
                pending.push((copy, header.n_ptr() as u32));
            }
            if record_copies {
                copies.push(copy);
            }
            break copy;
        };
        stats.hops += hops;
        if hops >= 2 {
            stats.compressions += store.compress_fwd_chain(obj, resolved);
        }
        resolved
    }
}
