//! The shared evacuation engine (GC v3) — **one** copy of the span pack/steal
//! loop, the team-member body, and the idle-termination protocol, consumed by
//! both the hierarchical collector (`hh-runtime`'s `collect_zone`) and the flat
//! baseline collector (`hh-baselines`' `par_semispace_collect`).
//!
//! GC v2 (PR 5) grew this machinery twice — once per collector — and its
//! trigger-preregistration race had to be fixed in both copies. The engine
//! factors the duplicated ~1.7k lines down to one parameterized implementation.
//! The only parameter is the *zone*: per zone slot (the `u16` carried by
//! from-space chunk tags, see [`hh_objmodel::ChunkGcState`]), the raw owner id
//! and run tag that slot's to-space chunks carry — one slot per heap for the
//! hierarchical runtime, a single slot for the flat baselines. Everything else
//! is identical between the two collectors and lives here:
//!
//! * **per-member to-space cursors** — each team member bump-allocates copies
//!   into private chunks through its own [`ChunkCursor`] per slot; the engine
//!   stamps every chunk a cursor takes `ToSpace` for this collection's epoch
//!   (before the forwarding install publishes a copy in it), so membership
//!   tests stay one atomic chunk-metadata load;
//! * **scan blocks** — contiguous spans of fully written copies, published on a
//!   per-member Chase–Lev [`SpanDeque`] once [`SCAN_BLOCK_WORDS`] accumulate;
//!   idle members steal blocks from busy ones, wavefront-style;
//! * **the CAS forwarding race** — concurrent members (or mutators, below)
//!   racing to evacuate one object resolve through
//!   [`hh_objmodel::ObjView::try_set_fwd`]; the loser retags its copy as an
//!   opaque filler and adopts the winner's;
//! * **idle-based termination** — [`TeamSync`]: all registered members idle ∧
//!   all deques empty ⇒ no work can ever appear again.
//!
//! ## Two drive modes
//!
//! **Synchronous team** (GC v2's shape, ablation A6 of the hierarchical
//! runtime): the triggering thread runs [`EvacEngine::run_trigger`] while
//! drafted helpers run [`EvacEngine::run_helper`]; the trigger then
//! [`EvacEngine::await_team`]s and [`EvacEngine::merge`]s. Mutators are
//! quiescent throughout.
//!
//! **Incremental / mutator-concurrent** (GC v3): the initial pause only seeds
//! the roots ([`EvacEngine::seed_roots`]); mutators then resume against the
//! still-unscanned wavefront. Three engine entry points keep that sound:
//!
//! * [`EvacEngine::barrier_forward`] — the mutator write barrier: before any
//!   field write touching a FROM-tagged chunk, the object (and, for pointer
//!   stores, the value) is forwarded on access. This closes the lost-update
//!   race of concurrent evacuation (mutator writes from-space original after
//!   the collector copied its fields but before the forwarding install).
//! * [`EvacEngine::drain_increment`] — a bounded slice of the scan wavefront,
//!   run at mutator safepoints and by idle pool workers. The pause cost of any
//!   single call is ~one scan block (plus at most one oversized object).
//! * [`EvacEngine::finalize`] — retires the collection: closes increments,
//!   drains the residue, and waits out in-flight barrier operations before the
//!   caller merges and retires the from-space. The quiescence handshake is a
//!   Dekker-style store/load protocol on two `SeqCst` flags (`closed`,
//!   `retired`) against the in-flight counters; see the method docs.
//!
//! Scanners in mutator-concurrent mode rewrite pointer fields by **CAS**
//! ([`hh_objmodel::ObjView::cas_field_ptr`]) instead of a plain store: a
//! concurrent mutator pointer store must win (its value was pre-forwarded by
//! the write barrier), so a failed CAS is skipped, never retried.
//!
//! DESIGN.md §9 (team protocol) and §11 (incremental protocol) give the full
//! correctness arguments.

use crate::queue::{Span, SpanDeque};
use crate::team::TeamSync;
use hh_objmodel::{
    Chunk, ChunkCursor, ChunkGcState, ChunkId, ChunkStore, Header, Init, ObjPtr, ObjView, Taken,
    OFF_FIELDS,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A member flushes the unscanned tail of its current to-space chunk to its
/// deque (making it stealable) whenever it grows past this many words. Blocks
/// therefore carry at least this much scan work (except final tails), keeping
/// steal traffic amortized over hundreds of objects. It is also the unit of
/// incremental draining: one [`EvacEngine::drain_increment`] budget is
/// expressed in multiples of this.
pub const SCAN_BLOCK_WORDS: u32 = 512;

/// Flag bit (in a span's second word) marking a **raw pointer-range** span:
/// `start..end` are word offsets of consecutive pointer *fields* of one large
/// object, not an object-header walk. See [`pack_raw_span`].
const SPAN_RAW_PTRS: u64 = 1 << 63;

#[inline]
fn pack_span(chunk: ChunkId, start: u32, end: u32) -> Span {
    (((chunk.0 as u64) << 32) | start as u64, end as u64)
}

/// Packs a raw pointer-range span. Ordinary spans are parsed by walking object
/// headers from `start`, which forces a whole object to be scanned by one
/// party in one go — unacceptable for a multi-thousand-word array inside a
/// bounded increment. An object's pointer fields are a contiguous word prefix
/// (`OFF_FIELDS .. OFF_FIELDS + n_ptr`), so a large object's scan work is
/// instead published as raw ranges over that prefix, splittable at *any* word:
/// increments honor their budget exactly and team members parallelize the
/// scan of a single huge object.
#[inline]
fn pack_raw_span(chunk: ChunkId, start: u32, end: u32) -> Span {
    (
        ((chunk.0 as u64) << 32) | start as u64,
        end as u64 | SPAN_RAW_PTRS,
    )
}

#[inline]
fn span_is_raw(span: Span) -> bool {
    span.1 & SPAN_RAW_PTRS != 0
}

#[inline]
fn unpack_span(span: Span) -> (ChunkId, u32, u32) {
    (ChunkId((span.0 >> 32) as u32), span.0 as u32, span.1 as u32)
}

/// One member's private to-space for one zone slot: a bump cursor plus the
/// scan bookkeeping of its current chunk.
#[derive(Default)]
struct ToCursor {
    /// The slot's to-space chunks this member took, and their words (survivors
    /// plus race-loser fillers — the slot's post-collection allocation volume).
    cursor: ChunkCursor,
    /// End offset of the last fully written copy in the current chunk.
    /// Everything below it is walkable: completed survivors or scrubbed
    /// race-loser fillers.
    filled: u32,
    /// Offset up to which spans of the current chunk have been handed out for
    /// scanning.
    scanned: u32,
}

/// One member's collection state: per-slot to-space cursors plus statistics.
#[derive(Default)]
struct EvacWorker {
    tos: Vec<ToCursor>,
    /// Words of survivors this member won (excludes race-loser fillers).
    copied_words: u64,
    /// Words of large objects this member promoted in place (dedicated chunks
    /// retagged to-space instead of copied).
    inplace_words: u64,
    /// Words wasted on evacuation-race losses.
    waste_words: u64,
    /// Scan blocks this member stole from other members' deques.
    steal_blocks: u64,
    /// Xorshift state for randomized steal-victim order.
    rng: u64,
}

/// Merged result of one evacuation: per-slot to-spaces plus statistics.
pub struct EvacOutcome {
    /// Per zone slot: the merged to-space cursor — its chunks, the words
    /// occupying them, and a partially filled current chunk (if any member left
    /// one) from which the heap resumes allocation.
    pub per_slot: Vec<ChunkCursor>,
    /// Words of live data copied (survivors; excludes evacuation-race waste).
    pub copied_words: u64,
    /// Words of live large objects promoted in place (their dedicated chunks
    /// were retagged to-space and handed over wholesale, never copied).
    pub inplace_words: u64,
    /// Words wasted on evacuation-race losses (opaque fillers).
    pub waste_words: u64,
    /// Total words occupying the to-spaces (`copied + waste`).
    pub occupied_words: u64,
    /// Scan blocks stolen between members (0 for a solo collection).
    pub steal_blocks: u64,
}

/// The evacuation engine: shared state of one collection, driven either by a
/// synchronous team or incrementally under running mutators (see the module
/// docs).
pub struct EvacEngine {
    /// Per zone slot: the raw owner id and run tag of its to-space chunks.
    zone: Vec<(u32, u64)>,
    store: Arc<ChunkStore>,
    /// This collection's epoch (chunk tags are tested against it).
    epoch: u64,
    /// One scan-block deque per slot (owner pushes/pops, others steal). The
    /// barrier slot's deque is owned by whichever thread holds the barrier
    /// slot's mutex — lock hand-off gives successive owners the release/
    /// acquire edge the deque's owner-side contract needs.
    deques: Vec<SpanDeque>,
    /// One private state per slot (locked by its member for a synchronous
    /// collection; locked per-operation by incremental drains and barriers).
    slots: Vec<Mutex<EvacWorker>>,
    sync: TeamSync,
    /// Set once every root has been forwarded; checked before merging to catch
    /// any regression of the trigger pre-registration (a team terminating
    /// without the trigger would retire the zone with all live data).
    roots_seeded: AtomicBool,
    /// Install forwarding by CAS (more than one evacuating party); plain store
    /// when single-threaded.
    concurrent: bool,
    /// Mutators run during the collection: scanners must CAS pointer rewrites
    /// and the barrier/drain/finalize surface is live.
    mutator_concurrent: bool,
    /// Stops new [`EvacEngine::drain_increment`] slices (finalize has taken
    /// over the remaining wavefront).
    closed: AtomicBool,
    /// Stops new [`EvacEngine::barrier_forward`] operations (the collection is
    /// complete; every reachable from-space object carries a forwarding
    /// pointer).
    retired: AtomicBool,
    /// In-flight [`EvacEngine::drain_increment`] calls.
    drain_inflight: AtomicUsize,
    /// In-flight [`EvacEngine::barrier_forward`] calls.
    barrier_inflight: AtomicUsize,
}

impl EvacEngine {
    /// Creates the engine for one collection over `zone`: per zone slot, the
    /// raw owner id and run tag that slot's to-space chunks are allocated for.
    ///
    /// `members` is the team size (slot 0 is the trigger); a
    /// `mutator_concurrent` engine gets one extra hidden slot through which
    /// [`EvacEngine::barrier_forward`] evacuates. The trigger is
    /// **pre-registered** ([`TeamSync::with_trigger`]): helper jobs are
    /// published before the trigger runs its member body, and a fast helper
    /// alone must not be able to terminate the team before the roots have
    /// seeded the wavefront.
    pub fn new(
        zone: Vec<(u32, u64)>,
        store: Arc<ChunkStore>,
        epoch: u64,
        members: usize,
        mutator_concurrent: bool,
    ) -> EvacEngine {
        let n_slots = members + usize::from(mutator_concurrent);
        EvacEngine {
            zone,
            store,
            epoch,
            deques: (0..n_slots).map(|_| SpanDeque::new()).collect(),
            slots: (0..n_slots)
                .map(|_| Mutex::new(EvacWorker::default()))
                .collect(),
            sync: TeamSync::with_trigger(),
            roots_seeded: AtomicBool::new(false),
            concurrent: members > 1 || mutator_concurrent,
            mutator_concurrent,
            closed: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            drain_inflight: AtomicUsize::new(0),
            barrier_inflight: AtomicUsize::new(0),
        }
    }

    /// This collection's epoch (callers test chunk tags against it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of team member slots (excluding the hidden barrier slot).
    fn member_slots(&self) -> usize {
        self.slots.len() - usize::from(self.mutator_concurrent)
    }

    /// The hidden barrier slot's index.
    fn barrier_slot(&self) -> usize {
        debug_assert!(self.mutator_concurrent);
        self.slots.len() - 1
    }

    fn init_worker(&self, w: &mut EvacWorker, slot: usize) {
        w.tos.resize_with(self.zone.len(), ToCursor::default);
        w.rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(slot as u64 + 1) | 1;
    }

    // --- The copy step (shared by every drive mode). -------------------------

    /// Allocates a copy of `header` in `w`'s to-space for zone slot `slot`,
    /// returning the pointer, the chunk it landed in, and whether that chunk is
    /// a dedicated large-object chunk.
    fn alloc_to(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        slot: u16,
        header: Header,
    ) -> (ObjPtr, Arc<Chunk>, bool) {
        let (owner, run_tag) = self.zone[slot as usize];
        let to = &mut w.tos[slot as usize];
        let placed = to
            .cursor
            .alloc(&self.store, owner, run_tag, header, Init::Copy);
        let chunk = Arc::clone(placed.chunk);
        let dedicated = match placed.taken {
            Taken::Bump => return (placed.ptr, chunk, false),
            Taken::Dedicated => true,
            Taken::Refill(prev) => {
                // Flush the old chunk's unscanned tail — `take_tail` only looks
                // at the *current* chunk, so scan work left behind in a
                // replaced chunk would otherwise be lost.
                if let Some(prev) = prev {
                    if to.filled > to.scanned {
                        self.deques[my_slot].push(pack_span(prev.id(), to.scanned, to.filled));
                    }
                }
                to.filled = 0;
                to.scanned = 0;
                false
            }
        };
        // A chunk new to this to-space: stamp it before the forwarding install
        // publishes the copy in it.
        chunk.set_gc_to_space(self.epoch, slot);
        (placed.ptr, chunk, dedicated)
    }

    /// Publishes the pointer-field prefix of a large object (one alone in its
    /// dedicated chunk) as raw pointer-range blocks of at most
    /// [`SCAN_BLOCK_WORDS`] each, so no single increment or steal swallows the
    /// whole object.
    fn push_ptr_prefix_spans(&self, my_slot: usize, obj: ObjPtr, n_ptr: usize) {
        let first = obj.offset() + OFF_FIELDS as u32;
        let end = first + n_ptr as u32;
        let mut off = first;
        while off < end {
            let stop = (off + SCAN_BLOCK_WORDS).min(end);
            self.deques[my_slot].push(pack_raw_span(obj.chunk(), off, stop));
            off = stop;
        }
    }

    /// Records a completed (fully written, forwarding-resolved) copy: advances
    /// the member's filled boundary and publishes scan blocks. Called for
    /// winners *and* scrubbed race losers — both are walkable and must be
    /// covered by some span so block walks stay contiguous. `dedicated` is
    /// `Some(n_ptr)` when the copy sits alone in a dedicated chunk (race
    /// losers pass `Some(0)` — a filler is never scanned).
    fn complete_copy(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        heap_slot: u16,
        copy: ObjPtr,
        size: usize,
        dedicated: Option<usize>,
    ) {
        if let Some(n_ptr) = dedicated {
            // Dedicated chunks hold exactly one object; publish its pointer
            // prefix in bounded raw ranges.
            self.push_ptr_prefix_spans(my_slot, copy, n_ptr);
            return;
        }
        let to = &mut w.tos[heap_slot as usize];
        debug_assert_eq!(to.filled, copy.offset(), "out-of-order copy completion");
        to.filled = copy.offset() + size as u32;
        if to.filled - to.scanned >= SCAN_BLOCK_WORDS {
            let chunk = to.cursor.current().expect("completing into no chunk").id();
            self.deques[my_slot].push(pack_span(chunk, to.scanned, to.filled));
            to.scanned = to.filled;
        }
    }

    /// `cheneyCopy` — the hash-free, race-tolerant step. Returns the relocated
    /// address of `obj` with respect to this collection.
    ///
    /// * a chunk tag of `ToSpace` identifies a copy made by this collection —
    ///   reuse it;
    /// * `Outside` identifies an object beyond the zone — an ancestor heap, a
    ///   copy made by an earlier *promotion* (reusing it eliminates the
    ///   duplicate left in the subtree), or, defensively, any unrelated heap;
    /// * `FromSpace(slot)` is live data of the zone: follow its forwarding
    ///   chain if one exists, otherwise evacuate it into `slot`'s to-space and
    ///   race to install the forwarding pointer.
    fn forward(&self, w: &mut EvacWorker, my_slot: usize, obj: ObjPtr) -> ObjPtr {
        if obj.is_null() {
            return ObjPtr::NULL;
        }
        let mut cur = obj;
        loop {
            let chunk = self.store.chunk(cur.chunk());
            let heap_slot = match chunk.gc_state(self.epoch) {
                // Case 1: already a to-space copy made by this collection.
                // Case 2: outside the collection zone.
                ChunkGcState::ToSpace(_) | ChunkGcState::Outside => return cur,
                ChunkGcState::FromSpace(slot) => slot,
            };
            let v = ObjView::new(chunk, cur.offset());
            // Follow forwarding chains (they may lead to a promotion copy above
            // us, to a to-space copy, or to another from-space object of the
            // zone).
            let fwd = v.fwd();
            if !fwd.is_null() {
                cur = fwd;
                continue;
            }
            // Case 3a: a live large object fills a dedicated chunk of its own
            // (the store's placement invariant for anything over the default
            // chunk size), so it can be transferred wholesale: retag the chunk
            // to-space and hand the object to the scan wavefront. This skips
            // both the copy and — the expensive part under running mutators —
            // a dedicated-chunk mint inside a bounded pause. The object never
            // moves, so no forwarding pointer is installed; the chunk-tag CAS
            // arbitrates racing evacuators, and a loser re-reads the tag as
            // `ToSpace` on its next loop iteration. Chunks already retired
            // (quarantine rescues) are excluded: their lifecycle belongs to
            // the store, so their objects are copied out as usual.
            let header = v.header();
            let size = header.size_words();
            if self.store.needs_dedicated_chunk(header) && !chunk.is_retired() {
                if chunk.try_gc_promote_in_place(self.epoch, heap_slot) {
                    // The retirement test above races with the store (a
                    // quarantine rescue may retire the chunk between the load
                    // and the CAS). Promoting a retired chunk in place would
                    // hand its id to the finalizer's adopt list while the
                    // store's reclamation also owns it — the same
                    // double-ownership shape as the end_run overlap race
                    // (DESIGN.md §11.5). Re-check after winning and revert.
                    if chunk.is_retired() {
                        chunk.set_gc_from_space(self.epoch, heap_slot);
                        continue;
                    }
                    w.tos[heap_slot as usize].cursor.adopt([cur.chunk()], size);
                    w.inplace_words += size as u64;
                    self.push_ptr_prefix_spans(my_slot, cur, header.n_ptr());
                    return cur;
                }
                continue;
            }
            // Case 3b: live from-space object — evacuate it into its own slot's
            // to-space, then race to publish the copy.
            let (copy, copy_chunk, dedicated) = self.alloc_to(w, my_slot, heap_slot, header);
            let cv = ObjView::new(&copy_chunk, copy.offset());
            for f in 0..header.n_fields() {
                cv.set_field(f, v.field(f));
            }
            let won = if self.concurrent {
                v.try_set_fwd(copy).is_ok()
            } else {
                v.set_fwd(copy);
                true
            };
            if won {
                w.copied_words += size as u64;
                let ded = dedicated.then(|| header.n_ptr());
                self.complete_copy(w, my_slot, heap_slot, copy, size, ded);
                return copy;
            }
            // Another party won the race: our copy is unreachable. Retag it as
            // an opaque filler so scans and invariant walks never interpret its
            // fields as pointers, keep it covered by the span (walkers must be
            // able to step over it), and adopt the winner's copy.
            cv.retag_as_filler();
            w.waste_words += size as u64;
            self.complete_copy(w, my_slot, heap_slot, copy, size, dedicated.then_some(0));
            cur = v.fwd();
            debug_assert!(!cur.is_null(), "lost the forwarding race to a NULL");
        }
    }

    /// Walks every object of a scan block, forwarding its pointer fields. The
    /// block covers only fully written copies (winners and scrubbed fillers),
    /// starts and ends at object boundaries, and is owned exclusively by this
    /// member (deque removal is exactly-once).
    ///
    /// Under quiescent mutators (synchronous mode) plain field stores suffice.
    /// Under running mutators the rewrite is a CAS: a concurrent mutator
    /// pointer store must win — its value was pre-forwarded by the write
    /// barrier — so a failed CAS is skipped, never retried.
    fn scan_span(&self, w: &mut EvacWorker, my_slot: usize, span: Span) {
        let mut budget = usize::MAX;
        self.scan_span_bounded(w, my_slot, span, &mut budget);
    }

    /// As [`EvacEngine::scan_span`], but stops at an object boundary once
    /// `budget` words have been walked, pushing the span's remainder back onto
    /// this member's deque. A single call therefore scans at most `budget`
    /// words plus one oversized object — and large objects never appear whole:
    /// anything over the default chunk size is published as raw pointer-range
    /// spans (see [`pack_raw_span`]), which split at any word, so those honor
    /// the budget exactly.
    fn scan_span_bounded(
        &self,
        w: &mut EvacWorker,
        my_slot: usize,
        span: Span,
        budget: &mut usize,
    ) {
        let (chunk_id, start, end) = unpack_span(span);
        let chunk = Arc::clone(self.store.chunk(chunk_id));
        if span_is_raw(span) {
            // Consecutive pointer fields of one large object: forward each
            // word, CAS-rewriting under running mutators exactly as the
            // object walk below does.
            let mut off = start;
            while off < end {
                if *budget == 0 {
                    self.deques[my_slot].push(pack_raw_span(chunk_id, off, end));
                    return;
                }
                let word = chunk.word(off as usize);
                let old = ObjPtr::from_bits(word.load(Ordering::Acquire));
                let new = self.forward(w, my_slot, old);
                if new != old {
                    if self.mutator_concurrent {
                        let _ = word.compare_exchange(
                            old.to_bits(),
                            new.to_bits(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                    } else {
                        word.store(new.to_bits(), Ordering::Release);
                    }
                }
                off += 1;
                *budget -= 1;
            }
            return;
        }
        let mut off = start;
        while off < end {
            if *budget == 0 {
                // Out of budget mid-span: hand the rest back as a fresh block.
                self.deques[my_slot].push(pack_span(chunk_id, off, end));
                return;
            }
            let v = ObjView::new(&chunk, off);
            let header = v.header();
            for f in 0..header.n_ptr() {
                let old = v.field_ptr(f);
                let new = self.forward(w, my_slot, old);
                if new != old {
                    if self.mutator_concurrent {
                        v.cas_field_ptr(f, old, new);
                    } else {
                        v.set_field_ptr(f, new);
                    }
                }
            }
            let size = header.size_words() as u32;
            off += size;
            *budget = budget.saturating_sub(size as usize);
        }
    }

    /// Claims the unscanned tail of one of this member's own current chunks,
    /// if any.
    fn take_tail(w: &mut EvacWorker) -> Option<Span> {
        for to in w.tos.iter_mut() {
            if to.filled > to.scanned {
                let chunk = to.cursor.current().expect("filled words without a chunk");
                let span = pack_span(chunk.id(), to.scanned, to.filled);
                to.scanned = to.filled;
                return Some(span);
            }
        }
        None
    }

    /// Flushes every unscanned tail of `w` onto this member's deque, making
    /// the work visible to other parties. Incremental drains and barriers must
    /// do this before releasing their slot: the slot may next be claimed by a
    /// different thread (or inspected by finalize), and tails are otherwise
    /// invisible.
    fn flush_tails(&self, w: &mut EvacWorker, my_slot: usize) {
        while let Some(span) = Self::take_tail(w) {
            self.deques[my_slot].push(span);
        }
    }

    /// Steals a scan block from another slot's deque, scanning victims from a
    /// random starting point.
    fn steal_span(&self, my_slot: usize, w: &mut EvacWorker) -> Option<Span> {
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        let mut x = w.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w.rng = x;
        let start = (x % n as u64) as usize;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == my_slot {
                continue;
            }
            if let Some(span) = self.deques[victim].steal() {
                return Some(span);
            }
        }
        None
    }

    // --- Synchronous team mode. ----------------------------------------------

    /// The team-member body: process own blocks, then own tails, then steal;
    /// announce idle when nothing is visible and terminate when the whole team
    /// is idle with empty deques.
    fn member_loop(&self, w: &mut EvacWorker, slot: usize) {
        loop {
            if let Some(span) = self.deques[slot].pop() {
                self.scan_span(w, slot, span);
                continue;
            }
            if let Some(span) = Self::take_tail(w) {
                self.scan_span(w, slot, span);
                continue;
            }
            if let Some(span) = self.steal_span(slot, w) {
                w.steal_blocks += 1;
                self.scan_span(w, slot, span);
                continue;
            }
            // Nothing visible: announce idle and wait for either work or
            // termination.
            self.sync.enter_idle();
            let finished = loop {
                if self.sync.is_done() {
                    break true;
                }
                if self.deques.iter().any(|d| !d.is_empty()) {
                    self.sync.exit_idle();
                    break false;
                }
                if self.sync.all_idle() && self.deques.iter().all(|d| d.is_empty()) {
                    // Every member idle and no block queued: idle members
                    // create no work, so this state is stable — the collection
                    // is complete.
                    self.sync.finish();
                    break true;
                }
                std::thread::yield_now();
            };
            if finished {
                break;
            }
        }
    }

    /// Runs the triggering member (slot 0): seeds the roots through the
    /// supplied closure — which receives the engine's forward step and must
    /// apply it to every root — then works the wavefront to termination.
    ///
    /// The trigger is pre-registered and non-idle throughout seeding, so a
    /// fast helper that joins first and finds no work can never observe an
    /// all-idle team and finish the collection before the roots have seeded
    /// the wavefront.
    pub fn run_trigger(&self, seed: impl FnOnce(&mut dyn FnMut(ObjPtr) -> ObjPtr)) {
        // Depart on drop (unwind included): a trigger killed mid-collection
        // must still count as departed, or a later `await_team` caller would
        // spin forever on its registration.
        let _depart = self.sync.depart_on_drop();
        let mut w = self.slots[0].lock();
        self.init_worker(&mut w, 0);
        seed(&mut |p| self.forward(&mut w, 0, p));
        self.roots_seeded.store(true, Ordering::Release);
        self.member_loop(&mut w, 0);
    }

    /// Runs a drafted helper member. A helper arriving after the collection
    /// finished (stale injector job) registers nothing and returns
    /// immediately; a slot beyond the team size likewise bounces.
    pub fn run_helper(&self, slot: usize) {
        if slot == 0 || slot >= self.member_slots() {
            return;
        }
        if !self.sync.try_register() {
            return;
        }
        // As in `run_trigger`: a helper that panics out of its member loop
        // (contained by the pool's worker shield) must not leave a dangling
        // registration behind.
        let _depart = self.sync.depart_on_drop();
        let mut w = self.slots[slot].lock();
        self.init_worker(&mut w, slot);
        self.member_loop(&mut w, slot);
    }

    /// Blocks until every registered member has departed (only the triggering
    /// thread calls this, after its own member body returned). After this, all
    /// per-member state is owned by the caller again.
    pub fn await_team(&self) {
        self.sync.await_departures();
        debug_assert!(
            self.roots_seeded.load(Ordering::Acquire),
            "evacuation team finished without the trigger forwarding the roots"
        );
    }

    // --- Incremental / mutator-concurrent mode. ------------------------------

    /// Seeds the roots (the only stop-the-world work of an incremental
    /// collection): forwards every root through the supplied closure, then
    /// publishes the resulting scan blocks. Mutators may resume as soon as
    /// this returns; the remaining wavefront drains through
    /// [`EvacEngine::drain_increment`] / [`EvacEngine::barrier_forward`] /
    /// [`EvacEngine::finalize`].
    pub fn seed_roots(&self, seed: impl FnOnce(&mut dyn FnMut(ObjPtr) -> ObjPtr)) {
        debug_assert!(
            self.mutator_concurrent,
            "seed_roots on a synchronous engine"
        );
        let mut w = self.slots[0].lock();
        self.init_worker(&mut w, 0);
        seed(&mut |p| self.forward(&mut w, 0, p));
        // Publish the seeded tail: increments from any thread must see it.
        self.flush_tails(&mut w, 0);
        self.roots_seeded.store(true, Ordering::Release);
    }

    /// Drains up to `budget_words` of the remaining scan wavefront (plus at
    /// most one oversized object), on behalf of whichever member slot is free.
    /// Returns `true` if the caller observed the wavefront empty — a hint to
    /// attempt [`EvacEngine::finalize`]; the authoritative quiescence check
    /// lives there.
    ///
    /// Called from mutator safepoints and idle pool workers. If every slot is
    /// busy (other threads are draining) or finalize has closed the engine,
    /// the call is a no-op returning `false`.
    pub fn drain_increment(&self, budget_words: usize) -> bool {
        self.drain_inflight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let mut claimed = None;
        for slot in 0..self.member_slots() {
            if let Some(w) = self.slots[slot].try_lock() {
                claimed = Some((slot, w));
                break;
            }
        }
        let Some((slot, mut w)) = claimed else {
            self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
            return false;
        };
        if w.tos.len() != self.zone.len() {
            self.init_worker(&mut w, slot);
        }
        let mut budget = budget_words;
        let drained = loop {
            if budget == 0 {
                break false;
            }
            if let Some(span) = self.deques[slot].pop() {
                self.scan_span_bounded(&mut w, slot, span, &mut budget);
                continue;
            }
            if let Some(span) = Self::take_tail(&mut w) {
                self.scan_span_bounded(&mut w, slot, span, &mut budget);
                continue;
            }
            if let Some(span) = self.steal_span(slot, &mut w) {
                w.steal_blocks += 1;
                self.scan_span_bounded(&mut w, slot, span, &mut budget);
                continue;
            }
            break true;
        };
        // The slot may be claimed by a different thread next: leave no work
        // hidden in tails.
        self.flush_tails(&mut w, slot);
        drop(w);
        self.drain_inflight.fetch_sub(1, Ordering::SeqCst);
        drained
    }

    /// The mutator write barrier: forwards `obj` on access (installing its
    /// forwarding pointer if this is the first touch), returning the relocated
    /// address — or `None` if the collection has already been retired, in
    /// which case the caller falls back to the ordinary forwarding-chain
    /// resolution (every reachable from-space object carries one by then).
    ///
    /// The in-flight counter and the `retired` flag form a Dekker-style
    /// handshake with [`EvacEngine::finalize`]: an operation that saw
    /// `retired == false` is visible in `barrier_inflight` to the finalizer's
    /// subsequent wait, so the engine is never dismantled under a live
    /// barrier operation.
    pub fn barrier_forward(&self, obj: ObjPtr) -> Option<ObjPtr> {
        self.barrier_inflight.fetch_add(1, Ordering::SeqCst);
        if self.retired.load(Ordering::SeqCst) {
            self.barrier_inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let slot = self.barrier_slot();
        let mut w = self.slots[slot].lock();
        if w.tos.len() != self.zone.len() {
            self.init_worker(&mut w, slot);
        }
        let res = self.forward(&mut w, slot, obj);
        // Flush after *every* operation: the barrier slot runs no member loop,
        // so an unflushed tail here would never be scanned.
        self.flush_tails(&mut w, slot);
        drop(w);
        if self.closed.load(Ordering::SeqCst) {
            // Finalize is draining toward quiescence: consume our own spill so
            // an operation that raced past finalize's empty-deques check
            // leaves no orphaned work behind its inflight decrement.
            self.drain_own(slot);
        }
        self.barrier_inflight.fetch_sub(1, Ordering::SeqCst);
        Some(res)
    }

    /// Drains this slot's own deque (and any tails its scans spill) to empty.
    fn drain_own(&self, slot: usize) {
        let mut w = self.slots[slot].lock();
        loop {
            if let Some(span) = self.deques[slot].pop() {
                self.scan_span(&mut w, slot, span);
                continue;
            }
            if let Some(span) = Self::take_tail(&mut w) {
                self.scan_span(&mut w, slot, span);
                continue;
            }
            break;
        }
    }

    /// Solo-drains the whole wavefront (own deque, tails, steals) on slot 0.
    fn drain_solo(&self) {
        let mut w = self.slots[0].lock();
        if w.tos.len() != self.zone.len() {
            self.init_worker(&mut w, 0);
        }
        loop {
            if let Some(span) = self.deques[0].pop() {
                self.scan_span(&mut w, 0, span);
                continue;
            }
            if let Some(span) = Self::take_tail(&mut w) {
                self.scan_span(&mut w, 0, span);
                continue;
            }
            if let Some(span) = self.steal_span(0, &mut w) {
                w.steal_blocks += 1;
                self.scan_span(&mut w, 0, span);
                continue;
            }
            break;
        }
        self.flush_tails(&mut w, 0);
    }

    /// Retires an incremental collection: drains the remaining wavefront to
    /// empty (with the write barrier still active — disabling it any earlier
    /// would reopen the lost-update race for the residue), then quiesces the
    /// barrier surface. On return the engine holds the complete evacuation:
    /// every reachable from-space object carries a forwarding pointer, no
    /// operation is in flight, and the caller may [`EvacEngine::merge`] and
    /// retire the from-space.
    ///
    /// Quiescence handshake (all `SeqCst`):
    /// 1. `closed := true`; wait `drain_inflight == 0`. New drain increments
    ///    bounce; in-flight ones flushed their tails before decrementing, so
    ///    their work is visible in the deques.
    /// 2. Loop: solo-drain; stop once *deques empty* then
    ///    `barrier_inflight == 0` (in that order). A barrier operation that
    ///    decremented before the counter read either flushed its spill before
    ///    our deque check (we saw it) or observed `closed` and self-drained
    ///    ([`EvacEngine::barrier_forward`]); one still in flight holds the
    ///    counter up. Either way no orphaned work can hide behind the
    ///    observation.
    /// 3. `retired := true`; wait `barrier_inflight == 0` again (Dekker: an
    ///    operation that saw `retired == false` is counted), then mop up
    ///    defensively. Post-quiescence operations find forwarding chains
    ///    already installed — the wavefront was complete — so they create no
    ///    new work.
    pub fn finalize(&self) {
        debug_assert!(self.mutator_concurrent, "finalize on a synchronous engine");
        self.closed.store(true, Ordering::SeqCst);
        while self.drain_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        loop {
            self.drain_solo();
            if self.deques.iter().all(|d| d.is_empty())
                && self.barrier_inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
            std::thread::yield_now();
        }
        self.retired.store(true, Ordering::SeqCst);
        while self.barrier_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        self.drain_solo();
        debug_assert!(
            self.deques.iter().all(|d| d.is_empty()),
            "work appeared after barrier retirement"
        );
    }

    // --- Merging. ------------------------------------------------------------

    /// Merges every member's to-spaces into one cursor per slot. Each slot
    /// resumes from *a* member's partially filled current chunk; other members'
    /// partial chunks keep their unused tails (bounded internal fragmentation,
    /// reclaimed at the next collection).
    ///
    /// Call after [`EvacEngine::await_team`] (synchronous mode) or
    /// [`EvacEngine::finalize`] (incremental mode); the engine must be
    /// quiescent.
    pub fn merge(&self) -> EvacOutcome {
        debug_assert!(
            self.roots_seeded.load(Ordering::Acquire),
            "merging an evacuation whose roots were never seeded"
        );
        let mut copied_words = 0u64;
        let mut inplace_words = 0u64;
        let mut waste_words = 0u64;
        let mut steal_blocks = 0u64;
        let mut per_slot: Vec<ChunkCursor> =
            (0..self.zone.len()).map(|_| ChunkCursor::new()).collect();
        for slot in self.slots.iter() {
            let mut w = slot.lock();
            copied_words += w.copied_words;
            inplace_words += w.inplace_words;
            waste_words += w.waste_words;
            steal_blocks += w.steal_blocks;
            for (merged, to) in per_slot.iter_mut().zip(w.tos.iter_mut()) {
                merged.merge(std::mem::take(&mut to.cursor));
            }
        }
        let occupied_words = per_slot.iter().map(|c| c.words() as u64).sum();
        // To-space conservation: every occupying word is a copied survivor, an
        // in-place-promoted survivor, or an evacuation-race filler.
        debug_assert_eq!(
            copied_words + inplace_words + waste_words,
            occupied_words,
            "to-space words unaccounted for"
        );
        EvacOutcome {
            per_slot,
            copied_words,
            inplace_words,
            waste_words,
            occupied_words,
            steal_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    #[test]
    fn span_packing_roundtrips() {
        let span = pack_span(ChunkId(7), 12, 400);
        assert_eq!(unpack_span(span), (ChunkId(7), 12, 400));
        let span = pack_span(ChunkId(u32::MAX), u32::MAX, u32::MAX);
        assert_eq!(unpack_span(span), (ChunkId(u32::MAX), u32::MAX, u32::MAX));
        assert!(!span_is_raw(span));
        let raw = pack_raw_span(ChunkId(7), 12, 400);
        assert!(span_is_raw(raw));
        assert_eq!(unpack_span(raw), (ChunkId(7), 12, 400));
    }

    /// Builds a cons list of `n` cells owned by `owner`, tags `n-1 ..= 0` from
    /// the head. With `array_every = Some(k)` every cell's first field points at
    /// a side object whose one pointer field holds a 1-field leaf carrying the
    /// cell's tag: a large pointer array (a chunk of its own) for every `k`-th
    /// cell, a small box otherwise. Returns the chunks and the list head.
    fn build_list(
        store: &Arc<ChunkStore>,
        owner: u32,
        n: u64,
        array_every: Option<u64>,
    ) -> (Vec<ChunkId>, ObjPtr) {
        let mut cursor = ChunkCursor::new();
        let mut alloc = |h: Header| cursor.alloc(store, owner, 0, h, Init::Full).ptr;
        let mut list = ObjPtr::NULL;
        for i in 0..n {
            let cell = alloc(Header::new(3, 2, ObjKind::Cons));
            if let Some(k) = array_every {
                let leaf = alloc(Header::new(1, 0, ObjKind::Tuple));
                store.view(leaf).set_field(0, i);
                let side = if i % k == 0 {
                    let len = store.default_chunk_words() + 8;
                    alloc(Header::new(len, 1, ObjKind::ArrayPtr))
                } else {
                    alloc(Header::new(1, 1, ObjKind::Ref))
                };
                store.view(side).set_field_ptr(0, leaf);
                store.view(cell).set_field_ptr(0, side);
            }
            store.view(cell).set_field_ptr(1, list);
            store.view(cell).set_field(2, i);
            list = cell;
        }
        (cursor.take().0, list)
    }

    /// Stamps `chunks` from-space (slot 0) for a fresh collection epoch.
    fn stamp_from_space(store: &ChunkStore, chunks: &[ChunkId]) -> u64 {
        let epoch = store.next_gc_epoch();
        for &c in chunks {
            store.chunk(c).set_gc_from_space(epoch, 0);
        }
        epoch
    }

    fn walk_tags(store: &Arc<ChunkStore>, mut cur: ObjPtr) -> Vec<u64> {
        let mut tags = Vec::new();
        while !cur.is_null() {
            let v = store.view(cur);
            tags.push(v.field(2));
            cur = v.field_ptr(1);
        }
        tags
    }

    #[test]
    fn solo_synchronous_evacuation_preserves_the_graph() {
        let store = Arc::new(ChunkStore::new(256));
        let owner = 9;
        let (chunks, list) = build_list(&store, owner, 5, None);
        let epoch = stamp_from_space(&store, &chunks);
        let engine = EvacEngine::new(vec![(owner, 0)], Arc::clone(&store), epoch, 1, false);
        let roots = Mutex::new(vec![list]);
        engine.run_trigger(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        engine.await_team();
        let outcome = engine.merge();
        assert_eq!(outcome.copied_words, 5 * 5);
        assert_eq!(outcome.waste_words, 0);
        assert_eq!(outcome.per_slot.len(), 1);
        assert_eq!(outcome.per_slot[0].words(), 25);
        let new_root = roots.lock()[0];
        assert_ne!(new_root, list);
        assert_eq!(walk_tags(&store, new_root), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn incremental_evacuation_drains_in_bounded_slices() {
        let store = Arc::new(ChunkStore::new(256));
        let owner = 11;
        let (chunks, list) = build_list(&store, owner, 200, None);
        let epoch = stamp_from_space(&store, &chunks);
        let engine = EvacEngine::new(vec![(owner, 0)], Arc::clone(&store), epoch, 1, true);
        let roots = Mutex::new(vec![list]);
        engine.seed_roots(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        // Drain in small increments; each slice is bounded.
        let mut increments = 0;
        while !engine.drain_increment(64) {
            increments += 1;
            assert!(increments < 1_000, "incremental drain failed to terminate");
        }
        engine.finalize();
        let outcome = engine.merge();
        assert_eq!(outcome.copied_words, 200 * 5);
        assert!(
            increments > 1,
            "budget of 64 words must take several slices"
        );
        let new_root = roots.lock()[0];
        assert_eq!(walk_tags(&store, new_root).len(), 200);
    }

    #[test]
    fn barrier_forward_evacuates_on_access_and_bounces_after_retirement() {
        let store = Arc::new(ChunkStore::new(256));
        let owner = 13;
        let (chunks, list) = build_list(&store, owner, 3, None);
        let epoch = stamp_from_space(&store, &chunks);
        let engine = EvacEngine::new(vec![(owner, 0)], Arc::clone(&store), epoch, 1, true);
        let roots = Mutex::new(vec![list]);
        engine.seed_roots(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        // A mutator touches the (already-evacuated) head through a stale
        // pointer: the barrier returns the existing copy.
        let via_barrier = engine.barrier_forward(list).expect("engine is live");
        assert_eq!(via_barrier, roots.lock()[0]);
        engine.finalize();
        assert_eq!(engine.barrier_forward(list), None, "retired engine bounces");
        let outcome = engine.merge();
        assert_eq!(outcome.copied_words, 3 * 5);
    }

    /// Survivors that span several to-space chunks, with large arrays in
    /// between: every refill must flush the replaced chunk's unscanned tail
    /// (a lost tail leaves its objects' fields pointing into from-space), and
    /// a large object copied out of a retired chunk must land in a dedicated
    /// to-space chunk without displacing the member's bump chunk.
    #[test]
    fn evacuation_spans_chunks_and_copies_large_objects_to_dedicated_chunks() {
        let store = Arc::new(ChunkStore::new(64));
        let owner = 17;
        let n = 60;
        let (chunks, list) = build_list(&store, owner, n, Some(7));
        let array_words = Header::new(64 + 8, 1, ObjKind::ArrayPtr).size_words();
        // Arrays sitting in retired chunks (quarantine rescues) are copied;
        // the others are promoted in place. Retire every other one.
        let mut copied_arrays = 0;
        let mut cur = list;
        while !cur.is_null() {
            let side = store.view(cur).field_ptr(0);
            if store.view(side).n_fields() > 1 && store.view(cur).field(2).is_multiple_of(14) {
                store.retire_chunk(side.chunk());
                copied_arrays += 1;
            }
            cur = store.view(cur).field_ptr(1);
        }
        assert!(copied_arrays > 0);
        let epoch = stamp_from_space(&store, &chunks);
        let engine = EvacEngine::new(vec![(owner, 0)], Arc::clone(&store), epoch, 1, false);
        let roots = Mutex::new(vec![list]);
        engine.run_trigger(|fwd| {
            for r in roots.lock().iter_mut() {
                *r = fwd(*r);
            }
        });
        engine.await_team();
        let outcome = engine.merge();
        let n_arrays = n.div_ceil(7);
        let small_words = n * (5 + 3) + (n - n_arrays) * 3;
        assert_eq!(
            outcome.copied_words as usize,
            small_words as usize + copied_arrays * array_words
        );
        assert_eq!(
            outcome.inplace_words as usize,
            (n_arrays as usize - copied_arrays) * array_words
        );
        let to_space = &outcome.per_slot[0];
        let bump = to_space
            .current()
            .expect("small copies leave a bump chunk")
            .id();
        let in_to_space =
            |p: ObjPtr| store.chunk(p.chunk()).gc_state(epoch) == ChunkGcState::ToSpace(0);
        let mut small_chunks = std::collections::HashSet::new();
        let mut dedicated_copies = 0;
        let mut cur = roots.lock()[0];
        let mut tag = n;
        while !cur.is_null() {
            tag -= 1;
            let cell = store.view(cur);
            assert_eq!(cell.field(2), tag);
            assert!(in_to_space(cur), "cell {tag} left in from-space");
            small_chunks.insert(cur.chunk());
            let side = cell.field_ptr(0);
            assert!(in_to_space(side), "side object of cell {tag} not forwarded");
            let leaf = store.view(side).field_ptr(0);
            assert!(in_to_space(leaf), "side object of cell {tag} never scanned");
            assert_eq!(store.view(leaf).field(0), tag);
            if store.view(side).n_fields() > 1 {
                assert_ne!(side.chunk(), bump, "large copy displaced the bump chunk");
                assert_eq!(side.offset(), 0, "large object shares its chunk");
                dedicated_copies += usize::from(!chunks.contains(&side.chunk()));
            }
            cur = cell.field_ptr(1);
        }
        assert_eq!(tag, 0);
        assert!(small_chunks.len() >= 3, "survivors fit one chunk");
        assert_eq!(dedicated_copies, copied_arrays);
        for &c in to_space.chunks() {
            assert_eq!(store.chunk(c).gc_state(epoch), ChunkGcState::ToSpace(0));
            assert_eq!(store.chunk(c).owner(), owner);
        }
    }
}
