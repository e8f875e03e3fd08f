//! A single heap in the hierarchy.

use crate::id::HeapId;
use crate::rwlock::HeapRwLock;
use hh_objmodel::{ChunkCursor, ChunkId, ChunkStore, Header, Init, ObjPtr};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Point-in-time statistics for one heap.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Words of objects allocated in this heap since its creation or last collection.
    pub allocated_words: usize,
    /// Number of chunks currently owned.
    pub n_chunks: usize,
    /// Number of objects promoted *into* this heap.
    pub promoted_in_objects: usize,
    /// Words of objects promoted *into* this heap.
    pub promoted_in_words: usize,
    /// Number of collections performed on this heap.
    pub collections: usize,
}

/// One heap of the hierarchy.
///
/// A heap is a linked list of chunks with a bump allocator, a readers–writer lock, a
/// depth, and a `merged_into` forwarding link installed when the heap is joined into its
/// parent (after which it is no longer allocated into and all queries forward to the
/// parent).
pub struct Heap {
    id: HeapId,
    parent: HeapId,
    /// Epoch of the run this heap belongs to (0 = untracked). Fixed at creation;
    /// children inherit it from their parent. Chunks allocated by this heap carry
    /// the tag, which becomes their quarantine stamp at retirement.
    run_tag: u64,
    depth: AtomicU32,
    /// Raw id of the heap this one has been merged into, or `HeapId::NONE.raw()` while live.
    merged_into: AtomicU32,
    /// The paper's per-heap readers–writer lock.
    pub lock: HeapRwLock,
    /// The heap's chunk list (its from-space) and bump chunk.
    alloc: Mutex<ChunkCursor>,
    /// Lock-free mirror of the cursor's word count, refreshed under the allocation
    /// mutex whenever the cursor changes (safe points read it on every poll).
    allocated_words: AtomicUsize,
    promoted_in_objects: AtomicUsize,
    promoted_in_words: AtomicUsize,
    collections: AtomicUsize,
}

impl Heap {
    #[cfg(test)]
    pub(crate) fn new(id: HeapId, parent: HeapId, depth: u32) -> Heap {
        Self::new_tagged(id, parent, depth, 0)
    }

    pub(crate) fn new_tagged(id: HeapId, parent: HeapId, depth: u32, run_tag: u64) -> Heap {
        Heap {
            id,
            parent,
            run_tag,
            depth: AtomicU32::new(depth),
            merged_into: AtomicU32::new(HeapId::NONE.raw()),
            lock: HeapRwLock::new(),
            alloc: Mutex::new(ChunkCursor::new()),
            allocated_words: AtomicUsize::new(0),
            promoted_in_objects: AtomicUsize::new(0),
            promoted_in_words: AtomicUsize::new(0),
            collections: AtomicUsize::new(0),
        }
    }

    /// This heap's id.
    #[inline]
    pub fn id(&self) -> HeapId {
        self.id
    }

    /// The heap's parent at creation time (NONE for the root heap).
    #[inline]
    pub fn parent(&self) -> HeapId {
        self.parent
    }

    /// Epoch of the run this heap belongs to (0 = not epoch-tracked).
    #[inline]
    pub fn run_tag(&self) -> u64 {
        self.run_tag
    }

    /// Depth in the hierarchy: the root is at depth 0.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth.load(Ordering::Acquire)
    }

    /// The heap this one has been merged into, or NONE while it is still live.
    #[inline]
    pub fn merged_into(&self) -> HeapId {
        HeapId::from_raw(self.merged_into.load(Ordering::Acquire))
    }

    /// True if the heap has not been merged into its parent yet.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.merged_into().is_none()
    }

    /// Records that this heap has been merged into `target` (used by `join_heap`).
    pub(crate) fn set_merged_into(&self, target: HeapId) {
        self.merged_into.store(target.raw(), Ordering::Release);
    }

    /// Path compression helper used by the registry.
    pub(crate) fn compress_merged_into(&self, old: HeapId, new: HeapId) {
        let _ = self.merged_into.compare_exchange(
            old.raw(),
            new.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Allocates an object with the given header in this heap (`freshObj`), by the
    /// placement rule of [`ChunkCursor::alloc`].
    ///
    /// Thread-safe: the owning task allocates here, but promotions performed by other
    /// tasks (holding this heap's WRITE lock) also allocate into ancestor heaps.
    pub fn alloc_obj(&self, store: &ChunkStore, header: Header) -> ObjPtr {
        self.with_cursor(|c| {
            c.alloc(store, self.id.raw(), self.run_tag, header, Init::Full)
                .ptr
        })
    }

    /// Runs `f` on this heap's allocation cursor with the allocation mutex held, so a
    /// pass that allocates many objects (batched promotion evacuating a closure) pays
    /// one lock acquisition instead of one per object. Allocate with this heap's
    /// owner id and [`Heap::run_tag`].
    ///
    /// While `f` runs, every other allocator of this heap blocks — callers must keep
    /// the session bounded (promotion already excludes `findMaster` readers via the
    /// heap WRITE lock; the allocation mutex is a leaf lock, so no ordering cycle is
    /// possible).
    pub fn with_cursor<R>(&self, f: impl FnOnce(&mut ChunkCursor) -> R) -> R {
        let mut cursor = self.alloc.lock();
        let r = f(&mut cursor);
        self.allocated_words
            .store(cursor.words(), Ordering::Relaxed);
        r
    }

    /// Records `objects` objects totalling `words` words promoted into this heap in
    /// one batched pass (statistics only).
    pub fn note_promoted_in_batch(&self, objects: usize, words: usize) {
        self.promoted_in_objects
            .fetch_add(objects, Ordering::Relaxed);
        self.promoted_in_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Words allocated into this heap since creation or the last [`Heap::replace_chunks`].
    pub fn allocated_words(&self) -> usize {
        self.allocated_words.load(Ordering::Relaxed)
    }

    /// Snapshot of the chunk ids currently owned by this heap.
    pub fn chunks(&self) -> Vec<ChunkId> {
        self.alloc.lock().chunks().to_vec()
    }

    /// Number of chunks currently owned by this heap.
    pub fn n_chunks(&self) -> usize {
        self.alloc.lock().chunks().len()
    }

    /// Splices all of `child`'s chunks onto this heap's chunk list (`joinHeap`). The
    /// child's allocation state is emptied; this heap's bump chunk stays current.
    /// Constant-time apart from the list splice.
    pub fn absorb_chunks_of(&self, child: &Heap) {
        let mut child_alloc = child.alloc.lock();
        let (chunks, words) = child_alloc.take();
        child.allocated_words.store(0, Ordering::Relaxed);
        self.with_cursor(|c| c.adopt(chunks, words));
    }

    /// Installs a collected to-space as this heap's new from-space, resuming
    /// allocation from its current chunk (if any). Returns the old chunk list.
    pub fn replace_chunks(&self, to_space: ChunkCursor) -> Vec<ChunkId> {
        let old = self.with_cursor(|c| std::mem::replace(c, to_space).take().0);
        self.collections.fetch_add(1, Ordering::Relaxed);
        old
    }

    /// Adds collected to-space chunks to this heap's chunk list without touching
    /// its bump chunk (used by the incremental collector's finalize: the mutator has
    /// been allocating fresh chunks into this heap since the roots-only pause, and
    /// its current bump chunk must stay current). Counts as a collection.
    pub fn adopt_collected_chunks(&self, mut collected: ChunkCursor) {
        let (chunks, words) = collected.take();
        self.with_cursor(|c| c.adopt(chunks, words));
        self.collections.fetch_add(1, Ordering::Relaxed);
    }

    /// Empties the heap's allocation state and returns every chunk it held. Unlike
    /// [`Heap::replace_chunks`] this does not count as a collection; it is used by
    /// the runtimes to dispose of a completed run's heap tree before recycling.
    pub fn take_all_chunks(&self) -> Vec<ChunkId> {
        self.with_cursor(|c| c.take().0)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            allocated_words: self.allocated_words(),
            n_chunks: self.n_chunks(),
            promoted_in_objects: self.promoted_in_objects.load(Ordering::Relaxed),
            promoted_in_words: self.promoted_in_words.load(Ordering::Relaxed),
            collections: self.collections.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("depth", &self.depth())
            .field("merged_into", &self.merged_into())
            .field("allocated_words", &self.allocated_words())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_objmodel::ObjKind;

    fn store() -> ChunkStore {
        ChunkStore::new(64)
    }

    #[test]
    fn alloc_in_heap_tracks_words_and_chunks() {
        let store = store();
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let header = Header::new(6, 0, ObjKind::Tuple); // 8 words
        let mut ptrs = Vec::new();
        for _ in 0..20 {
            ptrs.push(h.alloc_obj(&store, header));
        }
        assert_eq!(h.allocated_words(), 20 * 8);
        assert!(h.n_chunks() >= 2, "64-word chunks should have overflowed");
        // All objects readable and distinct.
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 20);
        for p in ptrs {
            assert_eq!(store.view(p).n_fields(), 6);
            assert_eq!(store.chunk_owner(p), 0);
        }
    }

    #[test]
    fn huge_object_gets_its_own_chunk() {
        let store = store();
        let h = Heap::new(HeapId(3), HeapId::NONE, 0);
        let header = Header::new(1000, 0, ObjKind::ArrayData);
        let p = h.alloc_obj(&store, header);
        assert_eq!(store.view(p).n_fields(), 1000);
        assert_eq!(store.chunk_owner(p), 3);
    }

    #[test]
    fn large_object_detour_keeps_the_current_chunk() {
        let store = store(); // 64-word chunks
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let small = Header::new(2, 0, ObjKind::Tuple); // 4 words
        let first = h.alloc_obj(&store, small);
        // A large object must get a dedicated chunk…
        let big = h.alloc_obj(&store, Header::new(500, 0, ObjKind::ArrayData));
        // …and the next small object must land back in the first, partially filled
        // chunk rather than opening a third one.
        let second = h.alloc_obj(&store, small);
        assert_eq!(second.chunk(), first.chunk(), "current chunk was abandoned");
        assert_ne!(big.chunk(), first.chunk());
        assert_eq!(h.n_chunks(), 2);
    }

    #[test]
    fn absorb_moves_chunks_and_words() {
        let store = store();
        let parent = Heap::new(HeapId(0), HeapId::NONE, 0);
        let child = Heap::new(HeapId(1), HeapId(0), 1);
        let header = Header::new(2, 0, ObjKind::Tuple);
        for _ in 0..10 {
            child.alloc_obj(&store, header);
        }
        let child_words = child.allocated_words();
        let child_chunks = child.n_chunks();
        assert!(child_words > 0 && child_chunks > 0);
        parent.alloc_obj(&store, header);
        let parent_chunks_before = parent.n_chunks();
        parent.absorb_chunks_of(&child);
        assert_eq!(parent.n_chunks(), parent_chunks_before + child_chunks);
        assert_eq!(child.n_chunks(), 0);
        assert_eq!(child.allocated_words(), 0);
        assert_eq!(parent.allocated_words(), child_words + header.size_words());
    }

    #[test]
    fn replace_chunks_swaps_spaces() {
        let store = store();
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        let header = Header::new(2, 0, ObjKind::Tuple);
        for _ in 0..10 {
            h.alloc_obj(&store, header);
        }
        let old = h.replace_chunks(ChunkCursor::new());
        assert!(!old.is_empty());
        assert_eq!(h.n_chunks(), 0);
        assert_eq!(h.allocated_words(), 0);
        assert_eq!(h.stats().collections, 1);
        // Allocation after a flip starts a new chunk.
        let p = h.alloc_obj(&store, header);
        assert_eq!(store.view(p).n_fields(), 2);
        assert_eq!(h.n_chunks(), 1);
    }

    #[test]
    fn flip_never_resumes_into_a_dedicated_chunk() {
        let store = store(); // 64-word chunks
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        // A to-space whose only survivor is a large object: no bump chunk.
        let mut to_space = ChunkCursor::new();
        let big = Header::new(100, 0, ObjKind::ArrayData);
        let big = to_space.alloc(&store, 0, 0, big, Init::Full).ptr;
        assert!(
            store.chunk(big.chunk()).free() >= 4,
            "dedicated chunk has slack"
        );
        h.replace_chunks(to_space);
        // A small object sharing that chunk would be carried along, unscanned,
        // when the next collection transfers the large object in place.
        let small = h.alloc_obj(&store, Header::new(2, 0, ObjKind::Tuple));
        assert_ne!(small.chunk(), big.chunk());
        assert_eq!(h.n_chunks(), 2);
    }

    #[test]
    fn merged_into_transitions() {
        let h = Heap::new(HeapId(5), HeapId(2), 3);
        assert!(h.is_live());
        assert_eq!(h.parent(), HeapId(2));
        assert_eq!(h.depth(), 3);
        h.set_merged_into(HeapId(2));
        assert!(!h.is_live());
        assert_eq!(h.merged_into(), HeapId(2));
        h.compress_merged_into(HeapId(2), HeapId(0));
        assert_eq!(h.merged_into(), HeapId(0));
        // Compression with a stale old value is a no-op.
        h.compress_merged_into(HeapId(2), HeapId(7));
        assert_eq!(h.merged_into(), HeapId(0));
    }

    #[test]
    fn promotion_stats_accumulate() {
        let h = Heap::new(HeapId(0), HeapId::NONE, 0);
        h.note_promoted_in_batch(1, 4);
        h.note_promoted_in_batch(1, 6);
        let s = h.stats();
        assert_eq!(s.promoted_in_objects, 2);
        assert_eq!(s.promoted_in_words, 10);
    }
}
