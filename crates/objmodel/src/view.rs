//! Structured access to a single object.
//!
//! An [`ObjView`] pairs a chunk reference with the word offset of an object header and
//! exposes the low-level primitives of the paper's Figure 4: reading the header, testing
//! and following the forwarding pointer (`hasFwdPtr` / `fwdPtr`), and loading / storing /
//! CAS-ing individual fields (`getField`).
//!
//! ## Memory-ordering conventions
//!
//! * The **forwarding-pointer slot** is *installed* (NULL → copy) at most once per
//!   object, always by a thread holding the owning heap's WRITE lock (promotion) or
//!   during a collection of a quiescent subtree. It is published with `Release` and
//!   read with `Acquire`, so a reader that observes the forwarding pointer also
//!   observes the fully initialized copy it points to. Once installed, the slot is
//!   **monotone**: [`ObjView::compress_fwd`] may CAS it from one chain member to a
//!   *later* member of the same chain (path compression), so every value the slot
//!   ever holds leads to the same master copy.
//! * **Fields** are accessed with `Acquire` loads and `Release` stores. This is slightly
//!   stronger than necessary for non-pointer data but keeps the model simple and is free
//!   on x86; pointer fields genuinely need release/acquire so that a task reading a
//!   published pointer sees the pointee's initialized contents.

use crate::chunk::Chunk;
use crate::header::{Header, ObjKind};
use crate::objptr::ObjPtr;
use std::sync::atomic::Ordering;

/// Word offset of the header within an object.
pub const OFF_HEADER: usize = 0;
/// Word offset of the dedicated forwarding-pointer slot within an object.
pub const OFF_FWD: usize = 1;
/// Word offset of the first field within an object.
pub const OFF_FIELDS: usize = 2;

/// A view of one object inside a chunk.
#[derive(Copy, Clone)]
pub struct ObjView<'a> {
    chunk: &'a Chunk,
    base: usize,
}

impl<'a> ObjView<'a> {
    /// Creates a view of the object whose header is at word `offset` of `chunk`.
    #[inline]
    pub fn new(chunk: &'a Chunk, offset: u32) -> Self {
        ObjView {
            chunk,
            base: offset as usize,
        }
    }

    /// The chunk this object lives in.
    #[inline]
    pub fn chunk(&self) -> &'a Chunk {
        self.chunk
    }

    /// Word offset of the object header inside its chunk.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Writes the header word and clears the forwarding slot and all pointer fields.
    /// Called exactly once, by the allocating thread.
    ///
    /// Pointer fields must start out as [`ObjPtr::NULL`] (not the zero bit pattern of a
    /// freshly mapped chunk, which would alias chunk 0, offset 0) so that tracing an
    /// object whose fields have not been filled in yet never follows a bogus pointer.
    #[inline]
    pub fn init(&self, header: Header) {
        self.chunk
            .word(self.base + OFF_HEADER)
            .store(header.encode(), Ordering::Release);
        self.chunk
            .word(self.base + OFF_FWD)
            .store(ObjPtr::NULL.to_bits(), Ordering::Release);
        for i in 0..header.n_ptr() {
            self.chunk
                .word(self.base + OFF_FIELDS + i)
                .store(ObjPtr::NULL.to_bits(), Ordering::Release);
        }
    }

    /// Writes the header word and clears the forwarding slot, leaving the fields
    /// **uninitialized** (whatever the chunk held — zero bits on a fresh or recycled
    /// chunk, which is *not* [`ObjPtr::NULL`]).
    ///
    /// For evacuation-style copies only ([`crate::Init::Copy`]):
    /// the caller must store every field before any other thread can reach the
    /// object. Promotion satisfies this by holding the target heap's WRITE lock
    /// until the copy is fully filled in; collections run on quiescent zones.
    #[inline]
    pub fn init_for_copy(&self, header: Header) {
        self.chunk
            .word(self.base + OFF_HEADER)
            .store(header.encode(), Ordering::Release);
        self.chunk
            .word(self.base + OFF_FWD)
            .store(ObjPtr::NULL.to_bits(), Ordering::Release);
    }

    /// Decodes the object's header.
    #[inline]
    pub fn header(&self) -> Header {
        Header::decode(
            self.chunk
                .word(self.base + OFF_HEADER)
                .load(Ordering::Acquire),
        )
    }

    /// Total number of fields.
    #[inline]
    pub fn n_fields(&self) -> usize {
        self.header().n_fields()
    }

    /// Number of pointer fields.
    #[inline]
    pub fn n_ptr(&self) -> usize {
        self.header().n_ptr()
    }

    /// The object's kind tag.
    #[inline]
    pub fn kind(&self) -> ObjKind {
        self.header().kind()
    }

    /// Object size in words (header + forwarding slot + fields).
    #[inline]
    pub fn size_words(&self) -> usize {
        self.header().size_words()
    }

    /// `hasFwdPtr`: true if a forwarding pointer has been installed.
    #[inline]
    pub fn has_fwd(&self) -> bool {
        !self.fwd().is_null()
    }

    /// `*fwdPtr(obj)`: the forwarding pointer, or NULL if none has been installed.
    #[inline]
    pub fn fwd(&self) -> ObjPtr {
        ObjPtr::from_bits(self.chunk.word(self.base + OFF_FWD).load(Ordering::Acquire))
    }

    /// Installs the forwarding pointer. The caller must hold whatever exclusion the
    /// higher layer requires (the heap WRITE lock during promotion, or subtree
    /// quiescence during collection).
    #[inline]
    pub fn set_fwd(&self, target: ObjPtr) {
        debug_assert!(!target.is_null(), "installing a NULL forwarding pointer");
        self.chunk
            .word(self.base + OFF_FWD)
            .store(target.to_bits(), Ordering::Release);
    }

    /// Atomically installs the forwarding pointer only if none is present yet.
    /// Returns `Ok(())` on success and the existing pointer on failure.
    pub fn try_set_fwd(&self, target: ObjPtr) -> Result<(), ObjPtr> {
        debug_assert!(!target.is_null());
        match self.chunk.word(self.base + OFF_FWD).compare_exchange(
            ObjPtr::NULL.to_bits(),
            target.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(existing) => Err(ObjPtr::from_bits(existing)),
        }
    }

    /// Rewrites the header so the object declares **no pointer fields** (same total
    /// size, kind [`ObjKind::Other`]), turning it into an opaque filler that heap
    /// walkers skip over without interpreting its words as pointers.
    ///
    /// Used by a parallel collection's evacuation race loser: the copy it allocated
    /// lost the forwarding CAS to another worker's copy, is unreachable, and must
    /// not present its (from-space-pointing) fields to later scans, invariant
    /// checks, or the disentanglement walker.
    #[inline]
    pub fn retag_as_filler(&self) {
        let header = self.header();
        let filler = Header::new(header.n_fields(), 0, ObjKind::Other);
        self.chunk
            .word(self.base + OFF_HEADER)
            .store(filler.encode(), Ordering::Release);
    }

    /// Path compression: atomically shortcuts the forwarding pointer from `old` to
    /// `new`, where `new` must be reachable from `old` by following forwarding
    /// pointers. Returns `true` if the shortcut was installed.
    ///
    /// Unlike [`ObjView::set_fwd`], this is safe to call without any heap lock: the
    /// slot is monotone along one forwarding chain (chains only grow at the shallow
    /// end and are never unlinked before the reuse horizon), so concurrent readers
    /// observe either the old hop or the shortcut — both lead to the same master.
    /// A failed CAS means another thread compressed (or extended) concurrently; the
    /// chain is still intact either way, so failure needs no retry.
    #[inline]
    pub fn compress_fwd(&self, old: ObjPtr, new: ObjPtr) -> bool {
        debug_assert!(!old.is_null() && !new.is_null());
        self.chunk
            .word(self.base + OFF_FWD)
            .compare_exchange(
                old.to_bits(),
                new.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    #[inline]
    fn field_index(&self, i: usize) -> usize {
        debug_assert!(
            i < self.n_fields(),
            "field {i} out of bounds (object has {} fields)",
            self.n_fields()
        );
        self.base + OFF_FIELDS + i
    }

    /// `*getField(obj, field)` as a load.
    #[inline]
    pub fn field(&self, i: usize) -> u64 {
        self.chunk.word(self.field_index(i)).load(Ordering::Acquire)
    }

    /// `*getField(obj, field) <- val` as a store.
    #[inline]
    pub fn set_field(&self, i: usize, val: u64) {
        self.chunk
            .word(self.field_index(i))
            .store(val, Ordering::Release);
    }

    /// Atomic compare-and-swap on a field; returns the previous value on failure.
    #[inline]
    pub fn cas_field(&self, i: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.chunk.word(self.field_index(i)).compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Atomic fetch-add on a (non-pointer) field, returning the previous value.
    #[inline]
    pub fn fetch_add_field(&self, i: usize, delta: u64) -> u64 {
        self.chunk
            .word(self.field_index(i))
            .fetch_add(delta, Ordering::AcqRel)
    }

    /// Convenience: reads field `i` as an object pointer.
    #[inline]
    pub fn field_ptr(&self, i: usize) -> ObjPtr {
        debug_assert!(
            self.header().is_ptr_field(i),
            "field {i} is not a pointer field"
        );
        ObjPtr::from_bits(self.field(i))
    }

    /// Convenience: stores an object pointer into field `i`.
    #[inline]
    pub fn set_field_ptr(&self, i: usize, ptr: ObjPtr) {
        debug_assert!(
            self.header().is_ptr_field(i),
            "field {i} is not a pointer field"
        );
        self.set_field(i, ptr.to_bits());
    }

    /// Atomic compare-and-swap on a pointer field: installs `new` only if the
    /// field still holds `expected`. Returns whether the install happened.
    ///
    /// This is the scan-side write of mutator-concurrent collection (GC v3): a
    /// scanner rewriting a to-space field may race with a mutator pointer store,
    /// and the mutator must win — its stored value was already forwarded by the
    /// write barrier, so a lost CAS is simply skipped, never retried.
    #[inline]
    pub fn cas_field_ptr(&self, i: usize, expected: ObjPtr, new: ObjPtr) -> bool {
        debug_assert!(
            self.header().is_ptr_field(i),
            "field {i} is not a pointer field"
        );
        self.cas_field(i, expected.to_bits(), new.to_bits()).is_ok()
    }

    /// True if field `i` holds an object pointer (`ptrFields` membership).
    #[inline]
    pub fn is_ptr_field(&self, i: usize) -> bool {
        self.header().is_ptr_field(i)
    }
}

impl std::fmt::Debug for ObjView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjView")
            .field("chunk", &self.chunk.id())
            .field("base", &self.base)
            .field("header", &self.header())
            .field("fwd", &self.fwd())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkId;

    fn chunk_with_obj(n_fields: usize, n_ptr: usize, kind: ObjKind) -> (Chunk, u32) {
        let chunk = Chunk::new(ChunkId(0), 0, 1024);
        let header = Header::new(n_fields, n_ptr, kind);
        let off = chunk.try_bump(header.size_words()).unwrap();
        let view = ObjView::new(&chunk, off);
        view.init(header);
        (chunk, off)
    }

    #[test]
    fn init_and_read_header() {
        let (chunk, off) = chunk_with_obj(3, 1, ObjKind::Cons);
        let v = ObjView::new(&chunk, off);
        assert_eq!(v.n_fields(), 3);
        assert_eq!(v.n_ptr(), 1);
        assert_eq!(v.kind(), ObjKind::Cons);
        assert_eq!(v.size_words(), 5);
        assert!(!v.has_fwd());
        assert!(v.fwd().is_null());
    }

    #[test]
    fn field_store_load() {
        let (chunk, off) = chunk_with_obj(4, 0, ObjKind::ArrayData);
        let v = ObjView::new(&chunk, off);
        for i in 0..4 {
            v.set_field(i, (i as u64 + 1) * 100);
        }
        for i in 0..4 {
            assert_eq!(v.field(i), (i as u64 + 1) * 100);
        }
    }

    #[test]
    fn pointer_field_roundtrip() {
        let (chunk, off) = chunk_with_obj(2, 2, ObjKind::ArrayPtr);
        let v = ObjView::new(&chunk, off);
        let target = ObjPtr::new(ChunkId(9), 77);
        v.set_field_ptr(0, target);
        v.set_field_ptr(1, ObjPtr::NULL);
        assert_eq!(v.field_ptr(0), target);
        assert!(v.field_ptr(1).is_null());
        assert!(v.is_ptr_field(0) && v.is_ptr_field(1));
    }

    #[test]
    fn forwarding_install_once() {
        let (chunk, off) = chunk_with_obj(1, 0, ObjKind::Ref);
        let v = ObjView::new(&chunk, off);
        let a = ObjPtr::new(ChunkId(1), 0);
        let b = ObjPtr::new(ChunkId(2), 0);
        assert!(v.try_set_fwd(a).is_ok());
        assert!(v.has_fwd());
        assert_eq!(v.fwd(), a);
        assert_eq!(v.try_set_fwd(b), Err(a));
        assert_eq!(v.fwd(), a);
    }

    #[test]
    fn compress_fwd_shortcuts_but_never_regresses() {
        let (chunk, off) = chunk_with_obj(1, 0, ObjKind::Ref);
        let v = ObjView::new(&chunk, off);
        let hop = ObjPtr::new(ChunkId(1), 0);
        let master = ObjPtr::new(ChunkId(2), 0);
        v.set_fwd(hop);
        // Successful shortcut: hop → master.
        assert!(v.compress_fwd(hop, master));
        assert_eq!(v.fwd(), master);
        // A stale compression (expecting the old hop) fails and changes nothing.
        assert!(!v.compress_fwd(hop, ObjPtr::new(ChunkId(3), 0)));
        assert_eq!(v.fwd(), master);
    }

    #[test]
    fn cas_field_success_and_failure() {
        let (chunk, off) = chunk_with_obj(1, 0, ObjKind::Ref);
        let v = ObjView::new(&chunk, off);
        v.set_field(0, 5);
        assert_eq!(v.cas_field(0, 5, 10), Ok(5));
        assert_eq!(v.field(0), 10);
        assert_eq!(v.cas_field(0, 5, 20), Err(10));
        assert_eq!(v.field(0), 10);
    }

    #[test]
    fn fetch_add_field_accumulates() {
        let (chunk, off) = chunk_with_obj(1, 0, ObjKind::Ref);
        let v = ObjView::new(&chunk, off);
        for _ in 0..10 {
            v.fetch_add_field(0, 3);
        }
        assert_eq!(v.field(0), 30);
    }

    #[test]
    fn multiple_objects_in_one_chunk_do_not_alias() {
        let chunk = Chunk::new(ChunkId(0), 0, 256);
        let mut offsets = Vec::new();
        for k in 0..10usize {
            let header = Header::new(3, 0, ObjKind::Tuple);
            let off = chunk.try_bump(header.size_words()).unwrap();
            let v = ObjView::new(&chunk, off);
            v.init(header);
            for f in 0..3 {
                v.set_field(f, (k * 10 + f) as u64);
            }
            offsets.push(off);
        }
        for (k, &off) in offsets.iter().enumerate() {
            let v = ObjView::new(&chunk, off);
            for f in 0..3 {
                assert_eq!(v.field(f), (k * 10 + f) as u64);
            }
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_bounds_field_panics_in_debug() {
        let (chunk, off) = chunk_with_obj(2, 0, ObjKind::Tuple);
        let v = ObjView::new(&chunk, off);
        let _ = v.field(2);
    }
}
