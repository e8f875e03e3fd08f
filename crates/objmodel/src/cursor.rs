//! The bump-allocation cursor: the one implementation of the paper's `freshObj`
//! placement rule.
//!
//! A [`ChunkCursor`] owns a list of chunks and bumps objects into the *current* one.
//! Every allocator of the runtime is a cursor — a heap's allocation state, a flat
//! baseline heap's lane, a collector member's private to-space — and they differ only
//! in how the cursor is synchronized (a mutex, a per-member slot) and in which chunk
//! owner and run tag they pass. The rule itself lives here, once:
//!
//! 1. an object larger than the store's default chunk size gets a **dedicated** chunk
//!    of its own, appended to the list *without* replacing the current chunk, so a
//!    large-object detour never abandons a partially filled chunk;
//! 2. otherwise it is bumped into the current chunk;
//! 3. if there is no current chunk or it is full, a fresh default-sized chunk is
//!    **refilled** from the store and becomes current.

use crate::chunk::{Chunk, ChunkId};
use crate::header::Header;
use crate::objptr::ObjPtr;
use crate::store::ChunkStore;
use crate::view::ObjView;
use std::sync::Arc;

/// How [`ChunkCursor::alloc`] initializes the object it places.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Init {
    /// Header written, forwarding slot cleared, pointer fields NULLed
    /// ([`ObjView::init`]): a fresh mutator object.
    Full,
    /// Header and forwarding slot only ([`ObjView::init_for_copy`]): for copies made by
    /// promotion and evacuation, which store every field before the object becomes
    /// reachable. Skips one store per pointer field.
    Copy,
}

impl Init {
    /// Reserves `header`'s words in `chunk` and initializes the object there, or
    /// returns `None` if the chunk is full.
    pub(crate) fn place(self, chunk: &Chunk, header: Header) -> Option<ObjPtr> {
        let off = chunk.try_bump(header.size_words())?;
        let view = ObjView::new(chunk, off);
        match self {
            Init::Full => view.init(header),
            Init::Copy => view.init_for_copy(header),
        }
        Some(ObjPtr::new(chunk.id(), off))
    }
}

/// Which chunk [`ChunkCursor::alloc`] had to take, if any.
#[derive(Debug)]
pub enum Taken {
    /// None: the object was bumped into the current chunk.
    Bump,
    /// A dedicated chunk holding only this (large) object; the current chunk is
    /// unchanged.
    Dedicated,
    /// A fresh chunk that is now current. Carries the chunk it replaced (`None` if
    /// the cursor had no current chunk).
    Refill(Option<Arc<Chunk>>),
}

/// Where [`ChunkCursor::alloc`] placed an object.
#[derive(Debug)]
pub struct Placed<'a> {
    /// The new object.
    pub ptr: ObjPtr,
    /// The chunk it landed in.
    pub chunk: &'a Arc<Chunk>,
    /// Which chunk had to be taken to place it.
    pub taken: Taken,
}

/// A bump-allocation cursor over an owned list of chunks (see the module docs).
#[derive(Debug, Default)]
pub struct ChunkCursor {
    /// Chunk small objects are bumped into (always also in `chunks`).
    current: Option<Arc<Chunk>>,
    /// Every chunk the cursor owns, in the order it took or adopted them.
    chunks: Vec<ChunkId>,
    /// Words of objects allocated through the cursor plus words adopted with chunks.
    words: usize,
}

impl ChunkCursor {
    /// An empty cursor: no chunks, no current chunk.
    pub fn new() -> ChunkCursor {
        ChunkCursor::default()
    }

    /// Allocates an object with `header`, taking any chunk it needs from `store` on
    /// behalf of raw heap `owner` and the run holding `run_tag` (0 = untracked).
    pub fn alloc<'a>(
        &'a mut self,
        store: &'a ChunkStore,
        owner: u32,
        run_tag: u64,
        header: Header,
        init: Init,
    ) -> Placed<'a> {
        let size = header.size_words();
        self.words += size;
        let dedicated = store.needs_dedicated_chunk(header);
        if !dedicated {
            // Bump first, borrow after: returning a borrow of `self.current` from
            // inside an `if let` on it would keep it borrowed on the refill path.
            let bumped = self
                .current
                .as_ref()
                .and_then(|cur| init.place(cur, header));
            if let Some(ptr) = bumped {
                return Placed {
                    ptr,
                    chunk: self
                        .current
                        .as_ref()
                        .expect("bumped into the current chunk"),
                    taken: Taken::Bump,
                };
            }
        }
        let chunk = store.alloc_chunk_for_run(owner, size, run_tag);
        let ptr = init
            .place(&chunk, header)
            .expect("fresh chunk too small for the object it was sized for");
        self.chunks.push(chunk.id());
        if dedicated {
            return Placed {
                ptr,
                chunk: store.chunk(chunk.id()),
                taken: Taken::Dedicated,
            };
        }
        let replaced = self.current.replace(chunk);
        Placed {
            ptr,
            chunk: self.current.as_ref().expect("just refilled"),
            taken: Taken::Refill(replaced),
        }
    }

    /// Takes ownership of `chunks` (holding `words` words of objects) without bumping
    /// into them: the current chunk is unchanged.
    pub fn adopt(&mut self, chunks: impl IntoIterator<Item = ChunkId>, words: usize) {
        self.chunks.extend(chunks);
        self.words += words;
    }

    /// Appends everything `other` owns. If `other` has a current chunk it becomes this
    /// cursor's current chunk (merging per-member to-spaces: any partially filled
    /// chunk is a valid resume point).
    pub fn merge(&mut self, other: ChunkCursor) {
        if other.current.is_some() {
            self.current = other.current;
        }
        self.adopt(other.chunks, other.words);
    }

    /// Empties the cursor, returning the chunks it owned and their words.
    pub fn take(&mut self) -> (Vec<ChunkId>, usize) {
        let ChunkCursor { chunks, words, .. } = std::mem::take(self);
        (chunks, words)
    }

    /// The current bump chunk, if any.
    pub fn current(&self) -> Option<&Arc<Chunk>> {
        self.current.as_ref()
    }

    /// Every chunk the cursor owns.
    pub fn chunks(&self) -> &[ChunkId] {
        &self.chunks
    }

    /// Words allocated through the cursor plus words adopted with chunks.
    pub fn words(&self) -> usize {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjKind;
    use crate::view::{OFF_FIELDS, OFF_FWD, OFF_HEADER};
    use std::sync::atomic::Ordering;

    const OWNER: u32 = 7;
    const RUN: u64 = 3;
    /// 4 words.
    fn small() -> Header {
        Header::new(2, 1, ObjKind::Tuple)
    }
    /// Over the 64-word default chunk size.
    fn large() -> Header {
        Header::new(100, 0, ObjKind::ArrayData)
    }

    fn alloc(c: &mut ChunkCursor, store: &ChunkStore, h: Header) -> (ObjPtr, ChunkId, Taken) {
        let p = c.alloc(store, OWNER, RUN, h, Init::Full);
        (p.ptr, p.chunk.id(), p.taken)
    }

    /// The placement table: each row allocates `header` after `before` small objects
    /// into a fresh 64-word-chunk cursor and checks what the cursor had to take.
    #[test]
    fn placement_table() {
        struct Row {
            name: &'static str,
            before: usize,
            header: Header,
            bump: bool,
            dedicated: bool,
            refill_replaces: Option<bool>,
        }
        let rows = [
            Row {
                name: "first object refills from nothing",
                before: 0,
                header: small(),
                bump: false,
                dedicated: false,
                refill_replaces: Some(false),
            },
            Row {
                name: "small object bumps into the current chunk",
                before: 1,
                header: small(),
                bump: true,
                dedicated: false,
                refill_replaces: None,
            },
            Row {
                name: "full chunk refills and reports the old one",
                before: 16,
                header: small(),
                bump: false,
                dedicated: false,
                refill_replaces: Some(true),
            },
            Row {
                name: "large object takes a dedicated chunk",
                before: 1,
                header: large(),
                bump: false,
                dedicated: true,
                refill_replaces: None,
            },
        ];
        for row in rows {
            let store = ChunkStore::new(64);
            let mut c = ChunkCursor::new();
            let mut last = None;
            for _ in 0..row.before {
                last = Some(alloc(&mut c, &store, small()).1);
            }
            let (ptr, chunk, taken) = alloc(&mut c, &store, row.header);
            assert_eq!(ptr.chunk(), chunk, "{}", row.name);
            assert_eq!(matches!(taken, Taken::Bump), row.bump, "{}", row.name);
            assert_eq!(
                matches!(taken, Taken::Dedicated),
                row.dedicated,
                "{}",
                row.name
            );
            match (taken, row.refill_replaces) {
                (Taken::Refill(old), Some(replaces)) => {
                    assert_eq!(old.is_some(), replaces, "{}", row.name);
                    if let Some(old) = old {
                        assert_eq!(Some(old.id()), last, "{}: wrong chunk replaced", row.name);
                        assert_ne!(old.id(), chunk, "{}", row.name);
                    }
                    assert_eq!(c.current().map(|c| c.id()), Some(chunk), "{}", row.name);
                }
                (Taken::Refill(_), None) => panic!("{}: unexpected refill", row.name),
                (_, Some(_)) => panic!("{}: expected a refill", row.name),
                _ => {}
            }
            assert_eq!(
                c.words(),
                row.before * small().size_words() + row.header.size_words(),
                "{}",
                row.name
            );
            assert!(c.chunks().contains(&chunk), "{}", row.name);
        }
    }

    #[test]
    fn large_object_detour_keeps_the_current_chunk() {
        let store = ChunkStore::new(64);
        let mut c = ChunkCursor::new();
        let (_, first, _) = alloc(&mut c, &store, small());
        let (_, big, _) = alloc(&mut c, &store, large());
        let (_, second, taken) = alloc(&mut c, &store, small());
        assert!(matches!(taken, Taken::Bump));
        assert_eq!(second, first, "the detour abandoned the bump chunk");
        assert_ne!(big, first);
        assert_eq!(c.current().map(|c| c.id()), Some(first));
        assert_eq!(c.chunks(), &[first, big]);
    }

    #[test]
    fn copy_init_writes_only_header_and_forwarding_slot() {
        let store = ChunkStore::new(64);
        let chunk = store.alloc_chunk(OWNER, 0);
        // Dirty the words the object will occupy: a copy must leave fields alone.
        for i in 0..small().size_words() {
            chunk.word(i).store(0xDEAD, Ordering::Relaxed);
        }
        let mut c = ChunkCursor::new();
        c.current = Some(Arc::clone(&chunk));
        let p = c.alloc(&store, OWNER, RUN, small(), Init::Copy).ptr;
        let base = p.offset() as usize;
        assert_eq!(p.chunk(), chunk.id());
        let word = |i: usize| chunk.word(base + i).load(Ordering::Relaxed);
        assert_eq!(Header::decode(word(OFF_HEADER)), small());
        assert_eq!(word(OFF_FWD), ObjPtr::NULL.to_bits());
        assert_eq!(
            word(OFF_FIELDS),
            0xDEAD,
            "pointer field written by a copy init"
        );
        assert_eq!(
            word(OFF_FIELDS + 1),
            0xDEAD,
            "scalar field written by a copy init"
        );
        // A full init NULLs the pointer field.
        let q = c.alloc(&store, OWNER, RUN, small(), Init::Full).ptr;
        assert_eq!(store.view(q).field_ptr(0), ObjPtr::NULL);
    }

    #[test]
    fn owner_and_run_tag_are_stamped_on_every_taken_chunk() {
        let store = ChunkStore::new(64);
        let mut c = ChunkCursor::new();
        for h in [small(), large(), small()] {
            alloc(&mut c, &store, h);
        }
        assert_eq!(c.chunks().len(), 2);
        for &id in c.chunks() {
            assert_eq!(store.chunk(id).owner(), OWNER);
            assert_eq!(store.chunk(id).run_tag(), RUN);
        }
    }

    #[test]
    fn adopt_merge_and_take_move_ownership() {
        let store = ChunkStore::new(64);
        let mut a = ChunkCursor::new();
        let mut b = ChunkCursor::new();
        let (_, a_chunk, _) = alloc(&mut a, &store, small());
        let (_, b_chunk, _) = alloc(&mut b, &store, small());
        // Adopting leaves the current chunk alone.
        let extra = store.alloc_chunk(OWNER, 0).id();
        a.adopt([extra], 10);
        assert_eq!(a.current().map(|c| c.id()), Some(a_chunk));
        // Merging hands over the other cursor's current chunk.
        a.merge(b);
        assert_eq!(a.current().map(|c| c.id()), Some(b_chunk));
        assert_eq!(a.chunks(), &[a_chunk, extra, b_chunk]);
        assert_eq!(a.words(), 2 * small().size_words() + 10);
        let (chunks, words) = a.take();
        assert_eq!(chunks, vec![a_chunk, extra, b_chunk]);
        assert_eq!(words, 2 * small().size_words() + 10);
        assert!(a.current().is_none() && a.chunks().is_empty() && a.words() == 0);
    }
}
