//! # hh-heaps — the hierarchy of heaps
//!
//! This crate implements the *hierarchical heaps* substrate of Guatto et al. (PPoPP
//! 2018): a tree of heaps that mirrors the fork/join task tree. It provides the
//! heap-related low-level primitives of the paper's Figure 4:
//!
//! * [`HeapRegistry::new_child_heap`] / [`HeapRegistry::join_heap`] grow and shrink the
//!   hierarchy as tasks fork and join (`newChildHeap` / `joinHeap`);
//! * [`HeapRegistry::depth`] gives a heap's depth (`depth`);
//! * [`Heap::alloc_obj`] allocates a fresh object inside a specific heap (`freshObj`)
//!   through the heap's [`hh_objmodel::ChunkCursor`] — the one bump allocator every
//!   runtime shares; promotion holds the same cursor for a whole pass through
//!   [`Heap::with_cursor`];
//! * [`HeapRegistry::heap_of`] maps an object pointer back to its (current) heap
//!   (`heapOf`), resolving any number of joins in (amortized) constant time;
//! * every heap carries a readers–writer lock ([`HeapRwLock`]) used by the mutation and
//!   promotion algorithms in `hh-runtime` (`lock` / `unlock`).
//!
//! Joining a heap into its parent is O(1): the child's chunk list is spliced onto the
//! parent's and the child records a `merged_into` forwarding link. `heap_of` follows
//! these links union-find style with path compression, so objects never move at joins —
//! one of the key properties the paper relies on ("joining heaps can be done without
//! physically copying data").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heap;
pub mod id;
pub mod registry;
pub mod rwlock;

pub use heap::{Heap, HeapStats};
pub use id::HeapId;
pub use registry::{EntanglementViolation, HeapRegistry};
pub use rwlock::HeapRwLock;
