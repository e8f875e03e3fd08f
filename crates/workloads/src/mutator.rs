//! Mutator-heavy workloads (promotion v2): three benchmarks whose inner loops are
//! dominated by mutation of shared structures rather than pure construction, built to
//! hammer the promotion path, the forwarding barrier, and allocation churn:
//!
//! * [`union_find`] — concurrent union-find with path halving: distant CAS traffic
//!   on a shared parent array plus one promoting pointer write per processed edge
//!   (an allocation published into a shared log).
//! * [`frontier_bfs`] — BFS over a *growing* graph: adjacency lists are materialized
//!   lazily by whichever task visits a vertex and published into the shared graph
//!   with pointer writes, so the frontier expansion itself promotes.
//! * [`lru_churn`] — per-task LRU caches over a shared backing store: every miss
//!   allocates a fresh node (churn for the collector), and each task publishes its
//!   whole cache at the end — one batched transitive promotion of the cache closure.
//!
//! All three are deterministic by construction (checksum equality across the four
//! runtimes is asserted by the suite tests): parallel tasks write only disjoint slots
//! of shared arrays, union-find links larger roots under smaller ones so the final
//! representative of every component is its minimum element regardless of schedule,
//! and BFS is level-synchronous so distances are schedule-independent.

use hh_api::{hash64, ObjKind, ParCtx};
use hh_objmodel::ObjPtr;

// ---------------------------------------------------------------------------
// Concurrent union-find with path halving.
// ---------------------------------------------------------------------------

/// Finds the representative of `i` with path halving: every probe CASes `parent[i]`
/// from its parent to its grandparent, so chains shorten as they are walked. Parent
/// values only ever decrease (links go from larger to smaller indices), which keeps
/// the forest acyclic under concurrency.
fn uf_find<C: ParCtx>(ctx: &C, parent: ObjPtr, mut i: usize) -> u64 {
    loop {
        let p = ctx.read_mut(parent, i);
        if p as usize == i {
            return p;
        }
        let gp = ctx.read_mut(parent, p as usize);
        if gp != p {
            // Path halving; a failed CAS means someone else already halved (or
            // linked) — either way the chain got shorter.
            let _ = ctx.cas_nonptr(parent, i, p, gp);
        }
        i = gp as usize;
    }
}

/// Unites the components of `a` and `b`, always linking the larger root under the
/// smaller one, so every component's final representative is its minimum element —
/// deterministic no matter how concurrent unions interleave.
fn uf_unite<C: ParCtx>(ctx: &C, parent: ObjPtr, a: usize, b: usize) {
    loop {
        let ra = uf_find(ctx, parent, a);
        let rb = uf_find(ctx, parent, b);
        if ra == rb {
            return;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        // The root's slot still holds its own index iff it is still a root; a failed
        // CAS means a concurrent union got there first — re-find and retry.
        if ctx.cas_nonptr(parent, hi as usize, hi, lo).is_ok() {
            return;
        }
    }
}

/// Concurrent union-find over `n` elements processing `edges` hash-generated unions
/// in parallel, with path halving and a shared promotion-heavy edge log: every
/// processed edge allocates a record in the processing task's heap and publishes it
/// into a shared log array (one promoting pointer write per edge on the hierarchical
/// runtime whenever the leaf ran stolen or in eager mode).
///
/// Returns a deterministic checksum: the sum of every element's final representative
/// (the minimum of its component) folded with the log records' payloads.
pub fn union_find<C: ParCtx>(ctx: &C, n: usize, edges: usize, grain: usize, seed: u64) -> u64 {
    assert!(n > 0);
    let parent = ctx.alloc_data_array(n);
    let log = ctx.alloc_ptr_array(edges);
    ctx.pin(parent);
    ctx.pin(log);

    // parent[i] = i.
    ctx.par_for(0..n, grain, move |c, r| {
        let vals: Vec<u64> = r.clone().map(|i| i as u64).collect();
        c.write_nonptr_bulk(parent, r.start, &vals);
    });

    // Process the edges: union + log record (the promoting write).
    ctx.par_for(0..edges, grain, move |c, r| {
        for k in r {
            let a = (hash64(seed ^ (2 * k as u64)) % n as u64) as usize;
            let b = (hash64(seed ^ (2 * k as u64 + 1)) % n as u64) as usize;
            uf_unite(c, parent, a, b);
            let rec = c.alloc(0, 1, ObjKind::Node);
            c.write_nonptr(rec, 0, hash64(seed ^ 0xED6E ^ k as u64));
            c.write_ptr(log, k, rec);
            // Re-read through the (now possibly stale) local pointer: after a
            // promoting publish this walks the forwarding chain — the barrier
            // traffic the `fwd_hops` counter measures.
            let _ = c.read_mut(rec, 0);
        }
    });

    // Checksum: roots are deterministic (component minima); log payloads are
    // hash-derived. Both fold independently of schedule.
    let root_sums = ctx.par_map(0..n, grain, move |c, r| {
        r.map(|i| uf_find(c, parent, i)).sum::<u64>()
    });
    let log_sums = ctx.par_map(0..edges, grain, move |c, r| {
        r.map(|k| {
            let rec = c.read_mut_ptr(log, k);
            c.read_imm(rec, 0)
        })
        .fold(0u64, u64::wrapping_add)
    });
    ctx.unpin(log);
    ctx.unpin(parent);
    root_sums
        .into_iter()
        .fold(0u64, u64::wrapping_add)
        .wrapping_add(log_sums.into_iter().fold(0u64, u64::wrapping_add))
}

// ---------------------------------------------------------------------------
// Mutable BFS frontier over a growing graph.
// ---------------------------------------------------------------------------

/// Deterministic degree of vertex `v` (1 ..= max_degree).
fn fb_degree(seed: u64, v: u64, max_degree: usize) -> usize {
    1 + (hash64(seed ^ v.wrapping_mul(0x9E37)) % max_degree as u64) as usize
}

/// Deterministic `j`-th neighbour of vertex `v`.
fn fb_neighbor(seed: u64, v: u64, j: usize, n: usize) -> u64 {
    hash64(seed ^ v.wrapping_mul(31).wrapping_add(j as u64 + 1)) % n as u64
}

/// Level-synchronous BFS over a graph that *grows while it is traversed*: the
/// adjacency list of a vertex is materialized (allocated in the visiting task's heap
/// and published into the shared `adj` array with a pointer write) the first time
/// the frontier reaches it. On the hierarchical runtime every expansion by a stolen
/// task is a promoting write of the freshly built neighbour array — the mutable
/// frontier is the promotion workload.
///
/// Returns a deterministic checksum over the (schedule-independent) BFS levels and
/// the visited count.
pub fn frontier_bfs<C: ParCtx>(
    ctx: &C,
    n: usize,
    max_degree: usize,
    grain: usize,
    seed: u64,
) -> u64 {
    assert!(n > 0 && max_degree > 0);
    let adj = ctx.alloc_ptr_array(n);
    // dist[v] = 0 while unvisited, else BFS level + 1.
    let dist = ctx.alloc_data_array(n);
    ctx.pin(adj);
    ctx.pin(dist);

    ctx.write_nonptr(dist, 0, 1);
    let mut frontier: Vec<u64> = vec![0];
    let mut level = 1u64;
    while !frontier.is_empty() {
        let cur: &[u64] = &frontier;
        let next_level = level + 1;
        let blocks = ctx.par_map(0..cur.len(), grain, move |c, r| {
            let mut out: Vec<u64> = Vec::new();
            for &v in &cur[r] {
                // Grow the graph: build v's adjacency and publish it. Each visited
                // vertex appears in exactly one frontier exactly once, so the slot
                // is written by exactly one task.
                let deg = fb_degree(seed, v, max_degree);
                let arr = c.alloc_data_array(deg);
                let neighbors: Vec<u64> = (0..deg).map(|j| fb_neighbor(seed, v, j, n)).collect();
                c.write_nonptr_bulk(arr, 0, &neighbors);
                c.write_ptr(adj, v as usize, arr);
                // Expand by reading the adjacency back *through the graph*: the
                // publish may have promoted `arr`, so this bulk read resolves the
                // master copy (one amortized lookup, hops counted) — the mutable
                // frontier really does go through the shared structure.
                let mut fetched = vec![0u64; deg];
                c.read_mut_bulk(arr, 0, &mut fetched);
                for &u in &fetched {
                    if c.cas_nonptr(dist, u as usize, 0, next_level).is_ok() {
                        out.push(u);
                    }
                }
            }
            out
        });
        frontier = blocks.into_iter().flatten().collect();
        level = next_level;
    }

    let sums = ctx.par_map(0..n, grain.max(64), move |c, r| {
        let mut levels = 0u64;
        let mut visited = 0u64;
        for i in r {
            let d = c.read_mut(dist, i);
            levels = levels.wrapping_add(d.wrapping_mul(i as u64 | 1));
            visited += (d != 0) as u64;
        }
        (levels, visited)
    });
    ctx.unpin(dist);
    ctx.unpin(adj);
    let (levels, visited) = sums.into_iter().fold((0u64, 0u64), |(l, v), (bl, bv)| {
        (l.wrapping_add(bl), v + bv)
    });
    levels.wrapping_mul(31).wrapping_add(visited)
}

// ---------------------------------------------------------------------------
// LRU-cache churn.
// ---------------------------------------------------------------------------

/// Per-task LRU caches churning over a shared backing store.
///
/// `tasks` independent tasks each maintain their own LRU cache (`capacity` slots:
/// key array, stamp array, node-pointer array) and process a deterministic stream of
/// `ops_per_task` lookups over a `keyspace`-sized shared backing array. Every miss
/// evicts the least-recently-used slot and allocates a fresh node — steady
/// allocation churn with dead nodes for the collector — and at the end each task
/// publishes its whole cache into a shared array: one transitive promotion of the
/// cache closure per task on the hierarchical runtime.
///
/// Each task's hit/miss sequence depends only on its own stream, so the folded
/// checksum (per-task accumulators plus a walk over the published caches) is
/// deterministic.
pub fn lru_churn<C: ParCtx>(
    ctx: &C,
    tasks: usize,
    ops_per_task: usize,
    capacity: usize,
    keyspace: usize,
    seed: u64,
) -> u64 {
    assert!(tasks > 0 && capacity > 0 && keyspace > 0);
    let backing = ctx.alloc_data_array(keyspace);
    let published = ctx.alloc_ptr_array(tasks);
    ctx.pin(backing);
    ctx.pin(published);
    ctx.par_for(0..keyspace, 1024, move |c, r| {
        let vals: Vec<u64> = r.clone().map(|k| hash64(seed ^ k as u64)).collect();
        c.write_nonptr_bulk(backing, r.start, &vals);
    });

    const EMPTY: u64 = u64::MAX;
    let accs = ctx.join_many(
        (0..tasks)
            .map(|t| {
                move |c: &C| {
                    let keys = c.alloc_data_array(capacity);
                    let stamps = c.alloc_data_array(capacity);
                    let nodes = c.alloc_ptr_array(capacity);
                    c.pin(nodes);
                    c.fill_nonptr(keys, 0, capacity, EMPTY);
                    let mut clock = 0u64;
                    let mut acc = seed ^ t as u64;
                    for op in 0..ops_per_task {
                        clock += 1;
                        // Mildly skewed deterministic key stream: squaring biases
                        // towards the low end of the keyspace, giving real hits.
                        let h = hash64(seed ^ ((t as u64) << 32) ^ op as u64);
                        let key = ((h % keyspace as u64) * (h % keyspace as u64)) / keyspace as u64;
                        let mut hit_slot = None;
                        for s in 0..capacity {
                            if c.read_mut(keys, s) == key {
                                hit_slot = Some(s);
                                break;
                            }
                        }
                        match hit_slot {
                            Some(s) => {
                                c.write_nonptr(stamps, s, clock);
                                let node = c.read_mut_ptr(nodes, s);
                                acc = acc.wrapping_add(c.read_imm(node, 0));
                            }
                            None => {
                                // Evict the least-recently-used slot and install a
                                // freshly allocated node (the churn).
                                let mut victim = 0;
                                let mut oldest = u64::MAX;
                                for s in 0..capacity {
                                    let st = c.read_mut(stamps, s);
                                    if st < oldest {
                                        oldest = st;
                                        victim = s;
                                    }
                                }
                                let val = c.read_mut(backing, key as usize);
                                let node = c.alloc(0, 1, ObjKind::Node);
                                c.write_nonptr(node, 0, val);
                                c.write_nonptr(keys, victim, key);
                                c.write_nonptr(stamps, victim, clock);
                                c.write_ptr(nodes, victim, node);
                                acc = acc.wrapping_add(val ^ 0x5D);
                            }
                        }
                        if op % 1024 == 1023 {
                            c.maybe_collect();
                        }
                    }
                    // Publish the whole cache: one transitive promotion of the node
                    // array plus every resident node.
                    c.write_ptr(published, t, nodes);
                    // Verify the publish through the *stale* local pointers: every
                    // access resolves the forwarding chain to the master copies
                    // (the barrier traffic `fwd_hops` measures). The values are the
                    // task's own deterministic cache contents.
                    for s in 0..capacity {
                        let node = c.read_mut_ptr(nodes, s);
                        if !node.is_null() {
                            acc = acc.wrapping_add(c.read_mut(node, 0).rotate_left(11));
                        }
                    }
                    c.unpin(nodes);
                    acc
                }
            })
            .collect(),
    );

    // Walk the published caches from the parent (all traffic goes through master
    // copies after the publish promotions).
    let mut acc = accs.into_iter().fold(0u64, u64::wrapping_add);
    for t in 0..tasks {
        let nodes = ctx.read_mut_ptr(published, t);
        for s in 0..capacity {
            let node = ctx.read_mut_ptr(nodes, s);
            if !node.is_null() {
                acc = acc.wrapping_add(ctx.read_imm(node, 0).wrapping_mul(s as u64 + 1));
            }
        }
    }
    ctx.unpin(published);
    ctx.unpin(backing);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_api::Runtime;
    use hh_baselines::{DlgRuntime, SeqRuntime, StwRuntime};
    use hh_runtime::{HhConfig, HhRuntime};

    const N: usize = 600;
    const SEED: u64 = 0xC0FF_EE11;

    #[test]
    fn union_find_agrees_across_runtimes() {
        let workers = hh_api::env_workers(3);
        let expected = SeqRuntime::new().run(|c| union_find(c, N, N, 64, SEED));
        assert_eq!(
            StwRuntime::with_workers(workers).run(|c| union_find(c, N, N, 64, SEED)),
            expected,
            "stw"
        );
        assert_eq!(
            DlgRuntime::with_workers(workers).run(|c| union_find(c, N, N, 64, SEED)),
            expected,
            "dlg"
        );
        let hh = HhRuntime::with_workers(workers);
        assert_eq!(
            hh.run(|c| union_find(c, N, N, 64, SEED)),
            expected,
            "parmem"
        );
        assert_eq!(hh.check_disentangled(), 0);
        // Eager heaps force every log write to promote, deterministically.
        let eager = HhRuntime::new(HhConfig::eager_heaps(2));
        assert_eq!(
            eager.run(|c| union_find(c, N, N, 64, SEED)),
            expected,
            "parmem-eager"
        );
        let s = eager.stats();
        assert!(
            s.promotions > 0,
            "log writes must promote under eager heaps"
        );
        assert!(s.promoted_objects >= s.promotions);
    }

    /// GC v3 ≡ A6: mutator-concurrent incremental collection must compute the
    /// exact same checksums as the monolithic shape on all three mutator
    /// workloads — under GC pressure (tiny chunks and threshold), with the
    /// invariant checker on — and leave no entanglement behind.
    #[test]
    fn incremental_gc_matches_a6_on_mutator_workloads() {
        let workers = hh_api::env_workers(3);
        let mk = |incremental_gc: bool| {
            HhRuntime::new(HhConfig {
                n_workers: workers,
                chunk_words: 256,
                gc_threshold_words: 2 * 1024,
                check_invariants: true,
                incremental_gc,
                ..Default::default()
            })
        };
        // Stats accumulate across runs, so reset before each run and fold the
        // three runs' own stats.
        let run_all = |rt: &HhRuntime| -> ([u64; 3], hh_api::RunStats) {
            let mut total = hh_api::RunStats::default();
            let mut sums = [0u64; 3];
            rt.reset_stats();
            sums[0] = rt.run(|c| union_find(c, N, 2 * N, 16, SEED));
            total.merge(&rt.stats());
            rt.reset_stats();
            sums[1] = rt.run(|c| frontier_bfs(c, N, 6, 16, SEED));
            total.merge(&rt.stats());
            // ≥ 1024 ops per task so lru_churn's own safe points (its
            // `maybe_collect` stride) actually fire under the tiny threshold.
            rt.reset_stats();
            sums[2] = rt.run(|c| lru_churn(c, 4, 2048, 16, 256, SEED));
            total.merge(&rt.stats());
            (sums, total)
        };
        let a6 = mk(false);
        let inc = mk(true);
        let (expected, _) = run_all(&a6);
        let (got, s) = run_all(&inc);
        assert_eq!(got, expected, "incremental ≠ A6 checksums");
        assert_eq!(inc.check_disentangled(), 0);
        assert!(
            s.gc_incremental_collections > 0,
            "pressure must force at least one incremental collection: {s:?}"
        );
        assert!(
            s.gc_increments >= s.gc_incremental_collections,
            "every incremental collection drains at least one increment: {s:?}"
        );
    }

    #[test]
    fn union_find_roots_are_component_minima() {
        // Sequential reference: build the same unions with a simple DSU and compare
        // representative sums.
        let mut parent: Vec<usize> = (0..N).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] == i {
                i
            } else {
                let r = find(p, p[i]);
                p[i] = r;
                r
            }
        }
        for k in 0..N as u64 {
            let a = (hash64(SEED ^ (2 * k)) % N as u64) as usize;
            let b = (hash64(SEED ^ (2 * k + 1)) % N as u64) as usize;
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                // Union by minimum, as the concurrent version guarantees.
                let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        }
        let expected_roots: u64 = (0..N).map(|i| find(&mut parent, i) as u64).sum();
        let expected_log: u64 = (0..N as u64)
            .map(|k| hash64(SEED ^ 0xED6E ^ k))
            .fold(0u64, u64::wrapping_add);
        let got = SeqRuntime::new().run(|c| union_find(c, N, N, 64, SEED));
        assert_eq!(got, expected_roots.wrapping_add(expected_log));
    }

    #[test]
    fn frontier_bfs_agrees_across_runtimes() {
        let workers = hh_api::env_workers(3);
        let expected = SeqRuntime::new().run(|c| frontier_bfs(c, N, 6, 16, SEED));
        assert_eq!(
            StwRuntime::with_workers(workers).run(|c| frontier_bfs(c, N, 6, 16, SEED)),
            expected,
            "stw"
        );
        assert_eq!(
            DlgRuntime::with_workers(workers).run(|c| frontier_bfs(c, N, 6, 16, SEED)),
            expected,
            "dlg"
        );
        let hh = HhRuntime::with_workers(workers);
        assert_eq!(
            hh.run(|c| frontier_bfs(c, N, 6, 16, SEED)),
            expected,
            "parmem"
        );
        assert_eq!(hh.check_disentangled(), 0);
        let eager = HhRuntime::new(HhConfig::eager_heaps(2));
        assert_eq!(
            eager.run(|c| frontier_bfs(c, N, 6, 16, SEED)),
            expected,
            "parmem-eager"
        );
        assert!(
            eager.stats().promotions > 0,
            "adjacency publishes must promote under eager heaps"
        );
    }

    #[test]
    fn lru_churn_agrees_across_runtimes_and_churns() {
        let workers = hh_api::env_workers(3);
        let expected = SeqRuntime::new().run(|c| lru_churn(c, 4, 800, 16, 256, SEED));
        assert_eq!(
            StwRuntime::with_workers(workers).run(|c| lru_churn(c, 4, 800, 16, 256, SEED)),
            expected,
            "stw"
        );
        assert_eq!(
            DlgRuntime::with_workers(workers).run(|c| lru_churn(c, 4, 800, 16, 256, SEED)),
            expected,
            "dlg"
        );
        let hh = HhRuntime::with_workers(workers);
        assert_eq!(
            hh.run(|c| lru_churn(c, 4, 800, 16, 256, SEED)),
            expected,
            "parmem"
        );
        assert_eq!(hh.check_disentangled(), 0);
        let eager = HhRuntime::new(HhConfig::eager_heaps(2));
        assert_eq!(
            eager.run(|c| lru_churn(c, 4, 800, 16, 256, SEED)),
            expected,
            "parmem-eager"
        );
        let s = eager.stats();
        assert!(
            s.promotions >= 4,
            "each task's publish must promote its cache (saw {})",
            s.promotions
        );
        assert!(s.allocated_words > 0);
    }
}
