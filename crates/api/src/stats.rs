//! Run statistics reported by every runtime, and the one counter block that
//! produces them.
//!
//! Every stat is one row of the `stats_table!` invocation below: its doc, its
//! name, its merge kind (`sum`, or `max` for peaks, gauges and percentiles) and,
//! through the section it sits in, where its value comes from:
//!
//! * `counted` — one atomic in [`Counters`], bumped by the runtime and zeroed by
//!   [`Counters::reset`];
//! * `pauses` — a field of the GC pause recorder's summary, cleared by
//!   [`Counters::reset`];
//! * `store` — copied from the chunk store's [`StoreStats`] at snapshot time;
//! * `set` — written by the runtime into the snapshot (scheduler pool figures).
//!
//! The table generates [`RunStats`], [`RunStats::merge`], the [`Counters`] struct,
//! [`Counters::snapshot`] and [`Counters::reset`], so adding a stat is adding a row.

use crate::latency::LatencyRecorder;
use hh_objmodel::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A row's value type: a plain count, or a [`Duration`] counted in nanoseconds.
trait Stat {
    fn from_count(n: u64) -> Self;
    #[cfg(test)]
    fn count(&self) -> u64;
}

impl Stat for u64 {
    fn from_count(n: u64) -> u64 {
        n
    }
    #[cfg(test)]
    fn count(&self) -> u64 {
        *self
    }
}

impl Stat for Duration {
    fn from_count(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
    #[cfg(test)]
    fn count(&self) -> u64 {
        self.as_nanos() as u64
    }
}

macro_rules! merge_row {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

macro_rules! stats_table {
    (
        counted { $( $(#[doc = $cd:literal])* $c:ident: $cty:ty = $cm:ident, )* }
        pauses { $( $(#[doc = $pd:literal])* $p:ident = $pm:ident <- $psrc:ident, )* }
        store { $( $(#[doc = $sd:literal])* $s:ident = $sm:ident <- $ssrc:ident, )* }
        set { $( $(#[doc = $xd:literal])* $x:ident = $xm:ident, )* }
    ) => {
        /// Statistics accumulated by a runtime over one benchmark run.
        ///
        /// These are the quantities the paper's evaluation reports: GC time (the
        /// `GC_s` / `GC_72` columns of Figures 10–11), promotion volume (the §4.4
        /// Manticore comparison), and peak heap occupancy (the memory consumption
        /// of Figure 13). Rows marked "not reset" are runtime-lifetime values that
        /// [`Runtime::reset_stats`](crate::Runtime::reset_stats) leaves alone.
        #[derive(Clone, Debug, Default)]
        pub struct RunStats {
            $( $(#[doc = $cd])* pub $c: $cty, )*
            $( $(#[doc = $pd])* pub $p: u64, )*
            $( $(#[doc = $sd])* pub $s: u64, )*
            $( $(#[doc = $xd])* pub $x: u64, )*
        }

        impl RunStats {
            /// Merges another snapshot into this one, row by row: `sum` rows add,
            /// `max` rows keep the larger side. Percentiles of a merged sample set
            /// cannot be rebuilt from two summaries, so the worse side is kept as
            /// the conservative bound.
            pub fn merge(&mut self, other: &RunStats) {
                $( merge_row!($cm, self.$c, other.$c); )*
                $( merge_row!($pm, self.$p, other.$p); )*
                $( merge_row!($sm, self.$s, other.$s); )*
                $( merge_row!($xm, self.$x, other.$x); )*
            }
        }

        /// The statistics a runtime accumulates while it runs: one atomic per
        /// `counted` row of [`RunStats`] (a [`Duration`] row counts nanoseconds),
        /// plus the GC pause samples behind the `pauses` rows.
        #[derive(Debug, Default)]
        pub struct Counters {
            $( $(#[doc = $cd])* pub $c: AtomicU64, )*
            gc_pauses: Mutex<LatencyRecorder>,
        }

        impl Counters {
            /// Builds a [`RunStats`] snapshot from these counters and the chunk
            /// store's accounting. `set` rows are left at zero for the runtime to
            /// fill in.
            pub fn snapshot(&self, store: &StoreStats) -> RunStats {
                let pauses = self.pauses().summary();
                RunStats {
                    $( $c: <$cty as Stat>::from_count(self.$c.load(Ordering::Relaxed)), )*
                    $( $p: pauses.$psrc, )*
                    $( $s: store.$ssrc as u64, )*
                    $( $x: 0, )*
                }
            }

            /// Zeroes every counted row and discards the pause samples.
            pub fn reset(&self) {
                $( self.$c.store(0, Ordering::Relaxed); )*
                self.pauses().clear();
            }
        }

        #[cfg(test)]
        impl RunStats {
            /// Every row as `(name, merge kind, value)`, durations in nanoseconds.
            fn rows(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![
                    $( (stringify!($c), stringify!($cm), Stat::count(&self.$c)), )*
                    $( (stringify!($p), stringify!($pm), self.$p), )*
                    $( (stringify!($s), stringify!($sm), self.$s), )*
                    $( (stringify!($x), stringify!($xm), self.$x), )*
                ]
            }

            /// A snapshot whose every row holds `value(name)`.
            fn from_counts(value: impl Fn(&str) -> u64) -> RunStats {
                RunStats {
                    $( $c: <$cty as Stat>::from_count(value(stringify!($c))), )*
                    $( $p: value(stringify!($p)), )*
                    $( $s: value(stringify!($s)), )*
                    $( $x: value(stringify!($x)), )*
                }
            }
        }

        #[cfg(test)]
        impl Counters {
            /// Every counted row's atomic, by name.
            fn counted(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![ $( (stringify!($c), &self.$c), )* ]
            }
        }

        /// Every store row, with the value of the `StoreStats` field it copies.
        #[cfg(test)]
        fn store_sources(store: &StoreStats) -> Vec<(&'static str, u64)> {
            vec![ $( (stringify!($s), store.$ssrc as u64), )* ]
        }
    };
}

stats_table! {
    counted {
        /// Wall-clock time spent inside garbage collections, summed over all workers.
        gc_time: Duration = sum,
        /// Number of garbage collections performed.
        gc_count: u64 = sum,
        /// Number of stop-the-world pauses (baselines only; 0 for the hierarchical runtime).
        world_stops: u64 = sum,
        /// Total words allocated by mutators.
        allocated_words: u64 = sum,
        /// Number of batched promotion passes performed (one per pointer write that had
        /// to evacuate a closure; the DLG baseline counts its transitive
        /// promote-to-global passes here).
        promotions: u64 = sum,
        /// Number of objects copied by promotions.
        promoted_objects: u64 = sum,
        /// Total words copied by promotions.
        promoted_words: u64 = sum,
        /// Forwarding-pointer hops walked while resolving master copies (`findMaster` on
        /// the hierarchical runtime, the forwarding barrier on the baselines). With path
        /// compression enabled this stays close to the number of resolutions.
        fwd_hops: u64 = sum,
        /// Forwarding-chain hops short-cut by path compression: after a resolution walks
        /// a chain of length ≥ 2, every intermediate hop is CAS-redirected to the master
        /// so the amortized resolution cost is O(1).
        fwd_compressions: u64 = sum,
        /// Number of heaps created (hierarchical runtime) or heaps the baseline runs on
        /// (set by the baseline: 1, or 1 + the local heaps on DLG; not reset there).
        heaps_created: u64 = sum,
        /// Heap creations skipped by the lazy steal-time heap policy: an unstolen branch
        /// runs in its parent's heap, eliding the child heap and its join splice
        /// (hierarchical runtime only; 0 elsewhere).
        heaps_elided: u64 = sum,
        /// Successful work steals observed by the scheduler. Counted by the on-steal
        /// hook on the hierarchical runtime; set from the pool on the baselines, where
        /// it is pool-lifetime (not reset).
        sched_steals: u64 = sum,
        /// Words copied by garbage collections (survivors).
        gc_copied_words: u64 = sum,
        /// Number of bulk field operations (`read_imm_bulk`, `read_mut_bulk`,
        /// `write_nonptr_bulk`, `fill_nonptr`, `copy_nonptr`) executed.
        bulk_ops: u64 = sum,
        /// Total words moved by bulk field operations.
        bulk_words: u64 = sum,
        /// Forwarding-chain / master-copy resolutions performed *inside* bulk operations.
        /// A runtime that amortizes correctly performs at most one per object operand —
        /// i.e. at most `2 * bulk_ops` in total (copies have two operands), independent of
        /// slice length.
        bulk_master_lookups: u64 = sum,
        /// Collections whose zone spanned more than one heap — an internal node of the
        /// hierarchy plus its completed descendants (hierarchical runtime only).
        subtree_collections: u64 = sum,
        /// Collections run in *team mode*: helpers were drafted (jobs injected /
        /// pause-work offered) alongside the triggering thread (GC v2). Helpers are
        /// best-effort, so a busy pool may leave the trigger collecting alone even
        /// in team mode — [`RunStats::gc_steal_blocks`] measures the parallelism
        /// actually realized.
        gc_parallel_collections: u64 = sum,
        /// Scan blocks stolen between GC team members during parallel collections
        /// (the work-stealing traffic of the evacuation wavefront).
        gc_steal_blocks: u64 = sum,
        /// Bounded drain increments executed by incremental collections (safepoint
        /// ticks plus idle-worker drains; 0 unless `incremental_gc` is on).
        gc_increments: u64 = sum,
        /// Collections completed mutator-concurrently, i.e. incremental windows
        /// finalized (a subset of `gc_count`; 0 unless `incremental_gc` is on).
        gc_incremental_collections: u64 = sum,
    }
    pauses {
        /// Longest single collection pause observed, in nanoseconds (a gauge of the
        /// worst-case latency the collector imposes).
        gc_max_pause_ns = max <- max_ns,
        /// Mutator-observed GC pause samples behind the percentile gauges below: one
        /// per STW collection, and one per incremental seed / safepoint drain /
        /// finalize (idle-worker drains pause no mutator and are not sampled).
        gc_pause_count = sum <- count,
        /// Median mutator-observed GC pause, in nanoseconds.
        gc_pause_p50_ns = max <- p50_ns,
        /// 99th-percentile mutator-observed GC pause, in nanoseconds.
        gc_pause_p99_ns = max <- p99_ns,
        /// 99.9th-percentile mutator-observed GC pause, in nanoseconds.
        gc_pause_p999_ns = max <- p999_ns,
    }
    store {
        /// Peak number of live words held in chunks over the runtime's life (not reset).
        peak_live_words = max <- peak_words,
        /// Number of chunks ever minted by the chunk store (not reset).
        chunks_created = sum <- chunks_created,
        /// Times a retired chunk was reused for a new owner instead of minting a fresh
        /// one (not reset).
        chunks_recycled = sum <- chunks_recycled,
        /// Default-sized chunk requests served from a per-thread allocation cache
        /// (not reset).
        alloc_cache_hits = sum <- alloc_cache_hits,
        /// Words currently held by active chunks (gauge, at snapshot time).
        live_words = max <- live_words,
        /// Words currently parked on the store's free lists and allocation caches
        /// (gauge, at snapshot time).
        free_words = max <- free_words,
        /// Quarantined chunks moved out of quarantine to the free lists by the
        /// epoch watermark — i.e. reclaimed because every run whose epoch could hold
        /// a stale pointer into them had ended, without waiting for global quiescence
        /// (not reset).
        epoch_reclaims = sum <- epoch_reclaims,
        /// Highest number of simultaneously active epoch-tracked runs observed
        /// (gauge of run overlap; not reset).
        active_runs_peak = max <- active_runs_peak,
        /// Words currently held by quarantined chunks — retired but not yet past the
        /// reuse watermark (gauge, at snapshot time; the "watermark lag" a server
        /// pays for quiescence-free reclamation).
        quarantine_lag_words = max <- quarantined_words,
    }
    set {
        /// Times a scheduler worker parked while idle (pool-lifetime; not reset).
        sched_parks = sum,
        /// Wakeups delivered to parked scheduler workers (pool-lifetime; not reset).
        sched_wakes = sum,
    }
}

impl Counters {
    /// Adds `d` to the GC time.
    pub fn add_gc_time(&self, d: Duration) {
        self.gc_time
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one mutator-observed GC pause: a sample of the pause CDF (and so of
    /// the max-pause gauge).
    pub fn record_gc_pause(&self, d: Duration) {
        self.pauses().record(d);
    }

    /// Records one bulk operation moving `words` words. Master lookups are counted
    /// separately, at the resolution call sites themselves, so
    /// `bulk_master_lookups` measures what actually happened rather than restating
    /// what the implementation intends.
    pub fn record_bulk(&self, words: u64) {
        self.bulk_ops.fetch_add(1, Ordering::Relaxed);
        self.bulk_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Books one finished collection: its count, the survivor words it copied, the
    /// scan blocks its team stole, and whether it ran with a team (`team`) or over
    /// more than one heap (`subtree`). GC time and the pause sample are recorded
    /// apart ([`Counters::add_gc_time`], [`Counters::record_gc_pause`]): an
    /// incremental collection spreads both over several increments.
    pub fn record_collection(
        &self,
        copied_words: u64,
        steal_blocks: u64,
        team: bool,
        subtree: bool,
    ) {
        self.gc_count.fetch_add(1, Ordering::Relaxed);
        self.gc_copied_words
            .fetch_add(copied_words, Ordering::Relaxed);
        if steal_blocks > 0 {
            self.gc_steal_blocks
                .fetch_add(steal_blocks, Ordering::Relaxed);
        }
        if team {
            self.gc_parallel_collections.fetch_add(1, Ordering::Relaxed);
        }
        if subtree {
            self.subtree_collections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The pause recorder. A panic never leaves it half-updated, so poisoning is
    /// ignored.
    fn pauses(&self) -> MutexGuard<'_, LatencyRecorder> {
        self.gc_pauses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl RunStats {
    /// Promotion volume in bytes (words are 8 bytes).
    pub fn promoted_bytes(&self) -> u64 {
        self.promoted_words * 8
    }

    /// Peak heap occupancy in bytes.
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_words * 8
    }

    /// Fraction of `elapsed` spent in GC (0.0 if `elapsed` is zero).
    pub fn gc_fraction(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.gc_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Fraction of chunk requests served by reuse rather than fresh minting
    /// (0.0 when no chunk was ever handed out). `chunks_created + chunks_recycled`
    /// counts every chunk the store ever handed to a heap.
    pub fn recycle_rate(&self) -> f64 {
        let total = self.chunks_created + self.chunks_recycled;
        if total == 0 {
            0.0
        } else {
            self.chunks_recycled as f64 / total as f64
        }
    }

    /// Average words per bulk operation (0.0 if no bulk operation ran) — the
    /// amortization factor the bulk API buys over scalar access.
    pub fn bulk_amortization(&self) -> f64 {
        if self.bulk_ops == 0 {
            0.0
        } else {
            self.bulk_words as f64 / self.bulk_ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let s = RunStats {
            promoted_words: 10,
            peak_live_words: 3,
            ..Default::default()
        };
        assert_eq!(s.promoted_bytes(), 80);
        assert_eq!(s.peak_live_bytes(), 24);
    }

    #[test]
    fn gc_fraction_handles_zero_elapsed() {
        let s = RunStats {
            gc_time: Duration::from_millis(10),
            ..Default::default()
        };
        assert_eq!(s.gc_fraction(Duration::ZERO), 0.0);
        let f = s.gc_fraction(Duration::from_millis(100));
        assert!((f - 0.1).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = RunStats {
            gc_count: 1,
            allocated_words: 100,
            peak_live_words: 50,
            bulk_ops: 2,
            bulk_words: 128,
            bulk_master_lookups: 2,
            promotions: 1,
            fwd_hops: 10,
            fwd_compressions: 4,
            ..Default::default()
        };
        let b = RunStats {
            gc_count: 2,
            allocated_words: 200,
            peak_live_words: 30,
            bulk_ops: 1,
            bulk_words: 64,
            bulk_master_lookups: 2,
            promotions: 2,
            fwd_hops: 5,
            fwd_compressions: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gc_count, 3);
        assert_eq!(a.allocated_words, 300);
        assert_eq!(a.peak_live_words, 50);
        assert_eq!(a.bulk_ops, 3);
        assert_eq!(a.bulk_words, 192);
        assert_eq!(a.bulk_master_lookups, 4);
        assert_eq!(a.promotions, 3);
        assert_eq!(a.fwd_hops, 15);
        assert_eq!(a.fwd_compressions, 5);
    }

    #[test]
    fn recycle_rate_counts_reuse_over_all_handouts() {
        assert_eq!(RunStats::default().recycle_rate(), 0.0);
        let s = RunStats {
            chunks_created: 6,
            chunks_recycled: 2,
            ..Default::default()
        };
        assert!((s.recycle_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn merge_handles_memory_lifecycle_fields() {
        let mut a = RunStats {
            subtree_collections: 1,
            chunks_recycled: 3,
            chunks_created: 5,
            alloc_cache_hits: 7,
            live_words: 100,
            free_words: 10,
            ..Default::default()
        };
        let b = RunStats {
            subtree_collections: 2,
            chunks_recycled: 1,
            chunks_created: 2,
            alloc_cache_hits: 1,
            live_words: 50,
            free_words: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.subtree_collections, 3);
        assert_eq!(a.chunks_recycled, 4);
        assert_eq!(a.chunks_created, 7);
        assert_eq!(a.alloc_cache_hits, 8);
        assert_eq!(a.live_words, 100, "gauges merge by max");
        assert_eq!(a.free_words, 60, "gauges merge by max");
    }

    #[test]
    fn merge_handles_epoch_fields() {
        let mut a = RunStats {
            epoch_reclaims: 5,
            active_runs_peak: 3,
            quarantine_lag_words: 100,
            ..Default::default()
        };
        let b = RunStats {
            epoch_reclaims: 2,
            active_runs_peak: 7,
            quarantine_lag_words: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.epoch_reclaims, 7, "counter merges by sum");
        assert_eq!(a.active_runs_peak, 7, "gauges merge by max");
        assert_eq!(a.quarantine_lag_words, 100, "gauges merge by max");
    }

    #[test]
    fn bulk_amortization_is_words_per_op() {
        assert_eq!(RunStats::default().bulk_amortization(), 0.0);
        let s = RunStats {
            bulk_ops: 4,
            bulk_words: 1024,
            ..Default::default()
        };
        assert!((s.bulk_amortization() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn debug_output_contains_counters() {
        let s = RunStats {
            gc_time: Duration::from_millis(5),
            gc_count: 2,
            promoted_words: 7,
            ..Default::default()
        };
        let d = format!("{s:?}");
        assert!(d.contains("promoted_words: 7"));
    }

    fn row(s: &RunStats, name: &str) -> u64 {
        s.rows()
            .into_iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("no row {name}"))
            .2
    }

    #[test]
    fn every_counted_row_moves_only_its_own_field() {
        let names: Vec<&str> = Counters::default().counted().iter().map(|r| r.0).collect();
        assert!(names.contains(&"gc_time") && names.contains(&"gc_count"));
        for (i, name) in names.iter().enumerate() {
            let c = Counters::default();
            let bump = 7 * (i as u64 + 1);
            c.counted()[i].1.fetch_add(bump, Ordering::Relaxed);
            let s = c.snapshot(&StoreStats::default());
            for (row, _, v) in s.rows() {
                let want = if row == *name { bump } else { 0 };
                assert_eq!(v, want, "bumping {name} moved {row}");
            }
        }
    }

    #[test]
    fn merge_sums_or_maxes_every_row_by_its_declared_kind() {
        let names: Vec<&str> = RunStats::default().rows().iter().map(|r| r.0).collect();
        let n = names.len() as u64;
        let index = |name: &str| names.iter().position(|r| *r == name).unwrap() as u64;
        // The two sides cross, so `max` rows see both the left and the right win.
        let a = RunStats::from_counts(|name| 10 * (index(name) + 1));
        let b = RunStats::from_counts(|name| 10 * (n - index(name)) + 3);
        let mut merged = a.clone();
        merged.merge(&b);
        for ((name, kind, got), ((_, _, x), (_, _, y))) in merged
            .rows()
            .into_iter()
            .zip(a.rows().into_iter().zip(b.rows()))
        {
            let want = match kind {
                "sum" => x + y,
                "max" => x.max(y),
                other => panic!("{name}: unknown merge kind {other}"),
            };
            assert_eq!(got, want, "{name} ({kind})");
        }
        for peak in [
            "peak_live_words",
            "gc_max_pause_ns",
            "gc_pause_p999_ns",
            "live_words",
        ] {
            assert!(
                merged.rows().iter().any(|r| r.0 == peak && r.1 == "max"),
                "{peak}"
            );
        }
    }

    #[test]
    fn reset_zeroes_every_counted_row_and_the_pauses() {
        let c = Counters::default();
        for (_, atomic) in c.counted() {
            atomic.fetch_add(5, Ordering::Relaxed);
        }
        c.record_gc_pause(Duration::from_micros(3));
        c.reset();
        let s = c.snapshot(&StoreStats::default());
        for (row, _, v) in s.rows() {
            assert_eq!(v, 0, "{row} survived reset");
        }
    }

    #[test]
    fn store_rows_copy_their_store_field() {
        let store = StoreStats {
            live_words: 1,
            peak_words: 2,
            total_allocated_words: 3,
            free_words: 4,
            chunks_created: 5,
            chunks_retired: 6,
            chunks_recycled: 7,
            chunks_active: 8,
            chunks_quarantined: 9,
            chunks_free: 10,
            alloc_cache_hits: 11,
            epoch_reclaims: 12,
            active_runs: 13,
            active_runs_peak: 14,
            quarantined_words: 15,
        };
        let s = Counters::default().snapshot(&store);
        let sources = store_sources(&store);
        assert!(sources.len() >= 9);
        for (name, want) in sources {
            assert_eq!(row(&s, name), want, "{name}");
        }
        assert_eq!(s.peak_live_words, 2);
        assert_eq!(s.quarantine_lag_words, 15);
        for (name, _) in Counters::default().counted() {
            assert_eq!(row(&s, name), 0, "store moved counted row {name}");
        }
    }

    #[test]
    fn pause_rows_summarize_the_recorded_pauses() {
        let c = Counters::default();
        for us in [30, 10, 20] {
            c.record_gc_pause(Duration::from_micros(us));
        }
        let s = c.snapshot(&StoreStats::default());
        assert_eq!(s.gc_pause_count, 3);
        assert_eq!(s.gc_pause_p50_ns, 20_000);
        assert_eq!(s.gc_pause_p999_ns, 30_000);
        assert_eq!(s.gc_max_pause_ns, 30_000);
        assert_eq!(s.gc_time, Duration::ZERO, "a pause sample is not GC time");
    }

    #[test]
    fn record_collection_books_count_words_steals_and_flags() {
        let c = Counters::default();
        c.record_collection(100, 0, false, false);
        c.record_collection(50, 4, true, true);
        c.record_bulk(64);
        let s = c.snapshot(&StoreStats::default());
        assert_eq!(s.gc_count, 2);
        assert_eq!(s.gc_copied_words, 150);
        assert_eq!(s.gc_steal_blocks, 4);
        assert_eq!(s.gc_parallel_collections, 1);
        assert_eq!(s.subtree_collections, 1);
        assert_eq!((s.bulk_ops, s.bulk_words), (1, 64));
        assert_eq!(s.gc_pause_count, 0, "pauses are recorded apart");
    }
}
