//! The batch kernels: the paper's Fig. 10 pure kernels and the Fig. 11 / mutator
//! kernels, each with inputs built from the benchmark seed by the public
//! `hh_workloads` generators.

use hh_api::{hash64, ParCtx};
use hh_workloads::{graph, mutator, seq, sort, strassen, wavefront};
use std::time::{Duration, Instant};

/// One batch kernel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kernel {
    Fib,
    MsortPure,
    Strassen,
    Map,
    Msort,
    MultiUspTree,
    UnionFind,
    Wavefront,
}

/// Sequential grain of the sequence kernels (the suite's default).
const GRAIN: usize = 4096;
/// Grain of the graph, union-find and wavefront kernels (the suite's `grain / 16`).
const FINE_GRAIN: usize = GRAIN / 16;

impl Kernel {
    pub const PURE_ALLOC: [Kernel; 4] = [
        Kernel::Fib,
        Kernel::MsortPure,
        Kernel::Strassen,
        Kernel::Map,
    ];
    pub const MUTATE_PROMOTE: [Kernel; 4] = [
        Kernel::Msort,
        Kernel::MultiUspTree,
        Kernel::UnionFind,
        Kernel::Wavefront,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Fib => "fib",
            Kernel::MsortPure => "msort-pure",
            Kernel::Strassen => "strassen",
            Kernel::Map => "map",
            Kernel::Msort => "msort",
            Kernel::MultiUspTree => "multi-usp-tree",
            Kernel::UnionFind => "union-find",
            Kernel::Wavefront => "wavefront",
        }
    }

    /// `fib` takes no input, so the seed does not reach it.
    pub fn seedless(self) -> bool {
        self == Kernel::Fib
    }

    /// The kernel's input seed: the benchmark seed mixed with the kernel, so two
    /// kernels never share an input stream.
    fn input_seed(self, seed: u64) -> u64 {
        hash64(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Problem size at `scale` (1.0 is the benchmark's size; tests use a small
    /// fraction). Sizes are chosen per kernel so that every kernel runs for at
    /// least ~100 ms at full scale on a 2-vCPU host.
    fn size(self, scale: f64) -> usize {
        let base: usize = match self {
            Kernel::Fib => 0, // argument, see `fib_n`
            Kernel::MsortPure => 350_000,
            Kernel::Strassen => 512,
            Kernel::Map => 15_000_000,
            Kernel::Msort => 600_000,
            Kernel::MultiUspTree => 30_000,
            Kernel::UnionFind => 100_000,
            Kernel::Wavefront => 500,
        };
        match self {
            // Side lengths: the work grows with the square (cube for strassen).
            Kernel::Wavefront => ((base as f64 * scale.sqrt()) as usize).max(16),
            Kernel::Strassen => ((base as f64 * scale.cbrt()) as usize)
                .next_power_of_two()
                .max(2 * strassen::LEAF),
            _ => ((base as f64 * scale) as usize).max(64),
        }
    }

    /// `fib`'s argument: each step down divides the work by about φ.
    fn fib_n(scale: f64) -> u64 {
        const FULL: u64 = 39;
        let steps = (-scale.ln() / 1.618f64.ln()).round().max(0.0) as u64;
        FULL.saturating_sub(steps).max(16)
    }

    /// Builds the kernel's input (untimed), runs the kernel (timed) and returns the
    /// kernel time and the result checksum.
    pub fn run<C: ParCtx>(self, ctx: &C, scale: f64, seed: u64) -> (Duration, u64) {
        let n = self.size(scale);
        let s = self.input_seed(seed);
        match self {
            Kernel::Fib => {
                let n = Self::fib_n(scale);
                timed(|| hh_workloads::fib(ctx, n, 20))
            }
            Kernel::MsortPure => {
                let input = seq::random_input(ctx, n, GRAIN, s);
                timed(|| {
                    let out = sort::msort_pure(ctx, input, GRAIN);
                    seq::checksum(ctx, out)
                })
            }
            Kernel::Strassen => {
                let a = strassen::generate(ctx, n, s, strassen::LEAF * 2);
                let b = strassen::generate(ctx, n, s.wrapping_add(1), strassen::LEAF * 2);
                timed(|| {
                    let c = strassen::strassen(ctx, a, b, strassen::LEAF);
                    strassen::checksum(ctx, c)
                })
            }
            Kernel::Map => {
                let input = seq::random_input(ctx, n, GRAIN, s);
                timed(|| {
                    let out = seq::map(ctx, input, GRAIN, |x| {
                        x ^ (x >> 7).wrapping_mul(0x9E37_79B9)
                    });
                    seq::checksum(ctx, out)
                })
            }
            Kernel::Msort => {
                let input = seq::random_input(ctx, n, GRAIN, s);
                timed(|| {
                    let out = sort::msort(ctx, input, GRAIN);
                    seq::checksum(ctx, out)
                })
            }
            Kernel::MultiUspTree => {
                let g = graph::generate(ctx, n, 8, GRAIN, s);
                timed(|| graph::multi_usp_tree(ctx, &g, 8, 0, FINE_GRAIN) as u64)
            }
            Kernel::UnionFind => timed(|| mutator::union_find(ctx, n, n, GRAIN, s)),
            Kernel::Wavefront => {
                let seeds = (n * n / 256).max(8);
                timed(|| wavefront::wavefront(ctx, n, n, seeds, FINE_GRAIN, s))
            }
        }
    }

    /// The kernel's independent oracle, where one exists.
    pub fn oracle(self, scale: f64, seed: u64) -> Option<u64> {
        match self {
            Kernel::Fib => Some(hh_workloads::suite::fib_reference(Self::fib_n(scale))),
            Kernel::Wavefront => {
                let n = self.size(scale);
                let seeds = (n * n / 256).max(8);
                Some(wavefront::wavefront_reference(
                    n,
                    n,
                    seeds,
                    self.input_seed(seed),
                ))
            }
            _ => None,
        }
    }
}

fn timed(f: impl FnOnce() -> u64) -> (Duration, u64) {
    let start = Instant::now();
    let checksum = std::hint::black_box(f());
    (start.elapsed(), checksum)
}
