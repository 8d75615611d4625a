//! A minimal, dependency-free benchmark harness with a criterion-compatible
//! surface.
//!
//! The container this workspace builds in has no network access to
//! crates.io, so the real `criterion` crate cannot be vendored. This module
//! implements the slice of its API the `benches/` target uses —
//! [`Criterion`], [`Bencher::iter`], [`Bencher::iter_batched`],
//! [`BatchSize`], and the
//! [`criterion_group!`](crate::criterion_group)/
//! [`criterion_main!`](crate::criterion_main) macros — timing each benchmark
//! with [`std::time::Instant`] and printing a one-line summary
//! (min / median / mean over the sample set). Swapping back to the real
//! criterion is a one-line import change in each bench file.

use std::hint::black_box;
use std::time::Instant;

/// Number of timed samples per benchmark.
const SAMPLE_SIZE: usize = 10;

/// Batch sizing hint, accepted for criterion compatibility. The harness
/// always materialises one setup value per measured iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state (criterion's default choice in this repo).
    #[default]
    SmallInput,
}

/// Top-level benchmark driver, analogous to `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Creates a driver.
    pub fn new() -> Self {
        Criterion
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name.as_ref(), SAMPLE_SIZE, f);
        self
    }
}

/// Per-benchmark measurement context handed to the closure.
#[derive(Debug, Default)]
pub struct Bencher {
    samples_ns: Vec<u128>,
    /// Calibrated inner-loop count for [`Bencher::iter`], fixed on first
    /// use so every sample of a benchmark runs the same batch size.
    iters: Option<u64>,
}

/// Target duration of one timed sample, in nanoseconds. Batching fast
/// routines up to this long keeps `Instant` read overhead and clock
/// resolution from dominating the measurement.
const TARGET_SAMPLE_NS: u128 = 1_000_000;

impl Bencher {
    /// Times `routine`, batching enough iterations per sample (~1 ms) that
    /// timer overhead is negligible; records mean time per iteration.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let iters = match self.iters {
            Some(n) => n,
            None => {
                let t0 = Instant::now();
                black_box(routine());
                let once_ns = t0.elapsed().as_nanos().max(1);
                let n = (TARGET_SAMPLE_NS / once_ns).max(1) as u64;
                self.iters = Some(n);
                n
            }
        };
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.samples_ns
            .push(start.elapsed().as_nanos() / iters as u128);
    }

    /// Times `routine` on a fresh value from `setup`, excluding setup time.
    ///
    /// Unlike [`Bencher::iter`] this runs a single invocation per sample:
    /// each iteration would need its own setup value, and the batched-setup
    /// routines in this repo are microseconds-scale where one `Instant`
    /// read is already negligible.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.samples_ns.push(start.elapsed().as_nanos());
    }
}

fn run_one<F>(name: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // One untimed warmup pass, then the timed samples.
    f(&mut Bencher::default());
    let mut b = Bencher::default();
    for _ in 0..samples {
        f(&mut b);
    }
    let mut ns = b.samples_ns;
    if ns.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    ns.sort_unstable();
    let min = ns[0];
    let median = ns[ns.len() / 2];
    let mean = ns.iter().sum::<u128>() / ns.len() as u128;
    println!(
        "{name:<48} min {:>12} ns   median {:>12} ns   mean {:>12} ns   ({} samples)",
        min,
        median,
        mean,
        ns.len()
    );
}

/// Declares a benchmark group function from a list of benchmark functions.
///
/// Mirrors `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main` that runs each group in order.
///
/// Mirrors `criterion::criterion_main!`. Command-line arguments (cargo
/// bench passes `--bench`) are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
