//! Vendored stand-in for the `criterion` crate.
//!
//! The build environment has no access to a crate registry, so the
//! workspace ships a small wall-clock harness with criterion's API
//! shape: [`Criterion`], benchmark groups, `iter`/`iter_batched`,
//! throughput annotation, and the `criterion_group!`/`criterion_main!`
//! macros. Measurement is honest but simple — a warm-up, then timed
//! batches until a time budget is spent, reporting the median
//! per-iteration time — with none of the real crate's statistics,
//! plotting, or baseline comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// True when the harness was invoked with `--test` (as `cargo bench --
/// --test` passes): run every benchmark once with a minimal sample
/// budget, as a smoke test rather than a measurement. Mirrors the real
/// criterion's behavior of the same flag.
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            name,
            throughput: None,
            sample_size: 32,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        run_one(name, None, 32, f);
    }
}

/// How batched setup costs are amortized; accepted for API parity, the
/// shim times the routine alone in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Re-run setup for every routine invocation.
    PerIteration,
}

/// Units-per-iteration annotation, folded into the report line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier for parameterized benchmarks.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Bare parameter id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// A named group sharing throughput/sample settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        name: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, name),
            self.throughput,
            self.sample_size,
            f,
        );
        self
    }

    /// Parameterized variant.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (a no-op; present for API parity).
    pub fn finish(&mut self) {}
}

/// Passed to benchmark closures; runs and times the measured routine.
#[derive(Debug, Default)]
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_budget: usize,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm up and size the batch so one sample costs ~2 ms.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let per_sample = if quick_mode() {
            1
        } else {
            ((2_000_000.0 / once.as_nanos() as f64).ceil() as usize).clamp(1, 1_000_000)
        };
        for _ in 0..self.sample_budget {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / per_sample as f64);
        }
    }

    /// Times `routine` over fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        for _ in 0..self.sample_budget {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
}

fn run_one(
    label: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    mut f: impl FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        samples_ns: Vec::new(),
        sample_budget: if quick_mode() { 1 } else { sample_size },
    };
    f(&mut b);
    if b.samples_ns.is_empty() {
        println!("  {label}: no samples (routine never called iter)");
        return;
    }
    b.samples_ns.sort_by(|a, z| a.total_cmp(z));
    let median = b.samples_ns[b.samples_ns.len() / 2];
    let rate = throughput.map_or(String::new(), |t| match t {
        Throughput::Bytes(n) => format!(
            "  ({:.1} MiB/s)",
            n as f64 / median * 1e9 / (1 << 20) as f64
        ),
        Throughput::Elements(n) => format!("  ({:.3} Melem/s)", n as f64 / median * 1e9 / 1e6),
    });
    println!("  {label}: median {median:.0} ns/iter{rate}");
}

/// Declares a function that runs the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench`/`cargo test` pass harness flags; this shim
            // runs everything unconditionally but must not choke on
            // `--bench`-style arguments, so they are read and ignored.
            let _ = std::env::args().count();
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        {
            let mut group = c.benchmark_group("demo");
            group.sample_size(3);
            group.throughput(Throughput::Elements(1));
            group.bench_function("count", |b| b.iter(|| calls += 1));
            group.finish();
        }
        assert!(calls > 0);
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
            ran = true;
        });
        assert!(ran);
    }
}
