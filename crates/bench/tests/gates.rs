//! The machine-independent bench gates, as tests.
//!
//! Each test runs its harness's `--quick` workload through the same
//! library code as the harness binary and asserts the gate's bounds.
//! Counts and simulated clocks do not depend on the machine, so every
//! bound is a constant. Where a gate checks drift, the reference is the
//! value the harness read when the gate was set (each constant names the
//! run), with the tolerance it was set with. The par gate's simulated schedule lives
//! here whole; only its bitwise half runs the real pool.

use proclus::par::{grains_for, Executor};
use proclus::telemetry::counters;
use proclus::{Algo, Backend};
use proclus_bench::{serve, shard, stream, telemetry, Options};

/// Absolute tolerance of every drift check against a recorded value.
const DRIFT_TOLERANCE: f64 = 0.25;

/// FAST computes distances to a potential medoid only once (§3), so FAST
/// and FAST\* never compute more distances than PROCLUS on the same
/// backend.
#[test]
fn telemetry_fast_variants_compute_no_more_distances_than_proclus() {
    let reports = telemetry::run(&Options::quick());
    let distances: Vec<u64> = reports
        .iter()
        .map(|r| r.total(counters::DISTANCES_COMPUTED))
        .collect();
    let of = |algo: Algo, backend: Backend| {
        let i = telemetry::COMBOS
            .iter()
            .position(|&c| c == (algo, backend))
            .expect("combo runs");
        distances[i]
    };
    for (algo, backend) in telemetry::COMBOS {
        assert!(
            of(algo, backend) > 0,
            "{} on {} reported no distances",
            algo.name(),
            backend.name()
        );
    }
    for backend in [Backend::Cpu, Backend::Gpu] {
        let baseline = of(Algo::Baseline, backend);
        for algo in [Algo::Fast, Algo::FastStar] {
            assert!(
                of(algo, backend) <= baseline,
                "{} on {} computed {} distances, more than PROCLUS's {baseline}",
                algo.name(),
                backend.name(),
                of(algo, backend)
            );
        }
    }
}

/// Distance savings of batching, 1 − batched/unbatched, when the gate was
/// set (quick run: 172,680 against 788,560 distances).
const SERVE_SAVINGS_BASELINE: f64 = 1.0 - 172_680.0 / 788_560.0;

/// Queued jobs on one dataset coalesce into shared grid runs (§3.1 across
/// requests): fewer batches than jobs, and the distance savings stay
/// within the tolerance of the recorded value.
#[test]
fn serve_batching_coalesces_and_saves_distances() {
    let b = serve::run(&Options::quick());
    assert!(
        b.batched.batches < b.batched.jobs as u64,
        "batched mode ran {} batches for {} jobs: no coalescing",
        b.batched.batches,
        b.batched.jobs
    );
    assert_eq!(
        b.unbatched.batches, b.unbatched.jobs as u64,
        "unbatched mode must run one batch per job"
    );
    let savings = b.savings();
    assert!(
        (savings - SERVE_SAVINGS_BASELINE).abs() <= DRIFT_TOLERANCE,
        "distance savings {savings:.3} drifted from {SERVE_SAVINGS_BASELINE:.3} \
         (tolerance ±{DRIFT_TOLERANCE})"
    );
}

/// Appends of at most this fraction of `n` must cost under
/// [`STREAM_RATIO_CEILING`] of a from-scratch run's distances.
const STREAM_CEILING_AT: f64 = 0.01;
const STREAM_RATIO_CEILING: f64 = 0.25;
/// Incremental/full distance ratio per append fraction when the gate was
/// set (full run, n 32,000).
const STREAM_BASELINE_RATIOS: [(f64, f64); 2] =
    [(0.01, 45_600.0 / 877_600.0), (0.05, 222_560.0 / 542_560.0)];

/// An incremental epoch equals the cold run bit for bit while computing
/// a fraction of its distances.
#[test]
fn stream_incremental_epochs_are_exact_and_cheap() {
    let rows = stream::run(&Options::quick());
    assert!(
        rows.iter().any(|r| r.fraction <= STREAM_CEILING_AT),
        "no append of at most {STREAM_CEILING_AT} of n was measured"
    );
    for r in &rows {
        let fraction = r.fraction;
        assert!(
            r.exact,
            "fraction {fraction}: incremental result is not exact"
        );
        assert!(r.distances_inc > 0 && r.distances_full > 0);
        let ratio = r.ratio();
        if fraction <= STREAM_CEILING_AT {
            assert!(
                ratio < STREAM_RATIO_CEILING,
                "fraction {fraction}: distance ratio {ratio:.3} breaches the \
                 {STREAM_RATIO_CEILING} ceiling"
            );
        }
        let (_, baseline) = STREAM_BASELINE_RATIOS
            .iter()
            .find(|(f, _)| *f == fraction)
            .expect("a recorded ratio for every quick fraction");
        assert!(
            ratio <= baseline + DRIFT_TOLERANCE,
            "fraction {fraction}: ratio {ratio:.3} drifted above {baseline:.3} \
             (tolerance +{DRIFT_TOLERANCE})"
        );
    }
}

/// Simulated speedup over one device: (devices, floor, value when the
/// gate was set on the full run).
const SHARD_FLOORS: [(usize, f64, f64); 2] =
    [(2, 1.6, 1.7742845458989585), (4, 2.5, 2.815528770105209)];

/// Partitioning the points over devices takes per-phase kernel work off
/// each one faster than the barrier reductions add it back.
#[test]
fn shard_speedups_clear_their_floors() {
    let sim_ms = shard::run(&Options::quick());
    for (devices, ms) in shard::DEVICE_COUNTS.iter().zip(&sim_ms) {
        assert!(*ms > 0.0, "D={devices}: simulated time {ms} ms");
    }
    for (devices, floor, baseline) in SHARD_FLOORS {
        let i = shard::DEVICE_COUNTS
            .iter()
            .position(|&d| d == devices)
            .expect("device count measured");
        let speedup = sim_ms[0] / sim_ms[i];
        assert!(
            speedup >= floor,
            "D={devices}: speedup {speedup:.2}x below the {floor}x floor"
        );
        assert!(
            speedup >= baseline - DRIFT_TOLERANCE,
            "D={devices}: speedup {speedup:.2}x drifted below {baseline:.2}x \
             (tolerance -{DRIFT_TOLERANCE})"
        );
    }
}

/// Items in the par gate's workloads.
const PAR_ITEMS: usize = 12_288;
/// Zipf-sized clusters in the skewed shape.
const CLUSTERS: usize = 64;
/// Per-item cost units in the balanced shape (and the skewed mean).
const BASE_COST: u32 = 600;
/// At 4 threads, work stealing must be this much faster than a static
/// split on the skewed shape (the schedules put the gap near 2.7×).
const PAR_SKEWED_FLOOR: f64 = 1.2;
/// The skewed ratio at 4 threads when the gate was set (full run, 24,576
/// items); a ratio under half of it is a collapse of the scheduling model.
const PAR_SKEWED_BASELINE: f64 = 2.681261100213101;
/// Stealing must not cost anything on the balanced shape, where a static
/// split is already even.
const PAR_BALANCED_FLOOR: f64 = 0.9;

/// Item costs for zipf-sized clusters: cluster `c` holds `~n/(c+1)H`
/// items, and each of its items costs `BASE_COST · size/mean` — the head
/// cluster is both large and per-item expensive, like refinement over a
/// dominant cluster.
fn zipf_costs(n: usize) -> Vec<u32> {
    let h: f64 = (1..=CLUSTERS).map(|c| 1.0 / c as f64).sum();
    let mut sizes: Vec<usize> = (1..=CLUSTERS)
        .map(|c| (((n as f64) / (c as f64 * h)) as usize).max(1))
        .collect();
    let short = n.saturating_sub(sizes.iter().sum());
    sizes[0] += short;
    let mean = n as f64 / CLUSTERS as f64;
    let mut costs = Vec::with_capacity(n);
    for &s in &sizes {
        let cost = ((BASE_COST as f64) * (s as f64) / mean).max(1.0) as u32;
        costs.extend(std::iter::repeat_n(cost, s));
    }
    costs.truncate(n);
    costs
}

/// Per-grain work over the real decomposition the executors run.
fn grain_work(costs: &[u32]) -> Vec<u64> {
    let (grain, grains) = grains_for(costs.len());
    (0..grains)
        .map(|g| {
            costs[g * grain..((g + 1) * grain).min(costs.len())]
                .iter()
                .map(|&c| u64::from(c))
                .sum()
        })
        .collect()
}

/// A static split's simulated span: the heaviest of `threads` contiguous
/// grain blocks.
fn static_span(work: &[u64], threads: usize) -> u64 {
    let per = work.len().div_ceil(threads);
    work.chunks(per.max(1))
        .map(|b| b.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
}

/// Work stealing's simulated span: greedy list scheduling in grain order.
/// Each grain goes to the earliest-free worker, which is what the deque
/// protocol converges to (an idle worker steals the next unclaimed
/// grain).
fn steal_span(work: &[u64], threads: usize) -> u64 {
    let mut busy = vec![0u64; threads];
    for &w in work {
        let min = busy
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b)
            .map_or(0, |(i, _)| i);
        busy[min] += w;
    }
    busy.into_iter().max().unwrap_or(0)
}

/// Deterministic per-item kernel for the real bitwise runs: `cost`
/// dependent fused multiply-adds.
fn item_work(i: usize, cost: u32) -> f64 {
    let mut acc = (i as f64) + 1.0;
    for k in 0..cost {
        acc = acc.mul_add(1.000_000_011_920_929, ((k & 7) as f64) * 1e-9);
    }
    acc
}

/// One real pass: per-grain partials reduced in grain order, the
/// determinism contract every executor keeps.
fn run_workload(exec: &Executor, costs: &[u32]) -> f64 {
    exec.map_chunks(
        costs.len(),
        || 0.0f64,
        |acc, range| {
            for i in range {
                *acc += item_work(i, costs[i]);
            }
        },
    )
    .into_iter()
    .fold(0.0f64, |a, b| a + b)
}

/// The pool balances grains a static split would strand, and scheduling
/// never moves the reduction by an ulp.
#[test]
fn par_stealing_beats_a_static_split_and_reduces_bitwise() {
    let shapes = [
        ("balanced", vec![BASE_COST; PAR_ITEMS], PAR_BALANCED_FLOOR),
        ("skewed", zipf_costs(PAR_ITEMS), PAR_SKEWED_FLOOR),
    ];
    for (shape, costs, floor) in &shapes {
        let sequential = run_workload(&Executor::Sequential, costs).to_bits();
        for threads in [1, 4] {
            assert_eq!(
                run_workload(&Executor::Parallel { threads }, costs).to_bits(),
                sequential,
                "{shape} at {threads} threads: the pool's reduction is not bitwise equal"
            );
        }
        let work = grain_work(costs);
        let ratio = static_span(&work, 4) as f64 / steal_span(&work, 4) as f64;
        assert!(
            ratio >= *floor,
            "{shape} at 4 threads: stealing is {ratio:.2}x the static split, below {floor}x"
        );
        if *shape == "skewed" {
            assert!(
                ratio >= PAR_SKEWED_BASELINE * 0.5,
                "skewed ratio {ratio:.2}x collapsed below half of {PAR_SKEWED_BASELINE:.2}x"
            );
        }
    }
}
