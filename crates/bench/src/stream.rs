//! The incremental re-clustering harness's workload: append a batch of
//! `fraction × n` points to a converged [`StreamingClusterer`] and count
//! the incremental epoch's distance computations against a from-scratch
//! run over the same final dataset.
//!
//! The measured quantity is exactness-preserving work avoidance: the
//! incremental epoch must produce **bitwise-identical** medoids, subspaces
//! and labels to the from-scratch run ([`Row::exact`]) while recomputing
//! only the distance rows the appended points dirtied.

use gpu_sim::DeviceConfig;
use proclus::{CancelToken, Params};
use proclus_stream::{ReclusterReport, StreamBackendSpec, StreamingClusterer};
use proclus_telemetry::NullRecorder;

use crate::{workloads, Options};

/// Dataset shape and the append fractions measured.
pub struct Workload {
    /// Points the clusterer converges on before the append.
    pub n: usize,
    /// Dimensions.
    pub d: usize,
    /// Clusters (generated and requested).
    pub k: usize,
    /// Average subspace dimensionality.
    pub l: usize,
    /// Appended batch sizes as fractions of `n`.
    pub fractions: &'static [f64],
}

/// Quick mode shrinks the base dataset and the fraction grid, keeping a
/// ≤1% append.
pub fn workload(quick: bool) -> Workload {
    if quick {
        Workload {
            n: 8_000,
            d: 15,
            k: 8,
            l: 5,
            fractions: &[0.01, 0.05],
        }
    } else {
        Workload {
            n: 32_000,
            d: 15,
            k: 8,
            l: 5,
            fractions: &[0.005, 0.01, 0.02, 0.05],
        }
    }
}

/// One append fraction's measurement.
pub struct Row {
    /// Appended points as a fraction of `n`.
    pub fraction: f64,
    /// Appended points.
    pub batch: usize,
    /// Distances of the from-scratch run over the final dataset.
    pub distances_full: u64,
    /// Distances of the incremental epoch.
    pub distances_inc: u64,
    /// Whether the incremental epoch's medoids, subspaces, labels and
    /// costs equal the from-scratch run's bit for bit.
    pub exact: bool,
}

impl Row {
    /// Incremental distances over from-scratch distances.
    pub fn ratio(&self) -> f64 {
        self.distances_inc as f64 / self.distances_full.max(1) as f64
    }
}

fn spec() -> StreamBackendSpec {
    StreamBackendSpec::gpu(DeviceConfig::gtx_1660_ti())
}

/// Appends `rows[range]` to `c`, asserting the feed never evicts.
fn feed(c: &mut StreamingClusterer, rows: &[Vec<f32>], range: std::ops::Range<usize>) {
    for r in &rows[range] {
        let (_, evicted) = c.append(r).expect("append");
        assert!(evicted.is_empty(), "no window configured");
    }
}

fn recluster(c: &mut StreamingClusterer) -> ReclusterReport {
    let cancel = CancelToken::default();
    c.recluster(&NullRecorder, &cancel).expect("recluster")
}

/// True when both clusterers hold the same converged state (medoids,
/// subspaces, labels, costs).
fn states_match(a: &StreamingClusterer, b: &StreamingClusterer) -> bool {
    let (sa, sb) = match (a.state(), b.state()) {
        (Some(x), Some(y)) => (x, y),
        _ => return false,
    };
    sa.medoid_pids == sb.medoid_pids
        && sa.subspaces == sb.subspaces
        && sa.labels == sb.labels
        && sa.cost == sb.cost
        && sa.refined_cost == sb.refined_cost
}

/// Measures every fraction of [`workload`]`(opts.quick)` on the simulated
/// GTX 1660 Ti, one row per fraction.
pub fn run(opts: &Options) -> Vec<Row> {
    let w = workload(opts.quick);
    let params = Params::new(w.k, w.l)
        .with_a(20)
        .with_b(4)
        .with_seed(opts.seed);
    let max_batch = (w.fractions.iter().fold(0.0f64, |m, &f| m.max(f)) * w.n as f64) as usize;
    let cfg = datagen::synthetic::SyntheticConfig {
        d: w.d,
        num_clusters: w.k,
        ..workloads::default_synthetic(w.n + max_batch, opts.seed)
    };
    let data = workloads::synthetic_data(&cfg, 0);
    let rows: Vec<Vec<f32>> = (0..data.n()).map(|p| data.row(p).to_vec()).collect();

    w.fractions
        .iter()
        .map(|&fraction| {
            let batch = ((fraction * w.n as f64) as usize).max(1);

            // Warm path: converge on n points, then append the batch and
            // re-cluster incrementally.
            let mut warm = StreamingClusterer::new(w.d, params.clone(), spec()).expect("clusterer");
            feed(&mut warm, &rows, 0..w.n);
            recluster(&mut warm);
            feed(&mut warm, &rows, w.n..w.n + batch);
            let inc = recluster(&mut warm);
            assert_eq!(inc.mode.as_str(), "incremental", "warm epoch stayed warm");

            // Reference: a from-scratch run over the same final dataset.
            let mut cold = StreamingClusterer::new(w.d, params.clone(), spec()).expect("clusterer");
            feed(&mut cold, &rows, 0..w.n + batch);
            let full = recluster(&mut cold);

            Row {
                fraction,
                batch,
                distances_full: full.distances,
                distances_inc: inc.distances,
                exact: states_match(&warm, &cold),
            }
        })
        .collect()
}
