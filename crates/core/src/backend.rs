//! The execution-backend abstraction behind every PROCLUS driver.
//!
//! All PROCLUS variants share one phase loop (sample → greedy → iterate
//! {ComputeL, FindDimensions, AssignPoints, EvaluateClusters, bad-medoid
//! replacement} → refinement with outlier removal). What differs between
//! the CPU path, the simulated-GPU path, and the sharded multi-device path
//! is *where the per-phase numeric primitives execute* — so that is exactly
//! what the [`Backend`] trait owns. The driver (`crate::driver`, reached
//! through [`run_settings`]) holds every decision: medoid
//! bookkeeping, RNG draws, best-cost tracking, termination, cancellation
//! polls, and phase telemetry. A backend holds every number: the data, the
//! `Dist`/`H` state of Theorems 3.1/3.2, the current `X`, labels, and
//! cluster lists.
//!
//! Contract highlights (see DESIGN.md §12 for the full write-up):
//!
//! * **Phase primitives.** [`Backend::compute_x`] assembles the averaged
//!   per-dimension distance matrix `X` for the current medoids (delta
//!   updates included), [`Backend::find_dims`] selects subspaces from it,
//!   [`Backend::assign`] produces labels + cluster sizes,
//!   [`Backend::evaluate`] the cost, [`Backend::x_from_best`] /
//!   [`Backend::remove_outliers`] the refinement pass. State flows through
//!   the backend between calls; the driver only sees medoid indices,
//!   subspaces, sizes, and costs. The CPU backend's [`Backend::assign`]
//!   leaves its clusters grouped (each grain's member lists and centroid
//!   sums, built in the AssignPoints sweep); [`Backend::evaluate`] reads
//!   the groups, [`Backend::save_best`] keeps them and
//!   [`Backend::x_from_best`] folds the kept lists. Called out of that
//!   order, each returns an error naming the missing call. The CPU
//!   backend also runs the refinement's outlier test inside the
//!   refinement's AssignPoints sweep and applies the marks in
//!   [`Backend::remove_outliers`].
//! * **Barriers.** The driver calls the primitives strictly in phase order;
//!   a multi-device backend must have reduced any cross-shard state
//!   (`H`-sums, cluster sizes, centroids) by the time a primitive returns —
//!   every method return is a phase barrier.
//! * **Cancellation.** The driver polls its [`crate::CancelToken`] at the
//!   top of every iteration and before refinement, and hands the backend
//!   the token of the setting about to run ([`Backend::set_cancel`]).
//!   Backends whose primitives are internally long-running (sharded loops
//!   over devices) must additionally poll that token between per-device
//!   steps so a cancel lands mid-phase, not at the next barrier.
//! * **Telemetry.** Phase spans are opened by the driver. Backends with a
//!   simulated clock report it through [`Backend::clock_us`] (the driver
//!   annotates each phase span with the simulated microseconds it
//!   consumed) and may attribute extra counters (cache hits, `ΔL` sizes)
//!   to the innermost open span via the `rec` handle they receive.
//!
//! A [`BackendHost`] builds and frees the backends of one family;
//! [`run_settings`] runs a single setting or a whole grid on them.

use proclus_telemetry::Recorder;

use crate::baseline::BaselineEngine;
use crate::cancel::CancelToken;
use crate::config::Algo;
use crate::dataset::DataMatrix;
use crate::distance_simd::euclidean_listed;
use crate::driver::XEngine;
use crate::error::{ProclusError, Result};
use crate::fast::{compute_dist_rows, FastEngine};
use crate::fast_star::FastStarEngine;
use crate::par::Executor;
use crate::params::Params;
use crate::phases::assign::assign_grouped;
use crate::phases::evaluate::{grouped_cost, Groups};
use crate::phases::find_dimensions::find_dimensions;
use crate::phases::initialization::greedy_select;
use crate::phases::refinement::{outlier_deltas, remove_outliers, x_from_groups};
use crate::rng::ProclusRng;
use std::sync::Arc;

pub use crate::driver::{run_settings, BackendHost};

/// The per-phase primitives one execution backend provides.
///
/// Implemented by the CPU engines (here), the simulated-GPU backend
/// (`proclus_gpu::GpuBackend`), and the sharded multi-device backend
/// (`proclus_gpu::ShardedBackend`). `m_data` always holds the data indices
/// of the potential medoids `M`; `mcur` holds current medoids as indices
/// into `m_data`; `medoids` holds plain data indices.
pub trait Backend {
    /// Stable lowercase backend name (telemetry metadata, serve responses).
    fn name(&self) -> &'static str;

    /// Number of points in the dataset this backend executes over.
    fn n(&self) -> usize;

    /// The simulated device clock in microseconds, if this backend has
    /// one. The driver annotates each phase span with the delta.
    fn clock_us(&self) -> Option<f64> {
        None
    }

    /// Hands the backend the token of the setting about to run. Backends
    /// that poll inside long-running primitives keep it; the rest ignore
    /// it. A fresh backend polls an uncancelled token.
    fn set_cancel(&mut self, cancel: &CancelToken) {
        let _ = cancel;
    }

    /// Greedy farthest-point selection of `count` potential medoids from
    /// `sample` (paper Alg. 2). Must consume `rng` identically across
    /// backends so seeds produce the same search path everywhere.
    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        rec: &dyn Recorder,
    ) -> Result<Vec<usize>>;

    /// ComputeL: assemble `X` (and sphere sizes) for the current medoids,
    /// applying the variant's `Dist`/`H` caching and `ΔL` delta updates
    /// (Theorems 3.1/3.2). `X` stays inside the backend.
    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()>;

    /// FindDimensions: pick the subspaces from the `X` assembled by the
    /// preceding [`Backend::compute_x`] / [`Backend::x_from_best`] call.
    fn find_dims(&mut self, k: usize, l: usize, rec: &dyn Recorder) -> Result<Vec<Vec<usize>>>;

    /// AssignPoints: label every point with its nearest medoid under
    /// `dims`, one subspace per medoid, whether a preceding
    /// [`Backend::find_dims`] picked them or the caller did (the streaming
    /// driver picks them on the host); returns the cluster sizes. Labels
    /// stay inside the backend (device-resident for GPU backends).
    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> Result<Vec<usize>>;

    /// The current labels, materialized host-side. Called once after
    /// refinement (the final labels) and on telemetry paths (label-churn
    /// counter); never on the per-iteration hot path.
    fn labels(&mut self) -> Result<Vec<i32>>;

    /// EvaluateClusters: the paper's cost (Eq. 9) of the current
    /// assignment under `dims`. `sizes` is the value the preceding
    /// [`Backend::assign`] returned.
    fn evaluate(&mut self, dims: &[Vec<usize>], sizes: &[usize], rec: &dyn Recorder)
        -> Result<f64>;

    /// Snapshot the current labels as the best-so-far assignment (the
    /// refinement phase rebuilds clusters from this snapshot).
    fn save_best(&mut self) -> Result<()>;

    /// Refinement ComputeL: assemble `X` from the best-so-far clusters
    /// (`L ← CBest`, Alg. 1 line 16) instead of the medoid spheres.
    fn x_from_best(&mut self, medoids: &[usize], rec: &dyn Recorder) -> Result<()>;

    /// RemoveOutliers: rewrite the current labels in place, discarding
    /// points outside every medoid's sphere of influence, each measured in
    /// that medoid's subspace in `dims`. The driver reads the final labels
    /// back with [`Backend::labels`] afterwards. A backend may apply marks
    /// its refinement [`Backend::assign`] recorded for the same medoids
    /// and subspaces instead of scanning again (the CPU backend does,
    /// DESIGN.md §12.1).
    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> Result<()>;

    /// Euclidean distances from the point at data index `medoid` to each of
    /// `points` (data indices), in order. The streaming driver uses this as
    /// its scatter/gather primitive: patching only the hole columns of a
    /// carried-over row, running the farthest-point search one pick at a
    /// time, and (through the default [`Backend::dist_rows`]) filling
    /// whole `Dist` rows on a cache miss. Backends without a streaming
    /// path keep the default [`ProclusError::Unsupported`].
    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        let _ = (medoid, points, rec);
        Err(ProclusError::unsupported(format!(
            "backend `{}` does not implement dist_subset (streaming)",
            self.name()
        )))
    }

    /// Full `Dist` rows: the euclidean distances from the point at data
    /// index `medoids[r]` to every point, in position order, one row per
    /// medoid. The streaming driver builds all of an iteration's row
    /// misses with one call. The default runs [`Backend::dist_subset`]
    /// once per row, so a backend with its own streaming kernel keeps it
    /// (and its simulated clock); the CPU backend overrides it with one
    /// cache-blocked pass over the data.
    fn dist_rows(&mut self, medoids: &[usize], rec: &dyn Recorder) -> Result<Vec<Vec<f32>>> {
        let all: Vec<usize> = (0..self.n()).collect();
        medoids
            .iter()
            .map(|&m| self.dist_subset(m, &all, rec))
            .collect()
    }
}

/// The CPU backend: host execution through [`Executor`], with the variant
/// engines (baseline recompute, FAST `Dist`/`H` cache, FAST* slot cache)
/// supplying `X`.
pub struct CpuBackend<'a> {
    data: &'a DataMatrix,
    exec: Executor,
    engine: Box<dyn XEngine>,
    x: Vec<f64>,
    labels: Vec<i32>,
    /// The clusters of `labels`, grouped by the assign that made them;
    /// `None` before the first assign and after `remove_outliers`.
    groups: Option<Arc<Groups>>,
    /// The groups [`Backend::save_best`] kept.
    best: Option<Arc<Groups>>,
    /// Set by [`Backend::x_from_best`]: the next [`Backend::assign`] is
    /// the refinement's and runs the outlier test in its sweep.
    refining: bool,
    /// The refinement assign's labels with the outliers marked.
    marked: Option<Marked>,
}

/// Labels with the refinement's outliers marked, and the medoids and
/// subspaces they were computed for.
struct Marked {
    medoids: Vec<usize>,
    dims: Vec<Vec<usize>>,
    labels: Vec<i32>,
}

impl<'a> CpuBackend<'a> {
    /// A CPU backend for drivers that compute `X` themselves (the
    /// streaming driver): the internal `X` engine is the baseline
    /// recompute and is only exercised if [`Backend::compute_x`] /
    /// [`Backend::x_from_best`] are actually called.
    pub fn new(data: &'a DataMatrix, exec: Executor) -> Self {
        Self::with_engine(data, exec, Box::new(BaselineEngine))
    }

    /// Wraps an `X` engine.
    fn with_engine(data: &'a DataMatrix, exec: Executor, engine: Box<dyn XEngine>) -> Self {
        Self {
            data,
            exec,
            engine,
            x: Vec::new(),
            labels: Vec::new(),
            groups: None,
            best: None,
            refining: false,
            marked: None,
        }
    }
}

/// Builds CPU backends: the variant's `X` engine on one executor.
pub(crate) struct CpuHost<'a> {
    pub(crate) data: &'a DataMatrix,
    pub(crate) exec: Executor,
    pub(crate) algo: Algo,
}

impl BackendHost for CpuHost<'_> {
    fn check(&self, params: &Params) -> Result<()> {
        params.validate(self.data)
    }

    fn with_backend<T>(
        &mut self,
        params: &Params,
        f: impl FnOnce(&mut dyn Backend) -> T,
    ) -> Result<T> {
        let engine: Box<dyn XEngine> = match self.algo {
            Algo::Baseline => Box::new(BaselineEngine),
            Algo::Fast => Box::new(FastEngine::new(self.data)),
            Algo::FastStar => Box::new(FastStarEngine::new(self.data, params.k)),
        };
        let mut backend = CpuBackend::with_engine(self.data, self.exec, engine);
        Ok(f(&mut backend))
    }
}

impl Backend for CpuBackend<'_> {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn n(&self) -> usize {
        self.data.n()
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        Ok(greedy_select(self.data, sample, count, rng, &self.exec))
    }

    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()> {
        let (x, _lsz) = self
            .engine
            .x_matrix(self.data, m_data, mcur, &self.exec, rec);
        self.x = x;
        Ok(())
    }

    fn find_dims(&mut self, k: usize, l: usize, _rec: &dyn Recorder) -> Result<Vec<Vec<usize>>> {
        Ok(find_dimensions(&self.x, k, self.data.d(), l))
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        // The outlier spheres depend only on the medoids and subspaces, so
        // the refinement's sweep tests them on the distances it labels
        // from; `remove_outliers` then applies the marks.
        let spheres = if std::mem::take(&mut self.refining) {
            outlier_deltas(self.data, medoids, dims)
        } else {
            Vec::new()
        };
        let assigned = assign_grouped(self.data, medoids, dims, &spheres, &self.exec);
        self.marked = assigned.marked.map(|labels| Marked {
            medoids: medoids.to_vec(),
            dims: dims.to_vec(),
            labels,
        });
        self.labels = assigned.labels;
        let sizes = assigned.groups.sizes().to_vec();
        self.groups = Some(Arc::new(assigned.groups));
        Ok(sizes)
    }

    fn labels(&mut self) -> Result<Vec<i32>> {
        Ok(self.labels.clone())
    }

    fn evaluate(
        &mut self,
        dims: &[Vec<usize>],
        _sizes: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<f64> {
        let groups = self
            .groups
            .as_deref()
            .ok_or_else(|| out_of_order("evaluate", "assign"))?;
        if dims.len() != groups.k() {
            return Err(ProclusError::params(format!(
                "evaluate: {} subspaces for {} assigned clusters",
                dims.len(),
                groups.k()
            )));
        }
        Ok(grouped_cost(self.data, groups, dims, &self.exec))
    }

    fn save_best(&mut self) -> Result<()> {
        let groups = self
            .groups
            .as_ref()
            .ok_or_else(|| out_of_order("save_best", "assign"))?;
        self.best = Some(Arc::clone(groups));
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> Result<()> {
        let best = self
            .best
            .as_deref()
            .ok_or_else(|| out_of_order("x_from_best", "save_best"))?;
        if medoids.len() != best.k() {
            return Err(ProclusError::params(format!(
                "x_from_best: {} medoids for {} saved clusters",
                medoids.len(),
                best.k()
            )));
        }
        let (x, _) = x_from_groups(self.data, medoids, best, &self.exec);
        self.x = x;
        self.refining = true;
        Ok(())
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<()> {
        self.labels = match self.marked.take() {
            Some(m) if m.medoids == medoids && m.dims == dims => m.labels,
            _ => remove_outliers(self.data, &self.labels, medoids, dims, &self.exec),
        };
        // The groups are those of the labels before the removal.
        self.groups = None;
        Ok(())
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        let (data, m_row) = (self.data, self.data.row(medoid));
        let mut out = vec![0.0f32; points.len()];
        // Each distance is its own chain and lands in its own slot, so
        // splitting `points` across grains leaves every value unchanged.
        self.exec.for_each_slice(&mut out, |off, sub| {
            let listed = &points[off..off + sub.len()];
            euclidean_listed(data.flat(), data.d(), m_row, listed, sub);
        });
        Ok(out)
    }

    fn dist_rows(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> Result<Vec<Vec<f32>>> {
        let mut rows = vec![vec![0.0f32; self.data.n()]; medoids.len()];
        let m_rows: Vec<&[f32]> = medoids.iter().map(|&m| self.data.row(m)).collect();
        let mut outs: Vec<&mut [f32]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
        compute_dist_rows(self.data, &m_rows, &mut outs, &self.exec);
        Ok(rows)
    }
}

/// The error of a primitive called before the one that feeds it.
fn out_of_order(call: &str, needs: &str) -> ProclusError {
    ProclusError::unsupported(format!("cpu backend: `{call}` needs a preceding `{needs}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;
    use crate::phases::assign::assign_points;
    use proclus_telemetry::NullRecorder;

    /// A matrix above the executor's single-grain crossover with a `d % 8`
    /// tail, and the executors to run it on.
    fn setup() -> (DataMatrix, [Executor; 3]) {
        let (n, d) = (5_003, 15);
        let flat = (0..n * d)
            .map(|i| ((i as u64 * 2_654_435_761) % 10_007) as f32 * 0.013 - 60.0)
            .collect();
        let execs = [
            Executor::Sequential,
            Executor::Parallel { threads: 2 },
            Executor::Parallel { threads: 7 },
        ];
        (DataMatrix::from_flat(flat, n, d).unwrap(), execs)
    }

    /// Contiguous, scattered and mixed position lists with `% 8` tails,
    /// and the empty list.
    fn lists(n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(), (0..n).collect()];
        for len in [5usize, 8, 13, 2_100, 4_099] {
            out.push((n - len..n).collect());
            out.push((0..len).map(|i| (i * 7_919 + 3) % n).collect());
            out.push(
                (0..len)
                    .map(|i| if i % 50 < 41 { i + 17 } else { (i * 31) % n })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn dist_subset_equals_scalar_euclidean_bitwise() {
        let (data, execs) = setup();
        for exec in execs {
            let mut backend = CpuBackend::new(&data, exec);
            for points in lists(data.n()) {
                let got = backend.dist_subset(42, &points, &NullRecorder).unwrap();
                assert_eq!(got.len(), points.len());
                for (i, &p) in points.iter().enumerate() {
                    let want = euclidean(data.row(p), data.row(42));
                    assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "{exec:?} len {} i {i}",
                        points.len()
                    );
                }
            }
        }
    }

    #[test]
    fn dist_rows_equal_per_row_dist_subset() {
        let (data, execs) = setup();
        let all: Vec<usize> = (0..data.n()).collect();
        let medoids = [0usize, 4_999, 17, 5_002];
        for exec in execs {
            let mut backend = CpuBackend::new(&data, exec);
            let rows = backend.dist_rows(&medoids, &NullRecorder).unwrap();
            assert_eq!(rows.len(), medoids.len());
            for (row, &m) in rows.iter().zip(&medoids) {
                let want = backend.dist_subset(m, &all, &NullRecorder).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row), bits(&want), "{exec:?} medoid {m}");
            }
        }
        let mut backend = CpuBackend::new(&data, Executor::Sequential);
        assert!(backend.dist_rows(&[], &NullRecorder).unwrap().is_empty());
    }

    /// `evaluate` (and `save_best`) before any `assign` or after
    /// `remove_outliers`, and `x_from_best` before any `save_best`, are
    /// typed errors naming the missing call, at one grain and above one.
    #[test]
    fn out_of_order_calls_are_typed_errors() {
        let (big, _) = setup();
        let small = DataMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
        let subs = [vec![0, 1], vec![1]];
        for data in [&small, &big] {
            let mut backend = CpuBackend::new(data, Executor::Sequential);
            let err = backend.evaluate(&subs, &[1, 1], &NullRecorder).unwrap_err();
            assert!(
                err.to_string()
                    .contains("`evaluate` needs a preceding `assign`"),
                "{err}"
            );
            let err = backend.save_best().unwrap_err();
            assert!(
                err.to_string()
                    .contains("`save_best` needs a preceding `assign`"),
                "{err}"
            );
            let err = backend.x_from_best(&[0, 1], &NullRecorder).unwrap_err();
            assert!(
                err.to_string()
                    .contains("`x_from_best` needs a preceding `save_best`"),
                "{err}"
            );
            // In order, each call succeeds; a mismatched k is an error too.
            backend.assign(&[0, 1], &subs, &NullRecorder).unwrap();
            let err = backend.x_from_best(&[0, 1], &NullRecorder).unwrap_err();
            assert!(err.to_string().contains("`save_best`"), "{err}");
            backend.evaluate(&subs, &[1, 1], &NullRecorder).unwrap();
            assert!(backend.evaluate(&subs[..1], &[1], &NullRecorder).is_err());
            backend.save_best().unwrap();
            backend.x_from_best(&[0, 1], &NullRecorder).unwrap();
            assert!(backend.x_from_best(&[0], &NullRecorder).is_err());
            // Removing outliers changes the labels, so their groups go.
            backend.assign(&[0, 1], &subs, &NullRecorder).unwrap();
            backend
                .remove_outliers(&[0, 1], &subs, &NullRecorder)
                .unwrap();
            for err in [
                backend.evaluate(&subs, &[1, 1], &NullRecorder).unwrap_err(),
                backend.save_best().unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains("needs a preceding `assign`"),
                    "{err}"
                );
            }
            backend.x_from_best(&[0, 1], &NullRecorder).unwrap();
        }
    }

    /// The marks the refinement's assign records and `remove_outliers`
    /// applies equal the outlier scan, on every executor; any other call
    /// sequence scans.
    #[test]
    fn refinement_marks_equal_the_outlier_scan() {
        let (data, execs) = setup();
        let medoids = [3usize, 900, 2_500, 4_100];
        let subs = [
            vec![0, 4, 9],
            vec![1, 2],
            vec![3, 7, 8, 14],
            vec![5, 10, 11],
        ];
        let labels = assign_points(&data, &medoids, &subs, &Executor::Sequential);
        let want = remove_outliers(&data, &labels, &medoids, &subs, &Executor::Sequential);
        assert!(want.iter().any(|&l| l < 0), "some outliers");
        for exec in execs {
            let mut backend = CpuBackend::new(&data, exec);
            backend.assign(&medoids, &subs, &NullRecorder).unwrap();
            backend.save_best().unwrap();
            backend.x_from_best(&medoids, &NullRecorder).unwrap();
            backend.assign(&medoids, &subs, &NullRecorder).unwrap();
            assert!(
                backend.marked.is_some(),
                "{exec:?}: the refinement assign marks"
            );
            assert_eq!(backend.labels().unwrap(), labels, "{exec:?}: labels before");
            backend
                .remove_outliers(&medoids, &subs, &NullRecorder)
                .unwrap();
            assert_eq!(backend.labels().unwrap(), want, "{exec:?}: marks applied");
            // An iteration's assign records nothing; the scan runs.
            backend.assign(&medoids, &subs, &NullRecorder).unwrap();
            assert!(backend.marked.is_none(), "{exec:?}");
            backend
                .remove_outliers(&medoids, &subs, &NullRecorder)
                .unwrap();
            assert_eq!(backend.labels().unwrap(), want, "{exec:?}: scanned");
            // Marks for other subspaces are not applied.
            backend.x_from_best(&medoids, &NullRecorder).unwrap();
            backend.assign(&medoids, &subs, &NullRecorder).unwrap();
            let other = [vec![0, 1], vec![1, 2], vec![3, 7, 8, 14], vec![5, 10, 11]];
            let relabelled = assign_points(&data, &medoids, &other, &exec);
            let scan = remove_outliers(&data, &relabelled, &medoids, &other, &exec);
            backend.labels = relabelled;
            backend
                .remove_outliers(&medoids, &other, &NullRecorder)
                .unwrap();
            assert_eq!(backend.labels, scan, "{exec:?}: stale marks");
        }
    }
}
