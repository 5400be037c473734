//! [`StreamingClusterer`]: the live-dataset front door of this crate.
//!
//! Owns a [`StreamDataset`], the cross-epoch row cache, and the last
//! converged state. Mutations (`append` / `retire` / `set_window`) are
//! O(batch). An epoch lends the dataset's own rows to its backend and
//! keeps the labels it gets back by position ([`PidLabels`]), so it
//! copies no window and builds no map.
//! [`StreamingClusterer::recluster`] replays the full PROCLUS
//! decision loop against the row cache and returns a result bitwise equal
//! to a from-scratch run over the same live points — the cache only shrinks
//! the number of distances recomputed. When accumulated churn exceeds the
//! staleness threshold (or no converged state exists yet) the epoch
//! escalates to a cold pass: the cache is dropped and rebuilt, costing full
//! price but changing nothing about the result.
//!
//! [`StreamingClusterer::recluster_warm`] is the documented *approximate*
//! fast path: medoids and subspaces stay frozen and only assignment runs.

use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::OnceLock;

use gpu_sim::{Device, DeviceConfig};
use proclus::backend::{Backend, CpuBackend};
use proclus::par::Executor;
use proclus::{CancelToken, Clustering, DataMatrix, Params, ProclusError, Result};
use proclus_gpu::rows::RowCache;
use proclus_gpu::workspace::Workspace;
use proclus_gpu::{GpuBackend, GpuVariant, ShardedBackend};
use proclus_telemetry::{span, Recorder};

use crate::cache::RowStore;
use crate::dataset::StreamDataset;
use crate::driver::{assign_stream, run_stream_core, Costs};

/// How re-clusterings execute. GPU specs own their simulated device so the
/// device clock and allocator pool persist across epochs.
pub enum StreamBackendSpec {
    /// Host reference backend.
    Cpu {
        /// Thread pool for the host phases.
        exec: Executor,
    },
    /// Single simulated GPU; one workspace is allocated per epoch (n
    /// changes between epochs) and freed before the epoch returns.
    Gpu {
        /// The persistent simulated device.
        dev: Box<Device>,
    },
    /// Data-parallel shards over fresh deterministic devices built per
    /// epoch from `config`.
    Sharded {
        /// Device model for every shard.
        config: DeviceConfig,
        /// Number of shard devices.
        devices: usize,
    },
}

impl StreamBackendSpec {
    /// A single-GPU spec over a fresh deterministic device.
    pub fn gpu(config: DeviceConfig) -> Self {
        let mut dev = Device::new(config);
        dev.set_deterministic(true);
        Self::Gpu { dev: Box::new(dev) }
    }

    /// Backend name for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Cpu { .. } => "cpu",
            Self::Gpu { .. } => "gpu",
            Self::Sharded { .. } => "sharded",
        }
    }
}

/// Which path a re-clustering took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclusterMode {
    /// The row cache was live: rows patched, holes filled.
    Incremental,
    /// Cold or escalated: the row cache dropped and rebuilt at full price.
    Full,
    /// Approximate refresh: frozen medoids/subspaces, assignment only.
    Warm,
}

impl ReclusterMode {
    /// Stable lowercase name (serve protocol, bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Incremental => "incremental",
            Self::Full => "full",
            Self::Warm => "warm",
        }
    }
}

/// Work and outcome accounting for one re-clustering.
#[derive(Debug, Clone)]
pub struct ReclusterReport {
    /// Which path the epoch took.
    pub mode: ReclusterMode,
    /// Live points at epoch start.
    pub n: usize,
    /// Full-dimensional euclidean distances computed.
    pub distances: u64,
    /// Manhattan segmental distances computed: `n·k` per AssignPoints
    /// call and per outlier removal, as in a batch run.
    pub segmental: u64,
    /// Medoid distance rows served from cache.
    pub dist_cache_hits: u64,
    /// Medoid distance rows built from scratch.
    pub dist_cache_misses: u64,
    /// Points folded through `ΔL` updates.
    pub delta_l_points: u64,
    /// Iterative-phase iterations.
    pub iterations: u64,
    /// Bad medoids replaced during the search.
    pub medoids_replaced: u64,
    /// Best pre-refinement cost.
    pub cost: f64,
    /// Cost after refinement.
    pub refined_cost: f64,
    /// Simulated device time consumed, when the backend has a clock.
    pub sim_us: Option<f64>,
}

/// The labels of one epoch: each point's pid and label, in the positions
/// the points held during the epoch. Installing them moves the backend's
/// label vector and copies the dataset's pids, with no map built.
///
/// Equality is that of the pid → label maps, so two epochs over the same
/// points at different positions compare equal. A lookup by pid
/// ([`PidLabels::get`], indexing) builds a pid → position table on its
/// first call and is O(1) after that.
#[derive(Clone)]
pub struct PidLabels {
    pids: Vec<u64>,
    labels: Vec<i32>,
    index: OnceLock<HashMap<u64, usize>>,
}

impl PidLabels {
    fn new(pids: Vec<u64>, labels: Vec<i32>) -> Self {
        debug_assert_eq!(pids.len(), labels.len(), "one label per pid");
        Self {
            pids,
            labels,
            index: OnceLock::new(),
        }
    }

    fn index(&self) -> &HashMap<u64, usize> {
        self.index.get_or_init(|| {
            self.pids
                .iter()
                .enumerate()
                .map(|(q, &pid)| (pid, q))
                .collect()
        })
    }

    /// Number of labelled points.
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// True when the epoch labelled no point.
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// `(pid, label)` pairs in the epoch's position order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &i32)> + '_ {
        self.pids.iter().zip(&self.labels)
    }

    /// The labels in the epoch's position order.
    pub fn values(&self) -> impl Iterator<Item = &i32> + '_ {
        self.labels.iter()
    }

    /// The label the epoch gave `pid`, if it labelled that pid.
    pub fn get(&self, pid: u64) -> Option<i32> {
        self.index().get(&pid).map(|&q| self.labels[q])
    }
}

/// The label of a pid the epoch labelled; panics on any other pid, as a
/// map does.
impl Index<&u64> for PidLabels {
    type Output = i32;

    fn index(&self, pid: &u64) -> &i32 {
        &self.labels[self.index()[pid]]
    }
}

impl PartialEq for PidLabels {
    fn eq(&self, other: &Self) -> bool {
        if self.pids == other.pids {
            return self.labels == other.labels;
        }
        // pids are unique, so equal sizes and one inclusion make the maps
        // equal.
        self.len() == other.len()
            && self
                .iter()
                .all(|(&pid, &label)| other.get(pid) == Some(label))
    }
}

impl fmt::Debug for PidLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The last epoch's clustering, addressed by pid so it stays meaningful
/// as positions shift under later mutations. It is not updated by them:
/// a pid retired since the epoch keeps its entry here, and a pid appended
/// since has none ([`StreamingClusterer::label_of`] answers for live pids
/// only).
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Medoid pids in slot order.
    pub medoid_pids: Vec<u64>,
    /// Chosen subspace per cluster.
    pub subspaces: Vec<Vec<usize>>,
    /// Label per pid the epoch clustered (`OUTLIER` for outliers).
    pub labels: PidLabels,
    /// Best pre-refinement cost.
    pub cost: f64,
    /// Cost after refinement.
    pub refined_cost: f64,
}

/// Builds the epoch's backend over the dataset's own rows and hands it to
/// `f`, freeing device memory before returning. The second return value
/// is the simulated device time the epoch consumed.
fn with_backend<R>(
    spec: &mut StreamBackendSpec,
    data: &DataMatrix,
    params: &Params,
    cancel: &CancelToken,
    f: impl FnOnce(&mut dyn Backend) -> Result<R>,
) -> Result<(R, Option<f64>)> {
    match spec {
        StreamBackendSpec::Cpu { exec } => {
            let mut b = CpuBackend::new(data, *exec);
            Ok((f(&mut b)?, None))
        }
        StreamBackendSpec::Gpu { dev } => {
            let n = data.n();
            let ws = Workspace::new(
                dev,
                data,
                params.k,
                params.sample_size(n),
                params.num_potential_medoids(n),
            )?;
            let mut cache = RowCache::new_fast(n, data.d(), params.k);
            let t0 = dev.elapsed_us();
            let out = {
                let mut b = GpuBackend::new(dev, &ws, &mut cache, GpuVariant::Fast);
                f(&mut b)
            };
            let sim = dev.elapsed_us() - t0;
            let freed = cache.free(dev).and_then(|()| ws.free(dev));
            let out = out?;
            freed?;
            Ok((out, Some(sim)))
        }
        StreamBackendSpec::Sharded { config, devices } => {
            let mut b = ShardedBackend::new(
                config,
                data,
                *devices,
                params.k,
                params.sample_size(data.n()),
                GpuVariant::Fast,
            )?;
            b.set_cancel(cancel);
            let out = f(&mut b);
            let sim = b.clock_us();
            let freed = b.free();
            let out = out?;
            freed?;
            Ok((out, sim))
        }
    }
}

/// A clustering that lives alongside its dataset. See the module docs.
pub struct StreamingClusterer {
    ds: StreamDataset,
    params: Params,
    spec: StreamBackendSpec,
    store: RowStore,
    state: Option<StreamState>,
    dirty: bool,
    /// Mutations (appends + retires + evictions) since the last epoch.
    churn: u64,
    /// Escalate to a cold epoch when `churn / n` exceeds this.
    staleness_threshold: f64,
}

impl StreamingClusterer {
    /// An empty clusterer of dimensionality `d`.
    pub fn new(d: usize, params: Params, spec: StreamBackendSpec) -> Result<Self> {
        params.validate_basic()?;
        let ds = StreamDataset::new(d, params.seed)?;
        Ok(Self {
            ds,
            params,
            spec,
            store: RowStore::new(),
            state: None,
            dirty: false,
            churn: 0,
            staleness_threshold: 0.5,
        })
    }

    /// A clusterer seeded from an initial batch of rows.
    pub fn from_rows(rows: &[Vec<f32>], params: Params, spec: StreamBackendSpec) -> Result<Self> {
        params.validate_basic()?;
        let seed = params.seed;
        Ok(Self {
            ds: StreamDataset::from_rows(rows, seed)?,
            params,
            spec,
            store: RowStore::new(),
            state: None,
            dirty: true,
            churn: 0,
            staleness_threshold: 0.5,
        })
    }

    /// Live point count.
    pub fn n(&self) -> usize {
        self.ds.n()
    }

    /// Dimensionality.
    pub fn d(&self) -> usize {
        self.ds.d()
    }

    /// The live dataset (read-only; mutate through the clusterer so churn
    /// is tracked).
    pub fn dataset(&self) -> &StreamDataset {
        &self.ds
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// True when the dataset changed since the last re-clustering.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The last converged state, if any epoch has run.
    pub fn state(&self) -> Option<&StreamState> {
        self.state.as_ref()
    }

    /// Sets the churn fraction beyond which epochs escalate to cold.
    pub fn set_staleness_threshold(&mut self, t: f64) {
        self.staleness_threshold = t.max(0.0);
    }

    /// Appends a point; returns its pid and any window-evicted pids.
    pub fn append(&mut self, row: &[f32]) -> Result<(u64, Vec<u64>)> {
        let (pid, evicted) = self.ds.append(row)?;
        self.dirty = true;
        self.churn += 1 + evicted.len() as u64;
        Ok((pid, evicted))
    }

    /// Retires a live point by pid.
    pub fn retire(&mut self, pid: u64) -> Result<()> {
        self.ds.retire(pid)?;
        self.dirty = true;
        self.churn += 1;
        Ok(())
    }

    /// Sets or clears the sliding window; returns evicted pids.
    pub fn set_window(&mut self, cap: Option<usize>) -> Result<Vec<u64>> {
        let evicted = self.ds.set_window(cap)?;
        if !evicted.is_empty() {
            self.dirty = true;
            self.churn += evicted.len() as u64;
        }
        Ok(evicted)
    }

    /// Re-runs the full decision loop over the live points, incrementally
    /// where the row cache allows. The result is exactly the clustering a
    /// from-scratch run with the same params and seed would produce.
    pub fn recluster(
        &mut self,
        rec: &dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<ReclusterReport> {
        let g = span(rec, "stream.recluster");
        let n = self.ds.n();
        let data = self.ds.matrix()?;
        self.params.validate(data)?;

        let stale = self.churn as f64 / n.max(1) as f64 > self.staleness_threshold;
        let mode = if self.state.is_none() || stale {
            self.store.clear();
            ReclusterMode::Full
        } else {
            ReclusterMode::Incremental
        };

        let ds = &self.ds;
        let store = &mut self.store;
        let params = &self.params;
        let ((clustering, medoid_pids, costs), sim_us) =
            with_backend(&mut self.spec, data, params, cancel, |b| {
                run_stream_core(ds, store, b, params, rec, cancel)
            })?;

        let report = report(mode, n, &costs, &clustering, sim_us);
        self.install_state(clustering, medoid_pids);
        self.dirty = false;
        self.churn = 0;
        drop(g);
        Ok(report)
    }

    /// Approximate refresh: keeps the converged medoids and subspaces
    /// frozen and re-assigns the live points to them; the row cache is
    /// left as it is. Errors if no state exists or a medoid was retired —
    /// escalate to [`Self::recluster`].
    /// Unlike `recluster`, the result is *not* equal to a from-scratch
    /// run; churn keeps accumulating toward the staleness threshold.
    pub fn recluster_warm(
        &mut self,
        rec: &dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<ReclusterReport> {
        let g = span(rec, "stream.recluster");
        let state = self.state.as_ref().ok_or(ProclusError::InvalidData {
            reason: "warm recluster needs a converged state".into(),
        })?;
        let medoid_pids = state.medoid_pids.clone();
        let dims = state.subspaces.clone();
        if let Some(&gone) = medoid_pids.iter().find(|&&p| self.ds.pos_of(p).is_none()) {
            return Err(ProclusError::InvalidData {
                reason: format!("medoid pid {gone} was retired; run a full recluster"),
            });
        }
        let n = self.ds.n();
        let data = self.ds.matrix()?;
        self.params.validate(data)?;

        let ds = &self.ds;
        let params = &self.params;
        let mut costs = Costs::default();
        let ((cost, labels), sim_us) = with_backend(&mut self.spec, data, params, cancel, |b| {
            cancel.check()?;
            let sizes = assign_stream(ds, b, &medoid_pids, &dims, &mut costs, rec)?;
            let cost = b.evaluate(&dims, &sizes, rec)?;
            Ok((cost, b.labels()?))
        })?;

        let refined_cost = cost;
        self.state = Some(StreamState {
            medoid_pids,
            subspaces: dims,
            labels: PidLabels::new(self.ds.pids().to_vec(), labels),
            cost,
            refined_cost,
        });
        self.dirty = false;
        drop(g);
        Ok(ReclusterReport {
            mode: ReclusterMode::Warm,
            n,
            distances: costs.distances,
            segmental: costs.segmental,
            dist_cache_hits: costs.dist_cache_hits,
            dist_cache_misses: costs.dist_cache_misses,
            delta_l_points: costs.delta_l_points,
            iterations: 0,
            medoids_replaced: 0,
            cost,
            refined_cost,
            sim_us,
        })
    }

    /// The last epoch's label of `pid`, if `pid` is live now and the
    /// epoch labelled it: `None` for a retired pid, a pid appended since
    /// the epoch, or before any epoch. The first call after an epoch
    /// builds the state's pid → position table (O(n)); later calls are
    /// O(1).
    pub fn label_of(&self, pid: u64) -> Option<i32> {
        self.ds.pos_of(pid)?;
        self.state.as_ref()?.labels.get(pid)
    }

    fn install_state(&mut self, clustering: Clustering, medoid_pids: Vec<u64>) {
        self.state = Some(StreamState {
            medoid_pids,
            subspaces: clustering.subspaces,
            labels: PidLabels::new(self.ds.pids().to_vec(), clustering.labels),
            cost: clustering.cost,
            refined_cost: clustering.refined_cost,
        });
    }
}

fn report(
    mode: ReclusterMode,
    n: usize,
    costs: &Costs,
    clustering: &Clustering,
    sim_us: Option<f64>,
) -> ReclusterReport {
    ReclusterReport {
        mode,
        n,
        distances: costs.distances,
        segmental: costs.segmental,
        dist_cache_hits: costs.dist_cache_hits,
        dist_cache_misses: costs.dist_cache_misses,
        delta_l_points: costs.delta_l_points,
        iterations: costs.iterations,
        medoids_replaced: costs.medoids_replaced,
        cost: clustering.cost,
        refined_cost: clustering.refined_cost,
        sim_us,
    }
}

#[cfg(test)]
mod tests {
    use proclus::rng::splitmix64;
    use proclus_telemetry::NullRecorder;

    use super::*;

    fn rows(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let c = (i % 3) as f32 * 10.0;
                (0..4)
                    .map(|j| {
                        let noise = (splitmix64((i * 4 + j) as u64) % 1000) as f32 / 1000.0;
                        if j % 3 == i % 3 {
                            c + noise
                        } else {
                            30.0 + noise * 8.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn params() -> Params {
        Params::builder(3, 2)
            .a(10)
            .b(3)
            .seed(11)
            .build()
            .expect("valid test params")
    }

    fn specs() -> Vec<StreamBackendSpec> {
        vec![
            StreamBackendSpec::Cpu {
                exec: Executor::Sequential,
            },
            StreamBackendSpec::gpu(DeviceConfig::gtx_1660_ti()),
            StreamBackendSpec::Sharded {
                config: DeviceConfig::gtx_1660_ti(),
                devices: 2,
            },
        ]
    }

    fn invalid_data(r: Result<ReclusterReport>) -> String {
        match r {
            Err(e @ ProclusError::InvalidData { .. }) => e.to_string(),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn label_of_answers_for_live_pids_only() {
        let spec = StreamBackendSpec::Cpu {
            exec: Executor::Sequential,
        };
        let mut c = StreamingClusterer::from_rows(&rows(400), params(), spec).unwrap();
        assert_eq!(c.label_of(0), None, "no epoch yet");
        c.recluster(&NullRecorder, &CancelToken::new()).unwrap();
        let labels = c.state().unwrap().labels.clone();
        for (&pid, &label) in labels.iter() {
            assert_eq!(c.label_of(pid), Some(label));
        }

        let retired = c.dataset().pid_at(5);
        let moved = c.dataset().pid_at(c.n() - 1);
        c.retire(retired).unwrap();
        assert_eq!(c.dataset().pos_of(moved), Some(5));
        assert_eq!(c.label_of(retired), None, "retired");
        assert_eq!(
            c.label_of(moved),
            Some(labels[&moved]),
            "moved by the retire"
        );

        let (appended, _) = c.append(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(c.label_of(appended), None, "appended since the epoch");
        c.recluster(&NullRecorder, &CancelToken::new()).unwrap();
        assert!(c.label_of(appended).is_some());
        assert_eq!(c.label_of(retired), None);
    }

    #[test]
    fn empty_and_emptied_streams_are_typed_errors() {
        let cancel = CancelToken::new();
        for spec in specs() {
            let name = spec.name();
            let mut empty = StreamingClusterer::new(4, params(), spec).unwrap();
            let msg = invalid_data(empty.recluster(&NullRecorder, &cancel));
            assert!(msg.contains("dataset must be non-empty"), "{name}: {msg}");
            invalid_data(empty.recluster_warm(&NullRecorder, &cancel));
            assert!(empty.state().is_none());
        }
        for spec in specs() {
            let name = spec.name();
            let mut c = StreamingClusterer::from_rows(&rows(60), params(), spec).unwrap();
            c.recluster(&NullRecorder, &cancel).unwrap();
            for pid in 0..60 {
                c.retire(pid).unwrap();
            }
            assert_eq!(c.n(), 0);
            let msg = invalid_data(c.recluster(&NullRecorder, &cancel));
            assert!(msg.contains("dataset must be non-empty"), "{name}: {msg}");
            invalid_data(c.recluster_warm(&NullRecorder, &cancel));
            assert!(
                c.is_dirty(),
                "{name}: a failed epoch keeps the stream dirty"
            );
        }
    }

    #[test]
    fn pid_labels_compare_as_maps() {
        let a = PidLabels::new(vec![4, 9, 2], vec![0, 1, -1]);
        let b = PidLabels::new(vec![2, 4, 9], vec![-1, 0, 1]);
        assert_eq!(a, b, "positions differ, pairs agree");
        assert_ne!(a, PidLabels::new(vec![2, 4, 9], vec![-1, 0, 0]));
        assert_ne!(a, PidLabels::new(vec![2, 4, 7], vec![-1, 0, 1]));
        assert_ne!(a, PidLabels::new(vec![4, 9], vec![0, 1]));
        assert_eq!((a.len(), a.is_empty()), (3, false));
        assert_eq!(a.get(9), Some(1));
        assert_eq!(a.get(3), None);
        assert_eq!(b[&9], 1);
        let pairs: Vec<(u64, i32)> = a.iter().map(|(&p, &l)| (p, l)).collect();
        assert_eq!(pairs, [(4, 0), (9, 1), (2, -1)], "position order");
        assert_eq!(a.values().copied().collect::<Vec<_>>(), [0, 1, -1]);
        assert_eq!(format!("{a:?}"), "{4: 0, 9: 1, 2: -1}");
    }
}
