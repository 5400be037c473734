//! The sharded multi-device [`Backend`]: points partitioned across `D`
//! simulated devices, medoids broadcast, per-phase partials reduced at the
//! phase barriers of the shared driver.
//!
//! Layout: the dataset is split into `min(D, n)` contiguous shards (more
//! devices than points build one shard per point). Each shard device
//! holds its own rows plus an **annex** — a broadcast copy of every
//! potential-medoid row, appended after the shard rows in the same device
//! buffer. Kernels address medoids by their annex row index, so every
//! single-device kernel (`dist_row`, `build_lists`, `h_update`, `assign`,
//! outlier removal) runs unchanged on shard-local data even when the
//! medoid lives on another shard. The per-shard `Dist`/`H` caches are
//! keyed by annex slot, which is stable for the lifetime of the backend,
//! so the FAST reuse behavior of §3.1/§4.2 is hit-for-hit identical to
//! the single-device backend.
//!
//! Per phase, each [`Backend`] primitive is one bulk-synchronous step: the
//! shards run the phase kernels on their own rows, then the host reduces
//! the small cross-shard state — `ΔL` counts and `|L|` sizes (ComputeL),
//! the `k × d` partial `X` sums, cluster sizes (AssignPoints), partial
//! centroids and cost terms (EvaluateClusters, via the two partial kernels
//! in `kernels::evaluate`). Decision logic then proceeds exactly as on one
//! device, so seeds produce the same medoid path; only the f64 summation
//! order differs (cross-shard partial sums), which the equivalence tests
//! bound at `1e-9` on the cost — labels, medoids and subspaces are asserted
//! equal.
//!
//! The simulated clock of the whole ensemble advances by the *maximum*
//! per-shard device delta of each step (the barrier) plus a modeled
//! tree-reduction cost per reduced element — that is what
//! [`Backend::clock_us`] reports and what the speedup benchmark measures.

use std::collections::HashMap;

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, GpuError};
use proclus::backend::{Backend, BackendHost};
use proclus::params::Params;
use proclus::phases::compute_l::medoid_deltas;
use proclus::phases::find_dimensions::find_dimensions;
use proclus::phases::initialization::greedy_select;
use proclus::{CancelToken, DataMatrix, ProclusError, ProclusRng};
use proclus_telemetry::{attrs, counters, Recorder};

use crate::backend::{check_kernel_limits, flat_dims, GpuVariant};
use crate::error::Result;
use crate::kernels::assign::assign_kernel;
use crate::kernels::dist::dist_subset_kernel;
use crate::kernels::evaluate::{centroid_partial_kernel, cost_partial_kernel};
use crate::kernels::find_dims::{h_update_kernel, x_from_h_kernel, x_from_lists_partial_kernel};
use crate::kernels::lsets::{build_lists_kernel, SphereCond};
use crate::kernels::outliers::{outlier_deltas_kernel, remove_outliers_kernel};
use crate::kernels::util::{copy_labels_kernel, lists_from_labels_kernel};
use crate::rows::RowCache;

/// Modeled one-hop interconnect latency for a phase-barrier reduction, µs.
const LINK_LATENCY_US: f64 = 8.0;
/// Modeled interconnect bandwidth for reduced scalars, bytes per µs.
const LINK_BYTES_PER_US: f64 = 12_000.0;

/// Converts a device error into the core error type at a shard boundary.
fn dev_err(e: GpuError) -> ProclusError {
    ProclusError::Device {
        reason: e.to_string(),
    }
}

/// Cost of tree-reducing `elems` f64 scalars across `d_count` devices.
fn reduce_cost_us(d_count: usize, elems: usize) -> f64 {
    if d_count <= 1 {
        return 0.0;
    }
    let hops = (d_count as f64).log2().ceil();
    hops * (LINK_LATENCY_US + (elems * 8) as f64 / LINK_BYTES_PER_US)
}

/// One device's slice of the problem: its rows, the medoid annex, and the
/// shard-local mirrors of every workspace buffer the kernels touch.
struct Shard {
    dev: Device,
    /// Rows resident on this shard.
    n_local: usize,
    /// `(n_local + annex_cap) × d`: shard rows then broadcast medoid rows.
    data: DeviceBuffer<f32>,
    l_list: DeviceBuffer<u32>,
    l_count: DeviceBuffer<u32>,
    c_list: DeviceBuffer<u32>,
    c_count: DeviceBuffer<u32>,
    labels: DeviceBuffer<i32>,
    labels_best: DeviceBuffer<i32>,
    x: DeviceBuffer<f64>,
    mu: DeviceBuffer<f64>,
    cost: DeviceBuffer<f64>,
    dims_flat: DeviceBuffer<u32>,
    outlier_deltas: DeviceBuffer<f64>,
    cache: RowCache,
    /// Shard-local cluster sizes from the latest assign.
    sizes: Vec<usize>,
    /// Telemetry watermarks for the per-shard summary spans.
    last_emit_us: f64,
    last_emit_launches: u64,
}

impl Shard {
    fn free(self) -> Result<()> {
        let mut dev = self.dev;
        self.cache.free(&mut dev)?;
        for b in [&self.l_list, &self.c_list, &self.dims_flat] {
            dev.free(b)?;
        }
        dev.free(&self.data)?;
        dev.free(&self.l_count)?;
        dev.free(&self.c_count)?;
        dev.free(&self.labels)?;
        dev.free(&self.labels_best)?;
        dev.free(&self.x)?;
        dev.free(&self.mu)?;
        dev.free(&self.cost)?;
        dev.free(&self.outlier_deltas)?;
        Ok(())
    }
}

/// The sharded multi-device execution backend (see the module docs).
pub struct ShardedBackend<'a> {
    data: &'a DataMatrix,
    shards: Vec<Shard>,
    variant: GpuVariant,
    /// Annex rows reserved per shard (every greedy pick fits: `|S|`).
    annex_cap: usize,
    /// Broadcast medoid bookkeeping: global data index → annex slot.
    annex_of: HashMap<usize, usize>,
    next_annex: usize,
    /// Host-reduced `X` of the latest ComputeL step (`k × d`).
    x: Vec<f64>,
    /// The subspaces in every shard's `dims_flat`, and their offsets.
    dims: Vec<Vec<usize>>,
    offsets: Vec<usize>,
    /// The ensemble clock: max-per-shard phase deltas + reduction costs.
    sim_us: f64,
    /// The running setting's token ([`Backend::set_cancel`]), polled
    /// between per-shard steps so a cancel lands mid-phase.
    cancel: CancelToken,
}

impl<'a> ShardedBackend<'a> {
    /// Partitions `data` across `devices` fresh deterministic devices built
    /// from `cfg`. `k_cap` sizes the per-cluster buffers (the largest `k`
    /// of a grid); `annex_cap` sizes the medoid annex (the sample size —
    /// every greedy pick comes from the sample). More devices than points
    /// build one single-point shard per point, the partition `n` devices
    /// build, so degenerate device counts degrade gracefully.
    pub fn new(
        cfg: &DeviceConfig,
        data: &'a DataMatrix,
        devices: usize,
        k_cap: usize,
        annex_cap: usize,
        variant: GpuVariant,
    ) -> Result<Self> {
        let (n, d) = (data.n(), data.d());
        // Devices past the n-th would hold no points: never visit them, so
        // a device count from outside costs at most n iterations.
        let d_count = devices.min(n).max(1);
        let base = n / d_count;
        let rem = n % d_count;
        let mut shards = Vec::new();
        let mut start = 0usize;
        for i in 0..d_count {
            let n_local = base + usize::from(i < rem);
            let mut dev = Device::new(cfg.clone());
            dev.set_deterministic(true);
            let data_buf = dev.alloc_zeroed::<f32>("shard.data", (n_local + annex_cap) * d)?;
            dev.upload(
                &data_buf.slice(0, n_local * d),
                &data.flat()[start * d..(start + n_local) * d],
            );
            let cache = match variant {
                GpuVariant::Plain => RowCache::new_plain(&mut dev, n_local, k_cap)?,
                GpuVariant::Fast => RowCache::new_fast(n_local, d, k_cap),
                GpuVariant::FastStar => RowCache::new_fast_star(&mut dev, n_local, d, k_cap)?,
            };
            let shard = Shard {
                n_local,
                data: data_buf,
                l_list: dev.alloc_zeroed("shard.l_list", k_cap * n_local)?,
                l_count: dev.alloc_zeroed("shard.l_count", k_cap)?,
                c_list: dev.alloc_zeroed("shard.c_list", k_cap * n_local)?,
                c_count: dev.alloc_zeroed("shard.c_count", k_cap)?,
                labels: dev.alloc_zeroed("shard.labels", n_local)?,
                labels_best: dev.alloc_zeroed("shard.labels_best", n_local)?,
                x: dev.alloc_zeroed("shard.x", k_cap * d)?,
                mu: dev.alloc_zeroed("shard.mu", k_cap * d)?,
                cost: dev.alloc_zeroed("shard.cost", 1)?,
                dims_flat: dev.alloc_zeroed("shard.dims", k_cap * d)?,
                outlier_deltas: dev.alloc_zeroed("shard.outlier_deltas", k_cap)?,
                cache,
                sizes: Vec::new(),
                last_emit_us: 0.0,
                last_emit_launches: 0,
                dev,
            };
            shards.push(shard);
            start += n_local;
        }
        Ok(Self {
            data,
            shards,
            variant,
            annex_cap,
            annex_of: HashMap::new(),
            next_annex: 0,
            x: Vec::new(),
            dims: Vec::new(),
            offsets: Vec::new(),
            sim_us: 0.0,
            cancel: CancelToken::default(),
        })
    }

    /// Number of shards actually holding points.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Releases every shard's device memory. Like the single-GPU runners,
    /// callers free explicitly so leaks are observable in tests.
    pub fn free(self) -> Result<()> {
        for shard in self.shards {
            shard.free()?;
        }
        Ok(())
    }

    /// Snapshot of every shard clock at the start of a barrier step.
    fn begin_step(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.dev.elapsed_us()).collect()
    }

    /// Ends a barrier step: the ensemble waited for the slowest shard, then
    /// reduced `reduced_elems` scalars across devices.
    fn end_step(&mut self, starts: &[f64], reduced_elems: usize) {
        let mut max_delta = 0.0f64;
        for (shard, &t0) in self.shards.iter().zip(starts) {
            let dt = shard.dev.elapsed_us() - t0;
            if dt > max_delta {
                max_delta = dt;
            }
        }
        self.sim_us += max_delta + reduce_cost_us(self.shards.len(), reduced_elems);
    }

    /// Annex slot of a broadcast medoid row.
    fn annex_slot(&self, global: usize) -> proclus::Result<usize> {
        self.annex_of
            .get(&global)
            .copied()
            .ok_or_else(|| ProclusError::Device {
                reason: format!("medoid {global} was never broadcast to the shards"),
            })
    }

    /// Annex slots for a set of global medoid indices.
    fn annex_slots(&self, medoids: &[usize]) -> proclus::Result<Vec<usize>> {
        medoids.iter().map(|&g| self.annex_slot(g)).collect()
    }

    /// Broadcasts any not-yet-resident medoid rows to every shard's annex.
    fn broadcast_medoids(&mut self, picks: &[usize]) -> proclus::Result<()> {
        let d = self.data.d();
        let fresh: Vec<usize> = picks
            .iter()
            .copied()
            .filter(|g| !self.annex_of.contains_key(g))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        if self.next_annex + fresh.len() > self.annex_cap {
            return Err(ProclusError::Device {
                reason: format!(
                    "medoid annex overflow: {} broadcast rows exceed the reserved {}",
                    self.next_annex + fresh.len(),
                    self.annex_cap
                ),
            });
        }
        let first = self.next_annex;
        let mut flat = Vec::with_capacity(fresh.len() * d);
        for &g in &fresh {
            self.annex_of.insert(g, self.next_annex);
            self.next_annex += 1;
            flat.extend_from_slice(&self.data.flat()[g * d..(g + 1) * d]);
        }
        for shard in &mut self.shards {
            let annex = shard.data.slice((shard.n_local + first) * d, flat.len());
            shard.dev.upload(&annex, &flat);
        }
        Ok(())
    }

    /// Uploads `dims` to every shard and keeps their host copy; returns
    /// the number of entries broadcast.
    fn upload_dims(&mut self, dims: &[Vec<usize>]) -> usize {
        let (flat, offsets) = flat_dims(dims);
        for shard in &mut self.shards {
            shard.dev.upload(&shard.dims_flat, &flat);
        }
        self.dims = dims.to_vec();
        self.offsets = offsets;
        flat.len()
    }

    /// [`Self::upload_dims`] unless `dims` are the resident subspaces, as
    /// they are on the batch path after `find_dims`; returns the number of
    /// entries broadcast.
    fn ensure_dims(&mut self, dims: &[Vec<usize>]) -> usize {
        if self.dims == dims {
            0
        } else {
            self.upload_dims(dims)
        }
    }

    /// One `shard:<i>` summary span per device: simulated busy time and
    /// kernel launches since the previous emission.
    fn emit_shard_spans(&mut self, rec: &dyn Recorder) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let launches: u64 = shard
                .dev
                .report()
                .kernels
                .values()
                .map(|a| a.launches)
                .sum();
            let now = shard.dev.elapsed_us();
            rec.emit(
                &format!("shard:{i}"),
                &[(
                    counters::KERNEL_LAUNCHES,
                    launches - shard.last_emit_launches,
                )],
                &[(attrs::SIM_US, now - shard.last_emit_us)],
            );
            shard.last_emit_us = now;
            shard.last_emit_launches = launches;
        }
    }
}

impl Backend for ShardedBackend<'_> {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn n(&self) -> usize {
        self.data.n()
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.sim_us)
    }

    fn set_cancel(&mut self, cancel: &CancelToken) {
        self.cancel = cancel.clone();
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<usize>> {
        // Host-side farthest-point selection (seed-identical to the device
        // kernel — asserted by the greedy kernel tests), then one broadcast
        // of the chosen rows into every shard's annex. The shard caches key
        // rows by annex slot, which `broadcast_medoids` keeps stable.
        // The host-side scan shares the process-wide work-stealing pool;
        // grain decomposition is a pure function of the sample size, so
        // the selection stays bitwise-identical to a sequential scan.
        let picks = greedy_select(
            self.data,
            sample,
            count,
            rng,
            &proclus::par::Executor::all_cores(),
        );
        let starts = self.begin_step();
        self.broadcast_medoids(&picks)?;
        self.end_step(&starts, 0);
        Ok(picks)
    }

    fn compute_x(
        &mut self,
        m_data: &[usize],
        mcur: &[usize],
        rec: &dyn Recorder,
    ) -> proclus::Result<()> {
        let (n, d) = (self.data.n(), self.data.d());
        let k = mcur.len();
        let cancel = self.cancel.clone();
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();
        let m_slots = self.annex_slots(m_data)?;
        // Sphere radii δ on the host: each shard's distance rows only cover
        // its own points, so the medoid-to-medoid minima are formed from
        // the full data (bitwise-identical to the δ kernel).
        let deltas = medoid_deltas(self.data, &medoids);
        let starts = self.begin_step();

        // Hit/miss accounting is identical on every shard (the caches see
        // the same annex-slot sequence); count it once, over the global n.
        if rec.enabled() {
            if let Some(first) = self.shards.first() {
                let m_dev: Vec<usize> = m_slots.iter().map(|&s| first.n_local + s).collect();
                let misses = first.cache.misses(&m_dev, mcur);
                rec.add(counters::DISTANCES_COMPUTED, (misses * n) as u64);
                if self.variant != GpuVariant::Plain {
                    rec.add(counters::DIST_CACHE_MISSES, misses as u64);
                    rec.add(counters::DIST_CACHE_HITS, (mcur.len() - misses) as u64);
                }
            }
        }

        // Annex slots of the *current* medoids (a subset of m_data).
        let med_slots: Vec<usize> = mcur.iter().map(|&mi| m_slots[mi]).collect();

        match self.variant {
            GpuVariant::Plain => {
                // Pass 1: shard-local sphere lists and counts.
                let mut global_counts = vec![0usize; k];
                let mut local_counts_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = m_slots.iter().map(|&s| n_l + s).collect();
                    let row_of_slot = shard
                        .cache
                        .prepare(&mut shard.dev, &shard.data, n_l, d, &m_dev, mcur)
                        .map_err(ProclusError::from)?;
                    build_lists_kernel(
                        &mut shard.dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &SphereCond::Within(deltas.clone()),
                        n_l,
                        &shard.l_list,
                        &shard.l_count,
                    );
                    let mut counts: Vec<usize> = shard
                        .dev
                        .dtoh(&shard.l_count)
                        .iter()
                        .map(|&c| c as usize)
                        .collect();
                    counts.truncate(k);
                    for (g, &c) in global_counts.iter_mut().zip(&counts) {
                        *g += c;
                    }
                    local_counts_of.push(counts);
                }
                // Pass 2: partial X — this shard's list entries divided by
                // the *global* sphere sizes; the host sum of the k×d
                // readbacks is then exactly X.
                let mut x = vec![0.0f64; k * d];
                for (shard, local_counts) in self.shards.iter_mut().zip(&local_counts_of) {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = med_slots.iter().map(|&s| n_l + s).collect();
                    x_from_lists_partial_kernel(
                        &mut shard.dev,
                        &shard.data,
                        d,
                        n_l,
                        &m_dev,
                        &shard.l_list,
                        local_counts,
                        &global_counts,
                        &shard.x,
                    );
                    for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                        *g += v;
                    }
                }
                self.x = x;
            }
            GpuVariant::Fast | GpuVariant::FastStar => {
                // Pass 1: ΔL lists + incremental H per shard (Theorem 3.1
                // applies shard-locally: each shard's H covers its rows).
                let mut global_lsizes = vec![0usize; k];
                let mut dl_total = 0u64;
                let mut rows_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
                for shard in &mut self.shards {
                    cancel.check()?;
                    let n_l = shard.n_local;
                    let m_dev: Vec<usize> = m_slots.iter().map(|&s| n_l + s).collect();
                    let medoids_dev: Vec<usize> = mcur.iter().map(|&mi| m_dev[mi]).collect();
                    let row_of_slot = shard
                        .cache
                        .prepare(&mut shard.dev, &shard.data, n_l, d, &m_dev, mcur)
                        .map_err(ProclusError::from)?;
                    let mut bounds = Vec::with_capacity(k);
                    let mut lambda = Vec::with_capacity(k);
                    for (slot, &row) in row_of_slot.iter().enumerate() {
                        let prev = shard.cache.rows()[row].prev_delta;
                        let cur = deltas[slot];
                        if cur >= prev {
                            bounds.push((prev, cur));
                            lambda.push(1.0);
                        } else {
                            bounds.push((cur, prev));
                            lambda.push(-1.0);
                        }
                    }
                    build_lists_kernel(
                        &mut shard.dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &SphereCond::Between(bounds),
                        n_l,
                        &shard.l_list,
                        &shard.l_count,
                    );
                    let dl_counts: Vec<usize> = shard
                        .dev
                        .dtoh(&shard.l_count)
                        .iter()
                        .map(|&c| c as usize)
                        .collect();
                    dl_total += dl_counts.iter().take(k).map(|&c| c as u64).sum::<u64>();
                    h_update_kernel(
                        &mut shard.dev,
                        &shard.data,
                        d,
                        n_l,
                        &medoids_dev,
                        shard.cache.rows(),
                        &row_of_slot,
                        &shard.l_list,
                        &dl_counts,
                        &lambda,
                    );
                    for (slot, &row) in row_of_slot.iter().enumerate() {
                        let r = &mut shard.cache.rows_mut()[row];
                        if lambda[slot] > 0.0 {
                            r.lsize += dl_counts[slot];
                        } else {
                            r.lsize -= dl_counts[slot];
                        }
                        r.prev_delta = deltas[slot];
                        global_lsizes[slot] += r.lsize;
                    }
                    rows_of.push(row_of_slot);
                }
                rec.add(counters::DELTA_L_POINTS, dl_total);
                // Pass 2: partial X = H_shard / |L|_global, host-summed.
                let mut x = vec![0.0f64; k * d];
                for (shard, row_of_slot) in self.shards.iter_mut().zip(&rows_of) {
                    cancel.check()?;
                    x_from_h_kernel(
                        &mut shard.dev,
                        d,
                        shard.cache.rows(),
                        row_of_slot,
                        &global_lsizes,
                        &shard.x,
                    );
                    for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                        *g += v;
                    }
                }
                self.x = x;
            }
        }
        self.end_step(&starts, k * d);
        Ok(())
    }

    fn find_dims(
        &mut self,
        k: usize,
        l: usize,
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<Vec<usize>>> {
        // Z and the greedy dimension pick run on the host from the reduced
        // X (k×d scalars — the same decision data the single-GPU backend
        // reads back); the chosen subspaces are then broadcast.
        let d = self.data.d();
        let dims = find_dimensions(&self.x[..k * d], k, d, l);
        let starts = self.begin_step();
        let sent = self.upload_dims(&dims);
        self.end_step(&starts, sent);
        Ok(dims)
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<usize>> {
        let d = self.data.d();
        let k = medoids.len();
        let cancel = self.cancel.clone();
        let mut global = vec![0usize; k];
        let starts = self.begin_step();
        // Both are no-ops on the batch path: its medoids were broadcast
        // by `greedy`, its subspaces by `find_dims`.
        self.broadcast_medoids(medoids)?;
        let slots = self.annex_slots(medoids)?;
        let sent = self.ensure_dims(dims);
        for shard in &mut self.shards {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            assign_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.labels,
                &shard.c_list,
                &shard.c_count,
            );
            let mut sizes: Vec<usize> = shard
                .dev
                .dtoh(&shard.c_count)
                .iter()
                .map(|&c| c as usize)
                .collect();
            sizes.truncate(k);
            for (g, &s) in global.iter_mut().zip(&sizes) {
                *g += s;
            }
            shard.sizes = sizes;
        }
        self.end_step(&starts, k + sent);
        Ok(global)
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> proclus::Result<Vec<f32>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let d = self.data.d();
        let cancel = self.cancel.clone();
        // The medoid row reaches every annex on demand (idempotent), so the
        // streaming driver may ask about any sample point, broadcast or not.
        self.broadcast_medoids(&[medoid])?;
        let slot = self.annex_slot(medoid)?;
        let mut out = vec![0.0f32; points.len()];
        let starts = self.begin_step();
        let mut shard_lo = 0usize;
        for shard in &mut self.shards {
            cancel.check()?;
            let lo = shard_lo;
            let hi = lo + shard.n_local;
            shard_lo = hi;
            // This shard's slice of the request, in request order.
            let local: Vec<(usize, u32)> = points
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p >= lo && p < hi)
                .map(|(i, &p)| (i, (p - lo) as u32))
                .collect();
            if local.is_empty() {
                continue;
            }
            let todo_host: Vec<u32> = local.iter().map(|&(_, l)| l).collect();
            let todo = shard.dev.htod("stream.todo", &todo_host).map_err(dev_err)?;
            let res = shard
                .dev
                .alloc_zeroed::<f32>("stream.dist_out", todo_host.len())
                .map_err(dev_err)?;
            dist_subset_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local + slot,
                &todo,
                todo_host.len(),
                &res,
            );
            let host = shard.dev.dtoh(&res);
            shard.dev.free(&todo).map_err(dev_err)?;
            shard.dev.free(&res).map_err(dev_err)?;
            for (&(i, _), v) in local.iter().zip(host) {
                out[i] = v;
            }
        }
        self.end_step(&starts, points.len());
        Ok(out)
    }

    fn labels(&mut self) -> proclus::Result<Vec<i32>> {
        let starts = self.begin_step();
        let mut out = Vec::with_capacity(self.data.n());
        for shard in &mut self.shards {
            out.extend(shard.dev.dtoh(&shard.labels));
        }
        self.end_step(&starts, 0);
        Ok(out)
    }

    fn evaluate(
        &mut self,
        dims: &[Vec<usize>],
        sizes: &[usize],
        rec: &dyn Recorder,
    ) -> proclus::Result<f64> {
        let (n, d) = (self.data.n(), self.data.d());
        let k = sizes.len();
        let cancel = self.cancel.clone();
        let starts = self.begin_step();
        let sent = self.ensure_dims(dims);
        // Phase 1: partial centroid components per shard, pre-divided by
        // the global cluster sizes; the host sum is the global µ.
        let mut mu = vec![0.0f64; k * d];
        for shard in &mut self.shards {
            cancel.check()?;
            centroid_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local,
                &shard.dims_flat,
                &self.offsets,
                &shard.c_list,
                &shard.sizes,
                sizes,
                &shard.mu,
            );
            for (g, v) in mu.iter_mut().zip(shard.dev.dtoh(&shard.mu)) {
                *g += v;
            }
        }
        // Phase 2: broadcast µ back, accumulate each shard's cost terms
        // against the global point count, and sum the scalars.
        let mut cost = 0.0f64;
        for shard in &mut self.shards {
            cancel.check()?;
            shard.dev.upload(&shard.mu, &mu);
            cost += cost_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                shard.n_local,
                &shard.dims_flat,
                &self.offsets,
                &shard.c_list,
                &shard.sizes,
                &shard.mu,
                n,
                &shard.cost,
            );
        }
        self.end_step(&starts, 2 * k * d + 1 + sent);
        let _ = rec;
        Ok(cost)
    }

    fn save_best(&mut self) -> proclus::Result<()> {
        let starts = self.begin_step();
        for shard in &mut self.shards {
            copy_labels_kernel(
                &mut shard.dev,
                &shard.labels,
                &shard.labels_best,
                shard.n_local,
            );
        }
        self.end_step(&starts, 0);
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> proclus::Result<()> {
        let d = self.data.d();
        let k = medoids.len();
        let cancel = self.cancel.clone();
        let slots = self.annex_slots(medoids)?;
        let starts = self.begin_step();
        // Pass 1: rebuild shard-local cluster lists from the best labels.
        let mut global_counts = vec![0usize; k];
        let mut local_counts_of: Vec<Vec<usize>> = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            cancel.check()?;
            lists_from_labels_kernel(
                &mut shard.dev,
                &shard.labels_best,
                shard.n_local,
                &shard.c_list,
                &shard.c_count,
            );
            let mut counts: Vec<usize> = shard
                .dev
                .dtoh(&shard.c_count)
                .iter()
                .map(|&c| c as usize)
                .collect();
            counts.truncate(k);
            for (g, &c) in global_counts.iter_mut().zip(&counts) {
                *g += c;
            }
            local_counts_of.push(counts);
        }
        // Pass 2: partial X over CBest with the global cluster sizes.
        let mut x = vec![0.0f64; k * d];
        for (shard, local_counts) in self.shards.iter_mut().zip(&local_counts_of) {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            x_from_lists_partial_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.c_list,
                local_counts,
                &global_counts,
                &shard.x,
            );
            for (g, v) in x.iter_mut().zip(shard.dev.dtoh(&shard.x)) {
                *g += v;
            }
        }
        self.x = x;
        self.end_step(&starts, k + k * d);
        Ok(())
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        rec: &dyn Recorder,
    ) -> proclus::Result<()> {
        let d = self.data.d();
        let cancel = self.cancel.clone();
        let slots = self.annex_slots(medoids)?;
        let starts = self.begin_step();
        let sent = self.ensure_dims(dims);
        for shard in &mut self.shards {
            cancel.check()?;
            let n_l = shard.n_local;
            let m_dev: Vec<usize> = slots.iter().map(|&s| n_l + s).collect();
            // The medoid rows live in every annex, so the medoid-only δ
            // pass runs on each shard (identical results, balanced clocks).
            outlier_deltas_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.outlier_deltas,
            );
            remove_outliers_kernel(
                &mut shard.dev,
                &shard.data,
                d,
                n_l,
                &m_dev,
                &shard.dims_flat,
                &self.offsets,
                &shard.outlier_deltas,
                &shard.labels,
            );
        }
        self.end_step(&starts, sent);
        if rec.enabled() {
            self.emit_shard_spans(rec);
        }
        Ok(())
    }
}

/// Builds sharded ensembles: [`Params::devices`] fresh deterministic
/// devices cloned from `dev`'s configuration. `dev` supplies the
/// kernel-shape limits, and its clock advances by each ensemble's
/// simulated time.
pub(crate) struct ShardedHost<'a> {
    pub(crate) dev: &'a mut Device,
    pub(crate) data: &'a DataMatrix,
    pub(crate) variant: GpuVariant,
}

impl BackendHost for ShardedHost<'_> {
    fn check(&self, params: &Params) -> proclus::Result<()> {
        check_kernel_limits(self.dev, self.data, params)
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn with_backend<T>(
        &mut self,
        params: &Params,
        f: impl FnOnce(&mut dyn Backend) -> T,
    ) -> proclus::Result<T> {
        let mut backend = ShardedBackend::new(
            self.dev.config(),
            self.data,
            params.devices.get(),
            params.k,
            params.sample_size(self.data.n()),
            self.variant,
        )?;
        let out = f(&mut backend);
        self.dev.advance_clock_us(backend.sim_us);
        backend.free()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    use proclus::par::Executor;
    use proclus::phases::assign::assign_points;
    use proclus::{Algo, Config};
    use proclus_telemetry::NullRecorder;

    use super::*;
    use crate::backend::tests::{blobs, cpu_under_other, given};

    /// `assign` labels under the subspaces it is handed, on a fresh
    /// ensemble (whose shards hold no medoid rows yet) and after
    /// `find_dims` uploaded other ones. Under the subspaces `find_dims`
    /// returned, each shard's only transfer is its sizes readback.
    #[test]
    fn assign_labels_under_the_given_subspaces() {
        let data = blobs();
        let (medoids, dims, want) = given(&data);
        let (k, rec) = (medoids.len(), &NullRecorder);
        let cfg = DeviceConfig::gtx_1660_ti();
        let mut b = ShardedBackend::new(&cfg, &data, 3, k, 40, GpuVariant::Fast).unwrap();
        b.assign(&medoids, &dims, rec).unwrap();
        assert_eq!(b.labels().unwrap(), want, "fresh backend");

        b.compute_x(&medoids, &[0, 1, 2, 3], rec).unwrap();
        let found = b.find_dims(k, 3, rec).unwrap();
        let under_found = assign_points(&data, &medoids, &found, &Executor::Sequential);
        assert_ne!(under_found, want, "the two subspace sets label apart");
        b.assign(&medoids, &dims, rec).unwrap();
        assert_eq!(b.labels().unwrap(), want, "after find_dims");

        b.find_dims(k, 3, rec).unwrap();
        let transfers = |b: &ShardedBackend<'_>| -> Vec<f64> {
            b.shards
                .iter()
                .map(|s| s.dev.report().transfer_us)
                .collect()
        };
        let t0 = transfers(&b);
        b.assign(&medoids, &found, rec).unwrap();
        let t1 = transfers(&b);
        for (i, shard) in b.shards.iter_mut().enumerate() {
            shard.dev.dtoh(&shard.c_count);
            let readback = shard.dev.report().transfer_us - t1[i];
            let spent = t1[i] - t0[i];
            assert!(
                (spent - readback).abs() < 1e-9,
                "shard {i}: {spent} vs {readback}"
            );
        }
        assert_eq!(b.labels().unwrap(), under_found);
        b.free().unwrap();
    }

    /// After `assign(dims)`, `evaluate` and `remove_outliers` work under
    /// the other subspaces they are handed, as the CPU backend does, on
    /// two shards.
    #[test]
    fn evaluate_and_remove_outliers_use_the_given_subspaces() {
        let data = blobs();
        let (medoids, dims, _) = given(&data);
        let (other, want_cost, want_labels) = cpu_under_other(&data, &medoids, &dims);
        let rec = &NullRecorder;
        let cfg = DeviceConfig::gtx_1660_ti();
        let mut b =
            ShardedBackend::new(&cfg, &data, 2, medoids.len(), 40, GpuVariant::Fast).unwrap();
        assert_eq!(b.shard_count(), 2);
        let sizes = b.assign(&medoids, &dims, rec).unwrap();
        let cost = b.evaluate(&other, &sizes, rec).unwrap();
        assert!(
            (cost - want_cost).abs() <= 1e-9 * want_cost,
            "{cost} vs {want_cost}"
        );
        b.assign(&medoids, &dims, rec).unwrap();
        b.remove_outliers(&medoids, &other, rec).unwrap();
        assert_eq!(b.labels().unwrap(), want_labels);
        b.free().unwrap();
    }

    /// A device count past `n`, up to `usize::MAX`, builds one shard per
    /// point, and a run on it equals a run on `n` devices bit for bit and
    /// clock for clock.
    #[test]
    fn device_counts_past_n_build_one_shard_per_point() {
        let rows: Vec<Vec<f32>> = (0..24)
            .map(|i| {
                let c = (i % 4) as f32 * 9.0;
                vec![
                    c + (i % 5) as f32 * 0.1,
                    (i % 3) as f32,
                    (i * 7 % 11) as f32,
                ]
            })
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let n = data.n();
        let cfg = DeviceConfig::gtx_1660_ti();
        let b = ShardedBackend::new(&cfg, &data, usize::MAX, 2, 12, GpuVariant::Fast).unwrap();
        assert_eq!(b.shard_count(), n);
        b.free().unwrap();

        let run = |devices: usize| {
            let devices = NonZeroUsize::new(devices).unwrap();
            let params = Params::new(2, 2)
                .with_a(6)
                .with_b(3)
                .with_seed(5)
                .with_devices(devices);
            let config = Config::new(params)
                .with_algo(Algo::Fast)
                .with_backend(proclus::Backend::Sharded);
            let mut dev = Device::new(cfg.clone());
            dev.set_deterministic(true);
            let out = crate::run_on(&mut dev, &data, &config).unwrap();
            (
                out.clusterings.into_iter().next().unwrap(),
                dev.elapsed_us(),
            )
        };
        let ((at_n, clock_at_n), (past_n, clock_past_n)) = (run(n), run(n + 5));
        assert_eq!(past_n, at_n);
        assert_eq!(past_n.cost.to_bits(), at_n.cost.to_bits());
        assert_eq!(past_n.refined_cost.to_bits(), at_n.refined_cost.to_bits());
        assert_eq!(clock_past_n.to_bits(), clock_at_n.to_bits());
    }
}
