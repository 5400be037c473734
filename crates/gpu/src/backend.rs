//! The simulated-GPU [`Backend`]: every phase primitive of the shared
//! driver (`proclus::backend`) executed as device kernels.
//!
//! The decision logic — dimension picking, bad-medoid selection,
//! replacement draws, cost comparison — stays in the backend-generic
//! driver, which reuses the CPU crate's functions on tiny arrays read back
//! from the device (`Z`: `k × d` floats, cluster sizes and cost: scalars),
//! so for equal seeds the GPU variants visit the same medoid sequence as
//! the CPU variants. Everything large (data, distance rows, `H`, lists,
//! labels) stays device-resident, as in the paper (§4.1: "to avoid costly
//! memory transfers between the CPU and the GPU, all other computations are
//! also performed on the GPU").

use gpu_sim::Device;
use proclus::backend::{Backend, BackendHost};
use proclus::params::Params;
use proclus::phases::find_dimensions::pick_dimensions;
use proclus::{DataMatrix, ProclusError, ProclusRng, Result};
use proclus_telemetry::{counters, Recorder};

use crate::kernels::assign::assign_kernel;
use crate::kernels::delta::deltas_kernel;
use crate::kernels::dist::dist_subset_kernel;
use crate::kernels::evaluate::evaluate_kernel;
use crate::kernels::find_dims::{h_update_kernel, x_from_h_kernel, x_from_lists_kernel, z_kernel};
use crate::kernels::greedy::greedy_gpu;
use crate::kernels::lsets::{build_lists_kernel, SphereCond};
use crate::kernels::outliers::{outlier_deltas_kernel, remove_outliers_kernel};
use crate::kernels::util::{copy_labels_kernel, lists_from_labels_kernel};
use crate::kernels::ASSIGN_BLOCK;
use crate::rows::RowCache;
use crate::workspace::Workspace;

/// Which algorithm the GPU backend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuVariant {
    /// GPU-PROCLUS: recompute everything each iteration.
    Plain,
    /// GPU-FAST-PROCLUS: `Dist`/`DistFound` + incremental `H` (§4.2).
    Fast,
    /// GPU-FAST*-PROCLUS: slot-local caches (§3.2 on the GPU).
    FastStar,
}

/// Flattens subspaces for upload: the dimension indices back to back, and
/// the offset of each subspace's first entry plus the total.
pub(crate) fn flat_dims(dims: &[Vec<usize>]) -> (Vec<u32>, Vec<usize>) {
    let mut flat = Vec::new();
    let mut offsets = vec![0usize];
    for s in dims {
        flat.extend(s.iter().map(|&j| j as u32));
        offsets.push(flat.len());
    }
    (flat, offsets)
}

/// One device, one workspace: the single-GPU execution backend.
///
/// Borrows the device, workspace, and row cache so grid runners can keep
/// them alive across settings (the persistent `Dist` cache of §3.1) while
/// each setting drives its own backend value through the shared driver.
/// The flattened subspaces live in device memory; a host copy and their
/// offsets are kept here, so [`Backend::assign`], [`Backend::evaluate`]
/// and [`Backend::remove_outliers`] upload only subspaces other than the
/// resident ones.
pub struct GpuBackend<'a> {
    dev: &'a mut Device,
    ws: &'a Workspace,
    cache: &'a mut RowCache,
    variant: GpuVariant,
    /// The subspaces in `ws.dims_flat`, and their offsets.
    dims: Vec<Vec<usize>>,
    offsets: Vec<usize>,
}

impl<'a> GpuBackend<'a> {
    /// A backend over an allocated workspace and row cache.
    pub fn new(
        dev: &'a mut Device,
        ws: &'a Workspace,
        cache: &'a mut RowCache,
        variant: GpuVariant,
    ) -> Self {
        Self {
            dev,
            ws,
            cache,
            variant,
            dims: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Uploads `dims` to the workspace and keeps their host copy.
    fn upload_dims(&mut self, dims: &[Vec<usize>]) {
        let (flat, offsets) = flat_dims(dims);
        self.dev.upload(&self.ws.dims_flat, &flat);
        self.dims = dims.to_vec();
        self.offsets = offsets;
    }

    /// [`Self::upload_dims`] unless `dims` are the resident subspaces, as
    /// they are on the batch path after `find_dims`.
    fn ensure_dims(&mut self, dims: &[Vec<usize>]) {
        if self.dims != dims {
            self.upload_dims(dims);
        }
    }
}

/// Validates `params` for the device kernels: [`Params::validate`] plus
/// the launch shapes of AssignPoints (one block covers all `k` medoids)
/// and FindDimensions (one thread per dimension).
pub(crate) fn check_kernel_limits(dev: &Device, data: &DataMatrix, params: &Params) -> Result<()> {
    params.validate(data)?;
    if params.k as u32 > ASSIGN_BLOCK {
        return Err(ProclusError::Unsupported {
            reason: format!(
                "AssignPoints uses {ASSIGN_BLOCK}-thread blocks covering all k medoids; \
                 k = {} exceeds that",
                params.k
            ),
        });
    }
    let max_t = dev.config().max_threads_per_block as usize;
    if data.d() > max_t {
        return Err(ProclusError::Unsupported {
            reason: format!(
                "FindDimensions launches one thread per dimension; d = {} exceeds \
                 the device's {max_t} threads/block",
                data.d()
            ),
        });
    }
    Ok(())
}

/// Builds single-device backends: a workspace and a row cache on `dev`
/// per backend, released before the next is built.
pub(crate) struct GpuHost<'a> {
    pub(crate) dev: &'a mut Device,
    pub(crate) data: &'a DataMatrix,
    pub(crate) variant: GpuVariant,
}

impl BackendHost for GpuHost<'_> {
    fn check(&self, params: &Params) -> Result<()> {
        check_kernel_limits(self.dev, self.data, params)
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn with_backend<T>(
        &mut self,
        params: &Params,
        f: impl FnOnce(&mut dyn Backend) -> T,
    ) -> Result<T> {
        let (dev, data, k) = (&mut *self.dev, self.data, params.k);
        let n = data.n();
        let ws = Workspace::new(
            dev,
            data,
            k,
            params.sample_size(n),
            params.num_potential_medoids(n),
        )?;
        let mut cache = match self.variant {
            GpuVariant::Plain => RowCache::new_plain(dev, n, k)?,
            GpuVariant::Fast => RowCache::new_fast(n, data.d(), k),
            GpuVariant::FastStar => RowCache::new_fast_star(dev, n, data.d(), k)?,
        };
        let out = f(&mut GpuBackend::new(dev, &ws, &mut cache, self.variant));
        cache.free(dev)?;
        ws.free(dev)?;
        Ok(out)
    }
}

impl Backend for GpuBackend<'_> {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn n(&self) -> usize {
        self.ws.n
    }

    fn clock_us(&self) -> Option<f64> {
        Some(self.dev.elapsed_us())
    }

    fn greedy(
        &mut self,
        sample: &[usize],
        count: usize,
        rng: &mut ProclusRng,
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        Ok(greedy_gpu(self.dev, self.ws, sample, count, rng))
    }

    fn compute_x(&mut self, m_data: &[usize], mcur: &[usize], rec: &dyn Recorder) -> Result<()> {
        let (n, d) = (self.ws.n, self.ws.d);
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();
        // `DistFound` hits/misses, observed before `prepare` consumes them.
        // A miss costs one `dist_row_kernel` launch = n full-dimensional
        // distances; the plain variant recomputes every slot and has no
        // cache to hit.
        if rec.enabled() {
            let misses = self.cache.misses(m_data, mcur);
            rec.add(counters::DISTANCES_COMPUTED, (misses * n) as u64);
            if self.variant != GpuVariant::Plain {
                rec.add(counters::DIST_CACHE_MISSES, misses as u64);
                rec.add(counters::DIST_CACHE_HITS, (mcur.len() - misses) as u64);
            }
        }
        let row_of_slot = self
            .cache
            .prepare(self.dev, &self.ws.data, n, d, m_data, mcur)
            .map_err(ProclusError::from)?;

        deltas_kernel(
            self.dev,
            self.cache.rows(),
            &row_of_slot,
            &medoids,
            &self.ws.deltas,
        );
        let deltas = self.dev.dtoh(&self.ws.deltas);

        match self.variant {
            GpuVariant::Plain => {
                build_lists_kernel(
                    self.dev,
                    self.cache.rows(),
                    &row_of_slot,
                    &SphereCond::Within(deltas),
                    n,
                    &self.ws.l_list,
                    &self.ws.l_count,
                );
                let counts: Vec<usize> = self
                    .dev
                    .dtoh(&self.ws.l_count)
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                x_from_lists_kernel(
                    self.dev,
                    &self.ws.data,
                    d,
                    n,
                    &medoids,
                    &self.ws.l_list,
                    &counts,
                    &self.ws.x,
                );
            }
            GpuVariant::Fast | GpuVariant::FastStar => {
                // ΔL bounds per slot (Theorem 3.1) from the host-mirrored
                // previous radii.
                let mut bounds = Vec::with_capacity(mcur.len());
                let mut lambda = Vec::with_capacity(mcur.len());
                for (slot, &row) in row_of_slot.iter().enumerate() {
                    let prev = self.cache.rows()[row].prev_delta;
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
                    self.dev,
                    self.cache.rows(),
                    &row_of_slot,
                    &SphereCond::Between(bounds),
                    n,
                    &self.ws.l_list,
                    &self.ws.l_count,
                );
                let dl_counts: Vec<usize> = self
                    .dev
                    .dtoh(&self.ws.l_count)
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                rec.add(
                    counters::DELTA_L_POINTS,
                    dl_counts.iter().map(|&c| c as u64).sum(),
                );
                h_update_kernel(
                    self.dev,
                    &self.ws.data,
                    d,
                    n,
                    &medoids,
                    self.cache.rows(),
                    &row_of_slot,
                    &self.ws.l_list,
                    &dl_counts,
                    &lambda,
                );
                // Mirror the bookkeeping the CPU engines do.
                let mut lsizes = Vec::with_capacity(mcur.len());
                for (slot, &row) in row_of_slot.iter().enumerate() {
                    let r = &mut self.cache.rows_mut()[row];
                    if lambda[slot] > 0.0 {
                        r.lsize += dl_counts[slot];
                    } else {
                        r.lsize -= dl_counts[slot];
                    }
                    r.prev_delta = deltas[slot];
                    lsizes.push(r.lsize);
                }
                x_from_h_kernel(
                    self.dev,
                    d,
                    self.cache.rows(),
                    &row_of_slot,
                    &lsizes,
                    &self.ws.x,
                );
            }
        }
        Ok(())
    }

    fn find_dims(&mut self, k: usize, l: usize, _rec: &dyn Recorder) -> Result<Vec<Vec<usize>>> {
        let d = self.ws.d;
        z_kernel(self.dev, &self.ws.x, &self.ws.z, k, d);
        let z = self.dev.dtoh(&self.ws.z);
        let dims = pick_dimensions(&z[..k * d], k, d, l);
        self.upload_dims(&dims);
        Ok(dims)
    }

    fn assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<Vec<usize>> {
        self.ensure_dims(dims);
        assign_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.labels,
            &self.ws.c_list,
            &self.ws.c_count,
        );
        let mut sizes: Vec<usize> = self
            .dev
            .dtoh(&self.ws.c_count)
            .iter()
            .map(|&c| c as usize)
            .collect();
        sizes.truncate(medoids.len()); // the workspace is sized for the largest k
        Ok(sizes)
    }

    fn labels(&mut self) -> Result<Vec<i32>> {
        Ok(self.dev.dtoh(&self.ws.labels))
    }

    fn evaluate(
        &mut self,
        dims: &[Vec<usize>],
        sizes: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<f64> {
        self.ensure_dims(dims);
        Ok(evaluate_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.c_list,
            sizes,
            &self.ws.cost,
        ))
    }

    fn save_best(&mut self) -> Result<()> {
        copy_labels_kernel(self.dev, &self.ws.labels, &self.ws.labels_best, self.ws.n);
        Ok(())
    }

    fn x_from_best(&mut self, medoids: &[usize], _rec: &dyn Recorder) -> Result<()> {
        let (n, d) = (self.ws.n, self.ws.d);
        lists_from_labels_kernel(
            self.dev,
            &self.ws.labels_best,
            n,
            &self.ws.c_list,
            &self.ws.c_count,
        );
        let mut counts: Vec<usize> = self
            .dev
            .dtoh(&self.ws.c_count)
            .iter()
            .map(|&c| c as usize)
            .collect();
        counts.truncate(medoids.len());
        x_from_lists_kernel(
            self.dev,
            &self.ws.data,
            d,
            n,
            medoids,
            &self.ws.c_list,
            &counts,
            &self.ws.x,
        );
        Ok(())
    }

    fn dist_subset(
        &mut self,
        medoid: usize,
        points: &[usize],
        _rec: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let todo_host: Vec<u32> = points.iter().map(|&p| p as u32).collect();
        let todo = self
            .dev
            .htod("stream.todo", &todo_host)
            .map_err(|e| ProclusError::Device {
                reason: e.to_string(),
            })?;
        let out = self
            .dev
            .alloc_zeroed::<f32>("stream.dist_out", points.len())
            .map_err(|e| ProclusError::Device {
                reason: e.to_string(),
            })?;
        dist_subset_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            medoid,
            &todo,
            points.len(),
            &out,
        );
        let host = self.dev.dtoh(&out);
        self.dev.free(&todo).map_err(|e| ProclusError::Device {
            reason: e.to_string(),
        })?;
        self.dev.free(&out).map_err(|e| ProclusError::Device {
            reason: e.to_string(),
        })?;
        Ok(host)
    }

    fn remove_outliers(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        _rec: &dyn Recorder,
    ) -> Result<()> {
        self.ensure_dims(dims);
        outlier_deltas_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.outlier_deltas,
        );
        remove_outliers_kernel(
            self.dev,
            &self.ws.data,
            self.ws.d,
            self.ws.n,
            medoids,
            &self.ws.dims_flat,
            &self.offsets,
            &self.ws.outlier_deltas,
            &self.ws.labels,
        );
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use gpu_sim::DeviceConfig;
    use proclus::backend::CpuBackend;
    use proclus::par::Executor;
    use proclus::phases::assign::assign_points;
    use proclus_telemetry::NullRecorder;

    use super::*;

    /// Four shifted blobs of 60 points in six dimensions.
    pub(crate) fn blobs() -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..240)
            .map(|i| {
                let c = (i % 4) as f32 * 20.0;
                (0..6)
                    .map(|j| c * (j % 3) as f32 + ((i * (j + 5) * 37) % 101) as f32 * 0.07)
                    .collect()
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    /// The medoids, subspaces other than any `find_dims` picks here (the
    /// blobs do not differ in dimensions 0 and 3), and the labels they
    /// give.
    pub(crate) fn given(data: &DataMatrix) -> ([usize; 4], Vec<Vec<usize>>, Vec<i32>) {
        let medoids = [3usize, 70, 141, 208];
        let dims = vec![vec![0, 3], vec![3], vec![0, 1], vec![0]];
        let labels = assign_points(data, &medoids, &dims, &Executor::Sequential);
        (medoids, dims, labels)
    }

    /// Subspaces other than `given`'s, and the CPU backend's results
    /// under them after `assign(medoids, dims)`: the cost `evaluate`
    /// returns and the labels `remove_outliers` leaves. Both differ from
    /// the results under `dims`, so a backend that reads its resident
    /// subspaces instead fails the comparison.
    pub(crate) fn cpu_under_other(
        data: &DataMatrix,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> (Vec<Vec<usize>>, f64, Vec<i32>) {
        let rec = &NullRecorder;
        let under = |eval_dims: &[Vec<usize>]| {
            let mut cpu = CpuBackend::new(data, Executor::Sequential);
            let sizes = cpu.assign(medoids, dims, rec).unwrap();
            let cost = cpu.evaluate(eval_dims, &sizes, rec).unwrap();
            cpu.remove_outliers(medoids, eval_dims, rec).unwrap();
            (cost, cpu.labels().unwrap())
        };
        let other = vec![vec![1, 2], vec![4, 5], vec![2], vec![1, 4]];
        let (cost, labels) = under(&other);
        let (resident_cost, resident_labels) = under(dims);
        assert!(
            (cost - resident_cost).abs() > 1e-3,
            "{cost} vs {resident_cost}"
        );
        assert_ne!(labels, resident_labels, "the outliers differ");
        (other, cost, labels)
    }

    /// `assign` labels under the subspaces it is handed: on a fresh
    /// backend, and after `find_dims` uploaded other ones. Under the
    /// subspaces `find_dims` returned, its only transfer is the sizes
    /// readback, so a batch run's clock is what it was before `assign`
    /// checked them.
    #[test]
    fn assign_labels_under_the_given_subspaces() {
        let data = blobs();
        let (medoids, dims, want) = given(&data);
        let (n, k, rec) = (data.n(), medoids.len(), &NullRecorder);
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        let ws = Workspace::new(&mut dev, &data, k, 40, 16).unwrap();
        let mut cache = RowCache::new_fast(n, data.d(), k);
        let mut b = GpuBackend::new(&mut dev, &ws, &mut cache, GpuVariant::Fast);
        b.assign(&medoids, &dims, rec).unwrap();
        assert_eq!(b.labels().unwrap(), want, "fresh backend");

        b.compute_x(&medoids, &[0, 1, 2, 3], rec).unwrap();
        let found = b.find_dims(k, 3, rec).unwrap();
        let under_found = assign_points(&data, &medoids, &found, &Executor::Sequential);
        assert_ne!(under_found, want, "the two subspace sets label apart");
        let transfer = |b: &GpuBackend<'_>| b.dev.report().transfer_us;
        let t0 = transfer(&b);
        b.assign(&medoids, &dims, rec).unwrap();
        let uploaded = transfer(&b) - t0;
        assert_eq!(b.labels().unwrap(), want, "after find_dims");

        b.find_dims(k, 3, rec).unwrap();
        let t0 = transfer(&b);
        b.assign(&medoids, &found, rec).unwrap();
        let t1 = transfer(&b);
        b.dev.dtoh(&b.ws.c_count);
        let readback = transfer(&b) - t1;
        let spent = t1 - t0;
        assert!((spent - readback).abs() < 1e-9, "{spent} vs {readback}");
        assert!(uploaded > readback + 1e-9, "other subspaces are uploaded");
        assert_eq!(b.labels().unwrap(), under_found);
        drop(b);
        cache.free(&mut dev).unwrap();
        ws.free(&mut dev).unwrap();
    }

    /// After `assign(dims)`, `evaluate` and `remove_outliers` work under
    /// the other subspaces they are handed, as the CPU backend does.
    #[test]
    fn evaluate_and_remove_outliers_use_the_given_subspaces() {
        let data = blobs();
        let (medoids, dims, _) = given(&data);
        let (other, want_cost, want_labels) = cpu_under_other(&data, &medoids, &dims);
        let (n, k, rec) = (data.n(), medoids.len(), &NullRecorder);
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        let ws = Workspace::new(&mut dev, &data, k, 40, 16).unwrap();
        let mut cache = RowCache::new_fast(n, data.d(), k);
        let mut b = GpuBackend::new(&mut dev, &ws, &mut cache, GpuVariant::Fast);
        let sizes = b.assign(&medoids, &dims, rec).unwrap();
        let cost = b.evaluate(&other, &sizes, rec).unwrap();
        assert!(
            (cost - want_cost).abs() <= 1e-9 * want_cost,
            "{cost} vs {want_cost}"
        );
        b.assign(&medoids, &dims, rec).unwrap();
        b.remove_outliers(&medoids, &other, rec).unwrap();
        assert_eq!(b.labels().unwrap(), want_labels);
        drop(b);
        cache.free(&mut dev).unwrap();
        ws.free(&mut dev).unwrap();
    }
}
