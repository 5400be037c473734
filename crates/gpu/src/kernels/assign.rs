//! AssignPoints on the device (GPU Alg. 5).
//!
//! Each block handles a chunk of points with `128 / k`-ish points per block
//! and one thread per (point, medoid) pair: threads race their Manhattan
//! segmental distances into a shared per-point minimum (`atomicMin`),
//! synchronize, and the matching thread claims the point for its cluster —
//! "we must compute the distances from each point to all medoids in the
//! same thread block" (§4.1). A CAS claim resolves exact-distance ties to
//! the lowest medoid index, matching the CPU tie-break.

use gpu_sim::{Device, DeviceBuffer, Dim3};

use super::ASSIGN_BLOCK;

/// Assigns every point to the nearest medoid in that medoid's subspace.
/// Writes `labels` (n, i32), appends members to `c_list` (k × n) and counts
/// into `c_count` (k) — "adding the points to set `C_i` is done the same
/// way as for `L_i`".
#[allow(clippy::too_many_arguments)]
pub fn assign_kernel(
    dev: &mut Device,
    data: &DeviceBuffer<f32>,
    d: usize,
    n: usize,
    medoid_data_idx: &[usize],
    dims_flat: &DeviceBuffer<u32>,
    dims_offsets: &[usize],
    labels: &DeviceBuffer<i32>,
    c_list: &DeviceBuffer<u32>,
    c_count: &DeviceBuffer<u32>,
) {
    let k = medoid_data_idx.len();
    assert!(
        k as u32 <= ASSIGN_BLOCK,
        "AssignPoints supports k <= {ASSIGN_BLOCK}"
    );
    dev.memset(c_count, 0);
    let ppb = (ASSIGN_BLOCK as usize / k).max(1); // points per block
    let threads = (ppb * k) as u32;
    let grid = Dim3::x(n.div_ceil(ppb).max(1) as u32);

    let data = data.clone();
    let dims_flat = dims_flat.clone();
    let labels = labels.clone();
    let c_list = c_list.clone();
    let c_count = c_count.clone();
    let medoids = medoid_data_idx.to_vec();
    let offsets = dims_offsets.to_vec();

    dev.launch("assign.points", grid, Dim3::x(threads), move |blk| {
        let base = blk.block.x as usize * ppb;
        let min_dist = blk.shared::<f64>(ppb);
        let claimed = blk.shared::<u32>(ppb);
        let my_dist = blk.regs::<f64>();

        blk.threads(|t| {
            let pl = t.tid as usize / k;
            if (t.tid as usize).is_multiple_of(k) {
                min_dist.st(t, pl, f64::INFINITY);
                claimed.st(t, pl, 0);
            }
        });
        blk.threads(|t| {
            let pl = t.tid as usize / k;
            let i = t.tid as usize % k;
            let p = base + pl;
            if p < n {
                let (lo, hi) = (offsets[i], offsets[i + 1]);
                let mut acc = 0.0f64;
                for s in lo..hi {
                    let j = dims_flat.ld(t, s) as usize;
                    let a = data.ld(t, p * d + j);
                    let b = data.ld(t, medoids[i] * d + j);
                    acc += ((a - b) as f64).abs();
                }
                let dist = acc / (hi - lo) as f64;
                t.flops(2 * (hi - lo) as u64 + 1);
                my_dist.set(t, dist);
                min_dist.atomic_min(t, pl, dist);
            }
        });
        // Threads iterate in (point, medoid-ascending) order, so on exact
        // ties the lowest medoid index claims first — same as the CPU.
        blk.threads(|t| {
            let pl = t.tid as usize / k;
            let i = t.tid as usize % k;
            let p = base + pl;
            if p < n && min_dist.ld(t, pl) == my_dist.get(t) && claimed.atomic_add(t, pl, 1) == 0 {
                labels.st(t, p, i as i32);
                let pos = c_count.atomic_inc(t, i) as usize;
                c_list.st(t, i * n + pos, p as u32);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use proclus::par::Executor;
    use proclus::phases::assign::assign_points;
    use proclus::DataMatrix;

    fn upload_dims(dev: &mut Device, subspaces: &[Vec<usize>]) -> (DeviceBuffer<u32>, Vec<usize>) {
        let mut flat = Vec::new();
        let mut offsets = vec![0usize];
        for s in subspaces {
            flat.extend(s.iter().map(|&j| j as u32));
            offsets.push(flat.len());
        }
        (dev.htod("dims_flat", &flat).unwrap(), offsets)
    }

    #[test]
    fn matches_cpu_assignment_exactly() {
        let n = 997;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 23) as f32, (i % 7) as f32 * 1.3, (i % 3) as f32])
            .collect();
        let host = DataMatrix::from_rows(&rows).unwrap();
        let medoids = vec![0usize, 499, 996];
        let subspaces = vec![vec![0, 1], vec![1, 2], vec![0, 2]];

        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        let data = dev.htod("data", host.flat()).unwrap();
        let (dims_flat, offsets) = upload_dims(&mut dev, &subspaces);
        let labels = dev.alloc_zeroed::<i32>("labels", n).unwrap();
        let c_list = dev.alloc_zeroed::<u32>("c_list", 3 * n).unwrap();
        let c_count = dev.alloc_zeroed::<u32>("c_count", 3).unwrap();
        assign_kernel(
            &mut dev, &data, 3, n, &medoids, &dims_flat, &offsets, &labels, &c_list, &c_count,
        );

        let want = assign_points(&host, &medoids, &subspaces, &Executor::Sequential);
        assert_eq!(labels.peek_all(), want);

        // The c_lists partition the points consistently with the labels.
        let mut total = 0;
        for i in 0..3 {
            let c = c_count.peek(i) as usize;
            total += c;
            for s in 0..c {
                let p = c_list.peek(i * n + s) as usize;
                assert_eq!(want[p], i as i32);
            }
        }
        assert_eq!(total, n, "every point lands in exactly one cluster");
    }

    #[test]
    fn tie_breaks_to_lowest_medoid_index() {
        // Point 2 is equidistant from both medoids in the shared subspace.
        let host = DataMatrix::from_rows(&[vec![0.0], vec![2.0], vec![1.0]]).unwrap();
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        dev.set_deterministic(true);
        let data = dev.htod("data", host.flat()).unwrap();
        let (dims_flat, offsets) = upload_dims(&mut dev, &[vec![0], vec![0]]);
        let labels = dev.alloc_zeroed::<i32>("labels", 3).unwrap();
        let c_list = dev.alloc_zeroed::<u32>("c_list", 6).unwrap();
        let c_count = dev.alloc_zeroed::<u32>("c_count", 2).unwrap();
        assign_kernel(
            &mut dev,
            &data,
            1,
            3,
            &[0, 1],
            &dims_flat,
            &offsets,
            &labels,
            &c_list,
            &c_count,
        );
        assert_eq!(labels.peek(2), 0);
    }

    #[test]
    #[should_panic(expected = "AssignPoints supports k")]
    fn rejects_k_larger_than_block() {
        let host = DataMatrix::from_rows(&vec![vec![0.0f32]; 10]).unwrap();
        let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
        let data = dev.htod("data", host.flat()).unwrap();
        let dims_flat = dev.alloc_zeroed::<u32>("dims", 300).unwrap();
        let labels = dev.alloc_zeroed::<i32>("labels", 10).unwrap();
        let c_list = dev.alloc_zeroed::<u32>("c_list", 10).unwrap();
        let c_count = dev.alloc_zeroed::<u32>("c_count", 300).unwrap();
        let medoids: Vec<usize> = (0..200).map(|i| i % 10).collect();
        let offsets: Vec<usize> = (0..=200).collect();
        assign_kernel(
            &mut dev, &data, 1, 10, &medoids, &dims_flat, &offsets, &labels, &c_list, &c_count,
        );
    }
}
