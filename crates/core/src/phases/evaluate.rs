//! EvaluateClusters (Alg. 1 line 9, Eqs. 1–2, GPU Alg. 6): the weighted
//! average Manhattan segmental distance from each point to its cluster's
//! *centroid* within the cluster's subspace.
//!
//! AssignPoints leaves the clusters grouped, as GPU Alg. 5 leaves its
//! lists `C_i`: each executor grain lists its points cluster by cluster
//! and sums each cluster's rows while the grain is in cache
//! (`GrainGroups`); `Groups` reduces the grains' sums in grain order
//! into the centroids. Every (cluster, dimension) sum is one chain over
//! the cluster's members in ascending point order per grain, as a
//! point-at-a-time sweep adds them. EvaluateClusters then makes one pass:
//! each grain computes its members' cost terms cluster by cluster, eight
//! members at a time in lanes, into a per-grain buffer, and folds that
//! buffer into one `acc` in ascending point order.

use crate::dataset::DataMatrix;
use crate::distance_simd::{dispatch, fold_lists, list_clusters, LaneScratch, LANES};
use crate::par::{grains_for, Executor};

/// One executor grain's clusters: `members[at[c]..at[c + 1]]` are the
/// offsets, from the grain's first point, of cluster `c`'s members,
/// ascending; `sums` holds each cluster's coordinate sums over them
/// (`k × d`, every dimension).
#[derive(Debug, Default)]
pub(crate) struct GrainGroups {
    at: Vec<u32>,
    members: Vec<u32>,
    sums: Vec<f64>,
}

impl GrainGroups {
    /// Groups the grain of points `first..first + labels.len()` by their
    /// `labels` (`0..k`; negative labels, outliers, are in no cluster).
    pub(crate) fn new(data: &DataMatrix, first: usize, labels: &[i32], k: usize) -> Self {
        let d = data.d();
        let mut at = vec![0u32; k + 1];
        let mut members = vec![0u32; labels.len()];
        let listed = list_clusters(labels, &mut at, &mut members);
        members.truncate(listed);
        let mut grain = Self {
            at,
            members,
            sums: Vec::new(),
        };
        let mut sums = vec![0.0f64; k * d];
        grain.fold(&mut sums, data, first, None);
        grain.sums = sums;
        grain
    }

    /// Cluster `c`'s members, as offsets from the grain's first point.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.members[self.at[c] as usize..self.at[c + 1] as usize]
    }

    /// Folds each cluster's member rows of the grain that starts at point
    /// `first`, in ascending order, into its row of `h` (`k × d`): the
    /// coordinates, or with `medoids` their distances `|p_j − m_{c,j}|`
    /// ([`fold_lists`]).
    pub(crate) fn fold(
        &self,
        h: &mut [f64],
        data: &DataMatrix,
        first: usize,
        medoids: Option<&[&[f32]]>,
    ) {
        let (flat, d) = (data.flat(), data.d());
        fold_lists(h, flat, d, first, &self.at, &self.members, medoids);
    }
}

/// Each cluster's members, grain by grain, its size and its centroid:
/// what AssignPoints hands EvaluateClusters and the refinement.
#[derive(Debug)]
pub(crate) struct Groups {
    grain: usize,
    grains: Vec<GrainGroups>,
    sizes: Vec<usize>,
    /// Row-major `k × d` centroids; empty clusters have zero rows.
    centroids: Vec<f64>,
}

impl Groups {
    /// Reduces the grains of [`grains_for`]`(n)`, in grain order: sizes,
    /// and centroid sums each added from `0.0` grain after grain, then
    /// scaled by the cluster's size.
    pub(crate) fn new(mut grains: Vec<GrainGroups>, n: usize, k: usize, d: usize) -> Self {
        let (grain, count) = grains_for(n);
        assert_eq!(grains.len(), count, "one group per grain");
        let mut sizes = vec![0usize; k];
        let mut centroids = vec![0.0f64; k * d];
        for g in &mut grains {
            for (c, size) in sizes.iter_mut().enumerate() {
                *size += g.members(c).len();
            }
            for (acc, v) in centroids.iter_mut().zip(&g.sums) {
                *acc += v;
            }
            g.sums = Vec::new();
        }
        for (c, &size) in sizes.iter().enumerate() {
            if size > 0 {
                let inv = 1.0 / size as f64;
                for v in &mut centroids[c * d..(c + 1) * d] {
                    *v *= inv;
                }
            }
        }
        Self {
            grain,
            grains,
            sizes,
            centroids,
        }
    }

    /// Groups an existing label array (`0..k`, or negative for outliers)
    /// grain by grain, with the routine the AssignPoints sweep runs.
    pub(crate) fn from_labels(
        data: &DataMatrix,
        labels: &[i32],
        k: usize,
        exec: &Executor,
    ) -> Self {
        let n = data.n();
        assert_eq!(labels.len(), n, "one label per point");
        assert!(
            labels.iter().all(|&c| c < k as i32),
            "a label is out of range for {k} clusters"
        );
        let grains = exec.map_chunks(n, GrainGroups::default, |g, range| {
            *g = GrainGroups::new(data, range.start, &labels[range], k);
        });
        Self::new(grains, n, k, data.d())
    }

    /// Cluster sizes, outliers excluded.
    pub(crate) fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The number of clusters.
    pub(crate) fn k(&self) -> usize {
        self.sizes.len()
    }

    /// The groups of the grain that starts at point `first`.
    pub(crate) fn grain(&self, first: usize) -> &GrainGroups {
        &self.grains[first / self.grain]
    }
}

/// Computes the clustering cost (Eq. 2):
///
/// ```text
/// cost = Σ_i |C_i| · w_i / n,
/// w_i  = Σ_{j ∈ D_i} V_{i,j} / |D_i|,
/// V_{i,j} = Σ_{p ∈ C_i} |p_j − µ_{i,j}| / |C_i|
/// ```
///
/// which simplifies to `Σ_i Σ_{j ∈ D_i} Σ_{p ∈ C_i} |p_j − µ_{i,j}| /
/// (|D_i| · n)` (Eq. 9) — the form the GPU kernel uses. Points with
/// negative labels (outliers) are excluded from both centroids and cost;
/// `n` is always the full dataset size, as in the paper. Empty clusters
/// contribute zero. Labels must lie below `subspaces.len()`.
pub fn evaluate_clusters(
    data: &DataMatrix,
    labels: &[i32],
    subspaces: &[Vec<usize>],
    exec: &Executor,
) -> f64 {
    let groups = Groups::from_labels(data, labels, subspaces.len(), exec);
    grouped_cost(data, &groups, subspaces, exec)
}

/// [`evaluate_clusters`] over the [`Groups`] of the labels. Each member's
/// term `s / |D_i|` is computed in lanes, cluster by cluster, into the
/// grain's term buffer; the grain's `acc` is then ONE f64 chain over that
/// buffer in ascending point order, exactly the point-at-a-time fold.
/// An outlier's entry stays `+0.0`, and adding `+0.0` leaves `acc` (never
/// `−0.0`: it starts at `+0.0` and adds terms `≥ +0.0` or NaN) unchanged,
/// so the chain equals one that skips the outliers. Reassociating that
/// chain (lane partials, folding in cluster order) would change the cost
/// at ulp level and with it best-cost decisions; see DESIGN.md §14.
pub(crate) fn grouped_cost(
    data: &DataMatrix,
    groups: &Groups,
    subspaces: &[Vec<usize>],
    exec: &Executor,
) -> f64 {
    let (n, d) = (data.n(), data.d());
    assert_eq!(subspaces.len(), groups.k(), "one subspace per cluster");
    let (flat, mu) = (data.flat(), &groups.centroids);
    let parts = exec.map_chunks(
        n,
        || 0.0f64,
        |acc, range| {
            let grain = groups.grain(range.start);
            let mut terms = vec![0.0f64; range.len()];
            dispatch(
                #[inline(always)]
                || {
                    let mut lanes = LaneScratch::new(d);
                    for (c, dims) in subspaces.iter().enumerate() {
                        let m = &mu[c * d..(c + 1) * d];
                        for group in grain.members(c).chunks(LANES) {
                            // A short last group repeats its final member.
                            let last = group[group.len() - 1];
                            let points: [usize; LANES] = std::array::from_fn(|l| {
                                range.start + group.get(l).copied().unwrap_or(last) as usize
                            });
                            lanes.gather_rows(flat, &points);
                            let t = lanes.centroid_terms(m, dims);
                            for (&o, &v) in group.iter().zip(&t) {
                                terms[o as usize] = v;
                            }
                        }
                    }
                },
            );
            for &t in &terms {
                *acc += t;
            }
        },
    );
    parts.into_iter().sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::assign::assign_points;
    use crate::rng::ProclusRng;

    #[test]
    fn cost_matches_hand_computation() {
        // Cluster 0: points 0,1 in dim {0}; centroid 0.5 → V = 0.5, w = 0.5.
        // Cluster 1: points 2,3 in dim {1}; centroid 5.5 → V = 0.5, w = 0.5.
        // cost = (2*0.5 + 2*0.5) / 4 = 0.5
        let data = DataMatrix::from_rows(&[
            vec![0.0, 9.0],
            vec![1.0, 3.0],
            vec![7.0, 5.0],
            vec![2.0, 6.0],
        ])
        .unwrap();
        let labels = vec![0, 0, 1, 1];
        let cost = evaluate_clusters(&data, &labels, &[vec![0], vec![1]], &Executor::Sequential);
        assert!((cost - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_clusters_cost_zero() {
        let data = DataMatrix::from_rows(&[
            vec![1.0, 50.0],
            vec![1.0, -3.0],
            vec![8.0, 2.0],
            vec![8.0, 11.0],
        ])
        .unwrap();
        let cost = evaluate_clusters(
            &data,
            &[0, 0, 1, 1],
            &[vec![0], vec![0]],
            &Executor::Sequential,
        );
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn outliers_are_excluded_but_n_is_total() {
        let data = DataMatrix::from_rows(&[
            vec![0.0],
            vec![2.0],
            vec![100.0], // outlier
        ])
        .unwrap();
        let cost = evaluate_clusters(&data, &[0, 0, -1], &[vec![0]], &Executor::Sequential);
        // centroid = 1, V = 1, contribution 2·1, divided by n = 3.
        assert!((cost - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_contributes_nothing() {
        // Both points in cluster 0 (centroid 2, V = 2, w = 2); cluster 1 is
        // empty and must contribute nothing: cost = 2·2 / 2 = 2.
        let data = DataMatrix::from_rows(&[vec![0.0], vec![4.0]]).unwrap();
        let cost = evaluate_clusters(&data, &[0, 0], &[vec![0], vec![0]], &Executor::Sequential);
        assert!((cost - 2.0).abs() < 1e-12, "cost = {cost}");
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // Above the executor's single-grain crossover, with a ragged last
        // grain, so the grain partials are really reduced.
        let n = 5_003usize;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 31) as f32 * 0.37, (i % 13) as f32 * 1.9])
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let labels: Vec<i32> = (0..n).map(|i| (i % 3) as i32).collect();
        let subs = [vec![0], vec![1], vec![0, 1]];
        let a = evaluate_clusters(&data, &labels, &subs, &Executor::Sequential);
        for threads in [2, 7] {
            let b = evaluate_clusters(&data, &labels, &subs, &Executor::Parallel { threads });
            assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}: {a} vs {b}");
        }
    }

    /// The point-at-a-time centroids: every (cluster, dimension) sum over
    /// all `d` dimensions in point order per grain, grain partials reduced
    /// in grain order, then scaled; and the cluster sizes.
    fn pointwise_centroids(data: &DataMatrix, labels: &[i32], k: usize) -> (Vec<f64>, Vec<usize>) {
        let (n, d) = (data.n(), data.d());
        let parts = Executor::Sequential.map_chunks(
            n,
            || (vec![0.0f64; k * d], vec![0usize; k]),
            |(sums, counts), range| {
                for p in range {
                    if labels[p] >= 0 {
                        let c = labels[p] as usize;
                        counts[c] += 1;
                        let s = &mut sums[c * d..(c + 1) * d];
                        for (s, &v) in s.iter_mut().zip(data.row(p)) {
                            *s += v as f64;
                        }
                    }
                }
            },
        );
        let mut mu = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for (ps, pc) in parts {
            for (acc, v) in mu.iter_mut().zip(&ps) {
                *acc += v;
            }
            for (acc, v) in counts.iter_mut().zip(&pc) {
                *acc += v;
            }
        }
        for i in 0..k {
            if counts[i] > 0 {
                let inv = 1.0 / counts[i] as f64;
                for v in &mut mu[i * d..(i + 1) * d] {
                    *v *= inv;
                }
            }
        }
        (mu, counts)
    }

    /// The point-at-a-time EvaluateClusters the grouped passes replaced:
    /// [`pointwise_centroids`], then each point's term folded straight
    /// into its grain's `acc`. The reference the grouped form must equal
    /// bit for bit.
    fn pointwise(data: &DataMatrix, labels: &[i32], subspaces: &[Vec<usize>]) -> f64 {
        let (n, d) = (data.n(), data.d());
        let (mu, _) = pointwise_centroids(data, labels, subspaces.len());
        let parts = Executor::Sequential.map_chunks(
            n,
            || 0.0f64,
            |acc, range| {
                for p in range {
                    if labels[p] < 0 {
                        continue;
                    }
                    let c = labels[p] as usize;
                    let (row, m) = (data.row(p), &mu[c * d..(c + 1) * d]);
                    let mut s = 0.0f64;
                    for &j in &subspaces[c] {
                        s += (row[j] as f64 - m[j]).abs();
                    }
                    *acc += s / subspaces[c].len() as f64;
                }
            },
        );
        parts.into_iter().sum::<f64>() / n as f64
    }

    /// The refinement's point-at-a-time `X` fold the grouped one replaced:
    /// each member's `|p − m_i|` folded into its grain's `h[i]` in point
    /// order, reduced in grain order.
    fn pointwise_x(data: &DataMatrix, medoids: &[usize], labels: &[i32]) -> (Vec<f64>, Vec<usize>) {
        let (n, d, k) = (data.n(), data.d(), medoids.len());
        let parts = Executor::Sequential.map_chunks(
            n,
            || (vec![0.0f64; k * d], vec![0usize; k]),
            |(h, lsz), range| {
                for p in range.filter(|&p| labels[p] >= 0) {
                    let i = labels[p] as usize;
                    lsz[i] += 1;
                    let m = data.row(medoids[i]);
                    for (h, (&v, &mj)) in h[i * d..(i + 1) * d]
                        .iter_mut()
                        .zip(data.row(p).iter().zip(m))
                    {
                        *h += ((v - mj) as f64).abs();
                    }
                }
            },
        );
        crate::phases::compute_l::reduce_h_to_x(parts, k, d)
    }

    /// Each grain's lists, point at a time: cluster `c`'s members of the
    /// grain in ascending order, as offsets from its first point.
    fn pointwise_lists(labels: &[i32], k: usize) -> Vec<Vec<Vec<u32>>> {
        let (grain, grains) = grains_for(labels.len());
        (0..grains)
            .map(|g| {
                let lo = g * grain;
                let part = &labels[lo..(lo + grain).min(labels.len())];
                (0..k as i32)
                    .map(|c| {
                        (0..part.len() as u32)
                            .filter(|&i| part[i as usize] == c)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// A label array's groups, point at a time: each grain's lists, the
    /// sizes, and the centroids' bits over every dimension.
    type Reference = (Vec<Vec<Vec<u32>>>, Vec<usize>, Vec<u64>);

    fn reference(data: &DataMatrix, labels: &[i32], k: usize) -> Reference {
        let (mu, sizes) = pointwise_centroids(data, labels, k);
        let bits = mu.iter().map(|x| x.to_bits()).collect();
        (pointwise_lists(labels, k), sizes, bits)
    }

    /// Asserts that `groups` holds the reference's lists, sizes and
    /// centroids bit for bit.
    fn assert_groups(groups: &Groups, want: &Reference, what: &str) {
        assert_eq!(groups.sizes(), &want.1[..], "{what}: sizes");
        for (g, want) in want.0.iter().enumerate() {
            for (c, want) in want.iter().enumerate() {
                let got = groups.grains[g].members(c);
                assert_eq!(got, &want[..], "{what}: grain {g} cluster {c}");
            }
        }
        let bits: Vec<u64> = groups.centroids.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want.2, "{what}: centroids");
    }

    /// Random subspaces of 1..=d dimensions, sorted, as FindDimensions
    /// stores them.
    fn random_subspaces(rng: &mut ProclusRng, k: usize, d: usize) -> Vec<Vec<usize>> {
        (0..k)
            .map(|_| {
                let mut dims: Vec<usize> = (0..d).filter(|_| rng.below(2) == 0).collect();
                if dims.is_empty() {
                    dims.push(rng.below(d));
                }
                dims
            })
            .collect()
    }

    /// The groups the AssignPoints sweep builds (with and without the
    /// refinement's spheres), the groups built from the same label array,
    /// and the point-at-a-time reference agree bit for bit — lists, sizes,
    /// centroids over every dimension, the cost, and the refinement's `X`
    /// — under every tier the host runs and on 2 and 7 threads. A forced
    /// tier pins only its own thread, so each tier runs on
    /// `Executor::Sequential`, which takes every grain on that thread with
    /// the executors' grain boundaries; the threaded runs use the detected
    /// tier. The sweep has an empty cluster (a repeated medoid loses every
    /// tie); the label path adds outliers and a second empty cluster; the
    /// matrix's last row is always a member, so the lanes that read it
    /// take the tail.
    #[test]
    fn sweep_and_label_groups_equal_the_pointwise_reference_on_every_tier() {
        use crate::distance_simd::{host_tiers, with_tier, Tier};
        use crate::phases::assign::assign_grouped;
        use crate::phases::refinement::x_from_groups;
        let mut runs: Vec<(Option<Tier>, Executor)> = host_tiers()
            .into_iter()
            .map(|t| (Some(t), Executor::Sequential))
            .collect();
        runs.push((None, Executor::Parallel { threads: 2 }));
        runs.push((None, Executor::Parallel { threads: 7 }));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = ProclusRng::new(0x6A0F);
        for d in [1usize, 7, 8, 9, 15, 16, 23, 40] {
            for n in [13usize, 2_048, 2_049, 4_103, 20_000] {
                let flat: Vec<f32> = (0..n * d)
                    .map(|_| (rng.next_u64() % 1_000_003) as f32 * 0.0071 - 3_000.0)
                    .collect();
                let data = DataMatrix::from_flat(flat, n, d).unwrap();
                let k = 2 + rng.below(7);
                let mut medoids: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
                let mut subspaces = random_subspaces(&mut rng, k, d);
                medoids[k - 1] = medoids[0];
                subspaces[k - 1] = subspaces[0].clone();
                let spheres = vec![f64::from(rng.uniform(0.0, 2_000.0)); k];
                let swept = assign_points(&data, &medoids, &subspaces, &Executor::Sequential);
                let mut labelled: Vec<i32> = swept
                    .iter()
                    .map(|&c| if rng.below(8) == 0 { -1 } else { c })
                    .collect();
                for c in labelled.iter_mut().filter(|c| **c == 1) {
                    *c = -1;
                }
                labelled[n - 1] = 0;
                let want_costs = [&swept, &labelled].map(|l| pointwise(&data, l, &subspaces));
                let want_x = pointwise_x(&data, &medoids, &swept);
                let (want_swept, want_labelled) =
                    (reference(&data, &swept, k), reference(&data, &labelled, k));
                for (tier, exec) in &runs {
                    let run = || {
                        let what = format!("{tier:?} {exec:?} d {d} n {n} k {k}");
                        // The refinement's sweep, which also marks
                        // outliers, once per tier.
                        let spheres = match exec {
                            Executor::Sequential => &spheres[..],
                            _ => &[],
                        };
                        let a = assign_grouped(&data, &medoids, &subspaces, spheres, exec);
                        assert_eq!(a.labels, swept, "{what}: labels");
                        assert_groups(&a.groups, &want_swept, &format!("{what} sweep"));
                        let (x, lsz) = x_from_groups(&data, &medoids, &a.groups, exec);
                        assert_eq!(lsz, want_x.1, "{what}: |L|");
                        assert_eq!(bits(&x), bits(&want_x.0), "{what}: X");
                        let same = Groups::from_labels(&data, &swept, k, exec);
                        assert_groups(&same, &want_swept, &format!("{what} same labels"));
                        let other = Groups::from_labels(&data, &labelled, k, exec);
                        assert_groups(&other, &want_labelled, &format!("{what} outliers"));
                        let cost = |g: &Groups| grouped_cost(&data, g, &subspaces, exec);
                        let [swept_cost, outlier_cost] = want_costs.map(f64::to_bits);
                        assert_eq!(cost(&a.groups).to_bits(), swept_cost, "{what}: sweep");
                        assert_eq!(cost(&same).to_bits(), swept_cost, "{what}: cost");
                        assert_eq!(cost(&other).to_bits(), outlier_cost, "{what}: outliers");
                    };
                    match tier {
                        Some(t) => with_tier(*t, run),
                        None => run(),
                    }
                }
            }
        }
    }

    /// Seeded shapes around the lane width and the executor's grain
    /// boundaries, with outliers, an empty cluster and subspaces of 1..d
    /// dimensions, some unsorted or with a dimension listed twice: every
    /// executor's cost equals the point-at-a-time reference bit for bit.
    #[test]
    fn grouped_cost_equals_the_pointwise_reference_bitwise() {
        let execs = [
            Executor::Sequential,
            Executor::Parallel { threads: 2 },
            Executor::Parallel { threads: 7 },
        ];
        let mut rng = ProclusRng::new(0x5EED);
        for d in [1usize, 7, 8, 15, 23, 40] {
            for n in [13usize, 2_048, 2_049, 4_103, 20_000] {
                let flat: Vec<f32> = (0..n * d)
                    .map(|_| (rng.next_u64() % 1_000_003) as f32 * 0.0071 - 3_000.0)
                    .collect();
                let data = DataMatrix::from_flat(flat, n, d).unwrap();
                let k = 2 + (rng.next_u64() % 8) as usize;
                // About one point in eight is an outlier; cluster k - 1
                // has no members.
                let labels: Vec<i32> = (0..n)
                    .map(|_| match rng.next_u64() {
                        r if r % 8 == 0 => -1,
                        r => ((r >> 8) % (k as u64 - 1)) as i32,
                    })
                    .collect();
                let subspaces: Vec<Vec<usize>> = (0..k)
                    .map(|_| {
                        let want = 1 + (rng.next_u64() % d as u64) as usize;
                        let mut dims: Vec<usize> = (0..d).collect();
                        for i in 0..want {
                            let j = i + (rng.next_u64() % (d - i) as u64) as usize;
                            dims.swap(i, j);
                        }
                        dims.truncate(want);
                        // Mostly sorted, as FindDimensions stores them;
                        // some left shuffled or with their first dimension
                        // listed again at the end (in another 8-dim chunk
                        // once there are more than eight).
                        match rng.next_u64() % 4 {
                            0 => dims.push(dims[0]),
                            1 => {}
                            _ => dims.sort_unstable(),
                        }
                        dims
                    })
                    .collect();
                let want = pointwise(&data, &labels, &subspaces);
                for exec in &execs {
                    let got = evaluate_clusters(&data, &labels, &subspaces, exec);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "d {d} n {n} k {k} {exec:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_centroids_average_members() {
        let data = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let groups = Groups::from_labels(&data, &[0, 0], 1, &Executor::Sequential);
        assert_eq!(groups.centroids, vec![2.0, 3.0]);
    }

    #[test]
    fn group_sizes_ignore_outliers() {
        let data = DataMatrix::from_flat(vec![0.0; 6], 6, 1).unwrap();
        let groups = Groups::from_labels(&data, &[0, 1, -1, 1, 0, 0], 2, &Executor::Sequential);
        assert_eq!(groups.sizes(), &[3, 2]);
    }
}
