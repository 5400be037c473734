//! Refinement phase (Alg. 1 lines 15–19): re-derive the subspaces from the
//! best clustering itself (instead of the spheres), re-assign, and mark
//! outliers.

use crate::dataset::DataMatrix;
use crate::distance::manhattan_segmental;
use crate::distance_simd::{dispatch, LaneScratch, LANES};
use crate::par::Executor;
use crate::phases::assign::assert_subspaces_non_empty;
use crate::phases::compute_l::reduce_h_to_x;
use crate::phases::evaluate::Groups;
use crate::result::OUTLIER;

/// Computes the averaged per-dimension distance matrix `X` using the best
/// clusters as the point sets `L` (Alg. 1 line 16–17): for each cluster
/// member `p` of cluster `i`, accumulate `|p_j − m_{i,j}|`, and returns it
/// with the sizes `|L_i|`. Each grain folds each cluster's member rows in
/// list order (ascending points) against the cluster's medoid, a member's
/// 8-dimension blocks in registers, so every `(i, j)` chain adds its
/// members in point order; the grain partials are reduced in grain order.
pub(crate) fn x_from_groups(
    data: &DataMatrix,
    medoids: &[usize],
    groups: &Groups,
    exec: &Executor,
) -> (Vec<f64>, Vec<usize>) {
    let (n, d, k) = (data.n(), data.d(), medoids.len());
    assert_eq!(groups.k(), k, "one medoid per cluster");
    let medoid_rows: Vec<&[f32]> = medoids.iter().map(|&m| data.row(m)).collect();
    let parts = exec.map_chunks(
        n,
        || (vec![0.0f64; k * d], vec![0usize; k]),
        |(h, lsz), range| {
            let grain = groups.grain(range.start);
            for (c, size) in lsz.iter_mut().enumerate() {
                *size = grain.members(c).len();
            }
            grain.fold(h, data, range.start, Some(&medoid_rows));
        },
    );
    reduce_h_to_x(parts, k, d)
}

/// Outlier spheres: `Δ_i = min_{j≠i} ‖m_i − m_j‖₁^{D_i} / |D_i|` — the
/// segmental distance from each medoid to its nearest other medoid within
/// its own subspace (§2.1, refinement).
pub fn outlier_deltas(data: &DataMatrix, medoids: &[usize], subspaces: &[Vec<usize>]) -> Vec<f64> {
    assert_subspaces_non_empty(subspaces, "outlier_deltas");
    let k = medoids.len();
    let mut deltas = vec![f64::INFINITY; k];
    for i in 0..k {
        for j in 0..k {
            if i != j {
                let dist =
                    manhattan_segmental(data.row(medoids[i]), data.row(medoids[j]), &subspaces[i]);
                if dist < deltas[i] {
                    deltas[i] = dist;
                }
            }
        }
    }
    deltas
}

/// Marks as [`OUTLIER`] every point that lies outside the `Δ_i` sphere of
/// *all* medoids (in each medoid's own subspace). Other labels pass
/// through unchanged.
pub fn remove_outliers(
    data: &DataMatrix,
    labels: &[i32],
    medoids: &[usize],
    subspaces: &[Vec<usize>],
    exec: &Executor,
) -> Vec<i32> {
    let k = medoids.len();
    let deltas = outlier_deltas(data, medoids, subspaces);
    let medoid_rows: Vec<&[f32]> = medoids.iter().map(|&m| data.row(m)).collect();
    let flat = data.flat();
    let mut out = labels.to_vec();
    exec.for_each_slice(&mut out, |off, sub| {
        let len = sub.len();
        let mut idx = 0;
        dispatch(
            #[inline(always)]
            || {
                LaneScratch::with(
                    data.d(),
                    #[inline(always)]
                    |lanes| {
                        // Lane groups, transposed once: the `any` predicate is
                        // pure, so evaluating a medoid's sphere for all eight lanes
                        // (instead of short-circuiting per point) cannot change the
                        // outcome; the medoid loop still exits as soon as every
                        // lane is inside some sphere.
                        while idx + LANES <= len {
                            lanes.load_rows(flat, off + idx);
                            let mut inside = [false; LANES];
                            for i in 0..k {
                                let dist = lanes.segmental(medoid_rows[i], &subspaces[i]);
                                for l in 0..LANES {
                                    inside[l] |= dist[l] <= deltas[i];
                                }
                                if inside.iter().all(|&v| v) {
                                    break;
                                }
                            }
                            for l in 0..LANES {
                                if !inside[l] {
                                    sub[idx + l] = OUTLIER;
                                }
                            }
                            idx += LANES;
                        }
                    },
                );
            },
        );
        while idx < len {
            let row = data.row(off + idx);
            let inside_any = (0..k)
                .any(|i| manhattan_segmental(row, medoid_rows[i], &subspaces[i]) <= deltas[i]);
            if !inside_any {
                sub[idx] = OUTLIER;
            }
            idx += 1;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> DataMatrix {
        DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![10.0, 0.0],
            vec![11.0, 0.0],
            vec![100.0, 100.0], // far outlier
        ])
        .unwrap()
    }

    #[test]
    fn x_from_clusters_uses_members_only() {
        let d = data();
        let exec = Executor::Sequential;
        let groups = Groups::from_labels(&d, &[0, 0, 1, 1, 1], 2, &exec);
        let (x, sizes) = x_from_groups(&d, &[0, 2], &groups, &exec);
        assert_eq!(sizes, vec![2, 3]);
        // cluster 0, dim 0: (|0-0| + |1-0|)/2 = 0.5
        assert!((x[0] - 0.5).abs() < 1e-12);
        // cluster 1, dim 0: (|10-10| + |11-10| + |100-10|)/3
        assert!((x[2] - 91.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn deltas_use_segmental_distance_in_own_subspace() {
        let d = data();
        let deltas = outlier_deltas(&d, &[0, 2], &[vec![0, 1], vec![0]]);
        // medoid 0 in dims {0,1}: (|0-10| + 0)/2 = 5
        assert_eq!(deltas[0], 5.0);
        // medoid 1 in dims {0}: |10-0|/1 = 10
        assert_eq!(deltas[1], 10.0);
    }

    #[test]
    fn far_point_becomes_outlier_and_near_points_stay() {
        let d = data();
        let labels = vec![0, 0, 1, 1, 1];
        let refined = remove_outliers(
            &d,
            &labels,
            &[0, 2],
            &[vec![0, 1], vec![0, 1]],
            &Executor::Sequential,
        );
        assert_eq!(refined[4], OUTLIER, "point at (100,100) must be outlier");
        assert_eq!(&refined[..4], &[0, 0, 1, 1]);
    }

    #[test]
    fn medoids_are_never_outliers() {
        let d = data();
        let labels = vec![0, 0, 1, 1, 1];
        let refined = remove_outliers(
            &d,
            &labels,
            &[0, 2],
            &[vec![0], vec![0]],
            &Executor::Sequential,
        );
        assert_eq!(refined[0], 0);
        assert_eq!(refined[2], 1);
    }

    #[test]
    #[should_panic(expected = "empty subspace")]
    fn empty_subspace_panics_in_outlier_removal() {
        // Release-active guard: previously NaN deltas would mark every
        // point an outlier without any signal in release builds.
        let d = data();
        let _ = remove_outliers(
            &d,
            &[0, 0, 1, 1, 1],
            &[0, 2],
            &[vec![0], vec![]],
            &Executor::Sequential,
        );
    }

    #[test]
    fn vectorized_outlier_scan_matches_scalar_rule_across_remainders() {
        // n = 13 exercises one full lane group + a 5-point tail.
        let rows: Vec<Vec<f32>> = (0..13)
            .map(|i| vec![(i % 7) as f32 * 3.0, (i % 5) as f32 * 2.0])
            .collect();
        let d = DataMatrix::from_rows(&rows).unwrap();
        let labels: Vec<i32> = (0..13).map(|i| i % 2).collect();
        let subs = [vec![0], vec![1]];
        let medoids = [0usize, 1];
        let got = remove_outliers(&d, &labels, &medoids, &subs, &Executor::Sequential);
        let deltas = outlier_deltas(&d, &medoids, &subs);
        for (p, &lab) in got.iter().enumerate() {
            let inside = (0..2)
                .any(|i| manhattan_segmental(d.row(p), d.row(medoids[i]), &subs[i]) <= deltas[i]);
            assert_eq!(lab, if inside { labels[p] } else { OUTLIER }, "point {p}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = data();
        let labels = vec![0, 0, 1, 1, 1];
        let subs = [vec![0, 1], vec![0, 1]];
        let a = remove_outliers(&d, &labels, &[0, 2], &subs, &Executor::Sequential);
        let b = remove_outliers(
            &d,
            &labels,
            &[0, 2],
            &subs,
            &Executor::Parallel { threads: 3 },
        );
        assert_eq!(a, b);
    }
}
