//! AssignPoints (Alg. 1 line 8, GPU Alg. 5): each point goes to the medoid
//! with the smallest Manhattan segmental distance within that medoid's
//! subspace.

use crate::dataset::DataMatrix;
use crate::distance_simd::{dispatch, nearest_medoid_within, LaneScratch, LANES};
use crate::par::Executor;
use crate::phases::evaluate::{GrainGroups, Groups};
use crate::result::OUTLIER;

/// Release-mode guard for the [`crate::distance::manhattan_segmental`]
/// invariant: an empty subspace would make every segmental distance
/// `0.0 / 0.0 = NaN`, which compares false against everything and silently
/// assigns every point to medoid 0 (or marks none as outliers). Checked
/// once per phase call — O(k), hoisted out of the per-point loop.
pub(crate) fn assert_subspaces_non_empty(subspaces: &[Vec<usize>], phase: &str) {
    for (i, dims) in subspaces.iter().enumerate() {
        assert!(
            !dims.is_empty(),
            "{phase}: empty subspace for medoid {i} — segmental distance undefined"
        );
    }
}

/// Labels the strip of consecutive rows starting at data index `first`
/// with the nearest-medoid rule: each lane group of eight is loaded once
/// into a transposed [`LaneScratch`] (the AVX register transpose, into the
/// thread's spare lanes), after which every medoid's subspace walk reads
/// contiguous lanes; the `% 8` tail is scalar. With `refined`, the same
/// distances also mark there, as [`OUTLIER`], every point outside all of
/// the `spheres`, and copy the label of every other point.
fn assign_strip(
    data: &DataMatrix,
    medoid_rows: &[&[f32]],
    subspaces: &[Vec<usize>],
    spheres: &[f64],
    first: usize,
    out: &mut [i32],
    mut refined: Option<&mut [i32]>,
) {
    dispatch(
        #[inline(always)]
        || {
            let flat = data.flat();
            let len = out.len();
            let mut i = 0;
            LaneScratch::with(
                data.d(),
                #[inline(always)]
                |lanes| {
                    while i + LANES <= len {
                        lanes.load_rows(flat, first + i);
                        let (labels, inside) =
                            lanes.nearest_within(medoid_rows, subspaces, spheres);
                        out[i..i + LANES].copy_from_slice(&labels);
                        if let Some(refined) = refined.as_deref_mut() {
                            for l in 0..LANES {
                                refined[i + l] = if inside[l] { labels[l] } else { OUTLIER };
                            }
                        }
                        i += LANES;
                    }
                },
            );
            while i < len {
                let row = data.row(first + i);
                let (label, inside) = nearest_medoid_within(row, medoid_rows, subspaces, spheres);
                out[i] = label;
                if let Some(refined) = refined.as_deref_mut() {
                    refined[i] = if inside { label } else { OUTLIER };
                }
                i += 1;
            }
        },
    );
}

/// Assigns every point to its closest medoid under the Manhattan segmental
/// distance in the medoid's own subspace `D_i`. Ties break toward the lower
/// medoid index. Returns per-point labels in `0..k`.
pub fn assign_points(
    data: &DataMatrix,
    medoids: &[usize],
    subspaces: &[Vec<usize>],
    exec: &Executor,
) -> Vec<i32> {
    assign_grouped(data, medoids, subspaces, &[], Vec::new(), exec).labels
}

/// What the CPU backend's AssignPoints sweep leaves: the labels, the
/// clusters grouped for EvaluateClusters, and with outlier spheres the
/// refinement's marks.
pub(crate) struct Assigned {
    /// Per-point labels in `0..k`.
    pub(crate) labels: Vec<i32>,
    /// The labels' clusters, listed and summed grain by grain.
    pub(crate) groups: Groups,
    /// With `spheres`, the labels with every point outside all of them
    /// marked [`OUTLIER`], as
    /// [`remove_outliers`](crate::phases::refinement::remove_outliers)
    /// marks them.
    pub(crate) marked: Option<Vec<i32>>,
}

/// [`assign_points`] with the clusters grouped in the same sweep: when an
/// executor grain has labelled its rows, it lists them cluster by cluster
/// and sums each cluster's rows while they are in cache
/// ([`GrainGroups::regroup`], in the buffers of `grains`, an earlier
/// sweep's groupings or none). With `spheres` (from
/// [`outlier_deltas`](crate::phases::refinement::outlier_deltas), one per
/// medoid) the sweep also marks the refinement's outliers, tested on the
/// segmental distances the labels were chosen from.
pub(crate) fn assign_grouped(
    data: &DataMatrix,
    medoids: &[usize],
    subspaces: &[Vec<usize>],
    spheres: &[f64],
    mut grains: Vec<GrainGroups>,
    exec: &Executor,
) -> Assigned {
    debug_assert_eq!(medoids.len(), subspaces.len());
    assert!(spheres.is_empty() || spheres.len() == medoids.len());
    assert_subspaces_non_empty(subspaces, "assign_points");
    let (n, k) = (data.n(), medoids.len());
    let medoid_rows: Vec<&[f32]> = medoids.iter().map(|&m| data.row(m)).collect();
    let marking = !spheres.is_empty();
    let mut labels = vec![0i32; n];
    let mut marked = vec![0i32; if marking { n } else { 0 }];
    let mut outs: Vec<&mut [i32]> = vec![&mut labels];
    if marking {
        outs.push(&mut marked);
    }
    exec.map_strips_into(n, &mut outs, &mut grains, |g, range, strips| {
        let (labels, refined) = strips.split_at_mut(1);
        let refined = refined.first_mut().map(|r| &mut **r);
        assign_strip(
            data,
            &medoid_rows,
            subspaces,
            spheres,
            range.start,
            labels[0],
            refined,
        );
        g.regroup(data, range.start, labels[0], k);
    });
    Assigned {
        labels,
        groups: Groups::new(grains, n, k, data.d()),
        marked: marking.then_some(marked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_by_subspace_distance_not_full_distance() {
        // Point 2 is far from medoid 0 in dim 1, but dim 1 is outside
        // medoid 0's subspace, so the point still lands in cluster 0.
        let data = DataMatrix::from_rows(&[
            vec![0.0, 0.0],   // medoid 0
            vec![10.0, 10.0], // medoid 1
            vec![0.5, 100.0], // near medoid 0 in dim 0 only
        ])
        .unwrap();
        let labels = assign_points(
            &data,
            &[0, 1],
            &[vec![0], vec![0, 1]],
            &Executor::Sequential,
        );
        assert_eq!(labels, vec![0, 1, 0]);
    }

    #[test]
    fn medoid_belongs_to_its_own_cluster() {
        let data =
            DataMatrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 9.0]]).unwrap();
        let labels = assign_points(
            &data,
            &[0, 2],
            &[vec![0, 1], vec![0, 1]],
            &Executor::Sequential,
        );
        assert_eq!(labels[0], 0);
        assert_eq!(labels[2], 1);
    }

    #[test]
    fn ties_break_to_lower_medoid_index() {
        let data = DataMatrix::from_rows(&[
            vec![0.0],
            vec![2.0],
            vec![1.0], // equidistant from both medoids
        ])
        .unwrap();
        let labels = assign_points(&data, &[0, 1], &[vec![0], vec![0]], &Executor::Sequential);
        assert_eq!(labels[2], 0);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let rows: Vec<Vec<f32>> = (0..300)
            .map(|i| vec![(i % 23) as f32, (i % 7) as f32, (i % 3) as f32])
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let medoids = [0usize, 150, 299];
        let subs = [vec![0, 1], vec![1, 2], vec![0, 2]];
        let seq = assign_points(&data, &medoids, &subs, &Executor::Sequential);
        let par = assign_points(&data, &medoids, &subs, &Executor::Parallel { threads: 5 });
        assert_eq!(seq, par);
    }

    /// The lane walk labels and marks every point as
    /// `nearest_medoid_within` does: on every host tier and on 2 and 7
    /// threads, for lengths around the lane width and grains that end on
    /// 8 points but not on 16 (2,049 points), with coordinates on a coarse
    /// grid (equal distances), a repeated medoid row, unsorted subspaces
    /// that may list a dimension twice, and spheres that some point lies
    /// exactly on.
    #[test]
    fn lane_walk_labels_and_marks_as_the_pointwise_rule_on_every_tier() {
        use crate::distance::manhattan_segmental;
        use crate::distance_simd::{host_tiers, nearest_medoid_within, with_tier};
        use crate::rng::ProclusRng;
        let mut rng = ProclusRng::new(0x1616);
        for d in [1usize, 8, 15, 23] {
            for n in [1usize, 7, 8, 15, 16, 17, 24, 2_049, 5_003] {
                let flat: Vec<f32> = (0..n * d).map(|_| rng.below(5) as f32).collect();
                let data = DataMatrix::from_flat(flat, n, d).unwrap();
                let k = 2 + rng.below(5);
                let mut medoids: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
                medoids[k - 1] = medoids[0];
                let subspaces: Vec<Vec<usize>> = (0..k)
                    .map(|_| (0..1 + rng.below(d)).map(|_| rng.below(d)).collect())
                    .collect();
                let rows: Vec<&[f32]> = medoids.iter().map(|&m| data.row(m)).collect();
                let spheres: Vec<f64> = (0..k)
                    .map(|i| manhattan_segmental(data.row(rng.below(n)), rows[i], &subspaces[i]))
                    .collect();
                let want: Vec<(i32, bool)> = (0..n)
                    .map(|p| nearest_medoid_within(data.row(p), &rows, &subspaces, &spheres))
                    .collect();
                let check = |exec: &Executor, what: &str| {
                    let a = assign_grouped(&data, &medoids, &subspaces, &spheres, Vec::new(), exec);
                    let marked = a.marked.expect("the sweep marks with spheres");
                    let labels = assign_points(&data, &medoids, &subspaces, exec);
                    for (p, &(label, inside)) in want.iter().enumerate() {
                        let what = format!("{what} d {d} n {n} point {p}");
                        assert_eq!(a.labels[p], label, "{what}: label");
                        assert_eq!(labels[p], label, "{what}: label without spheres");
                        let mark = if inside { label } else { OUTLIER };
                        assert_eq!(marked[p], mark, "{what}: mark");
                    }
                };
                for tier in host_tiers() {
                    with_tier(tier, || check(&Executor::Sequential, &format!("{tier:?}")));
                }
                for threads in [2, 7] {
                    check(
                        &Executor::Parallel { threads },
                        &format!("{threads} threads"),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty subspace")]
    fn empty_subspace_panics_in_every_profile() {
        // Regression: this used to be a debug_assert! inside
        // manhattan_segmental, so release builds silently produced NaN
        // distances and assigned everything to medoid 0. The guard is a
        // release-active assert!, so this test is meaningful under
        // `cargo test --release` too.
        let data = DataMatrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let _ = assign_points(&data, &[0, 1], &[vec![0], vec![]], &Executor::Sequential);
    }
}
