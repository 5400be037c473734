//! Initialization phase: random sampling of `Data'` and greedy selection of
//! the potential medoids `M` (Alg. 1 lines 2–3).

use crate::dataset::DataMatrix;
use crate::distance_simd::{dispatch, LaneBlocks};
use crate::par::Executor;
use crate::rng::ProclusRng;

/// Draws the random sample `Data'` of `size` distinct point indices.
pub fn sample_data_prime(rng: &mut ProclusRng, n: usize, size: usize) -> Vec<usize> {
    rng.sample_distinct(n, size.min(n))
}

/// Greedy farthest-point selection of `count` potential medoids from the
/// candidate indices (Alg. 1 line 3 / GPU Alg. 2).
///
/// The first medoid is drawn uniformly from the candidates (one RNG draw);
/// every further medoid is the candidate with the maximum distance to its
/// nearest already-selected medoid. Ties break toward the lower candidate
/// position, matching the GPU kernel's deterministic claim order. The
/// candidates' rows are transposed once into lane blocks, which every
/// pick's fold reads under [`dispatch`].
pub fn greedy_select(
    data: &DataMatrix,
    candidates: &[usize],
    count: usize,
    rng: &mut ProclusRng,
    exec: &Executor,
) -> Vec<usize> {
    let s = candidates.len();
    assert!(count >= 1 && count <= s, "greedy: count {count} of {s}");
    let mut selected = Vec::with_capacity(count);
    let first = rng.below(s);
    selected.push(candidates[first]);

    // Distance from each candidate to its nearest selected medoid.
    let mut min_dist = vec![f32::INFINITY; s];
    let mut latest = candidates[first];
    let sample = LaneBlocks::new(data.flat(), data.d(), candidates);

    for _ in 1..count {
        // Fold the latest pick into the min-distances (disjoint writes),
        // then take the argmax — the two kernels of GPU Alg. 2.
        let latest_row = data.row(latest);
        exec.for_each_slice(&mut min_dist, |off, sub| {
            dispatch(
                #[inline(always)]
                || {
                    sample.for_each_euclidean(
                        latest_row,
                        off,
                        sub.len(),
                        #[inline(always)]
                        |i, dist| {
                            if dist < sub[i] {
                                sub[i] = dist;
                            }
                        },
                    );
                },
            );
        });
        let parts = exec.map_chunks(
            s,
            || (f32::NEG_INFINITY, usize::MAX),
            |best, range| {
                for c in range {
                    if min_dist[c] > best.0 {
                        *best = (min_dist[c], c);
                    }
                }
            },
        );
        let (_, argmax) = parts
            .into_iter()
            .fold((f32::NEG_INFINITY, usize::MAX), |acc, p| {
                if p.0 > acc.0 || (p.0 == acc.0 && p.1 < acc.1) {
                    p
                } else {
                    acc
                }
            });
        latest = candidates[argmax];
        selected.push(latest);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_data() -> DataMatrix {
        // 5 points on a line: 0, 1, 2, 3, 10
        DataMatrix::from_flat(vec![0.0, 1.0, 2.0, 3.0, 10.0], 5, 1).unwrap()
    }

    #[test]
    fn sample_is_distinct_subset() {
        let mut rng = ProclusRng::new(1);
        let s = sample_data_prime(&mut rng, 100, 30);
        assert_eq!(s.len(), 30);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 30);
    }

    #[test]
    fn sample_clamps_to_n() {
        let mut rng = ProclusRng::new(1);
        assert_eq!(sample_data_prime(&mut rng, 10, 50).len(), 10);
    }

    #[test]
    fn greedy_spreads_points_apart() {
        let data = grid_data();
        let candidates: Vec<usize> = (0..5).collect();
        let mut rng = ProclusRng::new(3);
        let m = greedy_select(&data, &candidates, 3, &mut rng, &Executor::Sequential);
        // Whatever the random start, the isolated point 4 (value 10) and an
        // endpoint of the 0..3 run must both be selected.
        assert!(m.contains(&4), "far point must be chosen, got {m:?}");
        assert_eq!(m.len(), 3);
        let set: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), 3, "selection must be distinct: {m:?}");
    }

    #[test]
    fn greedy_sequential_and_parallel_agree() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i as f32 * 37.0) % 101.0, (i as f32 * 17.0) % 89.0])
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let candidates: Vec<usize> = (0..200).collect();
        let seq = greedy_select(
            &data,
            &candidates,
            20,
            &mut ProclusRng::new(9),
            &Executor::Sequential,
        );
        let par = greedy_select(
            &data,
            &candidates,
            20,
            &mut ProclusRng::new(9),
            &Executor::Parallel { threads: 4 },
        );
        assert_eq!(seq, par);
    }

    /// The greedy pick by pick, as it ran before it gathered its sample:
    /// each pick folds the latest medoid into every candidate's minimum
    /// with the scalar kernel, then takes the first candidate of the
    /// largest minimum.
    fn per_pick_greedy(
        data: &DataMatrix,
        candidates: &[usize],
        count: usize,
        rng: &mut ProclusRng,
    ) -> Vec<usize> {
        let mut picks = vec![candidates[rng.below(candidates.len())]];
        let mut min_dist = vec![f32::INFINITY; candidates.len()];
        while picks.len() < count {
            let latest = data.row(picks[picks.len() - 1]);
            for (m, &c) in min_dist.iter_mut().zip(candidates) {
                let dist = crate::distance::euclidean(data.row(c), latest);
                if dist < *m {
                    *m = dist;
                }
            }
            let mut best = (f32::NEG_INFINITY, usize::MAX);
            for (c, &m) in min_dist.iter().enumerate() {
                if m > best.0 {
                    best = (m, c);
                }
            }
            picks.push(candidates[best.1]);
        }
        picks
    }

    /// The gathered greedy returns the per-pick reference's picks: samples
    /// with `|S| % 8` of 0 and 3, in one grain and in several, dimensions
    /// with a `% 8` tail, coordinates on a coarse grid (equal distances),
    /// and samples of five distinct rows, so that picks repeat; on every
    /// host tier and on 2 and 7 threads.
    #[test]
    fn gathered_greedy_returns_the_per_pick_picks() {
        use crate::distance_simd::{host_tiers, with_tier};
        let mut rng = ProclusRng::new(0x6EED);
        for d in [3usize, 11, 19] {
            for s in [8usize, 43, 1_000, 4_096, 4_099] {
                for distinct in [usize::MAX, 5] {
                    let n = s + 37;
                    let base: Vec<f32> = (0..n * d).map(|_| rng.below(7) as f32 * 0.5).collect();
                    let flat: Vec<f32> = (0..n)
                        .flat_map(|i| {
                            let r = i % distinct.min(n);
                            base[r * d..(r + 1) * d].iter().copied()
                        })
                        .collect();
                    let data = DataMatrix::from_flat(flat, n, d).unwrap();
                    let candidates = sample_data_prime(&mut rng, n, s);
                    let (count, seed) = (s.min(24), rng.next_u64());
                    let want =
                        per_pick_greedy(&data, &candidates, count, &mut ProclusRng::new(seed));
                    let greedy = |exec: &Executor| {
                        greedy_select(&data, &candidates, count, &mut ProclusRng::new(seed), exec)
                    };
                    for tier in host_tiers() {
                        let got = with_tier(tier, || greedy(&Executor::Sequential));
                        assert_eq!(got, want, "{tier:?} d {d} |S| {s} distinct {distinct}");
                    }
                    for threads in [2, 7] {
                        let got = greedy(&Executor::Parallel { threads });
                        assert_eq!(
                            got, want,
                            "{threads} threads d {d} |S| {s} distinct {distinct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_single_pick_uses_one_draw() {
        let data = grid_data();
        let mut a = ProclusRng::new(5);
        let mut b = ProclusRng::new(5);
        let _ = greedy_select(&data, &[0, 1, 2, 3, 4], 1, &mut a, &Executor::Sequential);
        let _ = b.below(5);
        // Both consumed exactly one draw; subsequent draws must agree.
        assert_eq!(a.below(1000), b.below(1000));
    }
}
