//! Property tests pinning the vectorized distance kernels bitwise to
//! their scalar counterparts — the tentpole contract of
//! `proclus::distance_simd` (see DESIGN.md §14). The seeded cases sweep
//! every `n % 8` remainder (0–7 tail lanes), arbitrary subspace masks,
//! and non-finite inputs: a NaN or ±∞ must flow through the lane
//! kernels exactly as it does through the scalar loop, never be masked.
//! The lane-resident kernels run under `dispatch`, as AssignPoints, the
//! outlier scan and the `ΔL` folds run them. The CPU backend's gathered
//! `dist_subset` is covered here too; the GPU and sharded backends are
//! pinned by their own equivalence suites.

use proclus::backend::{Backend, CpuBackend};
use proclus::dataset::DataMatrix;
use proclus::distance::{euclidean, manhattan_segmental};
use proclus::distance_simd::{
    dispatch, dist_rows_strip, euclidean_strip, euclidean_strip_portable, fold_abs_diff,
    fold_shells, nearest_medoid, LaneScratch, ShellRow, LANES,
};
use proclus::par::Executor;
use proclus::rng::{for_cases, ProclusRng};

/// Mostly ordinary coordinates with a sprinkle of adversarial values:
/// non-finite, denormal-scale, and near-overflow magnitudes.
fn coord(rng: &mut ProclusRng) -> f32 {
    let r = rng.next_u64() as u32;
    match r % 12 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 1e-40,
        4 => 3.4e38,
        _ => (r >> 8) as f32 / 1_000.0 - 8_000.0,
    }
}

fn flat(rng: &mut ProclusRng, n: usize, d: usize) -> Vec<f32> {
    (0..n * d).map(|_| coord(rng)).collect()
}

fn bools(rng: &mut ProclusRng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.below(2) == 1).collect()
}

/// The dispatched strip (AVX where detected) equals the scalar kernel bit
/// for bit on every point, across all tail-lane counts.
#[test]
fn strip_matches_scalar_bitwise() {
    for_cases(64, |rng| {
        let (n, d, seed) = (rng.below(26), rng.range(1..20), rng.next_u64());
        let data = weyl(n * d + d, seed);
        let (points, m) = data.split_at(n * d);
        let mut out = vec![0.0f32; n];
        euclidean_strip(points, d, m, &mut out);
        for i in 0..n {
            let want = euclidean(&points[i * d..(i + 1) * d], m);
            assert_eq!(out[i].to_bits(), want.to_bits(), "i={i}");
        }
    });
}

/// Same contract under adversarial values: ±∞, denormals and overflow stay
/// bitwise-identical, and NaN-ness propagates identically. NaN *payloads*
/// are out of contract — when two NaNs meet in an add, which payload
/// survives depends on operand order, which LLVM may commute even between
/// two builds of the scalar kernel (see the `distance_simd` module docs).
#[test]
fn strip_matches_scalar_on_non_finite() {
    for_cases(64, |rng| {
        let (n, d) = (rng.range(1..18), rng.range(1..10));
        let values = flat(rng, n + 1, d);
        let points = &values[..n * d];
        let m = &values[n * d..(n + 1) * d];
        let mut out = vec![0.0f32; n];
        euclidean_strip(points, d, m, &mut out);
        for i in 0..n {
            let want = euclidean(&points[i * d..(i + 1) * d], m);
            if want.is_nan() {
                assert!(out[i].is_nan(), "i={i}: NaN was masked");
            } else {
                assert_eq!(out[i].to_bits(), want.to_bits(), "i={i}");
            }
        }
    });
}

/// The AVX dispatch and the portable reference are interchangeable.
#[test]
fn dispatched_and_portable_strips_agree() {
    for_cases(64, |rng| {
        let (n, d, seed) = (rng.below(40), rng.range(1..33), rng.next_u64());
        let data = weyl(n * d + d, seed);
        let (points, m) = data.split_at(n * d);
        let mut fast = vec![0.0f32; n];
        let mut reference = vec![0.0f32; n];
        euclidean_strip(points, d, m, &mut fast);
        euclidean_strip_portable(points, d, m, &mut reference);
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    });
}

/// The cache-blocked batch kernel equals per-row scalar sweeps.
#[test]
fn blocked_batch_matches_scalar_bitwise() {
    for_cases(64, |rng| {
        let (n, d, rows) = (rng.below(22), rng.range(1..12), rng.range(1..5));
        let data = weyl(n * d + rows * d, rng.next_u64());
        let (points, medoids) = data.split_at(n * d);
        let m_rows: Vec<&[f32]> = medoids.chunks(d).take(rows).collect();
        let mut blocked = vec![vec![0.0f32; n]; m_rows.len()];
        {
            let mut outs: Vec<&mut [f32]> = blocked.iter_mut().map(|r| r.as_mut_slice()).collect();
            dist_rows_strip(points, d, &m_rows, &mut outs);
        }
        for (r, m) in m_rows.iter().enumerate() {
            for i in 0..n {
                let want = euclidean(&points[i * d..(i + 1) * d], m);
                assert_eq!(blocked[r][i].to_bits(), want.to_bits(), "r={r} i={i}");
            }
        }
    });
}

/// Lane-scratch segmental distances equal the scalar kernel lane by lane
/// for every d in 1..40 (every 0–7 transpose tail), under arbitrary
/// subspace masks and adversarial coordinates, for lanes transposed from
/// consecutive rows and for gathered lanes.
#[test]
fn lane_segmental_matches_scalar() {
    for_cases(64, |rng| {
        let d = rng.range(1..40);
        let values = flat(rng, POOL + 1, d);
        let mask = bools(rng, 40);
        let first = rng.below(POOL - LANES + 1);
        let pick: Vec<usize> = (0..LANES).map(|_| rng.below(POOL)).collect();
        let (points, m) = values.split_at(POOL * d);
        let dims = subspace(&mask, d);
        for (build, lanes, rows) in lane_builds(points, d, first, &pick) {
            let got = dispatch(
                #[inline(always)]
                || lanes.segmental(m, &dims),
            );
            for l in 0..LANES {
                let want = manhattan_segmental(rows[l], m, &dims);
                assert!(
                    same_bits(got[l], want),
                    "{build} lane {l}: {} vs {want}",
                    got[l]
                );
            }
        }
    });
}

/// The lane-scratch assignment rule picks the scalar rule's medoid for
/// both lane builds, under adversarial coordinates (a NaN distance loses
/// every comparison on both paths) and with forced exact ties (a
/// duplicated medoid and subspace: the lower index wins).
#[test]
fn lane_nearest_medoid_matches_scalar() {
    for_cases(64, |rng| {
        let d = rng.range(1..40);
        let values = flat(rng, POOL + 6, d);
        let k = rng.range(1..7);
        let masks: Vec<Vec<bool>> = (0..6).map(|_| bools(rng, 40)).collect();
        let duplicate = rng.below(2) == 1;
        let first = rng.below(POOL - LANES + 1);
        let pick: Vec<usize> = (0..LANES).map(|_| rng.below(POOL)).collect();
        let (points, medoid_flat) = values.split_at(POOL * d);
        let mut medoids: Vec<&[f32]> = medoid_flat.chunks(d).take(k).collect();
        let mut subspaces: Vec<Vec<usize>> =
            masks.iter().take(k).map(|mask| subspace(mask, d)).collect();
        if duplicate && k > 1 {
            medoids[1] = medoids[0];
            subspaces[1] = subspaces[0].clone();
        }
        for (build, lanes, rows) in lane_builds(points, d, first, &pick) {
            let got = dispatch(
                #[inline(always)]
                || lanes.nearest_medoid(&medoids, &subspaces),
            );
            for l in 0..LANES {
                let want = nearest_medoid(rows[l], &medoids, &subspaces);
                assert_eq!(got[l], want, "{build} lane {l}");
            }
        }
    });
}

/// The register-held fold equals one `fold_abs_diff` call per member, on
/// top of a non-zero `H`: for member lists that end at the matrix's last
/// row (whose wide tail read would cross the end of the slice) and for
/// the empty list, under adversarial coordinates, with both shells in one
/// sweep.
#[test]
fn register_fold_matches_per_point_folds() {
    for_cases(64, |rng| {
        let (n, d) = (rng.range(1..24), rng.range(1..40));
        let values = flat(rng, n + 1, d);
        let keep = bools(rng, 24);
        let seed = rng.next_u64();
        let (rows, m) = values.split_at(n * d);
        let start: Vec<f64> = weyl(d, seed).into_iter().map(f64::from).collect();
        // Members sit in the shell (0.5, 1.5], the last row always; the
        // shell (2.0, 3.0] is empty.
        let dist: Vec<f32> = (0..n)
            .map(|p| f32::from(u8::from(keep[p] || p == n - 1)))
            .collect();
        let bounds = [(0.5, 1.5), (2.0, 3.0)];
        let shells = bounds.map(|(lo, hi)| ShellRow {
            dist: &dist,
            m,
            lo,
            hi,
        });
        let mut got = [start.clone(), start.clone()].concat();
        let mut cnt = [0usize; 2];
        fold_shells(rows, d, 0, &shells, &mut got, &mut cnt);
        for (r, (lo, hi)) in bounds.into_iter().enumerate() {
            let mut want = start.clone();
            let mut want_cnt = 0;
            for p in (0..n).filter(|&p| dist[p] > lo && dist[p] <= hi) {
                fold_abs_diff(&mut want, &rows[p * d..(p + 1) * d], m);
                want_cnt += 1;
            }
            assert_eq!(cnt[r], want_cnt);
            for j in 0..d {
                assert!(
                    same_bits(got[r * d + j], want[j]),
                    "{want_cnt} members, j={j}"
                );
            }
        }
    });
}

/// A `ΔL` shell fold over a distance-row segment folds exactly the points
/// with `lo < dist <= hi` (a NaN distance is in no shell), in ascending
/// order, across several collection blocks — for each of several rows
/// with their own medoids and bounds swept together.
#[test]
fn shell_fold_matches_filtered_per_point_folds() {
    for_cases(64, |rng| {
        let (n, d, k) = (rng.range(1..700), rng.range(1..20), rng.range(1..4));
        let first_frac = rng.below(100);
        let seed = rng.next_u64();
        let values = weyl(n * d + k * d, seed);
        let (rows, medoids) = values.split_at(n * d);
        let first = n * first_frac / 100;
        let mut bounds = Vec::new();
        let mut dists = Vec::new();
        for r in 0..k {
            let lo = rng.uniform(-1.0, 60.0);
            let hi = lo + rng.uniform(0.0, 60.0);
            // Some distances sit exactly on the shell's edges: `lo` is
            // out, `hi` is in.
            let dist: Vec<f32> = weyl(n, seed ^ (r as u64 + 1))
                .into_iter()
                .enumerate()
                .map(|(p, v)| match p % 97 {
                    5 => f32::NAN,
                    11 | 50 => lo,
                    23 | 71 => hi,
                    _ => (v / 512.0).abs(),
                })
                .collect();
            bounds.push((lo, hi));
            dists.push(dist);
        }
        let shells: Vec<ShellRow<'_>> = (0..k)
            .map(|r| ShellRow {
                dist: &dists[r][first..],
                m: &medoids[r * d..(r + 1) * d],
                lo: bounds[r].0,
                hi: bounds[r].1,
            })
            .collect();
        let mut got = vec![0.0f64; k * d];
        let mut cnt = vec![0usize; k];
        fold_shells(rows, d, first, &shells, &mut got, &mut cnt);
        for (r, &(lo, hi)) in bounds.iter().enumerate() {
            let m = &medoids[r * d..(r + 1) * d];
            let mut want = vec![0.0f64; d];
            let mut want_cnt = 0;
            for p in first..n {
                if dists[r][p] > lo && dists[r][p] <= hi {
                    fold_abs_diff(&mut want, &rows[p * d..(p + 1) * d], m);
                    want_cnt += 1;
                }
            }
            assert_eq!(cnt[r], want_cnt, "row {r}");
            for j in 0..d {
                assert_eq!(got[r * d + j].to_bits(), want[j].to_bits(), "row {r} j={j}");
            }
        }
    });
}

/// The unrolled `H` fold preserves each dimension's chain exactly.
#[test]
fn h_folds_match_scalar_chains() {
    for_cases(64, |rng| {
        let (d, points) = (rng.range(1..40), rng.range(1..6));
        let data = weyl(points * d + d, rng.next_u64());
        let (rows, m) = data.split_at(points * d);
        let mut h_fast = vec![0.0f64; d];
        let mut h_ref = vec![0.0f64; d];
        for p in 0..points {
            let row = &rows[p * d..(p + 1) * d];
            fold_abs_diff(&mut h_fast, row, m);
            for j in 0..d {
                h_ref[j] += ((row[j] - m[j]) as f64).abs();
            }
        }
        for j in 0..d {
            assert_eq!(h_fast[j].to_bits(), h_ref[j].to_bits(), "h j={j}");
        }
    });
}

/// The CPU backend's gathered streaming primitive stays bitwise-equal to
/// per-point scalar distances for arbitrary index subsets.
#[test]
fn cpu_dist_subset_matches_scalar() {
    for_cases(64, |rng| {
        let (n, d, seed) = (rng.range(9..30), rng.range(1..8), rng.next_u64());
        let pick: Vec<usize> = (0..rng.below(20))
            .map(|_| rng.next_u64() as usize)
            .collect();
        let values = weyl(n * d, seed);
        let data = DataMatrix::from_flat(values, n, d).expect("valid matrix");
        let medoid = 3 % n;
        let points: Vec<usize> = pick.iter().map(|i| i % n).collect();
        let mut backend = CpuBackend::new(&data, Executor::Sequential);
        let got = backend
            .dist_subset(medoid, &points, &proclus::telemetry::NullRecorder)
            .expect("cpu backend supports dist_subset");
        assert_eq!(got.len(), points.len());
        for (i, &p) in points.iter().enumerate() {
            let want = euclidean(data.row(medoid), data.row(p));
            assert_eq!(got[i].to_bits(), want.to_bits(), "i={i} p={p}");
        }
    });
}

/// Points per lane-kernel case: room for a transposed group at any offset
/// and for gathered picks.
const POOL: usize = 2 * LANES + 3;

/// The non-empty subspace a mask selects out of `d` dimensions (the
/// kernels pin a non-empty subspace invariant).
fn subspace(mask: &[bool], d: usize) -> Vec<usize> {
    let dims: Vec<usize> = (0..d).filter(|&j| mask[j]).collect();
    if dims.is_empty() {
        vec![d / 2]
    } else {
        dims
    }
}

/// Both lane builds over a row-major pool of points: eight consecutive
/// rows from `first` (the transpose), and the eight `pick`ed rows (the
/// gather), each with the rows its lanes hold.
fn lane_builds<'a>(
    points: &'a [f32],
    d: usize,
    first: usize,
    pick: &[usize],
) -> [(&'static str, LaneScratch, [&'a [f32]; LANES]); 2] {
    let row = |p: usize| &points[p * d..(p + 1) * d];
    let mut rows = LaneScratch::new(d);
    rows.load_rows(points, first);
    let mut gathered = LaneScratch::new(d);
    gathered.gather_rows(points, pick);
    [
        ("transposed", rows, std::array::from_fn(|l| row(first + l))),
        ("gathered", gathered, std::array::from_fn(|l| row(pick[l]))),
    ]
}

/// Bitwise equality, except that NaN payloads are out of contract (see
/// the `distance_simd` module docs): a NaN must meet a NaN.
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Deterministic fill used by the non-adversarial cases (the case draws
/// only the shape and seed).
fn weyl(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            ((state >> 40) as f32) / 256.0 - 32_768.0
        })
        .collect()
}
