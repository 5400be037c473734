//! FAST-PROCLUS (§3): cache distances to potential medoids across
//! iterations (`Dist`, `DistFound`) and maintain the per-dimension distance
//! sums `H` incrementally from the sphere delta `ΔL_i` (Theorems 3.1/3.2).

use std::collections::HashMap;

use proclus_telemetry::{counters, Recorder};

use crate::dataset::DataMatrix;
use crate::distance_simd::{debug_assert_finite, dist_rows_strip, fold_shells, ShellRow};
use crate::driver::XEngine;
use crate::par::Executor;
use crate::phases::compute_l::medoid_deltas;

/// Fills a *batch* of `Dist` rows in one cache-blocked pass: workers own
/// column strips ([`Executor::for_each_strips`]), and within each strip the
/// point tile is read once and reused for every medoid row
/// ([`dist_rows_strip`]). Bitwise-identical to the scalar `euclidean`.
pub(crate) fn compute_dist_rows(
    data: &DataMatrix,
    m_rows: &[&[f32]],
    outs: &mut [&mut [f32]],
    exec: &Executor,
) {
    debug_assert_eq!(m_rows.len(), outs.len());
    let d = data.d();
    let flat = data.flat();
    exec.for_each_strips(outs, |off, strips| {
        let len = strips.first().map(|s| s.len()).unwrap_or(0);
        dist_rows_strip(&flat[off * d..(off + len) * d], d, m_rows, strips);
    });
}

/// The `ΔL` shell a row crosses when its radius moves (Theorems 3.1/3.2):
/// `ΔL = {p : δ' < ‖p − m‖ ≤ δ}` added when the sphere grows from `δ'` to
/// `δ`, symmetric and removed when it shrinks. Membership tests reuse the
/// *cached* `f32` distances, so the point sets are exactly consistent
/// across iterations. The FAST and FAST\* engines and the stream driver
/// all advance `H` through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shell {
    lo: f32,
    hi: f32,
    grows: bool,
}

impl Shell {
    /// The shell between the radius `from` the sums were folded to and
    /// the current radius `to`; `None` when the radius is unchanged.
    pub fn between(from: f32, to: f32) -> Option<Self> {
        if to == from {
            None
        } else if to > from {
            Some(Shell {
                lo: from,
                hi: to,
                grows: true,
            })
        } else {
            Some(Shell {
                lo: to,
                hi: from,
                grows: false,
            })
        }
    }

    /// The [`fold_shells`] row folding this shell out of the `Dist` row
    /// segment `dist` of the medoid `m`.
    pub fn row<'a>(&self, dist: &'a [f32], m: &'a [f32]) -> ShellRow<'a> {
        ShellRow {
            dist,
            m,
            lo: self.lo,
            hi: self.hi,
        }
    }

    /// Applies one folded partial: `h += λ·dh` with `λ = ±1`, and the
    /// sphere size `lsize` grows or shrinks by the `cnt` points folded. A
    /// shrinking shell only holds points of the sphere, so it never
    /// removes more than `lsize` (asserted in debug builds).
    pub fn apply(&self, h: &mut [f64], lsize: &mut usize, dh: &[f64], cnt: usize) {
        let lambda = if self.grows { 1.0f64 } else { -1.0 };
        for (acc, v) in h.iter_mut().zip(dh) {
            *acc += lambda * v;
        }
        if self.grows {
            *lsize += cnt;
        } else {
            debug_assert!(cnt <= *lsize, "shell removes {cnt} of {lsize} points");
            *lsize -= cnt;
        }
    }
}

/// The Theorem 3.1/3.2 state of the FAST and FAST\* engines, one entry
/// per row: the `Dist` row over all `n` points, the `H` sums, the radius
/// `δ'` they were folded to (−1 before the first fold, so the first shell
/// `dist > δ'` also admits the medoid itself at distance 0), and the
/// sphere size `|L|`.
#[derive(Debug)]
pub(crate) struct HRows {
    n: usize,
    d: usize,
    dist: Vec<f32>,                  // rows × n
    h: Vec<f64>,                     // rows × d
    pub(crate) prev_delta: Vec<f32>, // per row: δ at last usage t'
    lsize: Vec<usize>,               // per row: |L| at last usage
}

impl HRows {
    /// `rows` rows in the fresh state.
    pub(crate) fn new(n: usize, d: usize, rows: usize) -> Self {
        Self {
            n,
            d,
            dist: vec![0.0; rows * n],
            h: vec![0.0; rows * d],
            prev_delta: vec![-1.0; rows],
            lsize: vec![0; rows],
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.prev_delta.len()
    }

    /// Appends `count` rows in the fresh state; the next
    /// [`HRows::advance`] that lists one as fresh fills its `Dist` row.
    fn grow(&mut self, count: usize) {
        let rows = self.len() + count;
        self.dist.resize(rows * self.n, 0.0);
        self.h.resize(rows * self.d, 0.0);
        self.prev_delta.resize(rows, -1.0);
        self.lsize.resize(rows, 0);
    }

    /// Returns row `row` to the fresh state.
    pub(crate) fn reset(&mut self, row: usize) {
        self.prev_delta[row] = -1.0;
        self.lsize[row] = 0;
        self.h[row * self.d..(row + 1) * self.d].fill(0.0);
    }

    /// Logical bytes held (for space-usage reporting).
    pub(crate) fn bytes(&self) -> usize {
        self.dist.len() * 4 + self.h.len() * 8 + self.len() * (4 + 8)
    }

    /// The `Dist` row `row`.
    #[cfg(test)]
    pub(crate) fn dist_row(&self, row: usize) -> &[f32] {
        &self.dist[row * self.n..(row + 1) * self.n]
    }

    /// One ComputeL pass over the data, as GPU Alg. 3 builds all `k`
    /// shells in one launch: medoid `i` reads row `rows[i]`; a `fresh[i]`
    /// row must be in the fresh state. A row listed twice — a point the
    /// greedy picked twice, which it does once the sample holds fewer
    /// distinct rows than `B·k` — has the same radius at both places (0,
    /// the distance between the copies): its first place advances it and
    /// the repeat reads the result, as a per-row pass would. Each grain of
    /// `grains_for(n)` first fills the fresh rows' `Dist` entries (one
    /// cache-blocked batch), then folds the shell of every row whose
    /// radius moved to `deltas[i]` while the grain is in cache. Each
    /// row's grain partials are applied in grain order — the chains of a
    /// per-row fill and fold. Returns the averaged `X` (row-major `k × d`)
    /// and the sphere sizes, and records the `ΔL` points.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        data: &DataMatrix,
        medoids: &[usize],
        rows: &[usize],
        fresh: &[bool],
        deltas: &[f32],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let (n, d, k) = (self.n, self.d, medoids.len());
        debug_assert!(rows.len() == k && fresh.len() == k && deltas.len() == k);
        let flat = data.flat();
        // Per medoid: its row's |L| before the pass, `None` on a repeat.
        let mut before: Vec<Option<usize>> = Vec::with_capacity(k);
        let mut slots: Vec<Option<&mut [f32]>> = self.dist.chunks_mut(n).map(Some).collect();
        let mut fills: Vec<&mut [f32]> = Vec::new();
        let mut fill_rows: Vec<&[f32]> = Vec::new();
        // Per folded row: its medoid slot, where its distances come from,
        // and its shell.
        let mut jobs: Vec<(usize, Source<'_>, Shell)> = Vec::new();
        for i in 0..k {
            let Some(dist) = slots[rows[i]].take() else {
                debug_assert!(
                    !fresh[i] && (0..i).any(|j| rows[j] == rows[i] && deltas[j] == deltas[i]),
                    "row {} repeated at another radius",
                    rows[i]
                );
                before.push(None);
                continue;
            };
            before.push(Some(self.lsize[rows[i]]));
            let shell = Shell::between(self.prev_delta[rows[i]], deltas[i]);
            if fresh[i] {
                fills.push(dist);
                fill_rows.push(data.row(medoids[i]));
                if let Some(shell) = shell {
                    jobs.push((i, Source::Fill(fills.len() - 1), shell));
                }
            } else if let Some(shell) = shell {
                // A NaN in the cached row would fail both shell bounds and
                // silently drop the point from every ΔL shell forever.
                debug_assert_finite(dist, "HRows::advance: cached Dist row");
                jobs.push((i, Source::Cached(dist), shell));
            }
        }
        if !jobs.is_empty() {
            let parts = exec.map_strips(
                n,
                &mut fills,
                || (vec![0.0f64; jobs.len() * d], vec![0usize; jobs.len()]),
                |(dh, cnt), range, strips| {
                    if !strips.is_empty() {
                        let points = &flat[range.start * d..range.end * d];
                        dist_rows_strip(points, d, &fill_rows, strips);
                    }
                    let shells: Vec<ShellRow<'_>> = jobs
                        .iter()
                        .map(|&(i, src, shell)| {
                            let dist = match src {
                                Source::Fill(f) => &*strips[f],
                                Source::Cached(row) => &row[range.clone()],
                            };
                            shell.row(dist, data.row(medoids[i]))
                        })
                        .collect();
                    fold_shells(flat, d, range.start, &shells, dh, cnt);
                },
            );
            for (j, &(i, _, shell)) in jobs.iter().enumerate() {
                let row = rows[i];
                let (h, lsize) = (&mut self.h[row * d..(row + 1) * d], &mut self.lsize[row]);
                for (dh, cnt) in &parts {
                    shell.apply(h, lsize, &dh[j * d..(j + 1) * d], cnt[j]);
                }
            }
        }
        let mut x = vec![0.0f64; k * d];
        let mut lsz = vec![0usize; k];
        for i in 0..k {
            let row = rows[i];
            self.prev_delta[row] = deltas[i];
            lsz[i] = self.lsize[row];
            if let Some(before) = before[i] {
                rec.add(counters::DELTA_L_POINTS, before.abs_diff(lsz[i]) as u64);
            }
            if lsz[i] > 0 {
                for (xj, &hj) in x[i * d..(i + 1) * d].iter_mut().zip(&self.h[row * d..]) {
                    *xj = hj / lsz[i] as f64;
                }
            }
        }
        (x, lsz)
    }
}

/// Where a row of an [`HRows::advance`] pass reads its distances.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The pass's fill strip with this index.
    Fill(usize),
    /// The cached `Dist` row.
    Cached(&'a [f32]),
}

/// The `Dist`/`H` cache of FAST-PROCLUS.
///
/// Rows are keyed by the medoid's *data index*, so the cache survives not
/// only across iterations but also across parameter settings with different
/// potential-medoid sets (§3.1 multi-parameter level 1): any point that
/// reappears as a potential medoid hits its old row. For a single run this
/// is exactly the paper's `Dist ∈ ℝ^{Bk×n}` + `DistFound` + `MIdx` scheme
/// (presence in the map *is* `DistFound`).
#[derive(Debug)]
pub(crate) struct DistCache {
    slot_of: HashMap<usize, usize>,
    pub(crate) rows: HRows,
}

impl DistCache {
    pub(crate) fn new(n: usize, d: usize) -> Self {
        Self {
            slot_of: HashMap::new(),
            rows: HRows::new(n, d, 0),
        }
    }

    /// Number of cached rows (= distinct medoids whose distances were ever
    /// computed; the paper's `DistFound` count).
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Logical bytes held by the cache (for space-usage reporting).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bytes(&self) -> usize {
        self.rows.bytes()
    }

    /// Resolves every medoid's row, in order, as `(row, fresh)`. A miss
    /// appends a fresh row, which the next [`HRows::advance`] fills in
    /// the same pass that folds its first shell.
    pub(crate) fn ensure_rows(&mut self, m_points: &[usize]) -> Vec<(usize, bool)> {
        let first_new = self.rows();
        let mut added = 0;
        let out = m_points
            .iter()
            .map(|&m| match self.slot_of.get(&m) {
                Some(&row) => (row, false),
                None => {
                    let row = first_new + added;
                    self.slot_of.insert(m, row);
                    added += 1;
                    (row, true)
                }
            })
            .collect();
        self.rows.grow(added);
        out
    }
}

/// The FAST-PROCLUS `X` engine.
pub(crate) struct FastEngine {
    pub(crate) cache: DistCache,
}

impl FastEngine {
    pub(crate) fn new(data: &DataMatrix) -> Self {
        Self {
            cache: DistCache::new(data.n(), data.d()),
        }
    }
}

impl XEngine for FastEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        // DistFound check (§3): a miss costs one full Dist row (n
        // distances), filled in this iteration's one pass over the data; a
        // hit costs nothing — Theorem 3.1.
        let (rows, fresh): (Vec<usize>, Vec<bool>) =
            self.cache.ensure_rows(&medoids).into_iter().unzip();
        for &miss in &fresh {
            if miss {
                rec.add(counters::DIST_CACHE_MISSES, 1);
                rec.add(counters::DISTANCES_COMPUTED, data.n() as u64);
            } else {
                rec.add(counters::DIST_CACHE_HITS, 1);
            }
        }

        // δ_i from scalar distances between the medoids: bitwise the
        // entries of the cached rows (DESIGN.md §14.1), so the search path
        // is the baseline's, and a fresh row's radius is known before the
        // pass fills it.
        let deltas = medoid_deltas(data, &medoids);
        self.cache
            .rows
            .advance(data, &medoids, &rows, &fresh, &deltas, exec, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Config};
    use crate::distance::euclidean;
    use crate::distance_simd::{host_tiers, with_tier, Tier};
    use crate::error::Result;
    use crate::params::Params;
    use crate::phases::compute_l::{compute_x_baseline, medoid_deltas};
    use crate::result::Clustering;

    fn run_on(
        data: &DataMatrix,
        params: &Params,
        algo: Algo,
        exec: &Executor,
    ) -> Result<Clustering> {
        crate::run_single_on(data, &Config::new(params.clone()).with_algo(algo), exec)
    }

    fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_on(data, params, Algo::Baseline, &Executor::Sequential)
    }

    fn fast_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_on(data, params, Algo::Fast, &Executor::Sequential)
    }

    fn fast_proclus_par(data: &DataMatrix, params: &Params, threads: usize) -> Result<Clustering> {
        run_on(data, params, Algo::Fast, &Executor::Parallel { threads })
    }

    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = if i % 3 == 0 {
                    0.0f32
                } else if i % 3 == 1 {
                    40.0
                } else {
                    80.0
                };
                vec![
                    c + ((i * 3) % 13) as f32 * 0.1,
                    c + ((i * 5) % 11) as f32 * 0.1,
                    ((i * 7) % 100) as f32,
                ]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    /// Advances one cached row of `cache` (fresh on its first call) to
    /// `delta`; returns `X` and `|L|`.
    fn advance_one(
        cache: &mut DistCache,
        data: &DataMatrix,
        m_point: usize,
        delta: f32,
        exec: &Executor,
    ) -> (Vec<f64>, usize) {
        let (row, fresh) = cache.ensure_rows(&[m_point])[0];
        let (x, lsz) = cache.rows.advance(
            data,
            &[m_point],
            &[row],
            &[fresh],
            &[delta],
            exec,
            &proclus_telemetry::NullRecorder,
        );
        (x, lsz[0])
    }

    #[test]
    fn incremental_h_matches_direct_recomputation() {
        // Theorem 3.2: advance a row through a sequence of radii and compare
        // X with the from-scratch baseline at every step.
        let data = blob_data(200);
        let exec = Executor::Sequential;
        let mut cache = DistCache::new(data.n(), data.d());
        let m_point = 42usize;

        for &delta in &[5.0f32, 20.0, 3.0, 60.0, 0.5, 60.0, 60.0] {
            let (x_inc, l_inc) = advance_one(&mut cache, &data, m_point, delta, &exec);
            // Direct recomputation over the same sphere.
            let m_row = data.row(m_point);
            let mut h = vec![0.0f64; data.d()];
            let mut l = 0usize;
            for p in 0..data.n() {
                if euclidean(data.row(p), m_row) <= delta {
                    l += 1;
                    for j in 0..data.d() {
                        h[j] += ((data.get(p, j) - m_row[j]) as f64).abs();
                    }
                }
            }
            assert_eq!(l_inc, l, "sphere size at delta {delta}");
            for j in 0..data.d() {
                let direct = if l > 0 { h[j] / l as f64 } else { 0.0 };
                assert!(
                    (x_inc[j] - direct).abs() < 1e-9,
                    "X mismatch at delta {delta}, dim {j}: {} vs {direct}",
                    x_inc[j]
                );
            }
        }
        assert_eq!(cache.rows(), 1);
    }

    #[test]
    fn cache_hits_do_not_recompute() {
        let data = blob_data(100);
        let mut cache = DistCache::new(data.n(), data.d());
        let (r1, fresh1) = cache.ensure_rows(&[5])[0];
        let (r2, fresh2) = cache.ensure_rows(&[5])[0];
        assert_eq!(r1, r2);
        assert!(fresh1 && !fresh2);
        assert_eq!(cache.rows(), 1);
    }

    #[test]
    fn engine_x_matches_baseline_x() {
        let data = blob_data(300);
        let exec = Executor::Sequential;
        let m_data: Vec<usize> = vec![0, 10, 50, 100, 150, 200, 250];
        let mcur = vec![0usize, 2, 5];
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        let mut engine = FastEngine::new(&data);
        let (x_fast, l_fast) = engine.x_matrix(
            &data,
            &m_data,
            &mcur,
            &exec,
            &proclus_telemetry::NullRecorder,
        );

        let deltas = medoid_deltas(&data, &medoids);
        let (x_base, l_base) = compute_x_baseline(&data, &medoids, &deltas, &exec);

        assert_eq!(l_fast, l_base);
        for (a, b) in x_fast.iter().zip(&x_base) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fast_equals_baseline_seed_for_seed() {
        let data = blob_data(450);
        let params = Params::new(3, 2).with_a(30).with_b(5).with_seed(11);
        let base = proclus(&data, &params).unwrap();
        let fast = fast_proclus(&data, &params).unwrap();
        assert_eq!(base.medoids, fast.medoids);
        assert_eq!(base.subspaces, fast.subspaces);
        assert_eq!(base.labels, fast.labels);
        assert_eq!(base.iterations, fast.iterations);
        assert!((base.cost - fast.cost).abs() < 1e-9);
    }

    #[test]
    fn fast_par_equals_fast_seq() {
        // Above the executor's single-grain crossover, with a ragged last
        // grain, so every phase really reduces grain partials.
        let data = blob_data(5_003);
        let params = Params::new(3, 2).with_a(30).with_b(5).with_seed(13);
        let seq = fast_proclus(&data, &params).unwrap();
        let par = fast_proclus_par(&data, &params, 4).unwrap();
        assert_eq!(seq.medoids, par.medoids);
        assert_eq!(seq.subspaces, par.subspaces);
        assert_eq!(seq.labels, par.labels);
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(seq.cost.to_bits(), par.cost.to_bits());
        assert_eq!(seq.refined_cost.to_bits(), par.refined_cost.to_bits());
    }

    /// Quantized data with fewer distinct rows than `B·k`: once every
    /// sample row is covered, the greedy picks a point again, so an
    /// iteration's medoids list one `Dist` row twice. FAST and FAST\*
    /// still equal the baseline, bit for bit, sequential and pooled.
    #[test]
    fn repeated_medoids_match_baseline() {
        let rows: Vec<Vec<f32>> = (0..2_600)
            .map(|i| {
                let c = i % 10;
                (0..5).map(|j| ((c * (j + 3) * 37) % 101) as f32).collect()
            })
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let params = Params::new(4, 3).with_a(30).with_b(5).with_seed(5);
        let base = proclus(&data, &params).unwrap();
        for algo in [Algo::Fast, Algo::FastStar] {
            for exec in [Executor::Sequential, Executor::Parallel { threads: 2 }] {
                let got = run_on(&data, &params, algo, &exec).unwrap();
                let at = format!("{algo:?} on {exec:?}");
                assert_eq!(got.medoids, base.medoids, "{at}");
                assert_eq!(got.subspaces, base.subspaces, "{at}");
                assert_eq!(got.labels, base.labels, "{at}");
                assert_eq!(got.iterations, base.iterations, "{at}");
                assert_eq!(got.cost.to_bits(), base.cost.to_bits(), "{at}");
                assert_eq!(
                    got.refined_cost.to_bits(),
                    base.refined_cost.to_bits(),
                    "{at}"
                );
            }
        }
    }

    /// A duplicate medoid in one call hits the row its first occurrence
    /// registered and reads the state that occurrence advanced, and the
    /// pass that fills fresh rows beside cached ones writes every fresh
    /// `Dist` entry bitwise equal to the scalar kernel, above the
    /// single-grain crossover on every executor.
    #[test]
    fn batched_ensure_rows_matches_per_row_bitwise() {
        let data = blob_data(5_003); // odd n exercises the remainder lanes
        for threads in [1usize, 4] {
            let exec = if threads > 1 {
                Executor::Parallel { threads }
            } else {
                Executor::Sequential
            };
            let mut cache = DistCache::new(data.n(), data.d());
            let medoids = [3usize, 50, 111, 200, 50]; // one duplicate: a hit
            let batch = cache.ensure_rows(&medoids);
            assert_eq!(
                batch,
                [(0, true), (1, true), (2, true), (3, true), (1, false)]
            );
            // Row 3 cached first, then 0..3 filled in a pass beside it;
            // the repeat of 50 reads row 1, advanced once.
            let advance = |cache: &mut DistCache, ms: &[usize], rows: &[usize], fresh: &[bool]| {
                let deltas = vec![9.0f32; ms.len()];
                cache.rows.advance(
                    &data,
                    ms,
                    rows,
                    fresh,
                    &deltas,
                    &exec,
                    &proclus_telemetry::NullRecorder,
                )
            };
            advance(&mut cache, &[200], &[3], &[true]);
            let (x, lsz) = advance(
                &mut cache,
                &medoids,
                &[0, 1, 2, 3, 1],
                &[true, true, true, false, false],
            );
            let d = data.d();
            let inside = (0..data.n())
                .filter(|&p| euclidean(data.row(p), data.row(50)) <= 9.0)
                .count();
            assert_eq!((lsz[1], lsz[4]), (inside, inside), "threads {threads}");
            assert_eq!(x[4 * d..], x[d..2 * d], "threads {threads}");
            for (row, &m) in medoids[..4].iter().enumerate() {
                for (p, got) in cache.rows.dist_row(row).iter().enumerate() {
                    let want = euclidean(data.row(p), data.row(m));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "row {row} point {p} (threads {threads})"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_bytes_grow_with_rows() {
        let data = blob_data(100);
        let mut cache = DistCache::new(data.n(), data.d());
        let b0 = cache.bytes();
        cache.ensure_rows(&[1]);
        let b1 = cache.bytes();
        cache.ensure_rows(&[2]);
        let b2 = cache.bytes();
        assert!(b0 < b1 && b1 < b2);
        assert_eq!(b2 - b1, b1 - b0, "per-row cost is constant");
    }

    /// One row's chains in scalar form, the reference of
    /// [`HRows::advance`]: per grain of `grains_for(n)` a partial from
    /// `0.0` over the shell's members in ascending order, applied as `h +=
    /// λ·partial` in grain order.
    fn reference_advance(
        data: &DataMatrix,
        m: usize,
        from: f32,
        to: f32,
        h: &mut [f64],
        lsize: &mut usize,
    ) {
        if to == from {
            return;
        }
        let (lo, hi, lambda) = if to > from {
            (from, to, 1.0)
        } else {
            (to, from, -1.0)
        };
        let (grain, grains) = crate::par::grains_for(data.n());
        for g in 0..grains {
            let mut dh = vec![0.0f64; data.d()];
            let mut cnt = 0;
            for p in g * grain..((g + 1) * grain).min(data.n()) {
                let dist = euclidean(data.row(p), data.row(m));
                if dist > lo && dist <= hi {
                    crate::distance_simd::fold_abs_diff(&mut dh, data.row(p), data.row(m));
                    cnt += 1;
                }
            }
            for (acc, v) in h.iter_mut().zip(&dh) {
                *acc += lambda * v;
            }
            if lambda > 0.0 {
                *lsize += cnt;
            } else {
                *lsize -= cnt;
            }
        }
    }

    /// One pass per iteration advances every row — fresh rows filled in
    /// the same pass, growing shells, shrinking (`λ = −1`) shells and
    /// unchanged radii side by side — to the reference chains' exact
    /// bits, over several grains with a ragged last one, on every tier
    /// and on the pool.
    #[test]
    fn one_pass_advance_matches_per_row_chains_on_every_tier() {
        let rows: Vec<Vec<f32>> = (0..5_003)
            .map(|i| {
                (0..11)
                    .map(|j| ((i * (j + 3) * 7_919) % 1_009) as f32 * 0.01 + (i % 5) as f32)
                    .collect()
            })
            .collect();
        let data = DataMatrix::from_rows(&rows).unwrap();
        let d = data.d();
        let medoids = [17usize, 2_600, 4_999, 5_002];
        // Radii per step (shells of 1–30% of the points): growth,
        // shrinkage and repeats, and a row that joins late (fresh in step
        // 2).
        let steps: [[f32; 4]; 4] = [
            [10.5, 12.0, 14.0, 0.0],
            [12.5, 12.0, 11.0, 0.0],
            [12.5, 14.5, 11.0, 10.2],
            [10.0, 10.1, 16.0, 10.2],
        ];
        let mut execs: Vec<(Option<Tier>, Executor)> = host_tiers()
            .into_iter()
            .map(|t| (Some(t), Executor::Sequential))
            .collect();
        execs.push((None, Executor::Parallel { threads: 2 }));
        for (tier, exec) in execs {
            let run = || {
                let mut cache = DistCache::new(data.n(), d);
                let mut want_h = vec![vec![0.0f64; d]; 4];
                let mut want_l = [0usize; 4];
                let mut prev = [-1.0f32; 4];
                for (s, radii) in steps.iter().enumerate() {
                    let active: Vec<usize> = (0..4).filter(|&i| i != 3 || s >= 2).collect();
                    let ms: Vec<usize> = active.iter().map(|&i| medoids[i]).collect();
                    let (rows, fresh): (Vec<usize>, Vec<bool>) =
                        cache.ensure_rows(&ms).into_iter().unzip();
                    let deltas: Vec<f32> = active.iter().map(|&i| radii[i]).collect();
                    let (x, lsz) = cache.rows.advance(
                        &data,
                        &ms,
                        &rows,
                        &fresh,
                        &deltas,
                        &exec,
                        &proclus_telemetry::NullRecorder,
                    );
                    for (a, &i) in active.iter().enumerate() {
                        let (h, l) = (&mut want_h[i], &mut want_l[i]);
                        reference_advance(&data, medoids[i], prev[i], radii[i], h, l);
                        prev[i] = radii[i];
                        assert_eq!(lsz[a], *l, "{tier:?} step {s} row {i}");
                        for j in 0..d {
                            let want = if *l > 0 { h[j] / *l as f64 } else { 0.0 };
                            assert_eq!(
                                x[a * d + j].to_bits(),
                                want.to_bits(),
                                "{tier:?} step {s} row {i} j {j}"
                            );
                        }
                    }
                }
                assert!(
                    want_l.iter().all(|&l| l > 50),
                    "shells too thin: {want_l:?}"
                );
                for (i, &m) in medoids.iter().enumerate() {
                    let row = cache.rows.dist_row(i);
                    for p in (0..data.n()).step_by(97) {
                        let want = euclidean(data.row(p), data.row(m));
                        assert_eq!(row[p].to_bits(), want.to_bits(), "{tier:?} row {i}");
                    }
                }
            };
            match tier {
                Some(t) => with_tier(t, run),
                None => run(),
            }
        }
    }
}
