//! FAST*-PROCLUS (§3.2): the space-reduced variant. Instead of caching
//! `Dist`/`H` for all `B·k` potential medoids (`O(B·k·n)` space), only the
//! `k` rows of the *current* medoids are kept (`O(k·n)`), and a row is
//! recomputed from scratch whenever its slot's medoid changes (the `MBad`
//! replacements). Because bad-medoid replacement preserves slot positions
//! (see [`crate::phases::bad_medoids::replace_bad_medoids`]), unchanged
//! slots keep their caches from iteration `t − 1`.

use proclus_telemetry::{counters, Recorder};

use crate::dataset::DataMatrix;
use crate::driver::XEngine;
use crate::fast::HRows;
use crate::par::Executor;
use crate::phases::compute_l::medoid_deltas;

/// The FAST*-PROCLUS `X` engine: per-slot caches of size `k`.
pub(crate) struct FastStarEngine {
    /// The medoid (as an index into `M`) each slot's cache belongs to.
    prev_mcur: Vec<Option<usize>>,
    /// One row per slot.
    rows: HRows,
}

impl FastStarEngine {
    pub(crate) fn new(data: &DataMatrix, k: usize) -> Self {
        Self {
            prev_mcur: vec![None; k],
            rows: HRows::new(data.n(), data.d(), k),
        }
    }

    /// Logical bytes held: `k·n` distances + `k·d` sums — a factor `B`
    /// smaller than FAST's cache, the point of the variant.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bytes(&self) -> usize {
        self.rows.bytes()
    }
}

impl XEngine for FastStarEngine {
    fn x_matrix(
        &mut self,
        data: &DataMatrix,
        m_data: &[usize],
        mcur: &[usize],
        exec: &Executor,
        rec: &dyn Recorder,
    ) -> (Vec<f64>, Vec<usize>) {
        let k = mcur.len();
        let medoids: Vec<usize> = mcur.iter().map(|&mi| m_data[mi]).collect();

        // Reset the slots whose medoid changed (the i ∈ MBad of §3.2): clear
        // δ', |L|, H; the pass below refills the distance row. A surviving
        // slot is a cache hit; a reset slot costs n fresh distances.
        let mut reset = vec![false; k];
        for i in 0..k {
            if self.prev_mcur[i] != Some(mcur[i]) {
                self.prev_mcur[i] = Some(mcur[i]);
                self.rows.reset(i);
                reset[i] = true;
                rec.add(counters::DIST_CACHE_MISSES, 1);
                rec.add(counters::DISTANCES_COMPUTED, data.n() as u64);
            } else {
                rec.add(counters::DIST_CACHE_HITS, 1);
            }
        }

        // δ_i from scalar distances between the medoids (bitwise the slot
        // rows' entries), then one pass: refill the reset rows, fold every
        // moved shell.
        let deltas = medoid_deltas(data, &medoids);
        let slots: Vec<usize> = (0..k).collect();
        self.rows
            .advance(data, &medoids, &slots, &reset, &deltas, exec, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algo, Config};
    use crate::error::Result;
    use crate::fast::DistCache;
    use crate::params::Params;
    use crate::result::Clustering;

    fn run_seq(
        algo: Algo,
        data: &DataMatrix,
        params: &Params,
        threads: usize,
    ) -> Result<Clustering> {
        let exec = if threads > 1 {
            Executor::Parallel { threads }
        } else {
            Executor::Sequential
        };
        crate::run_single_on(data, &Config::new(params.clone()).with_algo(algo), &exec)
    }

    fn proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::Baseline, data, params, 1)
    }

    fn fast_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::Fast, data, params, 1)
    }

    fn fast_star_proclus(data: &DataMatrix, params: &Params) -> Result<Clustering> {
        run_seq(Algo::FastStar, data, params, 1)
    }

    fn fast_star_proclus_par(
        data: &DataMatrix,
        params: &Params,
        threads: usize,
    ) -> Result<Clustering> {
        run_seq(Algo::FastStar, data, params, threads)
    }

    fn blob_data(n: usize) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = (i % 4) as f32 * 25.0;
                vec![
                    c + ((i * 3) % 13) as f32 * 0.1,
                    c + ((i * 5) % 11) as f32 * 0.1,
                    ((i * 7) % 100) as f32,
                ]
            })
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn fast_star_equals_baseline_and_fast_seed_for_seed() {
        let data = blob_data(400);
        let params = Params::new(4, 2).with_a(25).with_b(5).with_seed(19);
        let base = proclus(&data, &params).unwrap();
        let fast = fast_proclus(&data, &params).unwrap();
        let star = fast_star_proclus(&data, &params).unwrap();
        assert_eq!(base.medoids, star.medoids);
        assert_eq!(base.labels, star.labels);
        assert_eq!(fast.subspaces, star.subspaces);
        assert!((base.cost - star.cost).abs() < 1e-9);
    }

    #[test]
    fn fast_star_par_equals_seq() {
        let data = blob_data(400);
        let params = Params::new(3, 2).with_a(25).with_b(5).with_seed(23);
        let seq = fast_star_proclus(&data, &params).unwrap();
        let par = fast_star_proclus_par(&data, &params, 4).unwrap();
        assert_eq!(seq.medoids, par.medoids);
        assert_eq!(seq.labels, par.labels);
    }

    #[test]
    fn space_is_a_factor_b_smaller_than_fast() {
        let data = blob_data(500);
        let k = 4;
        let b = 5;
        let star = FastStarEngine::new(&data, k);
        // Simulate a fully-populated FAST cache: B·k rows.
        let mut cache = DistCache::new(data.n(), data.d());
        for m in 0..k * b {
            cache.ensure_rows(&[m * 7]);
        }
        let ratio = cache.bytes() as f64 / star.bytes() as f64;
        assert!(
            (ratio - b as f64).abs() < 0.5,
            "expected ~{b}x space ratio, got {ratio:.2}"
        );
    }

    #[test]
    fn slot_reuse_survives_unchanged_medoids() {
        // Drive the engine manually: same mcur twice must not reset slots
        // (prev_delta persists), while a changed slot resets.
        let data = blob_data(200);
        let exec = Executor::Sequential;
        let m_data: Vec<usize> = (0..20).map(|i| i * 10).collect();
        let rec = proclus_telemetry::NullRecorder;
        let mut engine = FastStarEngine::new(&data, 3);
        let mcur = vec![1usize, 5, 9];
        let _ = engine.x_matrix(&data, &m_data, &mcur, &exec, &rec);
        let deltas_after_first = engine.rows.prev_delta.clone();
        assert!(deltas_after_first.iter().any(|&d| d > 0.0));
        let _ = engine.x_matrix(&data, &m_data, &mcur, &exec, &rec);
        assert_eq!(engine.rows.prev_delta, deltas_after_first);

        let mcur2 = vec![1usize, 7, 9]; // slot 1 replaced
        let _ = engine.x_matrix(&data, &m_data, &mcur2, &exec, &rec);
        assert_eq!(engine.prev_mcur[1], Some(7));
    }
}
