//! Scalar vs vectorized distance-kernel harness: the one wall-clock gate.
//!
//! Measures the two row kernels the hot path actually runs — one `Dist`
//! row against all `n` points (`proclus::distance_simd::euclidean_strip`
//! vs the scalar `euclidean` loop) and a `Bk`-row batch against
//! cache-block column strips (`dist_rows_strip` vs `Bk` scalar sweeps) —
//! across the grid n ∈ {64k, 512k} × d ∈ {8, 32, 128} (`--quick`: 64k ×
//! {8, 32}). Every repetition cross-checks the vectorized outputs
//! bitwise against the scalar kernel (lanes are independent accumulator
//! chains, so vectorization must not move a single bit). The harness then
//! checks its floors ([`check`]) and exits 1 when one fails: every combo
//! bitwise-equal, no ratio under 0.8, and a best ratio of at least 2.0
//! and at least half the full grid's 5.374×.
//!
//! Timing ratios are wall-clock and therefore machine-*dependent* in
//! absolute terms; what is machine-independent is their structure: the
//! 8 independent f64 chains per lane group beat one chain per point on
//! any hardware with more than one FP pipe. Run it in release.

use std::time::Instant;

use proclus::distance::euclidean;
use proclus::distance_simd::{dist_rows_strip, euclidean_strip};
use proclus_bench::Options;

/// The vectorization floor: the best combo's row-kernel ratio (single-row
/// or batched) must reach 2.0× over scalar.
const BEST_RATIO_FLOOR: f64 = 2.0;
/// No combo's ratio may fall under 0.8: the strip must never be
/// materially slower than the loop it replaced (0.8 tolerates cache-size
/// edge combos).
const COMBO_RATIO_FLOOR: f64 = 0.8;
/// The best ratio of the full grid when the floors were set (n 64,000,
/// d 8, batched). Ratios are noisy across machines, so only a best ratio
/// under half of it counts as a collapse.
const BASELINE_BEST_RATIO: f64 = 5.374031301466056;

/// Medoid rows in the batched kernel — the paper's `Bk` replacement pool.
const BATCH_ROWS: usize = 10;

struct Combo {
    n: usize,
    d: usize,
}

struct Measured {
    n: usize,
    d: usize,
    scalar_ms: f64,
    simd_ms: f64,
    batch_scalar_ms: f64,
    batch_simd_ms: f64,
    bitwise_equal: bool,
}

fn combos(quick: bool) -> Vec<Combo> {
    let (ns, ds): (&[usize], &[usize]) = if quick {
        (&[64_000], &[8, 32])
    } else {
        (&[64_000, 512_000], &[8, 32, 128])
    };
    let mut out = Vec::new();
    for &n in ns {
        for &d in ds {
            out.push(Combo { n, d });
        }
    }
    out
}

/// Deterministic dataset fill — a Weyl sequence, cheap enough that data
/// generation never dominates the harness at n = 512k × d = 128.
fn fill(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n * d)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            ((state >> 40) as f32) / 65_536.0
        })
        .collect()
}

/// Minimum wall-clock milliseconds of `f` over `reps` runs (minimum, not
/// mean: the ratio gate wants the kernels' speed, not the scheduler's
/// noise).
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn measure(c: &Combo, reps: usize, seed: u64) -> Measured {
    let (n, d) = (c.n, c.d);
    let flat = fill(n, d, seed ^ (n as u64) ^ ((d as u64) << 32));
    let medoids: Vec<usize> = (0..BATCH_ROWS).map(|i| (i * n) / BATCH_ROWS).collect();
    let m_row: Vec<f32> = flat[medoids[0] * d..(medoids[0] + 1) * d].to_vec();

    // Single-row kernel: scalar baseline, then the 8-lane strip.
    let mut scalar_out = vec![0.0f32; n];
    let scalar_ms = best_ms(reps, || {
        for p in 0..n {
            scalar_out[p] = euclidean(&flat[p * d..(p + 1) * d], &m_row);
        }
    });
    let mut simd_out = vec![0.0f32; n];
    let simd_ms = best_ms(reps, || {
        euclidean_strip(&flat, d, &m_row, &mut simd_out);
    });
    let mut bitwise_equal = scalar_out
        .iter()
        .zip(&simd_out)
        .all(|(a, b)| a.to_bits() == b.to_bits());

    // Batched kernel: Bk rows, scalar sweeps vs cache-blocked strips.
    let m_rows: Vec<&[f32]> = medoids.iter().map(|&m| &flat[m * d..(m + 1) * d]).collect();
    let mut batch_scalar = vec![0.0f32; BATCH_ROWS * n];
    let batch_scalar_ms = best_ms(reps, || {
        for (i, m_row) in m_rows.iter().enumerate() {
            for p in 0..n {
                batch_scalar[i * n + p] = euclidean(&flat[p * d..(p + 1) * d], m_row);
            }
        }
    });
    let mut batch_simd = vec![0.0f32; BATCH_ROWS * n];
    let batch_simd_ms = best_ms(reps, || {
        let mut outs: Vec<&mut [f32]> = batch_simd.chunks_mut(n).collect();
        dist_rows_strip(&flat, d, &m_rows, &mut outs);
    });
    bitwise_equal &= batch_scalar
        .iter()
        .zip(&batch_simd)
        .all(|(a, b)| a.to_bits() == b.to_bits());

    Measured {
        n,
        d,
        scalar_ms,
        simd_ms,
        batch_scalar_ms,
        batch_simd_ms,
        bitwise_equal,
    }
}

impl Measured {
    /// Single-row kernel: scalar time over vectorized time.
    fn ratio(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }

    /// Batched kernel: scalar time over vectorized time.
    fn batch_ratio(&self) -> f64 {
        self.batch_scalar_ms / self.batch_simd_ms
    }
}

/// Every floor the measured combos break, one message each; empty when
/// all hold. A NaN ratio breaks its floor.
fn check(combos: &[Measured]) -> Vec<String> {
    let mut failures = Vec::new();
    for m in combos {
        if !m.bitwise_equal {
            failures.push(format!(
                "n={} d={}: vectorized output is not bitwise-equal to scalar",
                m.n, m.d
            ));
        }
        for (name, ratio) in [("ratio", m.ratio()), ("batch_ratio", m.batch_ratio())] {
            if ratio.is_nan() || ratio < COMBO_RATIO_FLOOR {
                failures.push(format!(
                    "n={} d={}: {name} {ratio:.2}x below the per-combo \
                     {COMBO_RATIO_FLOOR}x floor",
                    m.n, m.d
                ));
            }
        }
    }
    let best = combos
        .iter()
        .map(|m| m.ratio().max(m.batch_ratio()))
        .fold(f64::NAN, f64::max);
    if best.is_nan() || best < BEST_RATIO_FLOOR {
        failures.push(format!(
            "best row-kernel ratio {best:.2}x below the {BEST_RATIO_FLOOR}x vectorization floor"
        ));
    } else if best < BASELINE_BEST_RATIO * 0.5 {
        failures.push(format!(
            "best row-kernel ratio {best:.2}x collapsed below half the baseline's \
             {BASELINE_BEST_RATIO:.2}x"
        ));
    }
    failures
}

fn main() {
    let opts = Options::from_args();
    let grid = combos(opts.quick);
    println!(
        "distance_bench: {} combos, reps={}{}",
        grid.len(),
        opts.reps,
        if opts.quick { " (quick)" } else { "" }
    );
    println!(
        "{:<9} {:>5} {:>11} {:>9} {:>7} {:>11} {:>9} {:>7}  bitwise",
        "n", "d", "scalar_ms", "simd_ms", "ratio", "batch_sc", "batch_v", "ratio"
    );

    let mut rows = Vec::new();
    for c in &grid {
        let m = measure(c, opts.reps, opts.seed);
        println!(
            "{:<9} {:>5} {:>11.2} {:>9.2} {:>6.2}x {:>11.2} {:>9.2} {:>6.2}x  {}",
            m.n,
            m.d,
            m.scalar_ms,
            m.simd_ms,
            m.ratio(),
            m.batch_scalar_ms,
            m.batch_simd_ms,
            m.batch_ratio(),
            if m.bitwise_equal { "ok" } else { "DIVERGED" }
        );
        rows.push(m);
    }

    let failures = check(&rows);
    if failures.is_empty() {
        println!("\nall distance floors hold");
    } else {
        for f in &failures {
            eprintln!("distance_bench: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two combos with the given ratios: scalar 10 ms single-row and
    /// 100 ms batched, vectorized times derived from the ratios.
    fn combos_with(ratio: f64, batch_ratio: f64, bitwise_equal: bool) -> Vec<Measured> {
        [8, 32]
            .map(|d| Measured {
                n: 64_000,
                d,
                scalar_ms: 10.0,
                simd_ms: 10.0 / ratio,
                batch_scalar_ms: 100.0,
                batch_simd_ms: 100.0 / batch_ratio,
                bitwise_equal,
            })
            .into()
    }

    fn fails_with(combos: &[Measured], needle: &str) -> bool {
        check(combos).iter().any(|f| f.contains(needle))
    }

    #[test]
    fn best_ratio_floor_passes_and_fails() {
        assert!(check(&combos_with(2.1, 2.8, true)).is_empty());
        assert!(fails_with(
            &combos_with(1.4, 1.8, true),
            "vectorization floor"
        ));
    }

    #[test]
    fn bitwise_divergence_fails() {
        assert!(fails_with(
            &combos_with(2.5, 3.0, false),
            "not bitwise-equal"
        ));
    }

    #[test]
    fn combo_slower_than_scalar_fails() {
        assert!(fails_with(&combos_with(0.6, 3.0, true), "per-combo"));
    }

    #[test]
    fn collapse_below_half_of_baseline_fails() {
        // 2.1x clears the absolute floor but is under half the baseline's.
        assert!(fails_with(&combos_with(2.1, 2.1, true), "collapsed"));
        assert!(check(&combos_with(2.1, 2.7, true)).is_empty());
    }
}
