//! The streaming re-clustering driver: the medoid-search loop of Alg. 1
//! executed against the cross-epoch row cache of [`crate::cache`].
//!
//! Structure mirrors the core driver's `run_core` phase for phase —
//! iterate (ComputeL → FindDimensions → AssignPoints → EvaluateClusters →
//! bad-medoid replacement) then refine — with two substitutions that
//! exploit the live dataset:
//!
//! 1. **ComputeL** folds the epoch-local `H` sums forward from cached
//!    per-medoid distance rows (the point-delta generalization of
//!    Theorems 3.1/3.2: `ΔL_i` between consecutive radii is found by
//!    scanning the cached row, all moved rows in one sweep, and appended
//!    points are patched into the row first). A cached row costs only its listed holes; only
//!    genuinely new medoids pay a full `n`-distance row, all of an
//!    iteration's in one [`Backend::dist_rows`] call.
//! 2. **Initialization** replaces the seeded random sample and RNG-driven
//!    first pick with append-stable hashes (see [`crate::dataset`]), so
//!    the greedy candidates barely move under small delta batches. The
//!    RNG is consumed only by the medoid draws (`MCur`, replacements),
//!    whose sequence is therefore identical between an incremental and a
//!    from-scratch run.
//!
//! AssignPoints, EvaluateClusters and outlier removal run through the
//! backend exactly as `run_core` runs them: one [`Backend::assign`] sweep
//! labels every point under the host-picked subspaces.
//!
//! Every value that feeds a decision — distance rows, `H`, `X`, `Z`,
//! cost — is either a cached pure per-point value or folded fresh this
//! epoch in canonical position order, so the driver's output is a pure
//! function of (live points, params, seed): an incremental re-clustering
//! is *bitwise equal* to a from-scratch one, and the cache only decides
//! how many distances are recomputed.

use std::collections::HashMap;

use proclus::backend::Backend;
use proclus::distance_simd::fold_shells;
use proclus::fast::Shell;
use proclus::params::Params;
use proclus::phases::bad_medoids::{compute_bad_medoids, replace_bad_medoids};
use proclus::phases::find_dimensions::find_dimensions;
use proclus::result::Clustering;
use proclus::{CancelToken, ProclusError, ProclusRng, Result};
use proclus_telemetry::{attrs, counters, span, Recorder};

use crate::cache::RowStore;
use crate::dataset::{first_pick_priority, StreamDataset};

/// Work accounted by one re-clustering, mirrored into the telemetry
/// counters and reported back for the bench-gate ratio.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    /// Full-dimensional euclidean distances computed (greedy + row fills).
    pub distances: u64,
    /// Manhattan segmental distances computed: `n·k` per AssignPoints
    /// call and per outlier removal.
    pub segmental: u64,
    /// Medoid rows served from the cross-epoch cache.
    pub dist_cache_hits: u64,
    /// Medoid rows built from scratch.
    pub dist_cache_misses: u64,
    /// Points folded through `ΔL` updates.
    pub delta_l_points: u64,
    /// Iterative-phase iterations executed.
    pub iterations: u64,
    /// Bad medoids replaced.
    pub medoids_replaced: u64,
}

/// Epoch-local `H` state for one medoid: per-dimension Manhattan sums over
/// the sphere, advanced between radii by `ΔL` folds over the cached row.
struct EpochH {
    h: Vec<f64>,
    lsize: usize,
    /// Radius at the last fold (−1 sentinel: nothing accumulated yet).
    prev_delta: f32,
}

/// Position of a live pid, as a driver-level invariant.
fn pos_of(ds: &StreamDataset, pid: u64) -> Result<usize> {
    ds.pos_of(pid).ok_or(ProclusError::InvalidData {
        reason: format!("pid {pid} vanished mid-epoch"),
    })
}

/// Opens a phase span and annotates it with the simulated device time the
/// phase consumed (backends without a clock get no annotation).
fn phase<T, B: Backend + ?Sized>(
    backend: &mut B,
    rec: &dyn Recorder,
    name: &'static str,
    f: impl FnOnce(&mut B) -> Result<T>,
) -> Result<T> {
    let g = span(rec, name);
    let t0 = backend.clock_us();
    let out = f(backend)?;
    if let (Some(a), Some(b)) = (t0, backend.clock_us()) {
        rec.annotate(g.id(), attrs::SIM_US, b - a);
    }
    Ok(out)
}

/// The greedy farthest-point pass over the priority sample, driven through
/// [`Backend::dist_subset`] so each step costs exactly `|S|` distances.
/// The first pick is the sample member with the smallest
/// [`first_pick_priority`]; every later pick maximizes the min-distance to
/// the picked set, ties to the lowest pid — both rules are stable under
/// small delta batches, unlike index-based draws.
fn greedy_stream<B: Backend + ?Sized>(
    ds: &StreamDataset,
    backend: &mut B,
    sample: &[u64],
    count: usize,
    seed: u64,
    costs: &mut Costs,
    rec: &dyn Recorder,
) -> Result<Vec<u64>> {
    let g = span(rec, "stream.greedy");
    let t0 = backend.clock_us();
    let sample_pos: Vec<usize> = sample
        .iter()
        .map(|&pid| pos_of(ds, pid))
        .collect::<Result<_>>()?;

    let mut first = 0usize;
    for (c, &pid) in sample.iter().enumerate() {
        let key = (first_pick_priority(seed, pid), pid);
        if c == 0 || key < (first_pick_priority(seed, sample[first]), sample[first]) {
            first = c;
        }
    }
    let mut picked: Vec<u64> = Vec::with_capacity(count);
    let mut mind = vec![f32::INFINITY; sample.len()];
    picked.push(sample[first]);
    mind[first] = f32::NEG_INFINITY;

    for _ in 1..count {
        let last = picked[picked.len() - 1];
        let dists = backend.dist_subset(pos_of(ds, last)?, &sample_pos, rec)?;
        // A NaN from the backend would fail `<` below and freeze `mind`.
        proclus::distance_simd::debug_assert_finite(&dists, "stream greedy: dist_subset");
        costs.distances += sample.len() as u64;
        rec.add(counters::DISTANCES_COMPUTED, sample.len() as u64);
        let mut best = 0usize;
        let mut have = false;
        for (c, &pid) in sample.iter().enumerate() {
            if dists[c] < mind[c] {
                mind[c] = dists[c];
            }
            if mind[c] == f32::NEG_INFINITY {
                continue;
            }
            if !have || mind[c] > mind[best] || (mind[c] == mind[best] && pid < sample[best]) {
                best = c;
                have = true;
            }
        }
        if !have {
            break; // sample exhausted: |S| < count
        }
        picked.push(sample[best]);
        mind[best] = f32::NEG_INFINITY;
    }
    if let (Some(a), Some(b)) = (t0, backend.clock_us()) {
        rec.annotate(g.id(), attrs::SIM_US, b - a);
    }
    Ok(picked)
}

/// ComputeL over the row store: completes every current medoid's distance
/// row first — a cached row fills its listed holes, and all of the
/// iteration's misses are built in one [`Backend::dist_rows`] call — then
/// derives the sphere radii from the rows themselves, folds every moved
/// shell into the epoch-local `H` in one sweep over the positions, and
/// assembles the `k × d` decision matrix `X`.
#[allow(clippy::too_many_arguments)]
fn compute_x_stream<B: Backend + ?Sized>(
    ds: &StreamDataset,
    store: &mut RowStore,
    epoch_h: &mut HashMap<u64, EpochH>,
    backend: &mut B,
    medoid_pids: &[u64],
    costs: &mut Costs,
    rec: &dyn Recorder,
) -> Result<Vec<f64>> {
    let (d, k) = (ds.d(), medoid_pids.len());
    let med_pos: Vec<usize> = medoid_pids
        .iter()
        .map(|&pid| pos_of(ds, pid))
        .collect::<Result<_>>()?;
    let mut fills = Vec::with_capacity(k);
    let (mut missed, mut missed_pos) = (Vec::new(), Vec::new());
    for (&pid, &m_pos) in medoid_pids.iter().zip(&med_pos) {
        match store.fill_holes(pid, |holes| backend.dist_subset(m_pos, holes, rec))? {
            Some(fill) => fills.push(fill),
            None => {
                missed.push(pid);
                missed_pos.push(m_pos);
            }
        }
    }
    if !missed.is_empty() {
        let rows = backend.dist_rows(&missed_pos, rec)?;
        for (&pid, row) in missed.iter().zip(rows) {
            fills.push(store.insert_row(pid, row));
        }
    }
    for fill in &fills {
        costs.distances += fill.computed;
        rec.add(counters::DISTANCES_COMPUTED, fill.computed);
        if fill.miss {
            costs.dist_cache_misses += 1;
            rec.add(counters::DIST_CACHE_MISSES, 1);
        } else {
            costs.dist_cache_hits += 1;
            rec.add(counters::DIST_CACHE_HITS, 1);
        }
    }

    // δ_i: nearest other medoid, read straight off each medoid's row. Then
    // one sweep over all positions folds every moved shell — the FAST
    // engines' membership rule and `λ = ±1` signing, one chain per row in
    // ascending position order, so every run folds identically.
    let mut rows: Vec<&[f32]> = Vec::with_capacity(k);
    let mut deltas = Vec::with_capacity(k);
    for (i, &pid) in medoid_pids.iter().enumerate() {
        let row = store.row(pid).ok_or(ProclusError::InvalidData {
            reason: format!("distance row of medoid pid {pid} missing after its fill"),
        })?;
        // A leftover NaN hole would fail both shell bounds and silently
        // drop its point from the sphere forever.
        proclus::distance_simd::debug_assert_finite(row, "compute_x_stream δ-scan");
        let mut delta = f32::INFINITY;
        for (j, &p) in med_pos.iter().enumerate() {
            if j != i && row[p] < delta {
                delta = row[p];
            }
        }
        rows.push(row);
        deltas.push(delta);
    }
    let mut sums: Vec<EpochH> = medoid_pids
        .iter()
        .map(|pid| {
            epoch_h.remove(pid).unwrap_or_else(|| EpochH {
                h: vec![0.0f64; d],
                lsize: 0,
                prev_delta: -1.0,
            })
        })
        .collect();
    let moved: Vec<(usize, Shell)> = (0..k)
        .filter_map(|i| Shell::between(sums[i].prev_delta, deltas[i]).map(|s| (i, s)))
        .collect();
    let shells: Vec<_> = moved
        .iter()
        .map(|&(i, shell)| shell.row(rows[i], ds.row(med_pos[i])))
        .collect();
    let mut dh = vec![0.0f64; moved.len() * d];
    let mut cnt = vec![0usize; moved.len()];
    fold_shells(ds.flat(), d, 0, &shells, &mut dh, &mut cnt);
    let mut folded = vec![0usize; k];
    for (j, &(i, shell)) in moved.iter().enumerate() {
        let eh = &mut sums[i];
        shell.apply(&mut eh.h, &mut eh.lsize, &dh[j * d..(j + 1) * d], cnt[j]);
        folded[i] = cnt[j];
    }

    let mut x = vec![0.0f64; k * d];
    for (i, (&pid, mut eh)) in medoid_pids.iter().zip(sums).enumerate() {
        costs.delta_l_points += folded[i] as u64;
        rec.add(counters::DELTA_L_POINTS, folded[i] as u64);
        if eh.lsize > 0 {
            for j in 0..d {
                x[i * d + j] = eh.h[j] / eh.lsize as f64;
            }
        }
        eh.prev_delta = deltas[i];
        epoch_h.insert(pid, eh);
    }
    Ok(x)
}

/// AssignPoints through [`Backend::assign`], as the batch driver runs it:
/// every point against every medoid. Returns the cluster sizes; the labels
/// stay in the backend.
pub(crate) fn assign_stream<B: Backend + ?Sized>(
    ds: &StreamDataset,
    backend: &mut B,
    medoid_pids: &[u64],
    dims: &[Vec<usize>],
    costs: &mut Costs,
    rec: &dyn Recorder,
) -> Result<Vec<usize>> {
    let med_pos: Vec<usize> = medoid_pids
        .iter()
        .map(|&pid| pos_of(ds, pid))
        .collect::<Result<_>>()?;
    let segmental = (ds.n() * medoid_pids.len()) as u64;
    costs.segmental += segmental;
    rec.add(counters::SEGMENTAL_DISTANCES, segmental);
    backend.assign(&med_pos, dims, rec)
}

/// One full streaming re-clustering epoch: greedy candidates over the
/// priority sample, the iterative medoid search, then refinement. Returns
/// the clustering (addressed by current positions), the medoid pids, and
/// the work accounting. The result is a pure function of (live points,
/// `params`, seed) — see the module docs.
pub(crate) fn run_stream_core<B: Backend + ?Sized>(
    ds: &StreamDataset,
    store: &mut RowStore,
    backend: &mut B,
    params: &Params,
    rec: &dyn Recorder,
    cancel: &CancelToken,
) -> Result<(Clustering, Vec<u64>, Costs)> {
    let mut costs = Costs::default();
    let n = ds.n();
    let d = ds.d();
    let k = params.k;

    {
        let _g = span(rec, "stream.reconcile");
        store.reconcile(ds.pids());
    }

    let mut rng = ProclusRng::new(params.seed);
    let sample = ds.sample(params.sample_size(n));
    let m_pids = greedy_stream(
        ds,
        backend,
        &sample,
        params.num_potential_medoids(n),
        params.seed,
        &mut costs,
        rec,
    )?;
    let m_len = m_pids.len();

    let mut epoch_h: HashMap<u64, EpochH> = HashMap::new();
    let mut mcur = rng.sample_distinct(m_len, k);
    let mut best_cost = f64::INFINITY;
    let mut best_mcur = mcur.clone();
    let mut best_sizes: Vec<usize> = Vec::new();
    let mut itr = 0usize;
    let mut total = 0usize;
    let mut converged = false;
    let mut prev_labels: Option<Vec<i32>> = None;

    loop {
        cancel.check()?;
        let iter_span = span(rec, "stream.iteration");
        let medoid_pids: Vec<u64> = mcur.iter().map(|&mi| m_pids[mi]).collect();

        let x = {
            let _g = span(rec, "stream.compute_l");
            compute_x_stream(
                ds,
                store,
                &mut epoch_h,
                backend,
                &medoid_pids,
                &mut costs,
                rec,
            )?
        };
        let dims = {
            let _g = span(rec, "stream.find_dimensions");
            find_dimensions(&x[..k * d], k, d, params.l)
        };
        let sizes = {
            let _g = span(rec, "stream.assign");
            assign_stream(ds, backend, &medoid_pids, &dims, &mut costs, rec)?
        };
        let cost = phase(backend, rec, "stream.evaluate", |b| {
            b.evaluate(&dims, &sizes, rec)
        })?;
        total += 1;
        costs.iterations += 1;
        rec.add(counters::ITERATIONS, 1);

        // Label churn: a backend readback only happens when telemetry is
        // on, as in the batch driver.
        if rec.enabled() {
            let labels = backend.labels()?;
            let changed = match &prev_labels {
                None => n as u64,
                Some(prev) => prev.iter().zip(&labels).filter(|(a, b)| a != b).count() as u64,
            };
            rec.add(counters::POINTS_REASSIGNED, changed);
            prev_labels = Some(labels);
        }

        if cost < best_cost {
            best_cost = cost;
            best_mcur = mcur.clone();
            best_sizes = sizes;
            backend.save_best()?;
            itr = 0;
        } else {
            itr += 1;
        }

        if itr >= params.itr_pat {
            converged = true;
            break;
        }
        if total >= params.max_total_iterations {
            break;
        }

        let g = span(rec, "stream.bad_medoids");
        let bad = compute_bad_medoids(&best_sizes, n, params.min_dev, params.bad_medoid_rule);
        costs.medoids_replaced += bad.len() as u64;
        rec.add(counters::MEDOIDS_REPLACED, bad.len() as u64);
        mcur = replace_bad_medoids(&best_mcur, &bad, m_len, &mut rng);
        drop(g);
        drop(iter_span);
    }

    // Refinement (Alg. 1 lines 15–19): L ← CBest, through the backend's
    // own best-label path exactly as the batch driver does.
    cancel.check()?;
    let refine_span = span(rec, "stream.refinement");
    let best_pids: Vec<u64> = best_mcur.iter().map(|&mi| m_pids[mi]).collect();
    let med_pos: Vec<usize> = best_pids
        .iter()
        .map(|&pid| pos_of(ds, pid))
        .collect::<Result<_>>()?;

    phase(backend, rec, "stream.compute_l", |b| {
        b.x_from_best(&med_pos, rec)
    })?;
    let dims = phase(backend, rec, "stream.find_dimensions", |b| {
        b.find_dims(k, params.l, rec)
    })?;
    // The assign that follows `x_from_best` is the refinement's: the CPU
    // backend marks the outliers in its sweep and `remove_outliers`
    // applies the marks (DESIGN.md §12.1).
    let sizes = {
        let _g = span(rec, "stream.assign");
        assign_stream(ds, backend, &best_pids, &dims, &mut costs, rec)?
    };
    let refined_cost = phase(backend, rec, "stream.evaluate", |b| {
        b.evaluate(&dims, &sizes, rec)
    })?;
    phase(backend, rec, "stream.remove_outliers", |b| {
        costs.segmental += (n * k) as u64;
        rec.add(counters::SEGMENTAL_DISTANCES, (n * k) as u64);
        b.remove_outliers(&med_pos, &dims, rec)
    })?;
    let labels = backend.labels()?;
    drop(refine_span);

    Ok((
        Clustering {
            medoids: med_pos,
            subspaces: dims,
            labels,
            cost: best_cost,
            refined_cost,
            iterations: total,
            converged,
        },
        best_pids,
        costs,
    ))
}
