//! The cross-epoch cache: per-medoid distance rows.
//!
//! The only values this crate carries across re-clusterings are *per-point
//! euclidean distances* (one f32 per (medoid, point) pair) — pure
//! functions of individual points, never running sums. Sums (`H`, `X`,
//! cost) are folded fresh each epoch from the cached rows in canonical
//! position order, so an incremental re-clustering and a from-scratch one
//! execute bit-identical arithmetic; the cache only changes *which
//! distances are recomputed*, not any float's value. That is the exactness
//! argument of DESIGN.md §13.
//!
//! The rows are indexed by position and anchored to one pid-by-position
//! array, held by the [`RowStore`]. At the start of each epoch
//! [`RowStore::reconcile`] compares that array with the dataset's current
//! one in a single O(n) scan, resolves only the positions that differ into
//! a change list, and patches every cached row in place in O(churn).
//! Columns of appended points become NaN holes in the rows — filled
//! lazily, paying `O(batch)` distances per *used* row instead of `O(n)`
//! per medoid.
//!
//! Each row also lists its holes, kept current by the same patch in
//! O(pending + churn), so filling a row costs O(holes): the fill touches
//! exactly the listed positions and never scans the row for NaNs, however
//! many epochs the row sat idle.

use std::collections::HashMap;

/// How one epoch's positions map onto the next: the change list every
/// cached row applies at epoch start.
///
/// Built from one scan of the stored pid-by-position array against the
/// current one. A pid at an unchanged position is live and did not move,
/// so every moved pid came from a changed position and every retired pid
/// sat at one: only the pids at differing positions are hashed.
#[derive(Debug, Default)]
struct ColumnChanges {
    /// Position count after the change.
    n: usize,
    /// `(new position, old position)` of every surviving pid that moved.
    moved: Vec<(usize, usize)>,
    /// Positions below the old count that now hold a new pid. New pids
    /// past the old count become holes by growth.
    holes: Vec<usize>,
    /// Pids present before and gone now.
    retired: Vec<u64>,
}

impl ColumnChanges {
    /// The change list from the `old` to the `new` pid-by-position array
    /// (each free of duplicates).
    fn between(old: &[u64], new: &[u64]) -> Self {
        let common = old.len().min(new.len());
        // Old position of every pid that left its position.
        let mut from: HashMap<u64, usize> = HashMap::new();
        let mut changed = Vec::new();
        for (q, (&was, &now)) in old.iter().zip(new).enumerate() {
            if was != now {
                from.insert(was, q);
                changed.push(q);
            }
        }
        for (q, &pid) in old.iter().enumerate().skip(common) {
            from.insert(pid, q);
        }
        let mut out = Self {
            n: new.len(),
            ..Self::default()
        };
        for q in changed {
            match from.remove(&new[q]) {
                Some(o) => out.moved.push((q, o)),
                None => out.holes.push(q),
            }
        }
        if !from.is_empty() {
            for (q, pid) in new.iter().enumerate().skip(common) {
                if let Some(o) = from.remove(pid) {
                    out.moved.push((q, o));
                }
            }
        }
        out.retired = from.into_keys().collect();
        out
    }

    /// Re-anchors one position-indexed vector of the old length: moved
    /// values follow their pid, the vector takes the new length, and the
    /// slots of new pids read `hole`.
    fn apply<T: Copy>(&self, col: &mut Vec<T>, hole: T) {
        let vals: Vec<T> = self.moved.iter().map(|&(_, from)| col[from]).collect();
        col.resize(self.n, hole);
        for (&(to, _), v) in self.moved.iter().zip(vals) {
            col[to] = v;
        }
        for &q in &self.holes {
            col[q] = hole;
        }
    }

    /// Re-anchors one cached row and its hole list. A NaN after the patch
    /// sits at a pending hole that stayed put, at a punched hole, at a
    /// grown position or at a move target (a hole that moved), so only
    /// those candidates are checked: O(pending + churn), never O(n).
    fn apply_row(&self, row: &mut RowEntry) {
        let old_n = row.dist.len();
        self.apply(&mut row.dist, f32::NAN);
        let holes = &mut row.holes;
        holes.extend_from_slice(&self.holes);
        holes.extend(old_n..self.n);
        holes.extend(self.moved.iter().map(|&(to, _)| to));
        holes.retain(|&q| row.dist.get(q).is_some_and(|v| v.is_nan()));
        holes.sort_unstable();
        holes.dedup();
    }
}

/// One cached medoid row: euclidean distances to every point, in position
/// order. `NaN` marks a hole (a point appended after the row was filled).
struct RowEntry {
    dist: Vec<f32>,
    /// The positions of every hole in `dist`, ascending.
    holes: Vec<usize>,
    last_used_epoch: u64,
}

/// Per-medoid distance rows carried across re-clusterings.
pub struct RowStore {
    rows: HashMap<u64, RowEntry>,
    /// pid of the point each column currently refers to.
    cache_pids: Vec<u64>,
    epoch: u64,
    /// Rows untouched for this many epochs are dropped at reconcile.
    max_idle_epochs: u64,
}

/// What [`RowStore::fill_holes`] or [`RowStore::insert_row`] had to do for
/// a medoid row this epoch.
pub struct RowFill {
    /// Euclidean distances actually computed (0 on a clean hit).
    pub computed: u64,
    /// True if the row had to be built from scratch.
    pub miss: bool,
}

impl RowStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            rows: HashMap::new(),
            cache_pids: Vec::new(),
            epoch: 0,
            max_idle_epochs: 3,
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are cached.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drops every cached row (escalation to a cold re-clustering).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cache_pids.clear();
    }

    /// Starts an epoch: re-anchors the store from its stored pid order to
    /// `pids_now`. Rows of retired medoids and rows idle past the
    /// retention horizon are dropped; every surviving row is patched in
    /// place, with listed NaN holes for new pids.
    pub fn reconcile(&mut self, pids_now: &[u64]) {
        self.epoch += 1;
        let (epoch, idle) = (self.epoch, self.max_idle_epochs);
        let changes = ColumnChanges::between(&self.cache_pids, pids_now);
        for pid in &changes.retired {
            self.rows.remove(pid);
        }
        self.rows
            .retain(|_, row| epoch - row.last_used_epoch <= idle);
        for row in self.rows.values_mut() {
            changes.apply_row(row);
        }
        self.cache_pids.clear();
        self.cache_pids.extend_from_slice(pids_now);
    }

    /// Completes medoid `pid`'s cached row by filling exactly its listed
    /// holes through `compute(positions) -> distances` (positions
    /// ascending, one euclidean distance each). Returns `None`, computing
    /// nothing, when no row is cached: build it with
    /// [`RowStore::insert_row`].
    pub fn fill_holes<E>(
        &mut self,
        pid: u64,
        compute: impl FnOnce(&[usize]) -> Result<Vec<f32>, E>,
    ) -> Result<Option<RowFill>, E> {
        let Some(row) = self.rows.get_mut(&pid) else {
            return Ok(None);
        };
        let computed = row.holes.len() as u64;
        if !row.holes.is_empty() {
            let filled = compute(&row.holes)?;
            debug_assert_eq!(filled.len(), row.holes.len(), "one distance per hole");
            for (&q, &v) in row.holes.iter().zip(&filled) {
                row.dist[q] = v;
            }
            row.holes.clear();
        }
        // NaN doubles as the hole sentinel: a NaN *returned by the fill*
        // would survive as a permanent hole whose `dist < delta`
        // comparisons are silently false. Catch it at the fill boundary
        // (debug builds only).
        proclus::distance_simd::debug_assert_finite(&row.dist, "RowStore::fill_holes");
        row.last_used_epoch = self.epoch;
        Ok(Some(RowFill {
            computed,
            miss: false,
        }))
    }

    /// Caches a freshly built row for medoid `pid`: its euclidean
    /// distances to every current position, in position order.
    pub fn insert_row(&mut self, pid: u64, dist: Vec<f32>) -> RowFill {
        debug_assert_eq!(
            dist.len(),
            self.cache_pids.len(),
            "reconcile before insert_row"
        );
        proclus::distance_simd::debug_assert_finite(&dist, "RowStore::insert_row");
        let computed = dist.len() as u64;
        let entry = RowEntry {
            dist,
            holes: Vec::new(),
            last_used_epoch: self.epoch,
        };
        self.rows.insert(pid, entry);
        RowFill {
            computed,
            miss: true,
        }
    }

    /// Medoid `pid`'s cached row, complete once filled this epoch.
    pub fn row(&self, pid: u64) -> Option<&[f32]> {
        self.rows.get(&pid).map(|row| row.dist.as_slice())
    }
}

impl Default for RowStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proclus::rng::ProclusRng;

    use super::*;
    use crate::dataset::StreamDataset;

    #[test]
    fn reconcile_permutes_and_punches_holes() {
        let mut store = RowStore::new();
        store.reconcile(&[10, 11, 12]);
        let nothing = store.fill_holes(10, |_| Err("computed for an uncached row"));
        assert!(matches!(nothing, Ok(None)));
        let fill = store.insert_row(10, vec![0.0, 1.0, 2.0]);
        assert!(fill.miss);
        assert_eq!(fill.computed, 3);

        // Point 11 retires (12 swaps into its slot), 13 appends.
        let changes = ColumnChanges::between(&[10, 11, 12], &[10, 12, 13]);
        assert_eq!(changes.moved, vec![(1, 2)]);
        assert_eq!(changes.retired, vec![11]);
        store.reconcile(&[10, 12, 13]);
        let fill = store
            .fill_holes::<()>(10, |pos| {
                assert_eq!(pos, &[2], "only the appended column is computed");
                Ok(vec![9.0])
            })
            .unwrap()
            .unwrap();
        assert!(!fill.miss);
        assert_eq!(fill.computed, 1);
        assert_eq!(store.row(10).unwrap(), &[0.0, 2.0, 9.0]);
    }

    #[test]
    fn unchanged_positions_produce_an_empty_change_list() {
        let changes = ColumnChanges::between(&[4, 5, 6], &[4, 5, 6, 7]);
        assert!(changes.moved.is_empty() && changes.holes.is_empty());
        assert!(changes.retired.is_empty());
        let mut col = vec![1, 2, 3];
        changes.apply(&mut col, -1);
        assert_eq!(col, vec![1, 2, 3, -1], "growth reads as holes");
    }

    #[test]
    fn retired_medoid_rows_are_dropped() {
        let mut store = RowStore::new();
        store.reconcile(&[1, 2]);
        store.insert_row(1, vec![0.5; 2]);
        assert_eq!(store.len(), 1);
        store.reconcile(&[2]);
        assert!(store.is_empty(), "row of retired pid 1 survives");
    }

    #[test]
    fn idle_rows_expire_after_the_retention_horizon() {
        let mut store = RowStore::new();
        store.reconcile(&[1, 2]);
        store.insert_row(1, vec![0.5; 2]);
        for _ in 0..3 {
            store.reconcile(&[1, 2]);
            assert_eq!(store.len(), 1);
        }
        store.reconcile(&[1, 2]);
        assert!(store.is_empty(), "idle row outlived the horizon");
    }

    /// The cached distance of row `r` to point `pid` (exact in f32).
    fn dist_of(r: u64, pid: u64) -> f32 {
        (r * 1000 + pid) as f32
    }

    /// Seeded scripts of appends, retires of middle and last positions,
    /// window evictions and a shrinking window, reconciling after every
    /// step: each row column holds its current pid's distance (or a hole
    /// for a pid the row never saw), each row's hole list is exactly its
    /// NaN positions, rows of retired pids are gone, and idle rows expire
    /// after three epochs. Rows are filled again after idling 0, 1 and 2
    /// epochs, some after their holes moved or were evicted; every fill
    /// computes exactly the row's NaN count and leaves the row
    /// bitwise-equal to a fresh fill.
    #[test]
    fn seeded_scripts_reanchor_rows_and_memo_by_pid() {
        // Fills of rows with holes by idle epochs, and holes that moved or
        // were evicted while their row was cached.
        let mut refilled_after_idle = [0usize; 3];
        let (mut holes_moved, mut holes_evicted) = (0usize, 0usize);
        for seed in 0..24u64 {
            let mut rng = ProclusRng::new(seed);
            let mut ds = StreamDataset::new(1, seed).unwrap();
            for _ in 0..40 {
                ds.append(&[0.0]).unwrap();
            }
            let mut store = RowStore::new();
            // What the store should hold, tracked by pid alone: row pid →
            // (pids whose distance it holds, epoch last used).
            let mut model: HashMap<u64, (HashSet<u64>, u64)> = HashMap::new();
            let mut epoch = 0u64;
            for step in 0..60 {
                let before = ds.pids().to_vec();
                match rng.next_u64() % 6 {
                    0 => {
                        for _ in 0..1 + rng.next_u64() % 5 {
                            ds.append(&[0.0]).unwrap();
                        }
                    }
                    1 if ds.n() > 8 => {
                        let pos = rng.next_u64() as usize % (ds.n() - 1);
                        ds.retire(ds.pid_at(pos)).unwrap();
                    }
                    2 if ds.n() > 8 => ds.retire(ds.pid_at(ds.n() - 1)).unwrap(),
                    3 => {
                        // Shrinking window, then appends that evict.
                        let cap = (ds.n() - ds.n() / 8).max(8);
                        ds.set_window(Some(cap)).unwrap();
                        for _ in 0..rng.next_u64() % 4 {
                            ds.append(&[0.0]).unwrap();
                        }
                        ds.set_window(None).unwrap();
                    }
                    4 => {} // an epoch without mutations
                    _ => {
                        // Retires that shrink n by several points.
                        for _ in 0..1 + rng.next_u64() % 6 {
                            if ds.n() > 8 {
                                let pos = rng.next_u64() as usize % ds.n();
                                ds.retire(ds.pid_at(pos)).unwrap();
                            }
                        }
                    }
                }
                for (seen, _) in model.values() {
                    for (q, pid) in before.iter().enumerate() {
                        match ds.pos_of(*pid) {
                            _ if seen.contains(pid) => {}
                            None => holes_evicted += 1,
                            Some(now) => holes_moved += usize::from(now != q),
                        }
                    }
                }

                let pids = ds.pids().to_vec();
                let live: HashSet<u64> = pids.iter().copied().collect();
                epoch += 1;
                store.reconcile(&pids);
                model.retain(|r, (_, used)| live.contains(r) && epoch - *used <= 3);

                let what = format!("seed {seed} step {step}");
                assert_eq!(store.len(), model.len(), "{what}: row count");
                for (&r, (seen, _)) in &model {
                    let RowEntry { dist, holes, .. } = &store.rows[&r];
                    assert_eq!(dist.len(), pids.len(), "{what}: row {r} length");
                    for (q, &pid) in pids.iter().enumerate() {
                        if seen.contains(&pid) {
                            assert_eq!(dist[q], dist_of(r, pid), "{what}: row {r} column {q}");
                        } else {
                            assert!(dist[q].is_nan(), "{what}: row {r} column {q} not a hole");
                        }
                    }
                    let nan: Vec<usize> = (0..dist.len()).filter(|&q| dist[q].is_nan()).collect();
                    assert_eq!(holes, &nan, "{what}: row {r} hole list");
                }
                // Use a few rows this epoch, cached ones half the time;
                // the rest idle toward expiry.
                for _ in 0..rng.next_u64() % 3 {
                    let mut cached: Vec<u64> = model.keys().copied().collect();
                    cached.sort_unstable();
                    let r = if !cached.is_empty() && rng.next_u64() & 1 == 0 {
                        cached[rng.next_u64() as usize % cached.len()]
                    } else {
                        pids[rng.next_u64() as usize % pids.len()]
                    };
                    let nan = store
                        .rows
                        .get(&r)
                        .map(|row| row.dist.iter().filter(|v| v.is_nan()).count());
                    let fill = match store
                        .fill_holes::<()>(r, |pos| {
                            Ok(pos.iter().map(|&q| dist_of(r, pids[q])).collect())
                        })
                        .unwrap()
                    {
                        Some(fill) => fill,
                        None => {
                            store.insert_row(r, pids.iter().map(|&pid| dist_of(r, pid)).collect())
                        }
                    };
                    assert_eq!(fill.miss, nan.is_none(), "{what}: row {r} miss");
                    let want = nan.unwrap_or(pids.len()) as u64;
                    assert_eq!(fill.computed, want, "{what}: row {r} computed");
                    let fresh = pids.iter().map(|&pid| dist_of(r, pid).to_bits());
                    let row = store.row(r).unwrap().iter().map(|v| v.to_bits());
                    assert!(row.eq(fresh), "{what}: row {r} differs from a fresh fill");
                    if let (Some(1..), Some(&(_, used))) = (nan, model.get(&r)) {
                        refilled_after_idle[(epoch - used - 1) as usize] += 1;
                    }
                    model.insert(r, (live.clone(), epoch));
                }
            }
        }
        assert!(
            refilled_after_idle.iter().all(|&c| c > 0),
            "refills by idle epochs: {refilled_after_idle:?}"
        );
        assert!(
            holes_moved > 0 && holes_evicted > 0,
            "{holes_moved} moved, {holes_evicted} evicted"
        );
    }
}
