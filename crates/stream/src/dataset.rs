//! The mutable dataset behind a [`crate::StreamingClusterer`]: append,
//! retire, and sliding-window eviction over points addressed by stable
//! point ids (pids).
//!
//! The live rows are one [`DataMatrix`], which every re-clustering epoch
//! borrows as its backend's data; nothing is copied per epoch.
//! Positions (row indices into that matrix) shift as points come and
//! go — retirement swap-removes, so the last row moves into the hole —
//! but pids never do, so every cross-epoch cache in this crate is keyed by
//! pid and re-anchored to positions through [`StreamDataset::pos_of`].
//!
//! The medoid sample `Data'` is *append-stable priority sampling*: each
//! point carries a priority drawn from a seeded hash of its pid, and the
//! sample is the `|S|` smallest `(priority, pid)` pairs. An append only
//! enters the sample if its priority beats the current threshold, and a
//! retire only removes one member — so a small batch of deltas perturbs
//! the sample by at most the batch size, which is what keeps the greedy
//! medoid candidates (and with them every downstream cache) stable across
//! re-clusterings. The sample consumes no RNG draws, so the seeded
//! replacement sequence of the decision loop is identical whether a
//! re-clustering starts warm or cold.

use std::collections::{BTreeSet, HashMap};

use proclus::rng::splitmix64;
use proclus::{DataMatrix, ProclusError, Result};

/// Sampling priority of a pid: the sample is the `|S|` smallest.
pub(crate) fn sample_priority(seed: u64, pid: u64) -> u64 {
    splitmix64(pid ^ splitmix64(seed ^ 0xA076_1D64_78BD_642F))
}

/// Independent second priority deciding the greedy pass's first pick
/// (lowest wins). Indexing into the priority-ordered sample with an RNG
/// draw would shift under insertions; an argmin over per-pid hashes only
/// changes when the winning point itself enters or leaves the sample.
pub(crate) fn first_pick_priority(seed: u64, pid: u64) -> u64 {
    splitmix64(pid ^ splitmix64(seed ^ 0xE703_7ED1_A0B4_28DB))
}

/// A mutable row store with stable pids, priority sampling, and an
/// optional sliding window.
pub struct StreamDataset {
    d: usize,
    seed: u64,
    /// The live rows by position; `None` while no point is live, as a
    /// matrix never holds zero rows.
    rows: Option<DataMatrix>,
    /// pid of the point at each position.
    pids: Vec<u64>,
    pos_of: HashMap<u64, usize>,
    /// Live points ordered by `(sample_priority, pid)`.
    order: BTreeSet<(u64, u64)>,
    /// Live pids in age order (pids are assigned monotonically).
    live: BTreeSet<u64>,
    next_pid: u64,
    window: Option<usize>,
}

impl StreamDataset {
    /// An empty dataset of dimensionality `d`; `seed` fixes the sampling
    /// priorities (use the clustering seed so runs are reproducible).
    pub fn new(d: usize, seed: u64) -> Result<Self> {
        if d == 0 {
            return Err(ProclusError::InvalidData {
                reason: "zero-dimensional stream dataset".into(),
            });
        }
        Ok(Self {
            d,
            seed,
            rows: None,
            pids: Vec::new(),
            pos_of: HashMap::new(),
            order: BTreeSet::new(),
            live: BTreeSet::new(),
            next_pid: 0,
            window: None,
        })
    }

    /// A dataset seeded from an initial batch of rows.
    pub fn from_rows(rows: &[Vec<f32>], seed: u64) -> Result<Self> {
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut ds = Self::new(d, seed)?;
        for row in rows {
            ds.append(row)?;
        }
        Ok(ds)
    }

    /// Number of live points.
    pub fn n(&self) -> usize {
        self.pids.len()
    }

    /// Dimensionality.
    pub fn d(&self) -> usize {
        self.d
    }

    /// pid of the point at `pos`.
    pub fn pid_at(&self, pos: usize) -> u64 {
        self.pids[pos]
    }

    /// pids by position (the column key of every cross-epoch row cache).
    pub fn pids(&self) -> &[u64] {
        &self.pids
    }

    /// Current position of a live pid.
    pub fn pos_of(&self, pid: u64) -> Option<usize> {
        self.pos_of.get(&pid).copied()
    }

    /// Coordinates of the point at `pos`.
    pub fn row(&self, pos: usize) -> &[f32] {
        &self.flat()[pos * self.d..(pos + 1) * self.d]
    }

    /// All live coordinates, row-major by position.
    pub(crate) fn flat(&self) -> &[f32] {
        self.rows.as_ref().map_or(&[], DataMatrix::flat)
    }

    /// The live rows by position, as an epoch's backend reads them. An
    /// empty dataset is an [`ProclusError::InvalidData`], as an empty
    /// batch dataset is.
    pub(crate) fn matrix(&self) -> Result<&DataMatrix> {
        self.rows.as_ref().ok_or_else(|| ProclusError::InvalidData {
            reason: format!("dataset must be non-empty, got 0 x {}", self.d),
        })
    }

    /// The sliding-window capacity, if set.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Appends a point, returning its pid. If a window is set, the oldest
    /// points are evicted to fit and their pids are returned. A row of the
    /// wrong width or with a non-finite value is an
    /// [`ProclusError::InvalidData`] and changes nothing.
    pub fn append(&mut self, row: &[f32]) -> Result<(u64, Vec<u64>)> {
        match &mut self.rows {
            Some(m) => m.push_row(row)?,
            None => self.rows = Some(DataMatrix::from_flat(row.to_vec(), 1, self.d)?),
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        let pos = self.pids.len();
        self.pids.push(pid);
        self.pos_of.insert(pid, pos);
        self.order.insert((sample_priority(self.seed, pid), pid));
        self.live.insert(pid);
        let evicted = self.enforce_window();
        Ok((pid, evicted))
    }

    /// Removes a live point by pid. The last row swaps into the hole, so
    /// only one position changes.
    pub fn retire(&mut self, pid: u64) -> Result<()> {
        let pos = self.pos_of(pid).ok_or(ProclusError::InvalidData {
            reason: format!("pid {pid} is not live"),
        })?;
        match &mut self.rows {
            Some(m) if m.n() > 1 => m.swap_remove_row(pos)?,
            _ => self.rows = None,
        }
        self.pos_of.remove(&pid);
        self.order.remove(&(sample_priority(self.seed, pid), pid));
        self.live.remove(&pid);
        self.pids.swap_remove(pos);
        if let Some(&moved) = self.pids.get(pos) {
            self.pos_of.insert(moved, pos);
        }
        Ok(())
    }

    /// Sets (or clears) the sliding-window capacity and evicts the oldest
    /// points down to it. Returns the evicted pids.
    pub fn set_window(&mut self, cap: Option<usize>) -> Result<Vec<u64>> {
        if cap == Some(0) {
            return Err(ProclusError::InvalidData {
                reason: "window capacity must be at least 1".into(),
            });
        }
        self.window = cap;
        Ok(self.enforce_window())
    }

    fn enforce_window(&mut self) -> Vec<u64> {
        let mut evicted = Vec::new();
        if let Some(cap) = self.window {
            while self.pids.len() > cap {
                let Some(&oldest) = self.live.iter().next() else {
                    break;
                };
                match self.retire(oldest) {
                    Ok(()) => evicted.push(oldest),
                    Err(_) => break,
                }
            }
        }
        evicted
    }

    /// The `size` sample members in priority order (smallest first).
    pub fn sample(&self, size: usize) -> Vec<u64> {
        self.order.iter().take(size).map(|&(_, pid)| pid).collect()
    }

    /// An owned copy of the live rows by position, for a holder that
    /// outlives the dataset's own; an epoch borrows the rows instead. An
    /// empty dataset is an [`ProclusError::InvalidData`].
    pub fn snapshot(&self) -> Result<DataMatrix> {
        self.matrix().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![(i % 13) as f32, (i % 7) as f32 * 0.5])
            .collect()
    }

    #[test]
    fn retire_swaps_last_row_into_hole() {
        let mut ds = StreamDataset::from_rows(&grid(5), 7).unwrap();
        let last_row = ds.row(4).to_vec();
        ds.retire(1).unwrap();
        assert_eq!(ds.n(), 4);
        assert_eq!(ds.pid_at(1), 4);
        assert_eq!(ds.row(1), &last_row[..]);
        assert_eq!(ds.pos_of(4), Some(1));
        assert_eq!(ds.pos_of(1), None);
        assert!(ds.retire(1).is_err(), "double retire is rejected");
    }

    #[test]
    fn sample_is_append_stable() {
        let mut ds = StreamDataset::from_rows(&grid(200), 42).unwrap();
        let before = ds.sample(20);
        for row in grid(2) {
            ds.append(&row).unwrap();
        }
        let after = ds.sample(20);
        let before_set: BTreeSet<u64> = before.iter().copied().collect();
        let after_set: BTreeSet<u64> = after.iter().copied().collect();
        let changed = before_set.symmetric_difference(&after_set).count();
        assert!(
            changed <= 4,
            "2 appends shifted {changed} of 20 sample slots"
        );
    }

    #[test]
    fn window_evicts_oldest_pids() {
        let mut ds = StreamDataset::from_rows(&grid(10), 3).unwrap();
        let evicted = ds.set_window(Some(8)).unwrap();
        assert_eq!(evicted, vec![0, 1]);
        let (pid, evicted) = ds.append(&[1.0, 2.0]).unwrap();
        assert_eq!(pid, 10);
        assert_eq!(evicted, vec![2]);
        assert_eq!(ds.n(), 8);
    }

    /// A rejected row is a typed error that changes nothing, on an empty
    /// dataset and on one with rows.
    #[test]
    fn rejects_ragged_and_non_finite_rows() {
        let bad: [&[f32]; 4] = [
            &[1.0],
            &[1.0, 2.0, 3.0],
            &[1.0, f32::NAN],
            &[1.0, f32::INFINITY],
        ];
        let mut ds = StreamDataset::new(2, 0).unwrap();
        for row in bad {
            let err = ds.append(row).unwrap_err();
            assert!(matches!(err, ProclusError::InvalidData { .. }));
            assert_eq!(ds.n(), 0);
            assert!(ds.matrix().is_err());
        }
        ds.append(&[1.0, 2.0]).unwrap();
        ds.append(&[3.0, 4.0]).unwrap();
        for row in bad {
            assert!(matches!(
                ds.append(row),
                Err(ProclusError::InvalidData { .. })
            ));
            assert_eq!(ds.pids(), &[0, 1]);
            assert_eq!(ds.matrix().unwrap().flat(), &[1.0, 2.0, 3.0, 4.0]);
        }
        assert_eq!(ds.append(&[5.0, 6.0]).unwrap().0, 2, "no pid was spent");
    }

    #[test]
    fn retiring_every_point_empties_the_matrix() {
        let mut ds = StreamDataset::from_rows(&grid(3), 5).unwrap();
        for pid in [2, 0, 1] {
            ds.retire(pid).unwrap();
            assert_eq!(ds.matrix().map(DataMatrix::n).unwrap_or(0), ds.n());
        }
        let err = ds.matrix().unwrap_err();
        assert!(matches!(err, ProclusError::InvalidData { .. }));
        assert!(
            err.to_string().contains("dataset must be non-empty"),
            "{err}"
        );
        assert!(ds.snapshot().is_err());
        let (pid, _) = ds.append(&[7.0, 8.0]).unwrap();
        assert_eq!((pid, ds.pos_of(pid)), (3, Some(0)));
        assert_eq!(ds.snapshot().unwrap().flat(), &[7.0, 8.0]);
    }

    #[test]
    fn snapshot_matches_rows() {
        let rows = grid(6);
        let ds = StreamDataset::from_rows(&rows, 1).unwrap();
        let snap = ds.snapshot().unwrap();
        assert_eq!(snap.n(), 6);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(snap.row(i), &row[..]);
        }
    }
}
