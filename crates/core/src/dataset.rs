//! The dataset container: a dense row-major `n × d` matrix of `f32`.
//!
//! No PROCLUS phase mutates the data. Between runs a stream appends rows
//! ([`DataMatrix::push_row`]) and swap-removes them
//! ([`DataMatrix::swap_remove_row`]), and each run borrows the matrix as
//! it stands. Values are `f32` to match the GPU implementations, while
//! all statistics derived from them (`H`, `X`, `Y`, `σ`, centroids, cost)
//! accumulate in `f64` so that incremental and recomputed variants agree
//! to well below any decision threshold (see DESIGN.md §4).

use crate::error::{ProclusError, Result};

/// A dense, row-major `n × d` data matrix. It never holds zero rows or
/// zero dimensions, and every value is finite.
#[derive(Debug, Clone, PartialEq)]
pub struct DataMatrix {
    values: Vec<f32>,
    n: usize,
    d: usize,
}

impl DataMatrix {
    /// Builds a matrix from a flat row-major buffer of length `n · d`.
    pub fn from_flat(values: Vec<f32>, n: usize, d: usize) -> Result<Self> {
        if n == 0 || d == 0 {
            return Err(ProclusError::data(format!(
                "dataset must be non-empty, got {n} x {d}"
            )));
        }
        if values.len() != n * d {
            return Err(ProclusError::data(format!(
                "flat buffer has {} values, expected {n} x {d} = {}",
                values.len(),
                n * d
            )));
        }
        if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
            return Err(ProclusError::data(format!(
                "non-finite value at flat index {bad} (point {}, dim {})",
                bad / d,
                bad % d
            )));
        }
        Ok(Self { values, n, d })
    }

    /// Builds a matrix from per-point rows, which must all share one length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let n = rows.len();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        if rows.iter().any(|r| r.len() != d) {
            return Err(ProclusError::data("ragged rows".to_string()));
        }
        let mut flat = Vec::with_capacity(n * d);
        for r in rows {
            flat.extend_from_slice(r);
        }
        Self::from_flat(flat, n, d)
    }

    /// Number of points.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of dimensions.
    #[inline(always)]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Row `p` as a slice of length `d`.
    #[inline(always)]
    pub fn row(&self, p: usize) -> &[f32] {
        &self.values[p * self.d..(p + 1) * self.d]
    }

    /// Value of point `p` in dimension `j`.
    #[inline(always)]
    pub fn get(&self, p: usize, j: usize) -> f32 {
        self.values[p * self.d + j]
    }

    /// The whole matrix as a flat row-major slice.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.values
    }

    /// Appends a row. A row whose length is not `d`, or that holds a NaN
    /// or an infinity, is an [`ProclusError::InvalidData`] and leaves the
    /// matrix as it was.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.d {
            return Err(ProclusError::data(format!(
                "appended row has {} values, expected {}",
                row.len(),
                self.d
            )));
        }
        if let Some(j) = row.iter().position(|v| !v.is_finite()) {
            return Err(ProclusError::data(format!(
                "appended row has a non-finite value in dim {j}"
            )));
        }
        self.values.extend_from_slice(row);
        self.n += 1;
        Ok(())
    }

    /// Removes row `p` by moving the last row into its place, so no other
    /// row changes position. Removing a row past the end, or the only
    /// row, is an [`ProclusError::InvalidData`] and leaves the matrix as
    /// it was.
    pub fn swap_remove_row(&mut self, p: usize) -> Result<()> {
        if p >= self.n || self.n == 1 {
            return Err(ProclusError::data(format!(
                "cannot remove row {p} of {} (a matrix keeps at least one row)",
                self.n
            )));
        }
        let (d, last) = (self.d, self.n - 1);
        self.values.copy_within(last * d.., p * d);
        self.values.truncate(last * d);
        self.n = last;
        Ok(())
    }

    /// Min–max normalizes every dimension into `[0, 1]` in place, as the
    /// paper does for all datasets (§5). Constant dimensions map to `0`.
    pub fn minmax_normalize(&mut self) {
        let d = self.d;
        let mut lo = vec![f32::INFINITY; d];
        let mut hi = vec![f32::NEG_INFINITY; d];
        for p in 0..self.n {
            let row = &self.values[p * d..(p + 1) * d];
            for j in 0..d {
                lo[j] = lo[j].min(row[j]);
                hi[j] = hi[j].max(row[j]);
            }
        }
        for p in 0..self.n {
            let row = &mut self.values[p * d..(p + 1) * d];
            for j in 0..d {
                let range = hi[j] - lo[j];
                row[j] = if range > 0.0 {
                    (row[j] - lo[j]) / range
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_validates_shape() {
        assert!(DataMatrix::from_flat(vec![1.0; 6], 2, 3).is_ok());
        assert!(DataMatrix::from_flat(vec![1.0; 5], 2, 3).is_err());
        assert!(DataMatrix::from_flat(vec![], 0, 3).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(DataMatrix::from_flat(vec![1.0, f32::NAN], 1, 2).is_err());
        assert!(DataMatrix::from_flat(vec![1.0, f32::INFINITY], 2, 1).is_err());
    }

    #[test]
    fn row_and_get_agree() {
        let m = DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn push_row_appends_and_rejects_bad_rows_unchanged() {
        let mut m = DataMatrix::from_flat(vec![1.0, 2.0], 1, 2).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!((m.n(), m.row(1)), (2, &[3.0, 4.0][..]));
        let before = m.clone();
        for bad in [
            &[5.0][..],
            &[5.0, 6.0, 7.0],
            &[f32::NAN, 6.0],
            &[5.0, f32::INFINITY],
            &[f32::NEG_INFINITY, 6.0],
        ] {
            let err = m.push_row(bad).unwrap_err();
            assert!(matches!(err, ProclusError::InvalidData { .. }), "{bad:?}");
            assert_eq!(m, before, "{bad:?} changed the matrix");
        }
    }

    #[test]
    fn swap_remove_row_moves_the_last_row_into_the_hole() {
        let mut m = DataMatrix::from_flat((0..8).map(|v| v as f32).collect(), 4, 2).unwrap();
        m.swap_remove_row(1).unwrap();
        assert_eq!(m.flat(), &[0.0, 1.0, 6.0, 7.0, 4.0, 5.0]);
        m.swap_remove_row(2).unwrap();
        assert_eq!((m.n(), m.flat()), (2, &[0.0, 1.0, 6.0, 7.0][..]));
        let rejected = |m: &mut DataMatrix, p: usize| {
            let before = m.clone();
            let err = m.swap_remove_row(p).unwrap_err();
            assert!(matches!(err, ProclusError::InvalidData { .. }));
            assert_eq!(*m, before, "a rejected removal changed the matrix");
        };
        rejected(&mut m, 2);
        rejected(&mut m, usize::MAX);
        m.swap_remove_row(0).unwrap();
        assert_eq!((m.n(), m.flat()), (1, &[6.0, 7.0][..]));
        rejected(&mut m, 0);
    }

    #[test]
    fn minmax_maps_each_dim_to_unit_interval() {
        let mut m = DataMatrix::from_flat(vec![0.0, 10.0, 5.0, 20.0, 10.0, 30.0], 3, 2).unwrap();
        m.minmax_normalize();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 0.5);
        assert_eq!(m.get(2, 1), 1.0);
    }

    #[test]
    fn minmax_constant_dimension_becomes_zero() {
        let mut m = DataMatrix::from_flat(vec![7.0, 1.0, 7.0, 2.0], 2, 2).unwrap();
        m.minmax_normalize();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 0), 0.0);
    }
}
