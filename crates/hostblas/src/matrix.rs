//! Column-major matrix storage and borrowed views.

use crate::scalar::Scalar;

/// An owned, dense, column-major matrix with `ld == rows` (packed storage).
///
/// This is the host-side container used throughout the reproduction: user
/// input to the BLAS wrappers, reference results, and the backing store the
/// simulator's host arena copies in and out of.
///
/// # Example
///
/// ```
/// use cocopelia_hostblas::Matrix;
///
/// let m = Matrix::<f64>::from_fn(2, 2, |i, j| (10 * i + j) as f64);
/// assert_eq!(m.get(1, 0), 10.0);
/// assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0]); // column-major
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix whose `(i, j)` element is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a column-major element vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "element count {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (always `rows` for the packed owned type).
    #[inline]
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i + j * self.rows]
    }

    /// Overwrites the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i + j * self.rows] = v;
    }

    /// Column-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable column-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix and returns the column-major element vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrowed view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            data: &self.data,
        }
    }

    /// Mutable borrowed view of the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        MatrixViewMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            data: &mut self.data,
        }
    }

    /// Borrowed view of the `nrows × ncols` sub-matrix anchored at `(i0, j0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> MatrixView<'_, T> {
        assert!(
            i0 + nrows <= self.rows && j0 + ncols <= self.cols,
            "block ({i0},{j0})+{nrows}x{ncols} exceeds {}x{}",
            self.rows,
            self.cols
        );
        MatrixView {
            rows: nrows,
            cols: ncols,
            ld: self.rows,
            data: &self.data[i0 + j0 * self.rows..],
        }
    }

    /// Mutable borrowed view of the sub-matrix anchored at `(i0, j0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn block_mut(
        &mut self,
        i0: usize,
        j0: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatrixViewMut<'_, T> {
        assert!(
            i0 + nrows <= self.rows && j0 + ncols <= self.cols,
            "block ({i0},{j0})+{nrows}x{ncols} exceeds {}x{}",
            self.rows,
            self.cols
        );
        let ld = self.rows;
        MatrixViewMut {
            rows: nrows,
            cols: ncols,
            ld,
            data: &mut self.data[i0 + j0 * ld..],
        }
    }
}

/// Borrowed column-major view with an explicit leading dimension.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [T],
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// Creates a view over raw column-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `ld < rows` or the slice is too short to hold the view.
    pub fn new(rows: usize, cols: usize, ld: usize, data: &'a [T]) -> Self {
        assert!(ld >= rows.max(1), "ld {ld} smaller than rows {rows}");
        if rows > 0 && cols > 0 {
            assert!(
                data.len() >= (cols - 1) * ld + rows,
                "slice of {} too short for {rows}x{cols} ld {ld}",
                data.len()
            );
        }
        Self {
            rows,
            cols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying storage.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i + j * self.ld]
    }

    /// Copies the view into a fresh packed [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// Sub-view anchored at `(i0, j0)` of size `nrows × ncols`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the view bounds.
    pub fn block(&self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> MatrixView<'a, T> {
        assert!(
            i0 + nrows <= self.rows && j0 + ncols <= self.cols,
            "block ({i0},{j0})+{nrows}x{ncols} exceeds {}x{}",
            self.rows,
            self.cols
        );
        MatrixView {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            data: &self.data[i0 + j0 * self.ld..],
        }
    }
}

/// Mutable column-major view with an explicit leading dimension.
#[derive(Debug)]
pub struct MatrixViewMut<'a, T> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a mut [T],
}

impl<'a, T: Scalar> MatrixViewMut<'a, T> {
    /// Creates a mutable view over raw column-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `ld < rows` or the slice is too short to hold the view.
    pub fn new(rows: usize, cols: usize, ld: usize, data: &'a mut [T]) -> Self {
        assert!(ld >= rows.max(1), "ld {ld} smaller than rows {rows}");
        if rows > 0 && cols > 0 {
            assert!(
                data.len() >= (cols - 1) * ld + rows,
                "slice of {} too short for {rows}x{cols} ld {ld}",
                data.len()
            );
        }
        Self {
            rows,
            cols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying storage.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i + j * self.ld]
    }

    /// Overwrites the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i + j * self.ld] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_zero() {
        let m = Matrix::<f64>::zeros(3, 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.ld(), 3);
    }

    #[test]
    fn from_fn_column_major_order() {
        let m = Matrix::<f32>::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        // columns are contiguous
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        m.set(2, 3, 7.5);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.get(3, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn block_views_share_storage() {
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b.get(0, 0), m.get(1, 2));
        assert_eq!(b.get(1, 1), m.get(2, 3));
        assert_eq!(b.ld(), 4);
    }

    #[test]
    fn block_mut_writes_through() {
        let mut m = Matrix::<f64>::zeros(3, 3);
        {
            let mut b = m.block_mut(1, 1, 2, 2);
            b.set(0, 0, 5.0);
            b.set(1, 1, 6.0);
        }
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(2, 2), 6.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn view_to_matrix_packs() {
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (i + j) as f64);
        let sub = m.block(0, 1, 2, 2).to_matrix();
        assert_eq!(sub.ld(), 2);
        assert_eq!(sub.get(1, 1), m.get(1, 2));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_block_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m.block(1, 1, 2, 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0f64; 3]);
    }

    #[test]
    fn view_new_validates_ld() {
        let data = [0.0f64; 12];
        let v = MatrixView::new(3, 3, 4, &data[..]);
        assert_eq!(v.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn view_new_short_slice_panics() {
        let data = [0.0f64; 5];
        let _ = MatrixView::new(3, 3, 3, &data[..]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert_eq!(m.as_slice().len(), 0);
        let v = m.view();
        assert_eq!(v.rows(), 0);
    }
}
