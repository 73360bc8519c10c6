//! User-facing operand descriptions: where each matrix/vector lives and
//! whether it carries data.

use crate::error::RuntimeError;
use cocopelia_core::params::{Loc, Operand};
use cocopelia_gpusim::{DevBufId, Gpu, HostBufId, SimScalar};
use cocopelia_hostblas::Matrix;

/// A matrix already resident in device memory (packed column-major,
/// `ld == rows`), as produced by
/// [`Cocopelia::upload_matrix`](crate::Cocopelia::upload_matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMatrix {
    pub(crate) buf: DevBufId,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// The host ghost the buffer is filled from, when the serving layer
    /// bound a residency miss here: the routine's tile schedule copies
    /// each region on its first read. `None` once the data is resident.
    pub(crate) fill: Option<HostBufId>,
}

impl DeviceMatrix {
    /// Wraps a raw device buffer (packed column-major, `ld == rows`) as a
    /// resident matrix. For alternative schedulers and harnesses that
    /// allocate through [`Gpu`](cocopelia_gpusim::Gpu) directly.
    pub fn from_raw(buf: DevBufId, rows: usize, cols: usize) -> Self {
        DeviceMatrix {
            buf,
            rows,
            cols,
            fill: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying device buffer, for alternative schedulers (the
    /// baseline policy re-implementations) that operate on the raw device.
    pub fn raw_buf(&self) -> DevBufId {
        self.buf
    }
}

/// A vector already resident in device memory, as produced by
/// [`Cocopelia::upload_vector`](crate::Cocopelia::upload_vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceVector {
    pub(crate) buf: DevBufId,
    pub(crate) len: usize,
    /// The host ghost the buffer is filled from; see [`DeviceMatrix`].
    pub(crate) fill: Option<HostBufId>,
}

impl DeviceVector {
    /// Wraps a raw device buffer as a resident vector.
    pub fn from_raw(buf: DevBufId, len: usize) -> Self {
        DeviceVector {
            buf,
            len,
            fill: None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying device buffer, for alternative schedulers.
    pub fn raw_buf(&self) -> DevBufId {
        self.buf
    }
}

/// A matrix operand of a routine call.
#[derive(Debug, Clone, PartialEq)]
pub enum MatOperand<T> {
    /// Host data carried by value (functional execution; `C` results are
    /// returned in the routine's result).
    Host(Matrix<T>),
    /// A host matrix of the given shape with no data (timing-only sweeps).
    HostGhost {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// Data already resident on the device.
    Device(DeviceMatrix),
}

impl<T: cocopelia_hostblas::Scalar> MatOperand<T> {
    /// Row count of the operand.
    pub fn rows(&self) -> usize {
        match self {
            MatOperand::Host(m) => m.rows(),
            MatOperand::HostGhost { rows, .. } => *rows,
            MatOperand::Device(d) => d.rows,
        }
    }

    /// Column count of the operand.
    pub fn cols(&self) -> usize {
        match self {
            MatOperand::Host(m) => m.cols(),
            MatOperand::HostGhost { cols, .. } => *cols,
            MatOperand::Device(d) => d.cols,
        }
    }

    /// Initial residence, as the models see it. A device buffer still to
    /// be filled from the host holds host data.
    pub fn loc(&self) -> Loc {
        match self {
            MatOperand::Device(d) if d.fill.is_none() => Loc::Device,
            _ => Loc::Host,
        }
    }
}

impl<T: SimScalar> MatOperand<T> {
    /// The matrix `op` describes, without data: a host ghost, or a fresh
    /// allocation on `gpu` when `op` starts on the device.
    ///
    /// # Errors
    ///
    /// Out-of-memory (and device loss) for a device-resident `op`.
    pub fn ghost(gpu: &mut Gpu, op: &Operand) -> Result<Self, RuntimeError> {
        let (rows, cols) = (op.rows, op.cols);
        Ok(match op.loc {
            Loc::Host => MatOperand::HostGhost { rows, cols },
            Loc::Device => MatOperand::Device(DeviceMatrix::from_raw(
                gpu.alloc_device(T::DTYPE, rows * cols)?,
                rows,
                cols,
            )),
        })
    }
}

/// A vector operand of a routine call.
#[derive(Debug, Clone, PartialEq)]
pub enum VecOperand<T> {
    /// Host data carried by value.
    Host(Vec<T>),
    /// A host vector of the given length with no data.
    HostGhost {
        /// Element count.
        len: usize,
    },
    /// Data already resident on the device.
    Device(DeviceVector),
}

impl<T: cocopelia_hostblas::Scalar> VecOperand<T> {
    /// Element count of the operand.
    pub fn len(&self) -> usize {
        match self {
            VecOperand::Host(v) => v.len(),
            VecOperand::HostGhost { len } => *len,
            VecOperand::Device(d) => d.len,
        }
    }

    /// True if the operand has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initial residence, as the models see it; see [`MatOperand::loc`].
    pub fn loc(&self) -> Loc {
        match self {
            VecOperand::Device(d) if d.fill.is_none() => Loc::Device,
            _ => Loc::Host,
        }
    }
}

impl<T: SimScalar> VecOperand<T> {
    /// The vector `op` describes (`op.rows` elements), without data; see
    /// [`MatOperand::ghost`].
    ///
    /// # Errors
    ///
    /// As for [`MatOperand::ghost`].
    pub fn ghost(gpu: &mut Gpu, op: &Operand) -> Result<Self, RuntimeError> {
        let len = op.rows;
        Ok(match op.loc {
            Loc::Host => VecOperand::HostGhost { len },
            Loc::Device => VecOperand::Device(DeviceVector::from_raw(
                gpu.alloc_device(T::DTYPE, len)?,
                len,
            )),
        })
    }
}

/// How the tiling size is chosen for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileChoice {
    /// Run `CoCoPeLia_select` with the model §III-C recommends for the
    /// routine's BLAS level.
    Auto,
    /// Run `CoCoPeLia_select` with a specific model (used by the Fig. 6
    /// experiments that compare Eq. 1/2/4/5 selections).
    Model(cocopelia_core::models::ModelKind),
    /// Use an explicit tiling size, like cuBLASXt's extra parameter.
    Fixed(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_core::models::ModelKind;

    #[test]
    fn operand_shapes() {
        let m: MatOperand<f64> = MatOperand::HostGhost { rows: 3, cols: 4 };
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.loc(), Loc::Host);
        let h = MatOperand::Host(Matrix::<f64>::zeros(2, 5));
        assert_eq!((h.rows(), h.cols()), (2, 5));
    }

    #[test]
    fn vector_shapes() {
        let v: VecOperand<f32> = VecOperand::Host(vec![1.0, 2.0]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        let g: VecOperand<f32> = VecOperand::HostGhost { len: 0 };
        assert!(g.is_empty());
    }

    #[test]
    fn tile_choice_variants() {
        assert_ne!(TileChoice::Auto, TileChoice::Fixed(256));
        assert_eq!(
            TileChoice::Model(ModelKind::Bts),
            TileChoice::Model(ModelKind::Bts)
        );
    }
}
