//! Output checks. A failed check counts as a failed operation and makes
//! the run exit non-zero.

use crate::{SERVE_MAX_ITERS, SERVE_TOL};
use mf_mfp::MfpConfig;
use mf_tensor::Tensor;

/// Failures found while checking a run's outputs.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record a failed operation (at most once per operation).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Same shape and bit-identical values.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Mean absolute difference of two same-shape grids.
pub fn mae(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape(), "mae: shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / a.numel() as f64
}

/// The `MfpConfig` the service derives from the benchmark's requests.
pub fn serve_cfg() -> MfpConfig {
    MfpConfig {
        max_iters: SERVE_MAX_ITERS,
        tol: SERVE_TOL,
        batched: true,
        target: None,
        coarse_init: false,
    }
}
