//! Trained-predictor snapshots: plain-data copies of a trained model.
//!
//! A [`SavedPredictor`] records everything needed to reconstruct a predictor
//! bit-exactly: the [`crate::builder::PredictorSpec`], the [`TrainConfig`]
//! (which fixes every architecture dimension), the fitted target
//! normaliser, and the parameter matrices of the regressor (and, for the
//! hierarchical approach, the node classifier). This crate does no snapshot
//! I/O: the `hls_gnn_store` crate owns the one on-disk form, the
//! checksummed `.hgns` container.
//!
//! Snapshots are also the bridge across *threads*: unlike a live model
//! (whose autodiff tape is `Rc`-based and `!Send`), every snapshot type here
//! is plain data and `Send + Sync` — the parallel runtime
//! ([`crate::runtime`]) ships trained state between workers as a
//! [`SavedPredictor`] and rehydrates one thread-confined model per worker.

use gnn_tensor::Matrix;

use crate::builder::PredictorSpec;
use crate::metrics::TargetNormalizer;
use crate::task::TargetMetric;
use crate::train::TrainConfig;
use crate::{Error, Result};

/// Current snapshot format version, bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One parameter matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedTensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major values (`rows * cols` entries).
    pub data: Vec<f32>,
}

impl SavedTensor {
    /// Snapshots a matrix.
    pub fn from_matrix(matrix: &Matrix) -> Self {
        SavedTensor { rows: matrix.rows(), cols: matrix.cols(), data: matrix.data().to_vec() }
    }

    /// Rebuilds the matrix.
    ///
    /// # Errors
    /// Returns [`Error::Config`] when the data length does not match the
    /// recorded shape.
    pub fn to_matrix(&self) -> Result<Matrix> {
        if self.rows.checked_mul(self.cols) != Some(self.data.len()) {
            return Err(Error::Config(format!(
                "saved tensor claims {}x{} but carries {} values",
                self.rows,
                self.cols,
                self.data.len()
            )));
        }
        Ok(Matrix::from_vec(self.rows, self.cols, self.data.clone()))
    }

    /// Snapshots a whole parameter list (a model "state dict").
    pub fn from_state(state: &[Matrix]) -> Vec<SavedTensor> {
        state.iter().map(SavedTensor::from_matrix).collect()
    }

    /// Rebuilds a parameter list.
    ///
    /// # Errors
    /// Returns [`Error::Config`] when any tensor is malformed.
    pub fn to_state(tensors: &[SavedTensor]) -> Result<Vec<Matrix>> {
        tensors.iter().map(SavedTensor::to_matrix).collect()
    }
}

/// The fitted target-normalisation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedNormalizer {
    /// Per-target mean of `log1p(target)` on the training set.
    pub mean: [f64; TargetMetric::COUNT],
    /// Per-target standard deviation of `log1p(target)`.
    pub std: [f64; TargetMetric::COUNT],
}

impl SavedNormalizer {
    /// Snapshots a fitted normaliser.
    pub fn from_normalizer(normalizer: &TargetNormalizer) -> Self {
        SavedNormalizer { mean: normalizer.mean(), std: normalizer.std() }
    }

    /// Rebuilds the normaliser.
    pub fn to_normalizer(&self) -> TargetNormalizer {
        TargetNormalizer::from_parts(self.mean, self.std)
    }
}

/// A complete trained-predictor snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedPredictor {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Which approach × backbone this is.
    pub spec: PredictorSpec,
    /// Hyper-parameters; these fix every architecture dimension, so the
    /// snapshot is self-describing.
    pub config: TrainConfig,
    /// Fitted target normaliser.
    pub normalizer: SavedNormalizer,
    /// Graph-level regressor parameters, in [`crate::model::GraphRegressor`]
    /// state order.
    pub regressor: Vec<SavedTensor>,
    /// Node-classifier parameters (hierarchical approach only).
    pub classifier: Option<Vec<SavedTensor>>,
}

// The parallel runtime relies on snapshots crossing thread boundaries; keep
// that guarantee explicit so a future `Rc`/`RefCell` field fails to compile
// here rather than deep inside a scoped-thread bound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SavedPredictor>();
    assert_send_sync::<SavedTensor>();
    assert_send_sync::<SavedNormalizer>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensors_round_trip_and_validate() {
        let matrix = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.25 - 0.6);
        let saved = SavedTensor::from_matrix(&matrix);
        assert_eq!(saved.to_matrix().unwrap(), matrix);

        let broken = SavedTensor { rows: 3, cols: 2, data: vec![0.0; 5] };
        assert!(broken.to_matrix().is_err());
    }

    #[test]
    fn normalizer_snapshot_round_trips() {
        let normalizer = TargetNormalizer::from_parts([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 2.0, 1.0]);
        let back = SavedNormalizer::from_normalizer(&normalizer).to_normalizer();
        assert_eq!(back, normalizer);
    }
}
