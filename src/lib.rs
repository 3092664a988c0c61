//! Facade crate re-exporting the whole HLS-GNN performance-prediction suite.
//!
//! See the individual crates for details:
//! - [`hls_ir`]: IR graphs (DFG/CDFG) and node/edge features.
//! - [`hls_progen`]: synthetic program generator and real-world kernels.
//! - [`hls_sim`]: HLS scheduling/binding simulator and implementation model.
//! - [`hls_gnn_analyze`]: static analysis — the IR verifier, a generic
//!   dataflow framework (dominators, liveness, def-use, loop nests) and
//!   analytic lower bounds on latency/II/port pressure.
//! - [`gnn_tensor`]: autodiff tensor engine.
//! - [`gnn`]: message-passing layers and models.
//! - [`hls_gnn_core`]: the prediction engine — the [`prelude::Predictor`]
//!   API, builder/registry, batched inference, in-memory snapshots, and the
//!   experiment harness.
//! - [`hls_gnn_store`]: persistence — the checksummed `.hgns` container,
//!   the only on-disk form of a trained predictor, the sharded streaming
//!   dataset store, and the `hls-gnn-pack` CLI.
//! - [`hls_gnn_serve`]: the serving subsystem — an HTTP frontend, a bounded
//!   request queue, sharded workers predicting one request per forward and
//!   a prediction cache over trained snapshots.
//! - [`hls_gnn_obs`]: the observability layer — a lock-free metrics
//!   registry (counters, gauges, bucketed histograms with quantile
//!   readout), RAII stage spans with an optional `HLSGNN_TRACE` JSONL
//!   sink, and the Prometheus-style text exposition behind `/metrics`.
//! - [`hls_gnn_dse`]: the design-space exploration subsystem — typed knob
//!   spaces over kernel templates, pluggable search strategies (exhaustive,
//!   random, annealing, NSGA-II) and Pareto/hypervolume machinery over the
//!   four predicted targets.
//!
//! Most users only need the [`prelude`]:
//!
//! ```
//! use hls_gnn::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetBuilder::new(ProgramFamily::StraightLine).count(16).seed(1).build()?;
//! let split = dataset.split(0.8, 0.1, 1);
//! let predictor = PredictorBuilder::parse("base/gcn")?
//!     .config(TrainConfig::fast())
//!     .train(&split.train, &split.validation)?;
//! let bytes = encode_snapshot(&predictor.snapshot()?)?; // a `.hgns` file's contents
//! let served = GnnPredictor::from_saved(&decode_snapshot(&bytes)?)?;
//! assert_eq!(
//!     served.predict_batch(&split.test.samples).len(),
//!     split.test.len(),
//! );
//! # Ok(())
//! # }
//! ```

pub use gnn;
pub use gnn_tensor;
pub use hls_gnn_analyze;
pub use hls_gnn_core;
pub use hls_gnn_dse;
pub use hls_gnn_obs;
pub use hls_gnn_serve;
pub use hls_gnn_store;
pub use hls_ir;
pub use hls_progen;
pub use hls_sim;

/// The curated single-import surface of the prediction engine: everything
/// needed to build a corpus, construct any predictor from a spec, train it,
/// batch-predict, and write/reload trained models as `.hgns` snapshots.
pub mod prelude {
    pub use gnn::{GnnKind, GraphBatch, Pooling};
    pub use hls_gnn_core::approach::{
        hls_baseline_mape, seed_averaged_mape, seed_averaged_mape_with, GnnPredictor,
    };
    pub use hls_gnn_core::builder::{ApproachKind, PredictorBuilder, PredictorSpec};
    pub use hls_gnn_core::dataset::{Dataset, DatasetBuilder, GraphSample, SampleSource, Split};
    pub use hls_gnn_core::experiments::{ExperimentConfig, ExperimentScale};
    pub use hls_gnn_core::persist::SavedPredictor;
    pub use hls_gnn_core::predictor::Predictor;
    pub use hls_gnn_core::runtime::{predict_batch_sharded, BatchConfig, ParallelConfig};
    pub use hls_gnn_core::task::{ResourceClass, TargetMetric};
    pub use hls_gnn_core::train::TrainConfig;
    pub use hls_gnn_core::Error;
    pub use hls_gnn_dse::{
        DesignPoint, DesignSpace, Evaluator, Exhaustive, Exploration, Explorer, Nsga2,
        RandomSearch, SimulatedAnnealing,
    };
    pub use hls_gnn_serve::{ServeConfig, ServiceHandle};
    pub use hls_gnn_store::{
        decode_snapshot, encode_snapshot, snapshot_from_file, ShardedDataset, SyntheticSpill,
    };
    pub use hls_progen::synthetic::ProgramFamily;
    pub use hls_sim::{DeviceCatalog, FpgaDevice};
}
