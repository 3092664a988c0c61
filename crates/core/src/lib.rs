//! `hls-gnn-core` — the paper's contribution: GNN-based HLS performance
//! prediction at the earliest design stage.
//!
//! This crate ties the substrates together into the system evaluated by the
//! paper:
//!
//! * [`dataset`] builds the benchmark: synthetic DFG/CDFG corpora and the
//!   real-world kernel suite, each program run through the `hls-sim` flow to
//!   obtain ground-truth labels, per-node auxiliary features and node-level
//!   resource-type labels.
//! * [`encode`] turns Table-1 features into learned embeddings, optionally
//!   augmented with the auxiliary information each approach uses.
//! * [`model`] provides the graph-level regressor (GNN stack + pooling +
//!   `hidden-2·hidden-hidden-4` head) and the node-level classifier.
//! * [`predictor`] defines the dyn-safe [`Predictor`] trait — the single
//!   interface every model is trained, batched and persisted through — and
//!   [`approach`] implements the three prediction strategies of §2 behind it
//!   (off-the-shelf, knowledge-rich, knowledge-infused hierarchical).
//! * [`builder`] constructs any approach × backbone combination at runtime
//!   from a [`PredictorSpec`] (parseable from strings like `"hier/rgcn"`),
//!   and [`persist`] snapshots trained predictors to JSON and back.
//! * [`train`] and [`metrics`] hold the shared training loops, MAPE/accuracy
//!   metrics and target normalisation. Every forward pass runs on the fused
//!   batching engine: [`gnn::GraphBatch`] disjoint-unions a chunk of graphs
//!   into one block-diagonal super-graph so a single autodiff tape covers
//!   the whole chunk, and a single graph is a chunk of one.
//! * [`runtime`] is the deterministic execution layer: the parallel runtime
//!   (thread-confined workers — the autodiff tape is `!Send` — that train
//!   and evaluate independent models concurrently and rehydrate [`persist`]
//!   snapshots per thread to shard batched inference; `HLSGNN_WORKERS`) and
//!   the fused-batching chunk plan ([`runtime::BatchConfig`]). Results are
//!   bit-identical for any worker count and chunk plan.
//! * [`experiments`] regenerates every table and figure of the evaluation
//!   section (Tables 2–5, the DFG-vs-CDFG analysis, the speed-up figure and
//!   the ablations), driving everything through the [`Predictor`] API — each
//!   sweep training its approach × backbone combinations on [`runtime`]
//!   workers.
//!
//! # Quick start
//!
//! ```
//! use hls_gnn_core::builder::PredictorBuilder;
//! use hls_gnn_core::dataset::DatasetBuilder;
//! use hls_gnn_core::predictor::Predictor;
//! use hls_gnn_core::train::TrainConfig;
//! use hls_progen::synthetic::ProgramFamily;
//!
//! # fn main() -> Result<(), hls_gnn_core::Error> {
//! // A tiny corpus so the example runs in seconds.
//! let dataset = DatasetBuilder::new(ProgramFamily::StraightLine).count(24).seed(7).build()?;
//! let split = dataset.split(0.8, 0.1, 42);
//!
//! // Select the model from a config string and train it.
//! let predictor = PredictorBuilder::parse("base/sage")?
//!     .config(TrainConfig::fast())
//!     .train(&split.train, &split.validation)?;
//!
//! // Batched inference over the whole held-out set in one call.
//! let predictions = predictor.predict_batch(&split.test.samples);
//! assert_eq!(predictions.len(), split.test.len());
//! let mape = predictor.evaluate(&split.test);
//! assert!(mape.iter().all(|m| m.is_finite()));
//!
//! // Persist the trained model and revive it elsewhere.
//! let snapshot = predictor.save_json()?;
//! let reloaded = hls_gnn_core::builder::load_predictor(&snapshot)?;
//! assert_eq!(
//!     reloaded.predict(&split.test.samples[0])?,
//!     predictor.predict(&split.test.samples[0])?,
//! );
//! # Ok(())
//! # }
//! ```

pub mod approach;
pub mod builder;
pub mod dataset;
pub mod encode;
pub mod experiments;
pub mod export;
pub mod fingerprint;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod predictor;
pub mod runtime;
pub mod task;
pub mod train;

use std::fmt;

pub use approach::{
    hls_baseline_mape, seed_averaged_mape, seed_averaged_mape_source, seed_averaged_mape_with,
    GnnPredictor,
};
pub use builder::{
    load_predictor, load_predictor_from_reader, ApproachKind, PredictorBuilder, PredictorSpec,
};
pub use dataset::{Dataset, DatasetBuilder, GraphSample, SampleSource, Split};
pub use encode::{FeatureEncoder, FeatureMode};
pub use fingerprint::{sample_fingerprint, Fingerprint};
pub use metrics::{accuracy, f1_score, kendall_tau, mape, rmse, spearman_rho, TargetNormalizer};
pub use persist::SavedPredictor;
pub use predictor::Predictor;
pub use runtime::{predict_batch_sharded, BatchConfig, ParallelConfig};
pub use task::{ResourceClass, TargetMetric};
pub use train::TrainConfig;

/// Errors produced by dataset construction, training, or evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The HLS front end or flow failed on a program.
    Flow(String),
    /// A dataset was too small for the requested split or training run.
    DatasetTooSmall(String),
    /// A model was used before being trained.
    NotTrained(String),
    /// Configuration error (invalid hyper-parameters, unknown model name, ...).
    Config(String),
    /// Malformed serialised input: truncated or invalid JSON, a snapshot from
    /// an unknown future format version, or a structurally invalid exported
    /// graph. Distinct from [`Error::Config`] so callers that accept
    /// untrusted bytes (the serving subsystem, file loaders) can map parse
    /// failures to "bad request" rather than "server misconfigured".
    Parse(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Flow(msg) => write!(f, "hls flow error: {msg}"),
            Error::DatasetTooSmall(msg) => write!(f, "dataset too small: {msg}"),
            Error::NotTrained(msg) => write!(f, "model not trained: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<hls_sim::Error> for Error {
    fn from(e: hls_sim::Error) -> Self {
        Error::Flow(e.to_string())
    }
}

impl From<hls_ir::Error> for Error {
    fn from(e: hls_ir::Error) -> Self {
        Error::Flow(e.to_string())
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
