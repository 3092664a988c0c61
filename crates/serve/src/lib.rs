//! `hls-gnn-serve` — a dependency-free prediction service over trained
//! HLS-GNN predictors.
//!
//! The paper's end goal is scoring thousands of candidate designs inside a
//! design-space-exploration loop; this crate puts a trained model behind a
//! request/response boundary so any process can do that over HTTP. The whole
//! subsystem is std-only, consistent with the workspace's offline-shim
//! constraint.
//!
//! # Pieces
//!
//! * [`server`] — a [`std::net::TcpListener`]-based HTTP/1.1 frontend with a
//!   hand-rolled parser ([`http`]), accepting JSON prediction requests plus
//!   `/metrics`: the Prometheus-style text exposition of the service's
//!   [`hls_gnn_obs`] registry, the one record of every serving count.
//! * [`queue`] — the bounded FIFO request queue: workers pop one request at
//!   a time, and a full queue sheds requests with 503.
//! * [`service`] — the sharded worker pool behind the embeddable
//!   [`ServiceHandle`]: N thread-confined workers each rehydrate the model
//!   from a `SavedPredictor` snapshot (the autodiff engine's thread-local
//!   arena tape is `!Send`, so it never crosses threads), pop requests and
//!   predict each one alone, one design per forward. Inference resets its
//!   tape after every forward, so a long-running worker stays at
//!   steady-state memory — the arenas are recycled, not reallocated, per
//!   request. A panic inside the model fails only its own request (500);
//!   the worker keeps serving.
//! * [`cache`] — a bounded LRU prediction cache keyed by a canonical content
//!   fingerprint ([`fingerprint`], re-exported from
//!   [`hls_gnn_core::fingerprint`] — the same memoisation key the DSE
//!   engine uses) of the request graph, counting hits, misses and
//!   evictions into the service's registry.
//! * [`reqlog`] — request-scoped tracing: every admitted request gets a
//!   monotonic id (echoed in the response, the access log and trace spans),
//!   resolves into a [`reqlog::RequestRecord`] decomposing its latency into
//!   queue wait and service time, and lands in a bounded slow-request ring
//!   served at `GET /debug/slow`.
//! * [`client`] — a minimal blocking HTTP client for the load generator,
//!   tests and examples.
//!
//! Because inference is deterministic and runs one design per forward,
//! **served predictions are bit-identical to a direct
//! [`hls_gnn_core::Predictor::predict_batch`] call** on the same graphs — for
//! any worker count, any arrival order, and with the cache on or off.
//!
//! # In-process quick start
//!
//! ```
//! use hls_gnn_core::builder::PredictorBuilder;
//! use hls_gnn_core::dataset::DatasetBuilder;
//! use hls_gnn_core::predictor::Predictor;
//! use hls_gnn_core::train::TrainConfig;
//! use hls_gnn_serve::{ServeConfig, ServiceHandle};
//! use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
//!     .count(12)
//!     .seed(3)
//!     .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
//!     .build()?;
//! let split = dataset.split(0.8, 0.1, 1);
//! let predictor = PredictorBuilder::parse("base/gcn")?
//!     .config(TrainConfig::fast())
//!     .train(&split.train, &split.validation)?;
//!
//! let config = ServeConfig { workers: 2, ..ServeConfig::default() };
//! let service = ServiceHandle::start(predictor.snapshot()?, &config)?;
//! let served = service.predict_sample(split.test.samples[0].clone())?;
//! assert_eq!(served.prediction, predictor.predict(&split.test.samples[0])?);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod reqlog;
pub mod server;
pub mod service;

pub use cache::PredictionCache;
pub use client::{HttpClient, HttpReply};
pub use fingerprint::{sample_fingerprint, Fingerprint};
pub use protocol::{ErrorResponse, PredictRequest, PredictResponse, SlowRequestsResponse};
pub use queue::{BoundedQueue, SubmitError};
pub use reqlog::{Outcome, RequestLog, RequestRecord};
pub use server::HttpServer;
pub use service::{ServeConfig, ServeError, Served, ServiceHandle};
