//! Wire types of the prediction service.
//!
//! Requests and responses are plain JSON. A prediction request carries
//! *either* a serialised graph in the benchmark release format
//! ([`ExportedGraph`], the same schema `export_dataset` writes) *or* the name
//! of a built-in real-world kernel from `hls-progen` (e.g. `"ms_gemm"`),
//! which the service lowers through the HLS flow on first use and then
//! memoises. Responses echo the design name and report the raw
//! `[DSP, LUT, FF, CP]` prediction plus serving metadata (cache hit,
//! requests computed, latency).

use serde::{Deserialize, Serialize};

use hls_gnn_core::dataset::GraphSample;
use hls_gnn_core::export::ExportedGraph;
use hls_gnn_core::task::TargetMetric;

use crate::reqlog::RequestRecord;

/// A prediction request: exactly one of `graph` / `kernel` must be present.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// A full graph in the benchmark release format.
    pub graph: Option<ExportedGraph>,
    /// The name of a built-in real-world kernel (MachSuite / CHStone /
    /// PolyBench analogue).
    pub kernel: Option<String>,
}

impl PredictRequest {
    /// A request carrying the given sample as a serialised graph.
    pub fn for_sample(sample: &GraphSample) -> Self {
        PredictRequest { graph: Some(ExportedGraph::from(sample)), kernel: None }
    }

    /// A request naming a built-in kernel.
    pub fn for_kernel(name: impl Into<String>) -> Self {
        PredictRequest { graph: None, kernel: Some(name.into()) }
    }
}

/// A successful prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// The design name (echoed from the graph, or the kernel name).
    pub name: String,
    /// The server-assigned monotonic request id — the same id the access
    /// log and `/debug/slow` report, for correlating a reply with the
    /// server-side records of how it was computed.
    pub request_id: u64,
    /// Raw `[DSP, LUT, FF, CP]` prediction — bit-identical to what
    /// `Predictor::predict_batch` returns for the same graph in-process.
    pub prediction: [f64; TargetMetric::COUNT],
    /// True when the prediction came from the cache.
    pub cached: bool,
    /// Requests the forward pass that computed this prediction served: 1
    /// when computed, 0 for cache hits (nothing was computed).
    pub coalesced: usize,
    /// Server-side latency in microseconds, from admission to completion.
    pub latency_us: u64,
}

/// A JSON error body (sent with 4xx/5xx statuses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable description.
    pub error: String,
}

/// One slow (or otherwise retained) request in the `/debug/slow` document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowRequestBody {
    /// Monotonic request id (matches [`PredictResponse::request_id`] and the
    /// access log).
    pub id: u64,
    /// `served`, `cache_hit`, `shed` or `error`.
    pub outcome: String,
    /// Admission to worker pick-up, microseconds.
    pub queue_wait_us: u64,
    /// Worker pick-up to reply, microseconds.
    pub service_us: u64,
    /// End-to-end latency, microseconds.
    pub latency_us: u64,
}

impl From<&RequestRecord> for SlowRequestBody {
    fn from(record: &RequestRecord) -> Self {
        SlowRequestBody {
            id: record.id,
            outcome: record.outcome.name().to_owned(),
            queue_wait_us: record.queue_wait_us,
            service_us: record.service_us,
            latency_us: record.latency_us,
        }
    }
}

/// The `GET /debug/slow` document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowRequestsResponse {
    /// Latency threshold (microseconds) at or above which requests are
    /// retained here (`HLSGNN_SERVE_SLOW_US`).
    pub threshold_us: u64,
    /// Lifetime count of requests that crossed the threshold (the retained
    /// ring below is bounded; this is not).
    pub total: u64,
    /// The most recent slow requests, oldest first.
    pub requests: Vec<SlowRequestBody>,
}

impl SlowRequestsResponse {
    /// Builds the document from the slow ring's contents.
    pub fn new(threshold_us: u64, total: u64, records: &[RequestRecord]) -> Self {
        SlowRequestsResponse {
            threshold_us,
            total,
            requests: records.iter().map(SlowRequestBody::from).collect(),
        }
    }
}
