//! The in-process prediction service: bounded queue + sharded workers +
//! prediction cache behind an embeddable [`ServiceHandle`].
//!
//! # Architecture
//!
//! * Frontend threads (HTTP connections, tests, the load generator) call
//!   [`ServiceHandle::predict_sample`]. The request is fingerprinted
//!   ([`crate::fingerprint::sample_fingerprint`]); a cache hit returns
//!   immediately, a miss is admitted to the [`crate::queue::BoundedQueue`]
//!   (or shed with [`ServeError::Overloaded`] when the queue is full).
//! * N worker threads each rehydrate their own model from the shared
//!   [`SavedPredictor`] snapshot — the autodiff tape is `Rc`-based and
//!   `!Send`, so live models never cross threads; only the plain-data
//!   snapshot does (the same discipline as the training runtime). Each
//!   worker pops one request and predicts it with [`Predictor::predict`],
//!   one design per forward. A panic inside the model is contained to its
//!   request, which is answered with [`ServeError::Model`]; the worker
//!   resets its tape and keeps serving.
//! * Served results are therefore bit-identical to a direct `predict_batch`
//!   call on the same graphs, whichever worker took a request and whether
//!   the cache was involved.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hls_gnn_core::approach::GnnPredictor;
use hls_gnn_core::dataset::GraphSample;
use hls_gnn_core::persist::SavedPredictor;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::task::TargetMetric;
use hls_gnn_obs::{Counter, Gauge, Histogram, Registry};
use hls_ir::graph::GraphKind;
use hls_sim::FpgaDevice;

use crate::cache::PredictionCache;
use crate::fingerprint::{sample_fingerprint, Fingerprint};
use crate::protocol::{PredictRequest, SlowRequestsResponse};
use crate::queue::{BoundedQueue, SubmitError};
use crate::reqlog::{Outcome, RequestLog, RequestRecord};

/// Serving-layer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queue is at its admission bound; the request was shed. Retry
    /// later (the HTTP frontend maps this to 503).
    Overloaded {
        /// The configured queue bound, for the error message.
        queue_bound: usize,
    },
    /// The request itself is malformed (bad graph, unknown kernel, both or
    /// neither payload present). Maps to 400.
    BadRequest(String),
    /// The model failed on an admitted request. Maps to 500.
    Model(hls_gnn_core::Error),
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_bound } => {
                write!(f, "service overloaded: queue is at its bound of {queue_bound}; retry later")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Model(error) => write!(f, "prediction failed: {error}"),
            ServeError::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<hls_gnn_core::Error> for ServeError {
    fn from(error: hls_gnn_core::Error) -> Self {
        ServeError::Model(error)
    }
}

/// Service configuration. Every field but `worker_delay` also has an
/// `HLSGNN_SERVE_*` environment variable (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads; 0 = one per available hardware thread.
    pub workers: usize,
    /// Prediction-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// Queue admission bound (requests waiting); beyond it requests are shed
    /// with 503. Clamped to at least 1.
    pub queue_bound: usize,
    /// Artificial per-request delay, for load/shedding tests. Set only
    /// in code, never from the environment; zero in production.
    pub worker_delay: Duration,
    /// Requests at or above this end-to-end latency (microseconds) are
    /// retained in the slow-request ring served at `GET /debug/slow` and
    /// counted by `hlsgnn_serve_slow_total`. 0 captures every request.
    pub slow_threshold_us: u64,
    /// Emit one structured access-log line per request on stderr
    /// (`HLSGNN_SERVE_ACCESS_LOG=0` disables).
    pub access_log: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_capacity: 1024,
            queue_bound: 256,
            worker_delay: Duration::ZERO,
            slow_threshold_us: 100_000,
            access_log: true,
        }
    }
}

impl ServeConfig {
    /// Environment variable naming the worker count.
    pub const WORKERS_ENV_VAR: &'static str = "HLSGNN_SERVE_WORKERS";
    /// Environment variable naming the cache capacity.
    pub const CACHE_ENV_VAR: &'static str = "HLSGNN_SERVE_CACHE";
    /// Environment variable naming the queue bound.
    pub const QUEUE_ENV_VAR: &'static str = "HLSGNN_SERVE_QUEUE";
    /// Environment variable naming the slow-request threshold (µs).
    pub const SLOW_ENV_VAR: &'static str = "HLSGNN_SERVE_SLOW_US";
    /// Environment variable toggling the stderr access log (0 disables).
    pub const ACCESS_LOG_ENV_VAR: &'static str = "HLSGNN_SERVE_ACCESS_LOG";

    /// Reads the configuration from the `HLSGNN_SERVE_*` environment
    /// variables, falling back to the defaults for unset, empty or
    /// unparseable values (unparseable values warn on stderr, consistent
    /// with `HLSGNN_WORKERS`).
    pub fn from_env() -> Self {
        let defaults = ServeConfig::default();
        let parse = |var: &str, default: usize| -> usize {
            let raw = std::env::var(var).unwrap_or_default();
            let raw = raw.trim();
            if raw.is_empty() {
                return default;
            }
            match raw.parse::<usize>() {
                Ok(value) => value,
                Err(_) => {
                    eprintln!(
                        "warning: unrecognised {var} value `{raw}`; using the default \
                         ({default})"
                    );
                    default
                }
            }
        };
        ServeConfig {
            workers: parse(Self::WORKERS_ENV_VAR, defaults.workers),
            cache_capacity: parse(Self::CACHE_ENV_VAR, defaults.cache_capacity),
            queue_bound: parse(Self::QUEUE_ENV_VAR, defaults.queue_bound),
            slow_threshold_us: parse(
                Self::SLOW_ENV_VAR,
                usize::try_from(defaults.slow_threshold_us).unwrap_or(usize::MAX),
            ) as u64,
            access_log: parse(Self::ACCESS_LOG_ENV_VAR, usize::from(defaults.access_log)) != 0,
            ..defaults
        }
    }
}

/// One served prediction plus its serving metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// Monotonic request id assigned at admission (1-based); the same id
    /// appears in the access log and `/debug/slow`.
    pub request_id: u64,
    /// Raw `[DSP, LUT, FF, CP]` prediction.
    pub prediction: [f64; TargetMetric::COUNT],
    /// True when the prediction came from the cache.
    pub cached: bool,
    /// Requests the computing forward pass served: 1 when computed, 0 for
    /// cache hits.
    pub coalesced: usize,
    /// Admission to worker pick-up (zero for cache hits).
    pub queue_wait: Duration,
    /// Admission-to-completion latency.
    pub latency: Duration,
}

struct Job {
    id: u64,
    sample: GraphSample,
    fingerprint: Fingerprint,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Served, ServeError>>,
}

/// The service's metric handles, all registered in its per-service
/// [`Registry`] under a `model` label — the only record of the service's
/// counts, rendered by `/metrics`.
struct ServeMetrics {
    requests: Arc<Counter>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    errors: Arc<Counter>,
    slow: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    latency_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    queue_bound: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    workers: Arc<Gauge>,
}

impl ServeMetrics {
    fn register(registry: &Registry, model: &str) -> Self {
        let labels: &[(&str, &str)] = &[("model", model)];
        ServeMetrics {
            requests: registry.counter("hlsgnn_serve_requests_total", labels),
            served: registry.counter("hlsgnn_serve_served_total", labels),
            shed: registry.counter("hlsgnn_serve_shed_total", labels),
            errors: registry.counter("hlsgnn_serve_errors_total", labels),
            slow: registry.counter("hlsgnn_serve_slow_total", labels),
            cache_hits: registry.counter("hlsgnn_serve_cache_hits_total", labels),
            cache_misses: registry.counter("hlsgnn_serve_cache_misses_total", labels),
            cache_evictions: registry.counter("hlsgnn_serve_cache_evictions_total", labels),
            latency_us: registry.histogram("hlsgnn_serve_latency_us", labels),
            queue_wait_us: registry.histogram("hlsgnn_serve_queue_wait_us", labels),
            queue_depth: registry.gauge("hlsgnn_serve_queue_depth", labels),
            queue_bound: registry.gauge("hlsgnn_serve_queue_bound", labels),
            cache_entries: registry.gauge("hlsgnn_serve_cache_entries", labels),
            cache_capacity: registry.gauge("hlsgnn_serve_cache_capacity", labels),
            workers: registry.gauge("hlsgnn_serve_workers", labels),
        }
    }

    fn record_latency(&self, latency: Duration) {
        self.latency_us.record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }
}

struct ServiceInner {
    snapshot: SavedPredictor,
    model: String,
    queue: BoundedQueue<Job>,
    cache: Mutex<PredictionCache>,
    registry: Arc<Registry>,
    metrics: ServeMetrics,
    kernel_samples: Mutex<HashMap<String, GraphSample>>,
    next_id: AtomicU64,
    reqlog: RequestLog,
    worker_delay: Duration,
}

/// Handle to a running in-process prediction service. Cloneable; all clones
/// drive the same service. Call [`ServiceHandle::shutdown`] to stop the
/// workers (drains the backlog first).
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServiceHandle {
    /// Starts the service: validates that the snapshot rehydrates, then
    /// spawns the worker pool. Each worker owns a thread-confined model
    /// rebuilt from the snapshot.
    ///
    /// # Errors
    /// Returns the rehydration error when the snapshot does not describe a
    /// loadable model (the failure surfaces here, once, instead of inside
    /// every worker).
    pub fn start(snapshot: SavedPredictor, config: &ServeConfig) -> hls_gnn_core::Result<Self> {
        // Fail fast — and give the workers the right to assume success.
        let probe = GnnPredictor::from_saved(&snapshot)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let model = probe.spec().name();
        // A per-service registry keeps counters exact when several services
        // share a process (each test boots its own); `/metrics` renders this
        // registry plus the process-global one.
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::register(&registry, &model);
        let cache = PredictionCache::with_counters(
            config.cache_capacity,
            Arc::clone(&metrics.cache_hits),
            Arc::clone(&metrics.cache_misses),
            Arc::clone(&metrics.cache_evictions),
        );
        let queue = BoundedQueue::new(config.queue_bound);
        // Fixed for the service's lifetime, so set once here; the gauges
        // that move are refreshed at scrape time by `render_metrics`.
        metrics.queue_bound.set(i64::try_from(queue.bound()).unwrap_or(i64::MAX));
        metrics.cache_capacity.set(i64::try_from(cache.capacity()).unwrap_or(i64::MAX));
        metrics.workers.set(i64::try_from(workers).unwrap_or(i64::MAX));
        let reqlog = RequestLog::new(model.clone(), config.slow_threshold_us, config.access_log);
        let inner = Arc::new(ServiceInner {
            model,
            snapshot,
            queue,
            cache: Mutex::new(cache),
            registry,
            metrics,
            kernel_samples: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            reqlog,
            worker_delay: config.worker_delay,
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hls-gnn-serve-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a worker thread")
            })
            .collect();
        Ok(ServiceHandle { inner, workers: Arc::new(Mutex::new(handles)) })
    }

    /// Serves one sample: cache lookup, then a worker's forward pass.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::Model`] when prediction fails,
    /// [`ServeError::ShuttingDown`] after [`ServiceHandle::shutdown`].
    pub fn predict_sample(&self, sample: GraphSample) -> Result<Served, ServeError> {
        // A stopping service refuses *all* new requests, cached or not —
        // "shutdown but still answering reads" would be a confusing
        // half-state for operators draining traffic away.
        if self.inner.queue.is_closed() {
            return Err(ServeError::ShuttingDown);
        }
        // Ids are assigned at admission, before the cache/queue fork, so the
        // access log and `/debug/slow` account for every request the service
        // looked at — whichever path answered it. The id rides along as a
        // span argument, so a trace sink can stitch the request's spans back
        // together across threads.
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let _request_span = hls_gnn_obs::span!("serve_request", id = id);
        let admitted = Instant::now();
        let fingerprint = sample_fingerprint(&sample);
        let hit = {
            let _lookup_span = hls_gnn_obs::span!("serve_cache_lookup", id = id);
            self.inner.cache.lock().expect("cache lock").get(fingerprint)
        };
        if let Some(prediction) = hit {
            // `requests` counts admissions only (cache hits and enqueued
            // work) — shed and refused requests have their own counters, so
            // the identities `requests = served + errors + in flight` and
            // `shed ∉ requests` hold.
            self.inner.metrics.requests.inc();
            let latency = admitted.elapsed();
            self.inner.metrics.record_latency(latency);
            self.inner.metrics.served.inc();
            self.inner.finish(RequestRecord {
                id,
                outcome: Outcome::CacheHit,
                queue_wait_us: 0,
                service_us: 0,
                latency_us: micros(latency),
            });
            return Ok(Served {
                request_id: id,
                prediction,
                cached: true,
                coalesced: 0,
                queue_wait: Duration::ZERO,
                latency,
            });
        }
        let (reply, receiver) = mpsc::channel();
        let job = Job { id, sample, fingerprint, enqueued: admitted, reply };
        self.inner.queue.try_submit(job).map_err(|rejected| match rejected {
            SubmitError::Full(_) => {
                self.inner.metrics.shed.inc();
                self.inner.finish(RequestRecord {
                    id,
                    outcome: Outcome::Shed,
                    queue_wait_us: 0,
                    service_us: 0,
                    latency_us: micros(admitted.elapsed()),
                });
                ServeError::Overloaded { queue_bound: self.inner.queue.bound() }
            }
            SubmitError::Closed(_) => ServeError::ShuttingDown,
        })?;
        self.inner.metrics.requests.inc();
        // A dropped sender (worker gone mid-shutdown) reads as shutdown.
        receiver.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Serves a wire-format request: resolves the graph or kernel payload,
    /// then predicts. Returns the design name alongside the result.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for malformed payloads, plus everything
    /// [`ServiceHandle::predict_sample`] returns.
    pub fn predict_request(
        &self,
        request: &PredictRequest,
    ) -> Result<(String, Served), ServeError> {
        let (name, sample) = self.resolve(request)?;
        let served = self.predict_sample(sample)?;
        Ok((name, served))
    }

    fn resolve(&self, request: &PredictRequest) -> Result<(String, GraphSample), ServeError> {
        match (&request.graph, &request.kernel) {
            (Some(_), Some(_)) => Err(ServeError::BadRequest(
                "provide either `graph` or `kernel`, not both".to_owned(),
            )),
            (None, None) => Err(ServeError::BadRequest(
                "the request must carry a `graph` payload or a `kernel` name".to_owned(),
            )),
            (Some(graph), None) => {
                let sample =
                    graph.to_sample().map_err(|error| ServeError::BadRequest(error.to_string()))?;
                Ok((graph.name.clone(), sample))
            }
            (None, Some(kernel)) => self.kernel_sample(kernel),
        }
    }

    /// Looks a built-in kernel up, lowering it through the HLS flow once and
    /// memoising the resulting sample (the flow is deterministic).
    fn kernel_sample(&self, name: &str) -> Result<(String, GraphSample), ServeError> {
        if let Some(sample) = self.inner.kernel_samples.lock().expect("kernel lock").get(name) {
            return Ok((name.to_owned(), sample.clone()));
        }
        let kernel = hls_progen::all_kernels()
            .into_iter()
            .find(|kernel| kernel.name == name)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown kernel `{name}`")))?;
        // The flow hard-gates its input through the IR verifier; a frontend
        // or verification failure means the requested program is rejected
        // input (400), not a broken server.
        let sample =
            GraphSample::from_function(&kernel.function, GraphKind::Cdfg, &FpgaDevice::default())
                .map_err(|error| match error {
                hls_gnn_core::Error::Flow(message) => ServeError::BadRequest(format!(
                    "kernel `{name}` was rejected by the HLS flow: {message}"
                )),
                other => ServeError::Model(other),
            })?;
        self.inner
            .kernel_samples
            .lock()
            .expect("kernel lock")
            .insert(name.to_owned(), sample.clone());
        Ok((name.to_owned(), sample))
    }

    /// The `/debug/slow` document: the configured threshold, the lifetime
    /// slow-request count, and the retained slow records (oldest first).
    pub fn slow_requests(&self) -> SlowRequestsResponse {
        SlowRequestsResponse::new(
            self.inner.reqlog.slow_threshold_us(),
            self.inner.metrics.slow.get(),
            &self.inner.reqlog.slow(),
        )
    }

    /// Renders the `/metrics` document: this service's registry (with the
    /// queue-depth and cache-entries gauges refreshed at scrape time)
    /// followed by the process-global registry (training, flow and DSE
    /// metrics).
    pub fn render_metrics(&self) -> String {
        let metrics = &self.inner.metrics;
        metrics.queue_depth.set(i64::try_from(self.inner.queue.len()).unwrap_or(i64::MAX));
        let entries = self.inner.cache.lock().expect("cache lock").len();
        metrics.cache_entries.set(i64::try_from(entries).unwrap_or(i64::MAX));
        let mut text = self.inner.registry.render();
        text.push_str(&hls_gnn_obs::global().render());
        text
    }

    /// This service's private metrics registry (the one `/metrics` renders
    /// ahead of the process-global registry). Its queue-depth and
    /// cache-entries gauges read as of the last [`Self::render_metrics`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The model name in paper notation (e.g. `"RGCN-I"`).
    pub fn model_name(&self) -> &str {
        &self.inner.model
    }

    /// Graceful shutdown: closes the queue (new submissions are refused),
    /// lets the workers drain the backlog, and joins them. Idempotent; safe
    /// to call from any clone.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let mut workers = self.workers.lock().expect("worker lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ServiceInner {
    /// Final accounting for one resolved request: the access-log line and
    /// retention rings, plus the slow counter when it crossed the threshold.
    fn finish(&self, record: RequestRecord) {
        if self.reqlog.record(record) {
            self.metrics.slow.inc();
        }
    }
}

fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

fn worker_loop(inner: &ServiceInner) {
    // Thread-confined model: rebuilt here, on this worker's thread, from the
    // shared plain-data snapshot. `start` validated the snapshot, so a
    // failure can only mean the process is out of memory — exit the worker.
    let Ok(predictor) = GnnPredictor::from_saved(&inner.snapshot) else {
        return;
    };
    while let Some(job) = inner.queue.pop() {
        // Pick-up splits the request's latency in two: queue wait (admission
        // to here) and service time (here to reply — including the
        // artificial delay, which models processing, not waiting).
        let pickup = Instant::now();
        let queue_wait = pickup.duration_since(job.enqueued);
        inner.metrics.queue_wait_us.record(micros(queue_wait));
        if !inner.worker_delay.is_zero() {
            std::thread::sleep(inner.worker_delay);
        }
        let result = {
            let _infer_span = hls_gnn_obs::span!("serve_infer", id = job.id);
            predict_contained(&predictor, &job.sample)
        };
        let record = |outcome, latency: Duration| RequestRecord {
            id: job.id,
            outcome,
            queue_wait_us: micros(queue_wait),
            service_us: micros(pickup.elapsed()),
            latency_us: micros(latency),
        };
        let outcome = match result {
            Ok(prediction) => {
                inner.cache.lock().expect("cache lock").insert(job.fingerprint, prediction);
                let latency = job.enqueued.elapsed();
                inner.metrics.record_latency(latency);
                inner.metrics.served.inc();
                inner.finish(record(Outcome::Served, latency));
                Ok(Served {
                    request_id: job.id,
                    prediction,
                    cached: false,
                    coalesced: 1,
                    queue_wait,
                    latency,
                })
            }
            Err(error) => {
                inner.metrics.errors.inc();
                inner.finish(record(Outcome::Error, job.enqueued.elapsed()));
                Err(ServeError::Model(error))
            }
        };
        // The requester may have given up; dropping the result is fine.
        let _ = job.reply.send(outcome);
    }
}

/// Predicts one design, containing a panic inside the model to this
/// request: the unwound forward pass leaves this thread's tape half
/// recorded, so it is reset before the worker takes the next request, and
/// the request fails with [`hls_gnn_core::Error::Internal`].
fn predict_contained(
    predictor: &GnnPredictor,
    sample: &GraphSample,
) -> hls_gnn_core::Result<[f64; TargetMetric::COUNT]> {
    std::panic::catch_unwind(AssertUnwindSafe(|| predictor.predict(sample))).unwrap_or_else(
        |payload| {
            gnn_tensor::tape::reset();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(hls_gnn_core::Error::Internal(format!("the model panicked: {message}")))
        },
    )
}
