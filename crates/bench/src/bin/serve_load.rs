//! `serve_load` — load generator and correctness check for the prediction
//! service.
//!
//! Trains a small model, serves it over a real localhost HTTP server, and
//! fires concurrent keep-alive clients at it. Every 200 response is checked
//! **bit-identical** against a direct `predict_batch` on the same graphs;
//! any mismatch (or unexpected status) fails the run with a non-zero exit.
//! Two phases run by default — cache enabled, then cache disabled — and the
//! tool reports throughput and client-observed p50/p99 latency per phase,
//! plus the server's `/metrics` exposition after the last phase, writing
//! `results/serve_load.json`.
//!
//! `serve_load --shed` instead provokes the load-shedding path: a bound-1
//! admission queue behind one artificially slowed worker must answer part of
//! a concurrent burst with 503 + `Retry-After`, and every non-shed response
//! must still be bit-identical.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hls_gnn_core::builder::PredictorBuilder;
use hls_gnn_core::dataset::{Dataset, DatasetBuilder};
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_serve::{
    HttpClient, HttpServer, PredictRequest, PredictResponse, ServeConfig, ServiceHandle,
};
use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
use serde::Serialize;

/// Synthetic designs in the served corpus.
const DESIGNS: usize = 12;
/// Concurrent keep-alive clients of a load phase.
const CLIENTS: usize = 4;
/// Requests each client of a load phase sends.
const REQUESTS_PER_CLIENT: usize = 50;
/// Clients of the shedding drill's burst: more than the bound-1 queue and
/// its one slowed worker can absorb.
const SHED_CLIENTS: usize = 8;
/// Requests each client of the shedding drill sends.
const SHED_REQUESTS_PER_CLIENT: usize = 25;

#[derive(Debug, Serialize)]
struct PhaseReport {
    label: String,
    clients: usize,
    requests: usize,
    ok: usize,
    shed: usize,
    wall_ms: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

#[derive(Debug, Serialize)]
struct LoadReport {
    model: String,
    designs: usize,
    phases: Vec<PhaseReport>,
    /// The `/metrics` exposition at the end of the last phase.
    server_metrics: String,
}

struct Expected {
    bodies: Vec<String>,
    predictions: HashMap<String, [f64; 4]>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fires `clients × per_client` requests (round-robin over the corpus) and
/// verifies every 200 against the expected bits. Returns the phase report.
fn run_phase(
    label: &str,
    addr: std::net::SocketAddr,
    expected: &Arc<Expected>,
    clients: usize,
    per_client: usize,
) -> PhaseReport {
    let started = Instant::now();
    let mut joins = Vec::new();
    for client_index in 0..clients {
        let expected = Arc::clone(expected);
        joins.push(std::thread::spawn(move || {
            let mut client = HttpClient::new(addr);
            let mut latencies = Vec::with_capacity(per_client);
            let mut ok = 0usize;
            let mut shed = 0usize;
            for request in 0..per_client {
                let body =
                    &expected.bodies[(client_index + request * clients) % expected.bodies.len()];
                let sent = Instant::now();
                let reply = match client.post("/predict", body) {
                    Ok(reply) => reply,
                    Err(error) => panic!("client {client_index}: transport error: {error}"),
                };
                latencies.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                match reply.status {
                    200 => {
                        let parsed: PredictResponse = serde_json::from_str(&reply.body)
                            .unwrap_or_else(|error| {
                                panic!("client {client_index}: bad response body: {error}")
                            });
                        let want = expected.predictions.get(&parsed.name).unwrap_or_else(|| {
                            panic!("client {client_index}: unknown design `{}`", parsed.name)
                        });
                        assert_eq!(
                            parsed.prediction, *want,
                            "SERVED PREDICTION DIVERGED from direct predict_batch for `{}`",
                            parsed.name
                        );
                        ok += 1;
                    }
                    503 => shed += 1,
                    other => {
                        panic!("client {client_index}: unexpected status {other}: {}", reply.body)
                    }
                }
            }
            (latencies, ok, shed)
        }));
    }
    let mut latencies = Vec::new();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for join in joins {
        let (mine, my_ok, my_shed) = join.join().expect("client thread");
        latencies.extend(mine);
        ok += my_ok;
        shed += my_shed;
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    PhaseReport {
        label: label.to_owned(),
        clients,
        requests: clients * per_client,
        ok,
        shed,
        wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
        throughput_rps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        max_us: *latencies.last().unwrap_or(&0),
    }
}

fn build_corpus(designs: usize) -> Dataset {
    DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(designs)
        .seed(9)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
        .build()
        .expect("corpus builds")
}

fn main() {
    let shed_mode = std::env::args().any(|arg| arg == "--shed");
    let (clients, per_client) = if shed_mode {
        (SHED_CLIENTS, SHED_REQUESTS_PER_CLIENT)
    } else {
        (CLIENTS, REQUESTS_PER_CLIENT)
    };

    println!("serve_load: training base/gcn (fast) on {DESIGNS} synthetic designs ...");
    let dataset = build_corpus(DESIGNS);
    let split = dataset.split(0.8, 0.1, 42);
    let predictor = PredictorBuilder::parse("base/gcn")
        .expect("spec parses")
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)
        .expect("training succeeds");

    // Ground truth for the bit-identity check: direct predict_batch over the
    // exact graphs the clients will send.
    let expected = Arc::new(Expected {
        bodies: dataset
            .samples
            .iter()
            .map(|sample| {
                serde_json::to_string(&PredictRequest::for_sample(sample)).expect("serialises")
            })
            .collect(),
        predictions: dataset
            .samples
            .iter()
            .zip(predictor.predict_batch(&dataset.samples))
            .map(|(sample, result)| (sample.name.clone(), result.expect("direct prediction")))
            .collect(),
    });
    let snapshot = predictor.snapshot().expect("snapshot exports");

    let mut phases = Vec::new();
    let server_metrics;
    let report_name;
    if shed_mode {
        // One slowed worker behind a bound-1 queue: a concurrent burst must
        // shed part of its load as 503s.
        let config = ServeConfig {
            workers: 1,
            cache_capacity: 0,
            queue_bound: 1,
            worker_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let service = ServiceHandle::start(snapshot, &config).expect("service starts");
        let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
        let phase = run_phase("shed", server.local_addr(), &expected, clients, per_client);
        println!(
            "shed phase: {} ok, {} shed (503) of {} requests",
            phase.ok, phase.shed, phase.requests
        );
        assert!(phase.shed > 0, "the bound-1 queue must shed part of a {clients}-client burst");
        assert!(phase.ok > 0, "some requests must still be served under shedding");
        phases.push(phase);
        let server_shed = service
            .registry()
            .counter("hlsgnn_serve_shed_total", &[("model", service.model_name())])
            .get();
        assert_eq!(server_shed, phases[0].shed as u64, "server and client shed counts agree");
        server_metrics = service.render_metrics();
        server.shutdown();
        service.shutdown();
        report_name = "serve_load_shed";
        println!("serve_load --shed: shedding path exercised; served responses bit-identical");
    } else {
        let mut last_metrics = None;
        for (label, cache_capacity) in [("cache-on", 4096), ("cache-off", 0)] {
            let config = ServeConfig { cache_capacity, ..ServeConfig::default() };
            let service = ServiceHandle::start(snapshot.clone(), &config).expect("service starts");
            let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
            let phase = run_phase(label, server.local_addr(), &expected, clients, per_client);
            assert_eq!(phase.ok, phase.requests, "{label}: no request may fail or shed");
            println!(
                "{label}: {} requests, {:.0} req/s, p50 {} us, p99 {} us, max {} us",
                phase.requests, phase.throughput_rps, phase.p50_us, phase.p99_us, phase.max_us
            );
            phases.push(phase);
            last_metrics = Some(service.render_metrics());
            server.shutdown();
            service.shutdown();
        }
        server_metrics = last_metrics.expect("both phases ran");
        report_name = "serve_load";
        println!("serve_load: all responses bit-identical to direct predict_batch");
    }

    let report =
        LoadReport { model: "base/gcn".to_owned(), designs: DESIGNS, phases, server_metrics };
    hls_gnn_bench::write_report(report_name, &report);
}
