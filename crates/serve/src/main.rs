//! `hls-gnn-serve` — serve a trained predictor over HTTP.
//!
//! ```text
//! hls-gnn-serve model.hgns       # serve a snapshot written by train_predict
//! hls-gnn-serve --demo           # train a small demo model, then serve it
//! ```
//!
//! Environment knobs: `HLSGNN_SERVE_HOST` / `HLSGNN_SERVE_PORT` (bind
//! address, default `127.0.0.1:7878`), `HLSGNN_SERVE_WORKERS`,
//! `HLSGNN_SERVE_CACHE`, `HLSGNN_SERVE_QUEUE`, `HLSGNN_SERVE_SLOW_US`
//! (slow-request threshold for `GET /debug/slow`), `HLSGNN_SERVE_ACCESS_LOG`
//! (0 silences the per-request stderr access log). Each worker predicts one
//! request per forward pass.
//! `POST /shutdown` stops the server gracefully. On panic, the in-memory
//! flight recorder is dumped to stderr and `results/flightrec.json`.

use hls_gnn_core::builder::PredictorBuilder;
use hls_gnn_core::dataset::DatasetBuilder;
use hls_gnn_core::persist::SavedPredictor;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_serve::{HttpServer, ServeConfig, ServiceHandle};
use hls_progen::synthetic::ProgramFamily;

fn fail(message: &str) -> ! {
    eprintln!("hls-gnn-serve: {message}");
    std::process::exit(2);
}

fn demo_snapshot() -> SavedPredictor {
    eprintln!("training a demo model (base/gcn, fast config) on a synthetic corpus ...");
    let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(24)
        .seed(7)
        .build()
        .unwrap_or_else(|error| fail(&format!("demo corpus failed: {error}")));
    let split = dataset.split(0.8, 0.1, 42);
    let predictor = PredictorBuilder::parse("base/gcn")
        .expect("demo spec parses")
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)
        .unwrap_or_else(|error| fail(&format!("demo training failed: {error}")));
    predictor.snapshot().unwrap_or_else(|error| fail(&format!("demo snapshot failed: {error}")))
}

fn main() {
    // Keep the last moments of every thread: on panic, the flight recorder
    // dumps its per-thread span rings to stderr and this file.
    hls_gnn_obs::install_panic_hook("results/flightrec.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let snapshot = match args.as_slice() {
        [flag] if flag == "--demo" => demo_snapshot(),
        [path] if path == "--help" || path == "-h" => {
            println!(
                "usage: hls-gnn-serve <model.hgns> | --demo\n\n\
                 Serves a trained predictor's .hgns snapshot over HTTP.\n\
                 Routes: POST /predict, GET /metrics, GET /debug/slow, GET /healthz,\n\
                 POST /shutdown.\n\
                 Env: HLSGNN_SERVE_HOST, HLSGNN_SERVE_PORT, HLSGNN_SERVE_WORKERS,\n\
                 HLSGNN_SERVE_CACHE, HLSGNN_SERVE_QUEUE, HLSGNN_SERVE_SLOW_US,\n\
                 HLSGNN_SERVE_ACCESS_LOG."
            );
            return;
        }
        [path] => hls_gnn_store::snapshot_from_file(path)
            .unwrap_or_else(|error| fail(&format!("cannot load snapshot: {error}"))),
        _ => fail("usage: hls-gnn-serve <model.hgns> | --demo (see --help)"),
    };

    let spec = snapshot.spec.id();
    let config = ServeConfig::from_env();
    let service = ServiceHandle::start(snapshot, &config)
        .unwrap_or_else(|error| fail(&format!("cannot start the service: {error}")));

    let host = std::env::var("HLSGNN_SERVE_HOST").unwrap_or_else(|_| "127.0.0.1".to_owned());
    let port = std::env::var("HLSGNN_SERVE_PORT").unwrap_or_else(|_| "7878".to_owned());
    let server = HttpServer::bind(service.clone(), &format!("{host}:{port}"))
        .unwrap_or_else(|error| fail(&format!("cannot bind {host}:{port}: {error}")));

    // What the service resolved from the configuration (worker count,
    // clamped queue bound) reads from its registry, as `/metrics` does.
    let gauge =
        |name: &str| service.registry().gauge(name, &[("model", service.model_name())]).get();
    println!(
        "serving {} ({spec}) on http://{} — workers {}, queue bound {}, cache {}, \
         matmul kernel {}",
        service.model_name(),
        server.local_addr(),
        gauge("hlsgnn_serve_workers"),
        gauge("hlsgnn_serve_queue_bound"),
        gauge("hlsgnn_serve_cache_capacity"),
        gnn_tensor::kernel_isa(),
    );
    println!("routes: POST /predict, GET /metrics, GET /debug/slow, GET /healthz, POST /shutdown");

    server.wait();
    println!("shutdown requested; draining the queue ...");
    service.shutdown();
}
