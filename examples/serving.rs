//! Serving example: train a predictor, put it behind the in-process
//! prediction service, and query it both through the embeddable
//! [`ServiceHandle`] API and over a real localhost HTTP server.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use hls_gnn::prelude::*;
use hls_gnn_serve::{HttpClient, HttpServer, PredictRequest, PredictResponse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small model on a synthetic corpus.
    let dataset = DatasetBuilder::new(ProgramFamily::StraightLine).count(24).seed(7).build()?;
    let split = dataset.split(0.8, 0.1, 42);
    let predictor = PredictorBuilder::parse("base/sage")?
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)?;
    println!("trained {}", predictor.name());

    // 2. Start the service from a snapshot: two workers, each with its own
    //    thread-confined copy of the model predicting one request per
    //    forward, behind a bounded queue and a prediction cache.
    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let service = ServiceHandle::start(predictor.snapshot()?, &config)?;

    // 3a. In-process serving: bit-identical to calling the predictor.
    let sample = &split.test.samples[0];
    let served = service.predict_sample(sample.clone())?;
    assert_eq!(served.prediction, predictor.predict(sample)?);
    println!(
        "in-process: {} -> [DSP {:.1}, LUT {:.1}, FF {:.1}, CP {:.3}] (cached: {})",
        sample.name,
        served.prediction[0],
        served.prediction[1],
        served.prediction[2],
        served.prediction[3],
        served.cached,
    );

    // 3b. Over HTTP: the same graph as a JSON request.
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0")?;
    println!("http server on {}", server.local_addr());
    let mut client = HttpClient::new(server.local_addr());
    let body = serde_json::to_string(&PredictRequest::for_sample(sample))?;
    let reply = client.post("/predict", &body)?;
    let response: PredictResponse = serde_json::from_str(&reply.body)?;
    assert_eq!(response.prediction, served.prediction);
    println!(
        "http {}: {} -> cached {} (the in-process call warmed the cache), {} us",
        reply.status, response.name, response.cached, response.latency_us,
    );

    // 4. The service's counts, as `GET /metrics` serves them; then a
    //    graceful stop.
    let metrics = client.get("/metrics")?.body;
    for line in metrics.lines().filter(|line| {
        line.starts_with("hlsgnn_serve_served_total") || line.starts_with("hlsgnn_serve_cache_")
    }) {
        println!("metrics: {line}");
    }
    server.shutdown();
    service.shutdown();
    Ok(())
}
