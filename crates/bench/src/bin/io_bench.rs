//! Persistence micro-benchmark: `.hgns` snapshot size and load time, serve
//! cold-start-to-first-response from snapshot bytes, and in-RAM vs streamed
//! dataset epoch time. Writes `results/io_bench.json`.
//!
//! ```text
//! cargo run -p hls-gnn-bench --release --bin io_bench
//! ```
//!
//! The loads are repeated and both the minimum and the mean are reported;
//! the minimum is the honest load-cost signal (everything above it is
//! scheduler noise at these durations).

use std::time::Instant;

use hls_gnn_bench::write_report;
use hls_gnn_core::dataset::{Dataset, DatasetBuilder};
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_serve::{ServeConfig, ServiceHandle};
use hls_gnn_store::{decode_snapshot, encode_snapshot, DatasetStoreWriter, ShardedDataset};
use hls_progen::synthetic::ProgramFamily;
use serde::Serialize;

/// Timing for one measured operation, in milliseconds.
#[derive(Debug, Serialize)]
struct Timing {
    min_ms: f64,
    mean_ms: f64,
    iterations: usize,
}

fn time_ms(mut op: impl FnMut(), iterations: usize) -> Timing {
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        op();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Timing { min_ms: min, mean_ms: mean, iterations }
}

#[derive(Debug, Serialize)]
struct IoBenchReport {
    model: String,
    binary_bytes: usize,
    binary_load: Timing,
    serve_cold_start_binary: Timing,
    dataset_graphs: usize,
    dataset_shards: usize,
    in_ram_fit: Timing,
    streamed_fit: Timing,
}

fn main() {
    // One moderately-sized trained model: big enough that per-weight load
    // cost shows up, small enough to train in seconds.
    let spec: hls_gnn_core::builder::PredictorSpec = "hier/rgcn".parse().expect("spec parses");
    let config = TrainConfig { epochs: 2, hidden_dim: 64, num_layers: 3, ..TrainConfig::fast() };
    let corpus = DatasetBuilder::new(ProgramFamily::Control)
        .count(48)
        .seed(17)
        .build()
        .expect("corpus builds");
    println!(
        "training {} (hidden {}, {} layers) on {} programs ...",
        spec.name(),
        config.hidden_dim,
        config.num_layers,
        corpus.len()
    );
    let mut predictor = spec.build(&config);
    predictor.fit(&corpus, &Dataset::default(), &config).expect("training succeeds");
    let saved = predictor.snapshot().expect("snapshot succeeds");

    let binary = encode_snapshot(&saved).expect("binary serialises");
    println!("snapshot: {} bytes", binary.len());

    const LOAD_ITERS: usize = 25;
    let binary_load = time_ms(
        || {
            let loaded = decode_snapshot(&binary).expect("binary loads");
            std::hint::black_box(&loaded);
        },
        LOAD_ITERS,
    );
    println!("snapshot load: {:.3} ms", binary_load.min_ms);

    // Cold start: bytes on disk -> parsed snapshot -> running service ->
    // first answered prediction.
    let serve_config = ServeConfig::from_env();
    let probe = corpus.samples[0].clone();
    const SERVE_ITERS: usize = 5;
    let serve_cold_start_binary = time_ms(
        || {
            let snapshot = decode_snapshot(&binary).expect("binary loads");
            let service = ServiceHandle::start(snapshot, &serve_config).expect("service starts");
            service.predict_sample(probe.clone()).expect("first prediction succeeds");
            service.shutdown();
        },
        SERVE_ITERS,
    );
    println!("serve cold start to first response: {:.1} ms", serve_cold_start_binary.min_ms);

    // Epoch-time comparison: identical training runs, one fed from RAM and
    // one streamed from a sharded store (results are bit-identical; only the
    // data path differs).
    let store_dir = std::env::temp_dir().join(format!("hls-gnn-io-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut writer = DatasetStoreWriter::create(&store_dir, "io_bench corpus")
        .expect("store creates")
        .shard_max_samples(8);
    for sample in &corpus.samples {
        writer.push(sample).expect("push succeeds");
    }
    let manifest = writer.finish().expect("store finishes");
    let store = ShardedDataset::open(&store_dir).expect("store opens");

    let fit_config = TrainConfig { epochs: 1, ..config.clone() };
    const FIT_ITERS: usize = 3;
    let in_ram_fit = time_ms(
        || {
            let mut model = spec.build(&fit_config);
            model.fit(&corpus, &Dataset::default(), &fit_config).expect("fit succeeds");
        },
        FIT_ITERS,
    );
    let streamed_fit = time_ms(
        || {
            let mut model = spec.build(&fit_config);
            model.fit_source(&store, &Dataset::default(), &fit_config).expect("fit succeeds");
        },
        FIT_ITERS,
    );
    println!(
        "one-epoch fit: in-RAM {:.1} ms, streamed from {} shard(s) {:.1} ms",
        in_ram_fit.min_ms,
        manifest.shards.len(),
        streamed_fit.min_ms
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    let report = IoBenchReport {
        model: spec.id(),
        binary_bytes: binary.len(),
        binary_load,
        serve_cold_start_binary,
        dataset_graphs: corpus.len(),
        dataset_shards: manifest.shards.len(),
        in_ram_fit,
        streamed_fit,
    };
    write_report("io_bench", &report);
}
