//! Quickstart: build a small benchmark, train a predictor selected from a
//! spec string, batch-predict the held-out designs, and round-trip the
//! trained model through JSON — the full prediction-engine API in one file.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use hls_gnn_core::approach::hls_baseline_mape;
use hls_gnn_core::builder::{load_predictor, PredictorBuilder};
use hls_gnn_core::dataset::DatasetBuilder;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::runtime::{predict_batch_sharded, ParallelConfig};
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::train::TrainConfig;
use hls_progen::synthetic::ProgramFamily;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small synthetic CDFG benchmark (programs with loops and
    //    branches, each run through the HLS + implementation flow for labels).
    println!("building a 48-program CDFG benchmark ...");
    let dataset = DatasetBuilder::new(ProgramFamily::Control).count(48).seed(7).build()?;
    let split = dataset.split(0.8, 0.1, 7);
    println!(
        "  {} train / {} validation / {} test graphs, {} nodes total",
        split.train.len(),
        split.validation.len(),
        split.test.len(),
        dataset.total_nodes()
    );

    // 2. Select the model from a config string — any approach × backbone
    //    combination parses, e.g. "base/gcn", "rich/pna", "hier/rgcn".
    let mut config = TrainConfig::fast();
    config.epochs = 10;
    config.hidden_dim = 32;
    let builder = PredictorBuilder::parse("base/rgcn")?.config(config.clone());
    println!(
        "training {} (spec `{}`, {} epochs) ...",
        builder.spec().name(),
        builder.spec(),
        config.epochs
    );
    let predictor = builder.train(&split.train, &split.validation)?;

    // 3. Evaluate: per-target MAPE of the GNN vs the HLS report baseline
    //    (evaluate runs through the batched inference path).
    let gnn_mape = predictor.evaluate(&split.test);
    let hls_mape = hls_baseline_mape(&split.test);
    println!("\n{:<8} {:>12} {:>12}", "target", "GNN MAPE", "HLS MAPE");
    for target in TargetMetric::ALL {
        println!(
            "{:<8} {:>11.1}% {:>11.1}%",
            target.name(),
            gnn_mape[target.index()] * 100.0,
            hls_mape[target.index()] * 100.0
        );
    }

    // 4. Ship the trained model: save to JSON, reload, and batch-predict the
    //    whole held-out set with the reloaded predictor. The batch shards
    //    across HLSGNN_WORKERS threads (each worker rehydrates its own model
    //    from the snapshot); within each shard, the fused mini-batching
    //    engine unions up to a mini-batch of graphs per autodiff tape.
    //    Neither changes a result: predictions are bit-identical at every
    //    worker count and however the graphs are chunked.
    let snapshot = predictor.save_json()?;
    println!("\nserialised trained model: {} bytes of JSON", snapshot.len());
    let served = load_predictor(&snapshot)?;
    let workers = ParallelConfig::from_env();
    let predictions = predict_batch_sharded(&served, &split.test.samples, &workers);
    println!(
        "batch prediction over {} held-out designs ({} worker(s), batch size {}):",
        split.test.len(),
        workers.workers(),
        config.batch_size
    );
    println!("{:<14} {:>12} {:>12} {:>12}", "design", "pred LUT", "impl LUT", "HLS LUT");
    let lut = TargetMetric::Lut.index();
    for (sample, prediction) in split.test.samples.iter().zip(&predictions) {
        let predicted = prediction.as_ref().expect("trained model predicts");
        println!(
            "{:<14} {:>12.1} {:>12.1} {:>12.1}",
            sample.name, predicted[lut], sample.targets[lut], sample.hls_estimate[lut]
        );
    }

    // The reloaded model predicts exactly like the original.
    let original = predictor.predict(&split.test.samples[0])?;
    let reloaded = served.predict(&split.test.samples[0])?;
    assert_eq!(original, reloaded, "snapshot round trip must be exact");
    println!("\nreloaded-model predictions match the original exactly.");
    Ok(())
}
