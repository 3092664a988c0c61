//! The serving-shaped workflow end to end: select a predictor from a spec
//! string, train it on a synthetic corpus, persist it to JSON, reload it, and
//! batch-predict a held-out sweep — proving a trained model can be shipped to
//! another process instead of retrained per run.
//!
//! ```text
//! cargo run -p hls-gnn-bench --release --bin train_predict -- hier/rgcn [model.json]
//! ```
//!
//! The spec accepts `approach/backbone` ids (`base/gcn`, `rich/pna`,
//! `hier/rgcn`, ...) and the paper's table notation (`RGCN-I`). Scale is
//! controlled by `HLSGNN_SCALE` as usual.

use std::time::Instant;

use hls_gnn_core::builder::{load_predictor, PredictorBuilder};
use hls_gnn_core::experiments::ExperimentConfig;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::runtime::predict_batch_sharded;
use hls_gnn_core::task::TargetMetric;
use hls_progen::synthetic::ProgramFamily;

fn main() {
    // On panic the flight recorder dumps each thread's recent spans to
    // stderr and this file — the training-side counterpart of the serve
    // binary's hook.
    hls_gnn_obs::install_panic_hook("results/flightrec.json");
    let mut args = std::env::args().skip(1);
    let spec_text = args.next().unwrap_or_else(|| "hier/rgcn".to_owned());
    let snapshot_path = args.next().unwrap_or_else(|| "results/predictor.json".to_owned());

    let builder = match PredictorBuilder::parse(&spec_text) {
        Ok(builder) => builder,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    };
    let config = ExperimentConfig::from_env();
    println!(
        "training {} ({}) on {} synthetic CDFG programs at {:?} scale \
         (batch size {}, {} worker(s))",
        builder.spec().name(),
        builder.spec(),
        config.cdfg_programs,
        config.scale,
        config.train.batch_size,
        config.parallel.workers()
    );

    let corpus = match hls_gnn_core::dataset::DatasetBuilder::new(ProgramFamily::Control)
        .count(config.cdfg_programs)
        .seed(config.seed)
        .device(config.device.clone())
        .build()
    {
        Ok(corpus) => corpus,
        Err(error) => {
            eprintln!("corpus construction failed: {error}");
            std::process::exit(1);
        }
    };
    let split = corpus.split(0.8, 0.1, config.seed.wrapping_add(7));

    let train_start = Instant::now();
    let predictor =
        match builder.config(config.train.clone()).train(&split.train, &split.validation) {
            Ok(predictor) => predictor,
            Err(error) => {
                eprintln!("training failed: {error}");
                std::process::exit(1);
            }
        };
    println!("trained in {:.2} s", train_start.elapsed().as_secs_f64());

    // Persist, reload, and serve the held-out set from the reloaded model.
    let json = predictor.save_json().expect("trained predictor serialises");
    if let Some(parent) = std::path::Path::new(&snapshot_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&snapshot_path, &json) {
        Ok(()) => println!("saved trained model to {snapshot_path} ({} bytes)", json.len()),
        Err(error) => eprintln!("failed to write {snapshot_path}: {error}"),
    }
    let served = load_predictor(&json).expect("snapshot reloads");

    // Large inference sets shard across HLSGNN_WORKERS threads, each worker
    // rehydrating its own model from the snapshot; results are bit-identical
    // to the serial path.
    let inference_start = Instant::now();
    let predictions = predict_batch_sharded(&served, &split.test.samples, &config.parallel);
    let inference_seconds = inference_start.elapsed().as_secs_f64();
    println!(
        "\nbatch prediction over {} held-out designs in {:.1} ms (reloaded model, {} worker(s)):",
        split.test.len(),
        inference_seconds * 1e3,
        config.parallel.workers()
    );
    println!("{:<16} {:>10} {:>10} {:>10} {:>10}", "design", "DSP", "LUT", "FF", "CP");
    for (sample, prediction) in split.test.samples.iter().zip(&predictions) {
        match prediction {
            Ok(values) => println!(
                "{:<16} {:>10.1} {:>10.1} {:>10.1} {:>10.2}",
                sample.name,
                values[TargetMetric::Dsp.index()],
                values[TargetMetric::Lut.index()],
                values[TargetMetric::Ff.index()],
                values[TargetMetric::Cp.index()]
            ),
            Err(error) => println!("{:<16} failed: {error}", sample.name),
        }
    }
    let mape = served.evaluate(&split.test);
    println!(
        "\ntest MAPE (DSP/LUT/FF/CP): {:.1}% {:.1}% {:.1}% {:.1}%",
        mape[0] * 100.0,
        mape[1] * 100.0,
        mape[2] * 100.0,
        mape[3] * 100.0
    );
}
