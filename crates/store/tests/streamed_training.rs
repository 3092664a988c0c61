//! The streaming guarantee: training from a sharded on-disk store is
//! bit-identical to training from the in-RAM dataset, at any shard size —
//! both paths run the same `_source` training loop, and this test pins that
//! equivalence end to end (shards -> fit -> snapshot bytes).

use std::path::PathBuf;

use hls_gnn_core::dataset::{Dataset, DatasetBuilder, SampleSource};
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_store::{encode_snapshot, write_dataset, ShardedDataset};
use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};

fn corpus() -> Dataset {
    DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(10)
        .seed(5)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
        .build()
        .expect("corpus builds")
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 4,
        hidden_dim: 8,
        num_layers: 1,
        embed_dim: 2,
        seed: 11,
        ..TrainConfig::fast()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-gnn-streamed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streamed_training_matches_in_ram_training_bit_for_bit_at_any_shard_size() {
    let dataset = corpus();
    let config = config();
    let validation = Dataset::default();

    // The in-RAM reference: ordinary fit on the materialised dataset. The
    // hierarchical approach exercises both the classifier and the regressor
    // streaming paths.
    let spec: hls_gnn_core::builder::PredictorSpec = "hier/gcn".parse().unwrap();
    let mut reference = spec.build(&config);
    reference.fit(&dataset, &validation, &config).expect("in-RAM training succeeds");
    // Snapshot bytes, not `PartialEq` on the weights: bytes are bit-exact
    // (NaN == NaN, 0.0 != -0.0), which f32 equality is not.
    let snapshot_bytes = |predictor: &dyn Predictor| {
        encode_snapshot(&predictor.snapshot().expect("snapshot exports")).expect("encodes")
    };
    let reference_bytes = snapshot_bytes(&reference);

    for shard_size in [1, 3, 10] {
        let dir = temp_dir(&format!("shard-{shard_size}"));
        {
            let mut writer = hls_gnn_store::DatasetStoreWriter::create(&dir, "bit-identity test")
                .unwrap()
                .shard_max_samples(shard_size);
            for sample in &dataset.samples {
                writer.push(sample).unwrap();
            }
            writer.finish().unwrap();
        }
        // A 1-byte budget forces constant shard eviction and reloading —
        // the harshest streaming schedule must still be bit-identical.
        let store = ShardedDataset::open(&dir).unwrap().with_cache_budget(1);
        assert_eq!(SampleSource::len(&store), dataset.len());

        let mut streamed = spec.build(&config);
        streamed.fit_source(&store, &validation, &config).expect("streamed training succeeds");
        assert_eq!(
            snapshot_bytes(&streamed),
            reference_bytes,
            "shard size {shard_size}: streamed training diverged from in-RAM training"
        );

        // Evaluation streams through the same source abstraction.
        let streamed_mape = streamed.evaluate_source(&store).expect("streamed evaluation succeeds");
        assert_eq!(streamed_mape, reference.evaluate(&dataset));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn evaluate_source_on_a_store_matches_in_ram_evaluate() {
    let dataset = corpus();
    let config = config();
    let spec: hls_gnn_core::builder::PredictorSpec = "base/sage".parse().unwrap();
    let mut predictor = spec.build(&config);
    predictor.fit(&dataset, &Dataset::default(), &config).expect("training succeeds");

    let dir = temp_dir("eval");
    write_dataset(&dir, &dataset, "eval parity").unwrap();
    let store = ShardedDataset::open(&dir).unwrap();
    assert_eq!(predictor.evaluate_source(&store).unwrap(), predictor.evaluate(&dataset));
    std::fs::remove_dir_all(&dir).unwrap();
}
