//! Correctness guarantees of the fused graph mini-batching engine.
//!
//! * Every forward is a fused forward; a graph run alone is a batch of one.
//!   Fused rows are bit-identical to each graph run alone for every
//!   backbone × feature-mode combination, because member graphs keep their
//!   node order and every whole-graph operation is segment-aware.
//! * Trained predictors produce bit-identical results at every node budget
//!   (one graph per chunk, the default, everything in one chunk) and on the
//!   sharded parallel path.
//! * Degenerate inputs (empty batches, zero batch sizes, zero-node graphs)
//!   fail loudly instead of silently corrupting results.

use gnn::{GnnKind, GraphBatch};
use hls_gnn_core::approach::GnnPredictor;
use hls_gnn_core::builder::{ApproachKind, PredictorSpec};
use hls_gnn_core::dataset::{Dataset, DatasetBuilder, GraphSample};
use hls_gnn_core::encode::FeatureMode;
use hls_gnn_core::model::GraphRegressor;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::runtime::{predict_batch_sharded, BatchConfig, ParallelConfig};
use hls_gnn_core::train::TrainConfig;
use hls_gnn_core::{Error, TargetMetric};
use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn corpus(family: ProgramFamily, count: usize, seed: u64) -> Dataset {
    DatasetBuilder::new(family)
        .count(count)
        .seed(seed)
        .generator_config(SyntheticConfig::tiny(family))
        .build()
        .expect("dataset builds")
}

#[test]
fn fused_forward_matches_per_graph_forward_for_every_backbone_and_mode() {
    let config = TrainConfig::fast();
    for (family, seed) in [(ProgramFamily::StraightLine, 11), (ProgramFamily::Control, 5)] {
        let dataset = corpus(family, 6, seed);
        let refs: Vec<&GraphSample> = dataset.samples.iter().collect();
        for kind in GnnKind::ALL {
            for mode in [FeatureMode::Base, FeatureMode::ResourceValues, FeatureMode::ResourceTypes]
            {
                let model = GraphRegressor::new(kind, mode, &config);
                let mut rng = StdRng::seed_from_u64(0);
                let fused = model.forward_batch(&refs, None, false, &mut rng).value();
                assert_eq!(fused.shape(), (refs.len(), TargetMetric::COUNT));
                for (row, sample) in refs.iter().enumerate() {
                    let alone = model.forward_batch(&[sample], None, false, &mut rng).value();
                    for target in 0..TargetMetric::COUNT {
                        assert_eq!(
                            fused.get(row, target).to_bits(),
                            alone.get(0, target).to_bits(),
                            "{family:?} {kind:?}/{mode:?} sample {row} target {target}: fused \
                             {} vs alone {}",
                            fused.get(row, target),
                            alone.get(0, target),
                        );
                    }
                }
                gnn_tensor::tape::reset();
            }
        }
    }
}

#[test]
fn trained_predictions_agree_across_node_budgets_and_the_sharded_path() {
    let dataset = corpus(ProgramFamily::StraightLine, 14, 33);
    let split = dataset.split(0.7, 0.15, 1);
    let config = TrainConfig::fast();
    for approach in ApproachKind::ALL {
        let spec = PredictorSpec::new(approach, GnnKind::Rgcn);
        let mut predictor = GnnPredictor::new(spec, &config);
        predictor.fit(&split.train, &split.validation, &config).expect("training succeeds");

        let one_per_chunk = BatchConfig::default().with_node_budget(1);
        let reference = predictor.predict_batch_with(&split.test.samples, &one_per_chunk);
        let others = [
            (
                "default budget",
                predictor.predict_batch_with(&split.test.samples, &BatchConfig::default()),
            ),
            (
                "1e6-node budget",
                predictor.predict_batch_with(
                    &split.test.samples,
                    &BatchConfig::default().with_node_budget(1_000_000),
                ),
            ),
            (
                "sharded",
                predict_batch_sharded(
                    &predictor,
                    &split.test.samples,
                    &ParallelConfig::with_workers(4),
                ),
            ),
        ];
        assert_eq!(reference.len(), split.test.len());
        for (path, predictions) in &others {
            assert_eq!(predictions.len(), split.test.len(), "{}: {path}", spec.id());
            for (index, (want, got)) in reference.iter().zip(predictions).enumerate() {
                let want = want.as_ref().expect("one-graph-per-chunk prediction succeeds");
                let got = got.as_ref().expect("prediction succeeds");
                for target in 0..TargetMetric::COUNT {
                    assert_eq!(
                        got[target].to_bits(),
                        want[target].to_bits(),
                        "{}: {path}: sample {index} target {target}",
                        spec.id()
                    );
                }
            }
        }
    }
}

#[test]
fn empty_batches_and_zero_batch_sizes_fail_loudly() {
    let dataset = corpus(ProgramFamily::StraightLine, 14, 33);
    let split = dataset.split(0.7, 0.15, 1);
    let config = TrainConfig::fast();
    let mut predictor = GnnPredictor::off_the_shelf(GnnKind::Gcn, &config);

    // An untrained predictor reports per-sample errors; an empty batch is
    // simply an empty result, trained or not.
    assert!(predictor.predict_batch(&[]).is_empty());
    predictor.fit(&split.train, &split.validation, &config).expect("training succeeds");
    assert!(predictor.predict_batch(&[]).is_empty());
    assert!(predict_batch_sharded(&predictor, &[], &ParallelConfig::with_workers(4)).is_empty());

    // A zero batch size is a configuration error, not a silent clamp to 1.
    let mut broken = TrainConfig::fast();
    broken.batch_size = 0;
    assert!(matches!(broken.validate(), Err(Error::Config(_))));
    let mut fresh = GnnPredictor::off_the_shelf(GnnKind::Gcn, &config);
    let result = fresh.fit(&split.train, &split.validation, &broken);
    assert!(matches!(result, Err(Error::Config(_))), "fit must reject batch_size = 0");
    assert!(!fresh.is_trained(), "a rejected config must leave the predictor untouched");
}

#[test]
fn graph_batch_fusion_respects_plan_and_registry_wide_inference_is_consistent() {
    // plan_chunks: deterministic, budget- and batch-size-capped, covers all
    // input.
    let batch = BatchConfig::default().with_node_budget(100);
    let sizes = [40usize, 40, 40, 120, 10, 10, 10, 10, 10];
    let plan = batch.plan_chunks(&sizes, 4, 16);
    assert_eq!(plan.iter().sum::<usize>(), sizes.len());
    assert_eq!(plan, vec![2, 1, 1, 4, 1], "40+40 | 40 | 120 (over budget alone) | 4x10 | 10");

    // Fusing the planned chunks covers every node exactly once.
    let dataset = corpus(ProgramFamily::StraightLine, 5, 3);
    let structures: Vec<&gnn::GraphData> = dataset.samples.iter().map(|s| &s.structure).collect();
    let fused = GraphBatch::fuse(&structures);
    assert_eq!(fused.num_graphs(), structures.len());
    assert_eq!(fused.total_nodes(), structures.iter().map(|g| g.num_nodes).sum::<usize>());
    let offsets = fused.node_offsets();
    for (graph, window) in offsets.windows(2).enumerate() {
        assert_eq!(window[1] - window[0], structures[graph].num_nodes);
        for node in window[0]..window[1] {
            assert_eq!(fused.segments()[node], graph);
        }
    }
}
