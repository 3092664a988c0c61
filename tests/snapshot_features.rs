//! A model's input width comes from its snapshot, never from the
//! environment of the process that trains or loads it.
//!
//! The one test sits in a file of its own, so it runs in its own process:
//! it sets an environment variable, which would race tests beside it.

use hls_gnn::prelude::*;
use hls_gnn_core::export::ExportedGraph;
use hls_progen::synthetic::SyntheticConfig;

/// `HLSGNN_FEATURES=analytic` used to widen every encoder built while it was
/// set, without the snapshot recording it: the model then failed to reload
/// without the variable, and with it served graph payloads (whose analytic
/// columns the release format fills with zeros) different bits than
/// in-process samples.
#[test]
fn a_model_trained_under_hlsgnn_features_reloads_and_serves_payloads_without_it() {
    let dataset = DatasetBuilder::new(ProgramFamily::Control)
        .count(10)
        .seed(77)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
        .build()
        .expect("corpus builds");
    assert!(
        dataset.samples.iter().flat_map(|s| &s.node_analytic).flatten().any(|&v| v != 0.0),
        "the corpus must carry analytic features for the payload check to bite"
    );
    let split = dataset.split(0.7, 0.15, 7);

    std::env::set_var("HLSGNN_FEATURES", "analytic");
    let predictor = PredictorBuilder::parse("hier/gcn")
        .expect("spec parses")
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)
        .expect("training succeeds");
    let snapshot = predictor.snapshot().expect("snapshot exports");
    std::env::remove_var("HLSGNN_FEATURES");

    let reloaded = GnnPredictor::from_saved(&snapshot).expect("the snapshot reloads");
    for sample in &dataset.samples {
        let in_process = predictor.predict(sample).expect("in-process prediction");
        let payload = ExportedGraph::from(sample).to_sample().expect("the payload decodes");
        assert_eq!(
            reloaded.predict(&payload).expect("payload prediction"),
            in_process,
            "{}: a graph payload must predict the in-process bits",
            sample.name
        );
    }
}
