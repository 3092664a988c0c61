//! Integration tests for the unified prediction-engine API: spec parsing,
//! builder construction, batched inference, and model persistence — including
//! the full registry round trip (train → `.hgns` bytes → reload →
//! predict_batch matches the original exactly) for every approach × backbone
//! combination.

use hls_gnn::prelude::*;

fn tiny_split() -> (Dataset, Dataset, Dataset) {
    use hls_progen::synthetic::SyntheticConfig;
    let dataset = DatasetBuilder::new(ProgramFamily::Control)
        .count(10)
        .seed(77)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
        .build()
        .expect("corpus builds");
    let split = dataset.split(0.7, 0.15, 7);
    (split.train, split.validation, split.test)
}

fn one_epoch_config() -> TrainConfig {
    let mut config = TrainConfig::fast();
    config.epochs = 1;
    config.hidden_dim = 8;
    config.embed_dim = 3;
    config
}

/// The bytes of the `.hgns` file a trained predictor is shipped as.
fn hgns(predictor: &dyn Predictor) -> Vec<u8> {
    encode_snapshot(&predictor.snapshot().expect("trained model snapshots")).expect("encodes")
}

/// What a fresh process does with a model file's bytes.
fn reload(bytes: &[u8]) -> Result<GnnPredictor, Error> {
    GnnPredictor::from_saved(&decode_snapshot(bytes)?)
}

/// The acceptance scenario: every spec in the registry can be parsed from its
/// string id, trained, written as `.hgns` bytes, reloaded in a "fresh
/// process" (`reload` only sees the bytes), and the reloaded model's
/// `predict_batch` output matches the original's per-sample `predict` output
/// exactly.
#[test]
fn every_spec_round_trips_through_hgns_with_identical_predictions() {
    let (train, validation, test) = tiny_split();
    let config = one_epoch_config();
    for spec in PredictorSpec::all() {
        // Build through the string id, as a config-driven server would.
        let parsed: PredictorSpec = spec.id().parse().expect("registry id parses");
        assert_eq!(parsed, spec);
        let mut predictor = parsed.build(&config);
        assert_eq!(predictor.name(), spec.name());
        predictor.fit(&train, &validation, &config).expect("training succeeds");

        let saved = predictor.snapshot().expect("trained model snapshots");
        let bytes = encode_snapshot(&saved).expect("encodes");
        assert_eq!(
            decode_snapshot(&bytes).expect("decodes"),
            saved,
            "{}: snapshot drifted",
            spec.id()
        );
        let reloaded = reload(&bytes).expect("snapshot reloads");
        assert_eq!(reloaded.spec(), spec);

        let originals: Vec<[f64; 4]> =
            test.samples.iter().map(|s| predictor.predict(s).expect("predicts")).collect();
        let batched = reloaded.predict_batch(&test.samples);
        for (index, (original, reloaded_result)) in originals.iter().zip(batched).enumerate() {
            let reloaded_values = reloaded_result.expect("reloaded model predicts");
            assert_eq!(
                *original,
                reloaded_values,
                "{}: sample {index} diverged after the save/load round trip",
                spec.id()
            );
        }
    }
}

/// `predict` and `predict_batch` agree element-for-element for all three
/// approaches (single-sample prediction is defined as a one-element batch).
#[test]
fn predict_equals_predict_batch_for_all_approaches() {
    let (train, validation, test) = tiny_split();
    let config = one_epoch_config();
    for approach in ApproachKind::ALL {
        let spec = PredictorSpec::new(approach, GnnKind::Rgcn);
        let mut predictor = spec.build(&config);
        predictor.fit(&train, &validation, &config).expect("training succeeds");
        let batched = predictor.predict_batch(&test.samples);
        assert_eq!(batched.len(), test.len());
        for (sample, batched_result) in test.samples.iter().zip(batched) {
            assert_eq!(
                predictor.predict(sample).expect("single predict"),
                batched_result.expect("batched predict"),
                "{}: predict and predict_batch disagree",
                spec.id()
            );
        }
    }
}

#[test]
fn spec_strings_accept_the_documented_forms_and_reject_garbage() {
    // Canonical ids.
    assert_eq!(
        "hier/rgcn".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::Rgcn)
    );
    assert_eq!(
        "base/gcn".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Gcn)
    );
    assert_eq!(
        "rich/sage".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::KnowledgeRich, GnnKind::GraphSage)
    );
    // Long-form aliases and paper notation.
    assert_eq!(
        "hierarchical/GraphSage".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::GraphSage)
    );
    assert_eq!(
        "RGCN-I".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::Rgcn)
    );
    assert_eq!(
        "PNA".parse::<PredictorSpec>().unwrap(),
        PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Pna)
    );
    // Rejections keep the error informative.
    for bad in ["", "unknown/rgcn", "hier/unknown", "definitely-not-a-model", "hier/"] {
        let error = bad.parse::<PredictorSpec>().unwrap_err();
        assert!(matches!(error, Error::Config(_)), "`{bad}` must fail with a config error");
    }
}

/// Malformed or truncated snapshots are rejected instead of producing a
/// half-initialised predictor.
#[test]
fn corrupt_snapshots_are_rejected() {
    let (train, validation, _) = tiny_split();
    let config = one_epoch_config();
    let mut predictor = PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Gcn).build(&config);
    predictor.fit(&train, &validation, &config).expect("training succeeds");

    assert!(reload(b"{ not a container").is_err());
    assert!(reload(&hls_gnn::hls_gnn_store::ContainerWriter::new().finish()).is_err());
    // Dropping the weight list breaks the architecture check.
    let mut clipped = predictor.snapshot().expect("snapshots");
    clipped.regressor.clear();
    assert!(reload(&encode_snapshot(&clipped).expect("encodes")).is_err());
}

/// A trained predictor records the config it was trained with, so the
/// snapshot is self-describing even when the caller's config has changed.
#[test]
fn snapshots_record_the_training_config() {
    let (train, validation, test) = tiny_split();
    let mut config = one_epoch_config();
    config.hidden_dim = 12; // distinctive
    let mut predictor = PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Gcn).build(&config);
    predictor.fit(&train, &validation, &config).expect("training succeeds");
    let bytes = hgns(&predictor);
    assert_eq!(decode_snapshot(&bytes).expect("decodes").config.hidden_dim, 12);
    let reloaded = reload(&bytes).expect("reloads");
    assert_eq!(
        reloaded.predict(&test.samples[0]).expect("predicts"),
        predictor.predict(&test.samples[0]).expect("predicts"),
    );
}

/// Feeding the loader truncated or mangled bytes of a *real* saved model must
/// never panic — every failure surfaces as a typed error ([`Error::Parse`]
/// from the container or the decoder, [`Error::Config`] when a mutation
/// survives decoding but breaks the architecture check).
#[test]
fn mangled_snapshots_fail_with_typed_errors_never_panics() {
    let (train, validation, _) = tiny_split();
    let config = one_epoch_config();
    let mut predictor = PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::Gcn).build(&config);
    predictor.fit(&train, &validation, &config).expect("training succeeds");
    let bytes = hgns(&predictor);

    // Truncations at a spread of offsets, including inside the header, the
    // metadata and the weight blobs.
    for cut in (0..bytes.len()).step_by((bytes.len() / 97).max(1)) {
        match reload(&bytes[..cut]) {
            Err(Error::Parse(_) | Error::Config(_)) => {}
            Err(other) => panic!("truncation at {cut} produced unexpected error {other:?}"),
            Ok(_) => panic!("truncation at {cut} must not produce a predictor"),
        }
    }

    // Structural mangling: clobber a window of bytes with junk at several
    // positions.
    for start in (0..bytes.len().saturating_sub(8)).step_by(bytes.len() / 23 + 1) {
        let mut mangled = bytes.clone();
        mangled[start..start + 8].fill(b'!');
        match reload(&mangled) {
            Err(Error::Parse(_) | Error::Config(_)) => {}
            Err(other) => panic!("mangling at {start} produced unexpected error {other:?}"),
            Ok(_) => panic!("mangling at {start} must not produce a predictor"),
        }
    }

    // The original still loads after all that (no global state was harmed).
    assert!(reload(&bytes).is_ok());
}

/// Snapshots declaring version 0 (never a valid format) or a newer version
/// than this build understands are refused with a typed parse error.
#[test]
fn snapshot_versioning_rejects_version_zero_and_future_files() {
    let (train, validation, _) = tiny_split();
    let config = one_epoch_config();
    let mut predictor = PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Gcn).build(&config);
    predictor.fit(&train, &validation, &config).expect("training succeeds");
    let saved = predictor.snapshot().expect("snapshots");
    assert_eq!(saved.version, 1);

    for version in [0, 99] {
        let bytes = encode_snapshot(&SavedPredictor { version, ..saved.clone() }).expect("encodes");
        match reload(&bytes) {
            Err(Error::Parse(message)) => assert!(
                version == 0 || message.contains("newer format"),
                "unhelpful message: {message}"
            ),
            Err(other) => panic!("version {version} must fail with Error::Parse, got {other:?}"),
            Ok(_) => panic!("version {version} must not load"),
        }
    }
}
