//! Predictor snapshots on disk: [`SavedPredictor`] ⇄ `.hgns` container.
//! [`encode_snapshot`] is the one writer and [`decode_snapshot`] the one
//! reader; [`snapshot_from_file`] wraps the reader with the file's path in
//! its errors.
//!
//! # Sections
//!
//! | name         | kind  | contents                                          |
//! |--------------|-------|---------------------------------------------------|
//! | `meta`       | bytes | JSON: snapshot version, spec, config, tensor shapes |
//! | `normalizer` | f64   | 8 values: per-target mean, then per-target std    |
//! | `regressor`  | f32   | all regressor tensors, concatenated in state order |
//! | `classifier` | f32   | ditto for the node classifier (hierarchical only) |
//!
//! The weight blobs are raw little-endian IEEE-754, so loading is a
//! slice-reinterpretation of the file buffer rather than a float-parse per
//! weight — and bit-exact by construction: the bytes written *are* the bits
//! of the trained `f32`s, so a round trip reproduces `predict_batch`
//! outputs exactly.
//!
//! Small structured state (spec, hyper-parameters, shapes) is JSON inside
//! the `meta` section: it is tens of bytes, human-recoverable, and reuses
//! the serde schema of `PredictorSpec` and `TrainConfig` instead of
//! inventing a binary encoding of them.
//!
//! A snapshot file is untrusted input. The decoder checks every shape with
//! checked arithmetic against the weights the file carries, and refuses a
//! `config` that implies a larger model than those weights before anything
//! is built from it, so the model a file can make a loader build is at most
//! a constant multiple of the file's own size.

use std::path::Path;

use hls_gnn_core::builder::PredictorSpec;
use hls_gnn_core::persist::{SavedNormalizer, SavedPredictor, SavedTensor, SNAPSHOT_VERSION};
use hls_gnn_core::train::TrainConfig;
use hls_gnn_core::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::container::{Container, ContainerWriter};

/// Row/column shape of one tensor; the `meta` section records one per tensor
/// so the concatenated weight blobs can be split back losslessly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TensorShape {
    rows: usize,
    cols: usize,
}

/// The JSON payload of the `meta` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BinaryMeta {
    /// [`SNAPSHOT_VERSION`] of the snapshot: 0 and future versions are
    /// refused at decode time.
    snapshot_version: u32,
    spec: PredictorSpec,
    config: TrainConfig,
    regressor_shapes: Vec<TensorShape>,
    classifier_shapes: Option<Vec<TensorShape>>,
}

fn shapes_of(tensors: &[SavedTensor]) -> Vec<TensorShape> {
    tensors.iter().map(|t| TensorShape { rows: t.rows, cols: t.cols }).collect()
}

fn concat_data(tensors: &[SavedTensor]) -> Vec<f32> {
    let total: usize = tensors.iter().map(|t| t.data.len()).sum();
    let mut out = Vec::with_capacity(total);
    for tensor in tensors {
        out.extend_from_slice(&tensor.data);
    }
    out
}

/// Cuts a section's weights into the recorded shapes. Each shape's product
/// is checked and bounded by the weights still unread, so no shape list can
/// overflow or read past the section.
fn split_data(section: &str, shapes: &[TensorShape], data: &[f32]) -> Result<Vec<SavedTensor>> {
    let mismatch = || {
        Error::Parse(format!(
            "snapshot section `{section}` holds {} weights, which contradicts its recorded shapes",
            data.len()
        ))
    };
    let mut tensors = Vec::with_capacity(shapes.len());
    let mut rest = data;
    for shape in shapes {
        let count = shape.rows.checked_mul(shape.cols).filter(|&count| count <= rest.len());
        let (head, tail) = rest.split_at(count.ok_or_else(mismatch)?);
        tensors.push(SavedTensor { rows: shape.rows, cols: shape.cols, data: head.to_vec() });
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(mismatch());
    }
    Ok(tensors)
}

/// Refuses a `config` that implies a larger regressor than the file
/// carries, before any model is built from it. Each bound counts weights
/// that every registry backbone's regressor holds:
/// - a tensor per GNN layer: `1 ≤ num_layers ≤ tensors`;
/// - the head's `hidden × 2·hidden` matrix plus a `hidden × hidden` one per
///   layer past the first: `(num_layers + 1)·hidden² ≤ weights`;
/// - the first layer's `embed_dim`-wide embedding inputs into `hidden`
///   outputs, plus the `embed_dim`-wide embedding tables:
///   `embed_dim·(hidden + 1) ≤ weights`.
///
/// A genuine snapshot therefore always passes, and building the model of one
/// that passes costs at most a constant multiple of the file's weights.
fn check_config_fits(config: &TrainConfig, regressor: &[SavedTensor]) -> Result<()> {
    let tensors = regressor.len();
    let weights: usize = regressor.iter().map(|tensor| tensor.data.len()).sum();
    let (hidden, layers, embed) = (config.hidden_dim, config.num_layers, config.embed_dim);
    let head_and_layers =
        hidden.checked_mul(hidden).and_then(|square| square.checked_mul(layers.saturating_add(1)));
    let embedding = embed.checked_mul(hidden.saturating_add(1));
    let within = |count: Option<usize>| count.is_some_and(|count| count <= weights);
    let fits = (1..=tensors).contains(&layers) && within(head_and_layers) && within(embedding);
    if fits {
        return Ok(());
    }
    Err(Error::Parse(format!(
        "snapshot config (num_layers {layers}, hidden_dim {hidden}, embed_dim {embed}) implies \
         a larger model than the {weights} regressor weights in {tensors} tensor(s) it carries"
    )))
}

/// Serialises a predictor snapshot into the binary container format.
///
/// # Errors
/// Returns [`Error::Config`] if the metadata fails to serialise (cannot
/// happen for snapshots produced by training).
pub fn encode_snapshot(saved: &SavedPredictor) -> Result<Vec<u8>> {
    let meta = BinaryMeta {
        snapshot_version: saved.version,
        spec: saved.spec,
        config: saved.config.clone(),
        regressor_shapes: shapes_of(&saved.regressor),
        classifier_shapes: saved.classifier.as_deref().map(shapes_of),
    };
    let meta_json = serde_json::to_string(&meta)
        .map_err(|e| Error::Config(format!("failed to serialise snapshot metadata: {e}")))?;

    let mut normalizer = Vec::with_capacity(8);
    normalizer.extend_from_slice(&saved.normalizer.mean);
    normalizer.extend_from_slice(&saved.normalizer.std);

    let mut writer = ContainerWriter::new();
    writer.add_bytes("meta", meta_json.as_bytes());
    writer.add_f64("normalizer", &normalizer);
    writer.add_f32("regressor", &concat_data(&saved.regressor));
    if let Some(classifier) = &saved.classifier {
        writer.add_f32("classifier", &concat_data(classifier));
    }
    Ok(writer.finish())
}

/// Decodes a predictor snapshot from the bytes of a `.hgns` file.
///
/// Version 0 and versions newer than [`SNAPSHOT_VERSION`] are refused with a
/// typed error rather than misread.
///
/// # Errors
/// Returns [`Error::Parse`] on a malformed container, missing or mistyped
/// sections, malformed metadata, weight counts that contradict the recorded
/// shapes, a `config` that implies more weights than the file carries, or
/// an unsupported snapshot version. Never panics, regardless of input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SavedPredictor> {
    let container = Container::from_bytes(bytes)?;
    let meta_bytes = container.bytes("meta")?;
    let meta_json = std::str::from_utf8(meta_bytes)
        .map_err(|_| Error::Parse("snapshot `meta` section is not valid UTF-8".to_owned()))?;
    let meta: BinaryMeta = serde_json::from_str(meta_json)
        .map_err(|e| Error::Parse(format!("failed to parse snapshot metadata: {e}")))?;
    if meta.snapshot_version > SNAPSHOT_VERSION {
        return Err(Error::Parse(format!(
            "predictor snapshot version {} is from a newer format than this build understands \
             (supported: 1..={SNAPSHOT_VERSION}); refusing to reinterpret it",
            meta.snapshot_version
        )));
    }
    if meta.snapshot_version == 0 {
        return Err(Error::Parse(
            "predictor snapshot declares version 0, which was never a valid format".to_owned(),
        ));
    }

    let normalizer = container.f64s("normalizer")?;
    if normalizer.len() != 8 {
        return Err(Error::Parse(format!(
            "snapshot `normalizer` section holds {} values, expected 8 (mean ++ std)",
            normalizer.len()
        )));
    }
    let mut mean = [0.0; 4];
    let mut std = [0.0; 4];
    mean.copy_from_slice(&normalizer[..4]);
    std.copy_from_slice(&normalizer[4..]);

    let regressor = split_data("regressor", &meta.regressor_shapes, &container.f32s("regressor")?)?;
    check_config_fits(&meta.config, &regressor)?;
    let classifier = match &meta.classifier_shapes {
        Some(shapes) => Some(split_data("classifier", shapes, &container.f32s("classifier")?)?),
        None => None,
    };

    Ok(SavedPredictor {
        version: meta.snapshot_version,
        spec: meta.spec,
        config: meta.config,
        normalizer: SavedNormalizer { mean, std },
        regressor,
        classifier,
    })
}

/// Loads a `.hgns` snapshot file, prefixing errors with the path.
///
/// # Errors
/// As [`decode_snapshot`], plus unreadable files, with the file path named
/// in the message.
pub fn snapshot_from_file(path: impl AsRef<Path>) -> Result<SavedPredictor> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| Error::Parse(format!("cannot read {}: {e}", path.display())))?;
    decode_snapshot(&bytes).map_err(|e| Error::Parse(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_gnn_core::approach::GnnPredictor;

    fn sample_snapshot(classifier: bool) -> SavedPredictor {
        SavedPredictor {
            version: SNAPSHOT_VERSION,
            spec: if classifier { "hier/rgcn" } else { "base/gcn" }.parse().unwrap(),
            // The smallest config these eight regressor weights can back.
            config: TrainConfig {
                hidden_dim: 1,
                num_layers: 1,
                embed_dim: 1,
                ..TrainConfig::fast()
            },
            normalizer: SavedNormalizer {
                mean: [0.25, -1.5, 3.0e-3, 7.125],
                std: [1.0, 0.5, 2.0, 0.125],
            },
            regressor: vec![
                SavedTensor { rows: 2, cols: 3, data: vec![0.1, -0.2, 0.3, 1.0e-7, -5.5, 0.0] },
                SavedTensor { rows: 1, cols: 2, data: vec![f32::MIN_POSITIVE, -0.75] },
            ],
            classifier: classifier
                .then(|| vec![SavedTensor { rows: 2, cols: 2, data: vec![1.0, 2.0, 3.0, 4.0] }]),
        }
    }

    /// What every loader does with a file: decode it, then build the model.
    fn load(bytes: &[u8]) -> Result<GnnPredictor> {
        GnnPredictor::from_saved(&decode_snapshot(bytes)?)
    }

    #[test]
    fn binary_round_trip_is_exact_with_and_without_classifier() {
        for classifier in [false, true] {
            let saved = sample_snapshot(classifier);
            let bytes = encode_snapshot(&saved).unwrap();
            assert_eq!(decode_snapshot(&bytes).unwrap(), saved);
        }
    }

    #[test]
    fn version_zero_and_future_versions_are_refused() {
        for version in [0, SNAPSHOT_VERSION + 1, u32::MAX] {
            let mut saved = sample_snapshot(false);
            saved.version = version;
            let bytes = encode_snapshot(&saved).unwrap();
            let error = decode_snapshot(&bytes).unwrap_err();
            assert!(matches!(error, Error::Parse(_)), "version {version} must be refused");
        }
    }

    #[test]
    fn weight_count_contradicting_shapes_is_refused() {
        for data in [vec![1.0; 3], vec![1.0; 9]] {
            let mut saved = sample_snapshot(false);
            saved.regressor = vec![SavedTensor { rows: 2, cols: 4, data }];
            let error = decode_snapshot(&encode_snapshot(&saved).unwrap()).unwrap_err();
            assert!(matches!(&error, Error::Parse(message) if message.contains("shapes")));
        }
    }

    #[test]
    fn missing_sections_and_bad_normalizer_are_refused() {
        let empty = ContainerWriter::new().finish();
        assert!(matches!(decode_snapshot(&empty), Err(Error::Parse(_))));

        let saved = sample_snapshot(false);
        let meta = BinaryMeta {
            snapshot_version: saved.version,
            spec: saved.spec,
            config: saved.config.clone(),
            regressor_shapes: Vec::new(),
            classifier_shapes: None,
        };
        let mut writer = ContainerWriter::new();
        writer.add_bytes("meta", serde_json::to_string(&meta).unwrap().as_bytes());
        writer.add_f64("normalizer", &[0.0; 7]); // must be 8
        writer.add_f32("regressor", &[]);
        let error = decode_snapshot(&writer.finish()).unwrap_err();
        assert!(matches!(&error, Error::Parse(message) if message.contains("normalizer")));
    }

    #[test]
    fn garbage_bytes_never_panic() {
        for bytes in [
            &b""[..],
            b"HGNSTORE",
            b"{\"not\": \"a snapshot\"}",
            b"\xff\xfe\xfd\xfc",
            b"HGNSTORExxxxxxxxxxxxxxxx",
        ] {
            assert!(decode_snapshot(bytes).is_err());
        }
    }

    #[test]
    fn a_shape_whose_size_overflows_is_a_parse_error() {
        let mut saved = sample_snapshot(false);
        saved.regressor = vec![SavedTensor { rows: 1 << 33, cols: 1 << 33, data: Vec::new() }];
        assert!(matches!(load(&encode_snapshot(&saved).unwrap()), Err(Error::Parse(_))));
    }

    #[test]
    fn a_zero_layer_config_is_a_parse_error() {
        let mut saved = sample_snapshot(false);
        saved.config.num_layers = 0;
        assert!(matches!(load(&encode_snapshot(&saved).unwrap()), Err(Error::Parse(_))));
    }

    #[test]
    fn a_config_larger_than_its_weights_is_refused_before_a_model_is_built() {
        // One weight cannot back a 2048-wide model; building that model
        // first would cost ~80 MB and grows with hidden_dim².
        let mut saved = sample_snapshot(false);
        saved.config.hidden_dim = 2048;
        saved.regressor = vec![SavedTensor { rows: 1, cols: 1, data: vec![0.5] }];
        let error = load(&encode_snapshot(&saved).unwrap()).unwrap_err();
        assert!(matches!(&error, Error::Parse(message) if message.contains("hidden_dim 2048")));
        for (layers, embed) in [(3, 1), (1, 5)] {
            let mut saved = sample_snapshot(false);
            (saved.config.num_layers, saved.config.embed_dim) = (layers, embed);
            assert!(matches!(
                decode_snapshot(&encode_snapshot(&saved).unwrap()),
                Err(Error::Parse(_))
            ));
        }
    }
}
