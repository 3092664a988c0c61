//! Runtime predictor construction: [`PredictorSpec`] names an (approach ×
//! backbone) combination, [`PredictorBuilder`] turns it into a trainable
//! `Box<dyn Predictor>`.
//!
//! Specs parse from compact `"approach/backbone"` strings — `"hier/rgcn"`,
//! `"base/sage"`, `"rich/pna"` — so bench binaries, config files and serving
//! processes can select models without code changes. The paper's table
//! notation (`"RGCN-I"`, `"PNA-R"`, plain `"RGCN"`) is accepted too.

use std::fmt;
use std::str::FromStr;

use gnn::GnnKind;
use serde::{Deserialize, Serialize};

use crate::approach::GnnPredictor;
use crate::encode::FeatureMode;
use crate::predictor::Predictor;
use crate::train::TrainConfig;
use crate::{Error, Result};

/// The three prediction strategies of §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApproachKind {
    /// Approach 1 — off-the-shelf GNN on raw IR graphs (earliest prediction).
    OffTheShelf,
    /// Approach 2 — knowledge-rich GNN with per-node HLS resource estimates
    /// as auxiliary inputs (latest prediction, best accuracy).
    KnowledgeRich,
    /// Approach 3 — knowledge-infused hierarchical GNN: a node-level
    /// resource-type classifier feeds a graph-level regressor, so prediction
    /// stays at the earliest stage.
    Hierarchical,
}

impl ApproachKind {
    /// All approaches, in the paper's presentation order.
    pub const ALL: [ApproachKind; 3] =
        [ApproachKind::OffTheShelf, ApproachKind::KnowledgeRich, ApproachKind::Hierarchical];

    /// The auxiliary feature channel this approach feeds the regressor.
    pub fn feature_mode(self) -> FeatureMode {
        match self {
            ApproachKind::OffTheShelf => FeatureMode::Base,
            ApproachKind::KnowledgeRich => FeatureMode::ResourceValues,
            ApproachKind::Hierarchical => FeatureMode::ResourceTypes,
        }
    }

    /// Canonical config token (`"base"`, `"rich"`, `"hier"`).
    pub fn token(self) -> &'static str {
        match self {
            ApproachKind::OffTheShelf => "base",
            ApproachKind::KnowledgeRich => "rich",
            ApproachKind::Hierarchical => "hier",
        }
    }

    /// True when the approach trains the node-level classifier stage.
    pub fn uses_classifier(self) -> bool {
        self == ApproachKind::Hierarchical
    }
}

impl fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for ApproachKind {
    type Err = Error;

    /// Accepts the canonical tokens plus common aliases, case-insensitively:
    /// `base` / `ots` / `off-the-shelf`, `rich` / `knowledge-rich`,
    /// `hier` / `hierarchical` / `infused` / `knowledge-infused`.
    fn from_str(text: &str) -> Result<Self> {
        match gnn::canonical_token(text).as_str() {
            "base" | "ots" | "offtheshelf" => Ok(ApproachKind::OffTheShelf),
            "rich" | "knowledgerich" => Ok(ApproachKind::KnowledgeRich),
            "hier" | "hierarchical" | "infused" | "knowledgeinfused" => {
                Ok(ApproachKind::Hierarchical)
            }
            _ => Err(Error::Config(format!(
                "unknown approach `{text}` (expected base, rich or hier)"
            ))),
        }
    }
}

/// A fully-specified predictor: which approach, on which GNN backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredictorSpec {
    /// The prediction strategy.
    pub approach: ApproachKind,
    /// The GNN layer family.
    pub backbone: GnnKind,
}

impl PredictorSpec {
    /// Creates a spec.
    pub fn new(approach: ApproachKind, backbone: GnnKind) -> Self {
        PredictorSpec { approach, backbone }
    }

    /// The registry of every constructible combination (3 approaches × 14
    /// backbones).
    pub fn all() -> Vec<PredictorSpec> {
        let mut specs = Vec::with_capacity(ApproachKind::ALL.len() * GnnKind::ALL.len());
        for approach in ApproachKind::ALL {
            for backbone in GnnKind::ALL {
                specs.push(PredictorSpec::new(approach, backbone));
            }
        }
        specs
    }

    /// Name in the paper's notation: backbone name plus the approach suffix
    /// (`""`, `"-R"`, `"-I"`), e.g. `"RGCN-I"`.
    pub fn name(&self) -> String {
        format!("{}{}", self.backbone.name(), self.approach.feature_mode().suffix())
    }

    /// Canonical `"approach/backbone"` identifier, e.g. `"hier/rgcn"`. The
    /// inverse of [`PredictorSpec::from_str`].
    pub fn id(&self) -> String {
        format!("{}/{}", self.approach.token(), gnn::canonical_token(self.backbone.name()))
    }

    /// Builds an untrained predictor for this spec.
    pub fn build(&self, config: &TrainConfig) -> Box<dyn Predictor> {
        Box::new(GnnPredictor::new(*self, config))
    }
}

impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

impl FromStr for PredictorSpec {
    type Err = Error;

    /// Parses `"approach/backbone"` (e.g. `"hier/rgcn"`, `"base/sage"`) or
    /// the paper's table notation (`"RGCN-I"`, `"PNA-R"`, `"GCN"`).
    fn from_str(text: &str) -> Result<Self> {
        let trimmed = text.trim();
        if let Some((approach, backbone)) = trimmed.split_once('/') {
            let approach = ApproachKind::from_str(approach)?;
            let backbone = GnnKind::from_str(backbone).map_err(Error::Config)?;
            return Ok(PredictorSpec::new(approach, backbone));
        }
        // Paper notation: an optional "-I" / "-R" suffix on the table name.
        // Backbone names themselves may contain '-' ("GCN-V"), so try the
        // suffix interpretation first and fall back to the bare name.
        for (suffix, approach) in
            [("-I", ApproachKind::Hierarchical), ("-R", ApproachKind::KnowledgeRich)]
        {
            // Case-insensitive suffix match, consistent with the rest of the
            // grammar ("rgcn-i" parses like "RGCN-I").
            let Some(split_at) = trimmed.len().checked_sub(suffix.len()) else {
                continue;
            };
            if split_at > 0
                && trimmed.is_char_boundary(split_at)
                && trimmed[split_at..].eq_ignore_ascii_case(suffix)
            {
                let stem = &trimmed[..split_at];
                if let Ok(backbone) = GnnKind::from_str(stem) {
                    return Ok(PredictorSpec::new(approach, backbone));
                }
            }
        }
        let backbone = GnnKind::from_str(trimmed).map_err(|_| {
            Error::Config(format!(
                "unknown predictor `{text}` (expected `approach/backbone` like `hier/rgcn`, \
                 or paper notation like `RGCN-I`)"
            ))
        })?;
        Ok(PredictorSpec::new(ApproachKind::OffTheShelf, backbone))
    }
}

/// Fluent construction of predictors from a spec plus a training
/// configuration.
///
/// ```
/// use hls_gnn_core::builder::PredictorBuilder;
/// use hls_gnn_core::train::TrainConfig;
///
/// let predictor = PredictorBuilder::parse("hier/rgcn")
///     .expect("spec parses")
///     .config(TrainConfig::fast())
///     .build();
/// assert_eq!(predictor.name(), "RGCN-I");
/// # use hls_gnn_core::predictor::Predictor;
/// assert!(!predictor.is_trained());
/// ```
#[derive(Debug, Clone)]
pub struct PredictorBuilder {
    spec: PredictorSpec,
    config: TrainConfig,
}

impl PredictorBuilder {
    /// Starts a builder for the given spec with the default
    /// ([`TrainConfig::standard`]) hyper-parameters.
    pub fn new(spec: PredictorSpec) -> Self {
        PredictorBuilder { spec, config: TrainConfig::default() }
    }

    /// Starts a builder from a spec string (`"hier/rgcn"`, `"RGCN-I"`, ...).
    ///
    /// # Errors
    /// Returns [`Error::Config`] for unknown approach or backbone names.
    pub fn parse(text: &str) -> Result<Self> {
        Ok(PredictorBuilder::new(text.parse()?))
    }

    /// Replaces the training configuration.
    pub fn config(mut self, config: TrainConfig) -> Self {
        self.config = config;
        self
    }

    /// The spec this builder will construct.
    pub fn spec(&self) -> PredictorSpec {
        self.spec
    }

    /// Builds the untrained predictor.
    pub fn build(self) -> Box<dyn Predictor> {
        self.spec.build(&self.config)
    }

    /// Builds and immediately trains the predictor.
    ///
    /// # Errors
    /// Propagates training errors.
    pub fn train(
        self,
        train: &crate::dataset::Dataset,
        validation: &crate::dataset::Dataset,
    ) -> Result<Box<dyn Predictor>> {
        let config = self.config.clone();
        let mut predictor = self.build();
        predictor.fit(train, validation, &config)?;
        Ok(predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ids_round_trip_for_every_registry_entry() {
        let specs = PredictorSpec::all();
        assert_eq!(specs.len(), 3 * 14);
        for spec in specs {
            let reparsed: PredictorSpec = spec.id().parse().expect("id parses back");
            assert_eq!(reparsed, spec, "{} did not round trip", spec.id());
            let from_name: PredictorSpec = spec.name().parse().expect("paper name parses back");
            assert_eq!(from_name, spec, "{} did not round trip", spec.name());
        }
    }

    #[test]
    fn spec_parsing_accepts_aliases() {
        let spec: PredictorSpec = "hier/rgcn".parse().unwrap();
        assert_eq!(spec.approach, ApproachKind::Hierarchical);
        assert_eq!(spec.backbone, GnnKind::Rgcn);
        assert_eq!(spec.name(), "RGCN-I");

        let spec: PredictorSpec = "off-the-shelf/GraphSage".parse().unwrap();
        assert_eq!(spec.approach, ApproachKind::OffTheShelf);
        assert_eq!(spec.backbone, GnnKind::GraphSage);

        let spec: PredictorSpec = "knowledge-rich/pna".parse().unwrap();
        assert_eq!(spec.approach, ApproachKind::KnowledgeRich);
        assert_eq!(spec.backbone, GnnKind::Pna);

        let spec: PredictorSpec = "PNA-R".parse().unwrap();
        assert_eq!(spec, PredictorSpec::new(ApproachKind::KnowledgeRich, GnnKind::Pna));

        // "GCN-V" must parse as the virtual-node backbone, not as a suffix.
        let spec: PredictorSpec = "GCN-V".parse().unwrap();
        assert_eq!(spec, PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::GcnVirtual));

        // Paper notation is case-insensitive like the rest of the grammar.
        let spec: PredictorSpec = "rgcn-i".parse().unwrap();
        assert_eq!(spec, PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::Rgcn));
        let spec: PredictorSpec = "pna-r".parse().unwrap();
        assert_eq!(spec, PredictorSpec::new(ApproachKind::KnowledgeRich, GnnKind::Pna));
        let spec: PredictorSpec = "gcn-v".parse().unwrap();
        assert_eq!(spec, PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::GcnVirtual));
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        for bad in
            ["", "hier/", "/rgcn", "warp/rgcn", "hier/transformer", "frobnicate", "hier/rgcn/extra"]
        {
            assert!(bad.parse::<PredictorSpec>().is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn approach_tokens_round_trip() {
        for approach in ApproachKind::ALL {
            assert_eq!(approach.token().parse::<ApproachKind>().unwrap(), approach);
        }
        assert!("".parse::<ApproachKind>().is_err());
        assert!("midway".parse::<ApproachKind>().is_err());
    }
}
