//! The evaluation harness: one function per table / figure of the paper.
//!
//! | Paper artefact | Function | Bench binary |
//! |---|---|---|
//! | Table 2 (off-the-shelf MAPE, 14 models, DFG & CDFG) | [`run_table2`] | `table2` |
//! | Table 3 (node-level classification accuracy) | [`run_table3`] | `table3` |
//! | Table 4 (three approaches with RGCN/PNA) | [`run_table4`] | `table4` |
//! | Table 5 (generalisation to real applications vs HLS) | [`run_table5`] | `table5` |
//! | §1 / Fig. 1 timeliness claim ("up to 40× faster than HLS") | [`run_speedup`] | `speedup` |
//! | Design-choice ablations (pooling, relations, hierarchy) | [`run_ablation`] | `ablation` |
//! | Analytic-bound feature ablation | [`run_analytic_ablation`] | `ablation` |
//!
//! Every run is parameterised by an [`ExperimentConfig`]; the scale can be
//! selected through the `HLSGNN_SCALE` environment variable (`fast`,
//! `standard`, `paper`), and the worker count of the parallel runtime through
//! `HLSGNN_WORKERS` (see [`crate::runtime::ParallelConfig`]). Every sweep
//! trains its approach × backbone combinations on thread-confined workers and
//! produces bit-identical tables for any worker count.

use std::fmt;
use std::time::Instant;

use gnn::GnnKind;
use hls_progen::synthetic::ProgramFamily;
use hls_sim::{run_flow, FpgaDevice};
use serde::{Deserialize, Serialize};

use crate::approach::{hls_baseline_mape, GnnPredictor};
use crate::builder::{ApproachKind, PredictorSpec};
use crate::dataset::{Dataset, DatasetBuilder, Split};
use crate::encode::FeatureMode;
use crate::metrics::TargetNormalizer;
use crate::model::{GraphRegressor, NodeClassifierModel};
use crate::predictor::Predictor;
use crate::runtime::{self, ParallelConfig};
use crate::task::TargetMetric;
use crate::train::{
    evaluate_node_classifier, evaluate_regressor, train_node_classifier, train_regressor,
    TrainConfig,
};
use crate::Result;

/// How big the corpora and models are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Minutes on a laptop CPU: small corpora, small models.
    Fast,
    /// The default for the bench binaries.
    Standard,
    /// The paper-scale setting (tens of thousands of programs, hidden 300).
    Paper,
}

impl ExperimentScale {
    /// Values accepted by `HLSGNN_SCALE`, for error messages and docs.
    pub const ACCEPTED_VALUES: &'static str = "fast, standard (alias: default), paper";

    /// Reads the scale from `HLSGNN_SCALE` (`fast` / `standard` / `paper`),
    /// defaulting to [`ExperimentScale::Fast`] when the variable is unset or
    /// empty. An unrecognised value also falls back to `Fast`, but emits a
    /// warning on stderr instead of silently masking the typo.
    pub fn from_env() -> Self {
        let raw = std::env::var("HLSGNN_SCALE").unwrap_or_default();
        let raw = raw.trim();
        match raw.to_lowercase().as_str() {
            "" | "fast" => ExperimentScale::Fast,
            "paper" => ExperimentScale::Paper,
            "standard" | "default" => ExperimentScale::Standard,
            _ => {
                eprintln!(
                    "warning: unrecognised HLSGNN_SCALE value `{raw}`; falling back to `fast` \
                     (accepted values: {})",
                    Self::ACCEPTED_VALUES
                );
                ExperimentScale::Fast
            }
        }
    }
}

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Scale label recorded in the reports.
    pub scale: ExperimentScale,
    /// Number of synthetic straight-line programs (the DFG corpus).
    pub dfg_programs: usize,
    /// Number of synthetic control-flow programs (the CDFG corpus).
    pub cdfg_programs: usize,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Corpus generation / split seed.
    pub seed: u64,
    /// GNN models included in the Table-2 sweep (all 14 by default).
    pub table2_models: Vec<GnnKind>,
    /// Target device.
    pub device: FpgaDevice,
    /// Worker configuration for the parallel runtime (every preset reads
    /// `HLSGNN_WORKERS`; tables are bit-identical for any worker count).
    pub parallel: ParallelConfig,
}

impl ExperimentConfig {
    /// Fast configuration (CI, smoke tests).
    pub fn fast() -> Self {
        let mut train = TrainConfig::fast();
        train.epochs = 6;
        ExperimentConfig {
            scale: ExperimentScale::Fast,
            dfg_programs: 64,
            cdfg_programs: 64,
            train,
            seed: 1,
            table2_models: GnnKind::ALL.to_vec(),
            device: FpgaDevice::default(),
            parallel: ParallelConfig::from_env(),
        }
    }

    /// Standard configuration used by the bench binaries.
    pub fn standard() -> Self {
        ExperimentConfig {
            scale: ExperimentScale::Standard,
            dfg_programs: 200,
            cdfg_programs: 200,
            train: TrainConfig::standard(),
            seed: 1,
            table2_models: GnnKind::ALL.to_vec(),
            device: FpgaDevice::default(),
            parallel: ParallelConfig::from_env(),
        }
    }

    /// Paper-scale configuration (§5.1): 19k/18k programs, hidden 300, 100
    /// epochs. Provided for completeness; expect very long runtimes on CPU.
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: ExperimentScale::Paper,
            dfg_programs: 19_120,
            cdfg_programs: 18_570,
            train: TrainConfig::paper(),
            seed: 1,
            table2_models: GnnKind::ALL.to_vec(),
            device: FpgaDevice::default(),
            parallel: ParallelConfig::from_env(),
        }
    }

    /// Builds the configuration selected by `HLSGNN_SCALE`.
    pub fn from_env() -> Self {
        match ExperimentScale::from_env() {
            ExperimentScale::Fast => Self::fast(),
            ExperimentScale::Standard => Self::standard(),
            ExperimentScale::Paper => Self::paper(),
        }
    }

    /// Restricts the Table-2 sweep to a subset of models.
    pub fn with_models(mut self, models: Vec<GnnKind>) -> Self {
        self.table2_models = models;
        self
    }

    /// Overrides the worker configuration of the parallel runtime.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    fn build_corpus(&self, family: ProgramFamily, count: usize) -> Result<Split> {
        let dataset = DatasetBuilder::new(family)
            .count(count)
            .seed(self.seed)
            .device(self.device.clone())
            .build()?;
        Ok(dataset.split(0.8, 0.1, self.seed.wrapping_add(7)))
    }
}

fn format_mape_row(name: &str, values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{:>8.2}%", v * 100.0)).collect();
    format!("{name:<10} {}", cells.join(" "))
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One row of Table 2: per-target MAPE of an off-the-shelf model on the DFG
/// and CDFG test sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// `[DSP, LUT, FF, CP]` MAPE on the DFG test set.
    pub dfg: [f64; 4],
    /// `[DSP, LUT, FF, CP]` MAPE on the CDFG test set.
    pub cdfg: [f64; 4],
}

/// Table 2 of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per screened GNN model.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Mean MAPE (over the four targets) per dataset — used for the
    /// DFG-vs-CDFG difficulty analysis of §5.2.
    pub fn dataset_means(&self) -> (f64, f64) {
        let count = (self.rows.len() * 4).max(1) as f64;
        let dfg: f64 = self.rows.iter().flat_map(|r| r.dfg.iter()).sum::<f64>() / count;
        let cdfg: f64 = self.rows.iter().flat_map(|r| r.cdfg.iter()).sum::<f64>() / count;
        (dfg, cdfg)
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: MAPE of graph-level regression (off-the-shelf approach)")?;
        writeln!(
            f,
            "{:<10} {:>36} | {:>36}",
            "model", "DFG  (DSP/LUT/FF/CP)", "CDFG (DSP/LUT/FF/CP)"
        )?;
        for row in &self.rows {
            let dfg: Vec<String> = row.dfg.iter().map(|v| format!("{:>7.2}%", v * 100.0)).collect();
            let cdfg: Vec<String> =
                row.cdfg.iter().map(|v| format!("{:>7.2}%", v * 100.0)).collect();
            writeln!(f, "{:<10} {} | {}", row.model, dfg.join(" "), cdfg.join(" "))?;
        }
        let (dfg_mean, cdfg_mean) = self.dataset_means();
        writeln!(f, "mean MAPE: DFG {:.2}%  CDFG {:.2}%", dfg_mean * 100.0, cdfg_mean * 100.0)
    }
}

/// Runs the Table-2 sweep: every configured model, trained on the DFG corpus
/// and on the CDFG corpus with the off-the-shelf approach. The models train
/// in parallel on `config.parallel` workers, one thread-confined model pair
/// per job; the rows come back in model order and are bit-identical for any
/// worker count.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_table2(config: &ExperimentConfig) -> Result<Table2> {
    let dfg = config.build_corpus(ProgramFamily::StraightLine, config.dfg_programs)?;
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;
    let rows = runtime::try_run_jobs(&config.parallel, config.table2_models.len(), |index| {
        let kind = config.table2_models[index];
        let spec = PredictorSpec::new(ApproachKind::OffTheShelf, kind);
        let mut dfg_model = spec.build(&config.train);
        dfg_model.fit(&dfg.train, &dfg.validation, &config.train)?;
        let dfg_mape = dfg_model.evaluate(&dfg.test);

        let mut cdfg_model = spec.build(&config.train);
        cdfg_model.fit(&cdfg.train, &cdfg.validation, &config.train)?;
        let cdfg_mape = cdfg_model.evaluate(&cdfg.test);

        Ok(Table2Row { model: kind.name().to_owned(), dfg: dfg_mape, cdfg: cdfg_mape })
    })?;
    Ok(Table2 { rows })
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// One row of Table 3: node-level classification accuracy of one backbone on
/// DFGs, CDFGs and the real-case applications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Model name.
    pub model: String,
    /// `[DSP, LUT, FF]` accuracy on the DFG test set.
    pub dfg: [f64; 3],
    /// `[DSP, LUT, FF]` accuracy on the CDFG test set.
    pub cdfg: [f64; 3],
    /// `[DSP, LUT, FF]` accuracy on the real-world kernels.
    pub real: [f64; 3],
}

/// Table 3 of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per backbone (GCN, SAGE, GIN, RGCN in the paper).
    pub rows: Vec<Table3Row>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: node-level resource-type classification accuracy")?;
        writeln!(
            f,
            "{:<10} {:>27} | {:>27} | {:>27}",
            "model", "DFG (DSP/LUT/FF)", "CDFG (DSP/LUT/FF)", "Real (DSP/LUT/FF)"
        )?;
        for row in &self.rows {
            let fmt3 = |values: &[f64; 3]| {
                values.iter().map(|v| format!("{:>8.2}%", v * 100.0)).collect::<Vec<_>>().join(" ")
            };
            writeln!(
                f,
                "{:<10} {} | {} | {}",
                row.model,
                fmt3(&row.dfg),
                fmt3(&row.cdfg),
                fmt3(&row.real)
            )?;
        }
        Ok(())
    }
}

/// The four backbones Table 3 evaluates.
pub const TABLE3_MODELS: [GnnKind; 4] =
    [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Rgcn];

/// Runs the Table-3 sweep: node classifiers on DFG, CDFG and real-world sets,
/// one backbone per parallel worker.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_table3(config: &ExperimentConfig) -> Result<Table3> {
    let dfg = config.build_corpus(ProgramFamily::StraightLine, config.dfg_programs)?;
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;
    let real = Dataset::real_world(&config.device)?;
    let rows = runtime::run_jobs(&config.parallel, TABLE3_MODELS.len(), |index| {
        let kind = TABLE3_MODELS[index];
        // DFG-trained classifier, evaluated on the DFG test split.
        let dfg_model = NodeClassifierModel::new(kind, &config.train);
        train_node_classifier(&dfg_model, &dfg.train, &config.train);
        let dfg_accuracy = evaluate_node_classifier(&dfg_model, &dfg.test);
        // CDFG-trained classifier, evaluated on the CDFG test split and reused
        // for the real-case generalisation column (as in the paper, real-world
        // programs are never trained on).
        let cdfg_model = NodeClassifierModel::new(kind, &config.train);
        train_node_classifier(&cdfg_model, &cdfg.train, &config.train);
        let cdfg_accuracy = evaluate_node_classifier(&cdfg_model, &cdfg.test);
        let real_accuracy = evaluate_node_classifier(&cdfg_model, &real);
        Table3Row {
            model: kind.name().to_owned(),
            dfg: dfg_accuracy,
            cdfg: cdfg_accuracy,
            real: real_accuracy,
        }
    });
    Ok(Table3 { rows })
}

// ---------------------------------------------------------------------------
// Tables 4 and 5
// ---------------------------------------------------------------------------

/// One row of Table 4: per-target MAPE of one (backbone, approach) pair on the
/// DFG and CDFG test sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Predictor name (`RGCN`, `RGCN-I`, `RGCN-R`, `PNA`, ...).
    pub predictor: String,
    /// `[DSP, LUT, FF, CP]` MAPE on the DFG test set.
    pub dfg: [f64; 4],
    /// `[DSP, LUT, FF, CP]` MAPE on the CDFG test set.
    pub cdfg: [f64; 4],
}

/// Table 4 of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4 {
    /// Rows in the paper's order (backbone × {base, -I, -R}).
    pub rows: Vec<Table4Row>,
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4: MAPE of the three approaches (RGCN / PNA backbones)")?;
        writeln!(
            f,
            "{:<10} {:>36} | {:>36}",
            "predictor", "DFG  (DSP/LUT/FF/CP)", "CDFG (DSP/LUT/FF/CP)"
        )?;
        for row in &self.rows {
            let dfg: Vec<String> = row.dfg.iter().map(|v| format!("{:>7.2}%", v * 100.0)).collect();
            let cdfg: Vec<String> =
                row.cdfg.iter().map(|v| format!("{:>7.2}%", v * 100.0)).collect();
            writeln!(f, "{:<10} {} | {}", row.predictor, dfg.join(" "), cdfg.join(" "))?;
        }
        Ok(())
    }
}

/// The two backbones carried into Tables 4 and 5.
pub const TABLE4_BACKBONES: [GnnKind; 2] = [GnnKind::Rgcn, GnnKind::Pna];

/// The Table-4/5 row order per backbone: base, then knowledge-infused, then
/// knowledge-rich.
const TABLE4_APPROACHES: [ApproachKind; 3] =
    [ApproachKind::OffTheShelf, ApproachKind::Hierarchical, ApproachKind::KnowledgeRich];

/// The Table-4/5 registry combos in row order: backbone-major, approaches in
/// the paper's presentation order. Each combo is one parallel training job.
fn table45_combos() -> Vec<PredictorSpec> {
    let mut combos = Vec::with_capacity(TABLE4_BACKBONES.len() * TABLE4_APPROACHES.len());
    for backbone in TABLE4_BACKBONES {
        for approach in TABLE4_APPROACHES {
            combos.push(PredictorSpec::new(approach, backbone));
        }
    }
    combos
}

/// Runs the Table-4 comparison of the three approaches on synthetic corpora,
/// one (backbone × approach) combo per parallel worker.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_table4(config: &ExperimentConfig) -> Result<Table4> {
    let dfg = config.build_corpus(ProgramFamily::StraightLine, config.dfg_programs)?;
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;
    let combos = table45_combos();
    let rows = runtime::try_run_jobs(&config.parallel, combos.len(), |index| {
        let spec = combos[index];
        let mut dfg_model = spec.build(&config.train);
        dfg_model.fit(&dfg.train, &dfg.validation, &config.train)?;
        let mut cdfg_model = spec.build(&config.train);
        cdfg_model.fit(&cdfg.train, &cdfg.validation, &config.train)?;
        Ok(Table4Row {
            predictor: dfg_model.name(),
            dfg: dfg_model.evaluate(&dfg.test),
            cdfg: cdfg_model.evaluate(&cdfg.test),
        })
    })?;
    Ok(Table4 { rows })
}

/// One column of Table 5: per-target MAPE of one predictor (or the HLS report)
/// on the real-case applications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Column {
    /// Predictor name (`HLS`, `RGCN`, `RGCN-I`, ...).
    pub predictor: String,
    /// `[DSP, LUT, FF, CP]` MAPE on the real-world kernel suite.
    pub mape: [f64; 4],
}

/// Table 5 of the paper (generalisation to unseen real applications).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// The HLS baseline followed by the six GNN predictors.
    pub columns: Vec<Table5Column>,
}

impl Table5 {
    /// Improvement factor of a predictor over the HLS baseline for one target
    /// (the "outperforms HLS by up to 40×" statement of the paper).
    pub fn improvement_over_hls(&self, predictor: &str, target: TargetMetric) -> Option<f64> {
        let hls = self.columns.iter().find(|c| c.predictor == "HLS")?;
        let column = self.columns.iter().find(|c| c.predictor == predictor)?;
        let index = target.index();
        if column.mape[index] <= 0.0 {
            return None;
        }
        Some(hls.mape[index] / column.mape[index])
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 5: testing MAPE on real-case applications")?;
        write!(f, "{:<6}", "")?;
        for column in &self.columns {
            write!(f, "{:>10}", column.predictor)?;
        }
        writeln!(f)?;
        for target in TargetMetric::ALL {
            write!(f, "{:<6}", target.name())?;
            for column in &self.columns {
                write!(f, "{:>9.2}%", column.mape[target.index()] * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs the Table-5 generalisation study: train on the synthetic CDFG corpus,
/// evaluate on the real-world kernels, compare against the HLS report. The
/// six GNN columns train one combo per parallel worker.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_table5(config: &ExperimentConfig) -> Result<Table5> {
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;
    let real = Dataset::real_world(&config.device)?;
    let combos = table45_combos();
    let mut columns =
        vec![Table5Column { predictor: "HLS".to_owned(), mape: hls_baseline_mape(&real) }];
    columns.extend(runtime::try_run_jobs(&config.parallel, combos.len(), |index| {
        let mut predictor = combos[index].build(&config.train);
        predictor.fit(&cdfg.train, &cdfg.validation, &config.train)?;
        Ok(Table5Column { predictor: predictor.name(), mape: predictor.evaluate(&real) })
    })?);
    Ok(Table5 { columns })
}

// ---------------------------------------------------------------------------
// Timeliness (speed-up) figure
// ---------------------------------------------------------------------------

/// Reference wall-clock of a real Vitis HLS synthesis + implementation run on
/// kernels of this size, in seconds. The paper reports "minutes to hours"; we
/// use a conservative five minutes. This calibration is needed because the
/// `hls-sim` substrate is itself a micro-second-scale simulator, unlike the
/// real tool it stands in for (see DESIGN.md and EXPERIMENTS.md).
pub const REFERENCE_VITIS_SECONDS: f64 = 300.0;

/// Wall-clock comparison for one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Kernel name.
    pub kernel: String,
    /// Time of the full (simulated) HLS + implementation flow, in
    /// microseconds: the median of warm runs.
    pub hls_flow_us: f64,
    /// Time of one GNN prediction (graph already extracted), in
    /// microseconds: the median of warm calls.
    pub gnn_inference_us: f64,
    /// `hls_flow_us / gnn_inference_us` — the raw ratio against the simulator.
    pub speedup: f64,
    /// `REFERENCE_VITIS_SECONDS / gnn_inference` — the ratio against a real
    /// HLS + implementation run, which is what the paper's claim refers to.
    pub calibrated_speedup: f64,
}

/// The timeliness comparison behind the paper's "up to 40× faster" claim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupReport {
    /// One row per evaluated kernel.
    pub rows: Vec<SpeedupRow>,
}

impl SpeedupReport {
    /// Geometric-mean raw speed-up across kernels.
    pub fn geometric_mean(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.speedup.max(1e-9).ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }

    /// Maximum raw speed-up across kernels.
    pub fn max_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup).fold(0.0, f64::max)
    }

    /// Geometric-mean speed-up against the calibrated real-tool reference.
    pub fn calibrated_geometric_mean(&self) -> f64 {
        if self.rows.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.rows.iter().map(|r| r.calibrated_speedup.max(1e-9).ln()).sum();
        (log_sum / self.rows.len() as f64).exp()
    }
}

impl fmt::Display for SpeedupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Prediction timeliness: GNN inference vs HLS flow")?;
        writeln!(
            f,
            "{:<22} {:>16} {:>12} {:>12} {:>14}",
            "kernel", "sim flow (us)", "GNN (us)", "vs sim", "vs real tool"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<22} {:>16.1} {:>12.1} {:>11.1}x {:>13.0}x",
                row.kernel,
                row.hls_flow_us,
                row.gnn_inference_us,
                row.speedup,
                row.calibrated_speedup
            )?;
        }
        writeln!(
            f,
            "geometric mean vs simulator {:.2}x; vs a {:.0}-second real HLS+implementation run {:.0}x",
            self.geometric_mean(),
            REFERENCE_VITIS_SECONDS,
            self.calibrated_geometric_mean()
        )
    }
}

/// Timed calls per side of a [`SpeedupRow`]; the row reports their median.
const SPEEDUP_REPEATS: usize = 9;

/// Median wall time in microseconds of [`SPEEDUP_REPEATS`] calls of `call`,
/// after one untimed call, so neither side is charged its first-call set-up.
fn warm_median_us<T, E>(
    mut call: impl FnMut() -> std::result::Result<T, E>,
) -> std::result::Result<f64, E> {
    call()?;
    let mut samples = Vec::with_capacity(SPEEDUP_REPEATS);
    for _ in 0..SPEEDUP_REPEATS {
        let start = Instant::now();
        call()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[SPEEDUP_REPEATS / 2])
}

/// Measures HLS-flow time vs GNN-inference time on the real-world kernels
/// (the paper's timeliness argument). Each side is the median of warm calls.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_speedup(config: &ExperimentConfig) -> Result<SpeedupReport> {
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs.min(64))?;
    let mut predictor =
        PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Rgcn).build(&config.train);
    predictor.fit(&cdfg.train, &cdfg.validation, &config.train)?;

    let real = Dataset::real_world(&config.device)?;
    let kernels = hls_progen::all_kernels();
    let mut rows = Vec::new();
    for (kernel, sample) in kernels.iter().zip(&real.samples) {
        let hls_flow_us = warm_median_us(|| run_flow(&kernel.function, &config.device))?;
        let gnn_inference_us = warm_median_us(|| predictor.predict(sample))?;
        rows.push(SpeedupRow {
            kernel: kernel.name.clone(),
            hls_flow_us,
            gnn_inference_us,
            speedup: hls_flow_us / gnn_inference_us.max(1e-9),
            calibrated_speedup: REFERENCE_VITIS_SECONDS * 1e6 / gnn_inference_us.max(1e-9),
        });
    }
    Ok(SpeedupReport { rows })
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation setting and its CDFG test MAPE.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Setting description.
    pub setting: String,
    /// `[DSP, LUT, FF, CP]` MAPE on the CDFG test set.
    pub mape: [f64; 4],
}

/// Ablation study over the design choices called out in DESIGN.md: pooling
/// (sum vs mean), relational edges (RGCN vs GCN), and the hierarchical stage
/// (off-the-shelf vs knowledge-infused).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationReport {
    /// One row per setting.
    pub rows: Vec<AblationRow>,
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablations (CDFG test MAPE, DSP/LUT/FF/CP)")?;
        for row in &self.rows {
            writeln!(f, "{}", format_mape_row(&row.setting, &row.mape))?;
        }
        Ok(())
    }
}

/// Runs the ablation sweep on the CDFG corpus, one setting per parallel
/// worker.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_ablation(config: &ExperimentConfig) -> Result<AblationReport> {
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;

    // The settings, in report order; each one is an independent training job.
    let mut settings: Vec<(String, PredictorSpec, TrainConfig)> = Vec::new();
    // Pooling: mean vs sum readout on the RGCN backbone.
    for pooling in gnn::Pooling::ALL {
        let mut train = config.train.clone();
        train.pooling = pooling;
        settings.push((
            format!("RGCN/{} pooling", pooling.name()),
            PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Rgcn),
            train,
        ));
    }
    // Relational edges: RGCN (uses edge types) vs plain GCN (ignores them).
    for kind in [GnnKind::Gcn, GnnKind::Rgcn] {
        settings.push((
            format!("{} (relational: {})", kind.name(), kind.is_relational()),
            PredictorSpec::new(ApproachKind::OffTheShelf, kind),
            config.train.clone(),
        ));
    }
    // Hierarchy: off-the-shelf vs knowledge-infused on the same backbone.
    settings.push((
        "RGCN-I (hierarchical)".to_owned(),
        PredictorSpec::new(ApproachKind::Hierarchical, GnnKind::Rgcn),
        config.train.clone(),
    ));

    let rows = runtime::try_run_jobs(&config.parallel, settings.len(), |index| {
        let (setting, spec, train) = &settings[index];
        let mut predictor = spec.build(train);
        predictor.fit(&cdfg.train, &cdfg.validation, train)?;
        Ok(AblationRow { setting: setting.clone(), mape: predictor.evaluate(&cdfg.test) })
    })?;

    Ok(AblationReport { rows })
}

/// Analytic-bound feature ablation on the Table-2 CDFG protocol: the same
/// off-the-shelf backbone trained with and without the three static-analysis
/// node features (critical-path depth, on-recurrence flag, memory-port
/// pressure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyticAblationReport {
    /// One row per setting (base features, base + analytic bounds).
    pub rows: Vec<AblationRow>,
}

impl fmt::Display for AnalyticAblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Analytic-feature ablation (CDFG test MAPE, DSP/LUT/FF/CP)")?;
        for row in &self.rows {
            writeln!(f, "{}", format_mape_row(&row.setting, &row.mape))?;
        }
        Ok(())
    }
}

/// Runs the analytic-feature ablation: both variants train on the same CDFG
/// corpus and split, on parallel workers, differing only in the three extra
/// feature columns.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn run_analytic_ablation(config: &ExperimentConfig) -> Result<AnalyticAblationReport> {
    let cdfg = config.build_corpus(ProgramFamily::Control, config.cdfg_programs)?;
    let settings = [("RGCN (base features)", false), ("RGCN + analytic bounds", true)];
    let rows = runtime::try_run_jobs(&config.parallel, settings.len(), |index| {
        let (setting, analytic) = settings[index];
        let model = GraphRegressor::with_analytic_features(
            GnnKind::Rgcn,
            FeatureMode::Base,
            &config.train,
            analytic,
        );
        let normalizer = TargetNormalizer::fit(&cdfg.train)?;
        train_regressor(&model, &normalizer, &cdfg.train, &config.train);
        Ok(AblationRow {
            setting: setting.to_owned(),
            mape: evaluate_regressor(&model, &normalizer, &cdfg.test),
        })
    })?;
    Ok(AnalyticAblationReport { rows })
}

/// Held-out MAPE of one registry combo under the fixed parity protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityEntry {
    /// Canonical `"approach/backbone"` id of the combo.
    pub id: String,
    /// Per-target test MAPE (`[DSP, LUT, FF, CP]`), in percent.
    pub mape: [f64; TargetMetric::COUNT],
}

/// The registry-wide parity report: every combo's held-out MAPE under a
/// frozen protocol, used to pin the autodiff engine's training numerics
/// across refactors (`results/parity_baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityReport {
    /// Corpus size (synthetic straight-line programs).
    pub programs: usize,
    /// Corpus generation / split seed.
    pub corpus_seed: u64,
    /// Training seed.
    pub train_seed: u64,
    /// Epochs per combo (one — the protocol pins the first optimisation
    /// steps, where numerical drift would surface immediately).
    pub epochs: usize,
    /// Hidden dimension of the trained models.
    pub hidden_dim: usize,
    /// One entry per registry combo, in [`PredictorSpec::all`] order.
    pub entries: Vec<ParityEntry>,
}

/// Trains every registry combo (3 approaches × 14 backbones) for one epoch
/// on a fixed tiny synthetic corpus with fixed seeds and reports the held-out
/// per-target MAPE of each. The protocol is deliberately frozen: any change
/// to the autodiff engine, the kernels or the training loop that alters
/// floating-point results shows up as a diff against the checked-in baseline
/// (`results/parity_baseline.json`, written by the `parity_baseline` bench
/// binary when a numerical change is intentional).
///
/// The combos run on the given worker configuration; results are
/// bit-identical for any worker count (each job's RNG state derives purely
/// from its seed and models never cross threads).
///
/// The chunk plan is pinned (node budget 128, the default at the time the
/// baseline was generated) rather than left to the default: a chunk plan
/// determines floating-point accumulation order, so leaving it to the
/// tunable default would make the gate fail on every budget retune instead
/// of only on real engine changes.
///
/// # Errors
/// Propagates dataset-construction and training errors.
pub fn registry_parity(parallel: &ParallelConfig) -> Result<ParityReport> {
    use hls_progen::synthetic::SyntheticConfig;
    let programs = 16;
    let corpus_seed = 1234;
    let batch = runtime::BatchConfig::default().with_node_budget(128);
    let mut train = TrainConfig::fast();
    train.epochs = 1;
    train.seed = 7;
    let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(programs)
        .seed(corpus_seed)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
        .build()?;
    let split = dataset.split(0.7, 0.15, 1);
    let specs = PredictorSpec::all();
    let entries = runtime::try_run_jobs(parallel, specs.len(), |index| {
        let spec = specs[index];
        let mut predictor = GnnPredictor::new(spec, &train);
        predictor.fit_source_with(&batch, &split.train, &split.validation, &train)?;
        Ok(ParityEntry { id: spec.id(), mape: predictor.evaluate(&split.test) })
    })?;
    Ok(ParityReport {
        programs,
        corpus_seed,
        train_seed: train.seed,
        epochs: train.epochs,
        hidden_dim: train.hidden_dim,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine-parity gate: recomputes the frozen protocol on this build
    /// and compares against the checked-in baseline
    /// (`results/parity_baseline.json`, generated by the `parity_baseline`
    /// bin). The baseline pins the numerics of the arena tape's single-sweep
    /// backward pass (adjoints accumulated in descending record order,
    /// straight into their destinations), the fused chunk plan at node
    /// budget 128 and the shared training loop. Tolerance is 1e-9 MAPE
    /// points — the slack only exists to absorb a future *documented* benign
    /// change (regenerate the baseline and say so in the commit if a
    /// numerical change is intentional).
    ///
    /// The same run also pins worker-count determinism: the report must be
    /// exactly equal at `HLSGNN_WORKERS`-equivalent configs 1 and 4.
    #[test]
    fn registry_parity_matches_the_checked_in_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/parity_baseline.json");
        let raw = std::fs::read_to_string(path).expect("checked-in parity baseline exists");
        let baseline: ParityReport = serde_json::from_str(&raw).expect("baseline parses");

        let serial = registry_parity(&ParallelConfig::serial()).expect("parity protocol runs");
        let parallel =
            registry_parity(&ParallelConfig::with_workers(4)).expect("parity protocol runs");
        assert_eq!(serial, parallel, "parity report must be bit-identical at any worker count");

        assert_eq!(serial.programs, baseline.programs);
        assert_eq!(serial.corpus_seed, baseline.corpus_seed);
        assert_eq!(serial.train_seed, baseline.train_seed);
        assert_eq!(serial.epochs, baseline.epochs);
        assert_eq!(serial.hidden_dim, baseline.hidden_dim);
        assert_eq!(serial.entries.len(), baseline.entries.len());
        const TOLERANCE: f64 = 1e-9;
        for (ours, theirs) in serial.entries.iter().zip(&baseline.entries) {
            assert_eq!(ours.id, theirs.id, "combo order must match the baseline");
            for (target, (a, b)) in ours.mape.iter().zip(&theirs.mape).enumerate() {
                assert!(
                    (a - b).abs() <= TOLERANCE,
                    "{} target {target}: this engine {a}, baseline {b} (|Δ| > {TOLERANCE})",
                    ours.id
                );
            }
        }
    }

    fn smoke_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::fast();
        config.dfg_programs = 16;
        config.cdfg_programs = 16;
        config.train.epochs = 2;
        config.train.hidden_dim = 8;
        config.train.embed_dim = 3;
        config.with_models(vec![GnnKind::Gcn, GnnKind::Rgcn])
    }

    #[test]
    fn scale_presets_grow_monotonically() {
        let fast = ExperimentConfig::fast();
        let standard = ExperimentConfig::standard();
        let paper = ExperimentConfig::paper();
        assert!(fast.dfg_programs < standard.dfg_programs);
        assert!(standard.dfg_programs < paper.dfg_programs);
        assert_eq!(paper.dfg_programs, 19_120, "paper DFG corpus size");
        assert_eq!(paper.cdfg_programs, 18_570, "paper CDFG corpus size");
        assert_eq!(GnnKind::ALL.len(), fast.table2_models.len());
    }

    #[test]
    fn table2_smoke_run_produces_all_rows() {
        let config = smoke_config();
        let table = run_table2(&config).expect("table 2 runs");
        assert_eq!(table.rows.len(), 2);
        assert!(table.rows.iter().all(|r| r
            .dfg
            .iter()
            .chain(r.cdfg.iter())
            .all(|m| m.is_finite())));
        let rendered = table.to_string();
        assert!(rendered.contains("GCN"));
        assert!(rendered.contains("RGCN"));
        let (dfg_mean, cdfg_mean) = table.dataset_means();
        assert!(dfg_mean >= 0.0 && cdfg_mean >= 0.0);
        // Round-trip through serde for EXPERIMENTS.md regeneration.
        let json = serde_json::to_string(&table).unwrap();
        let back: Table2 = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), table.rows.len());
    }

    #[test]
    fn speedup_report_helpers_work() {
        let report = SpeedupReport {
            rows: vec![
                SpeedupRow {
                    kernel: "a".into(),
                    hls_flow_us: 100.0,
                    gnn_inference_us: 10.0,
                    speedup: 10.0,
                    calibrated_speedup: 1000.0,
                },
                SpeedupRow {
                    kernel: "b".into(),
                    hls_flow_us: 400.0,
                    gnn_inference_us: 10.0,
                    speedup: 40.0,
                    calibrated_speedup: 4000.0,
                },
            ],
        };
        assert_eq!(report.max_speedup(), 40.0);
        assert!((report.geometric_mean() - 20.0).abs() < 1.0);
        assert!((report.calibrated_geometric_mean() - 2000.0).abs() < 10.0);
        assert!(report.to_string().contains("vs real tool"));
        assert_eq!(SpeedupReport { rows: vec![] }.geometric_mean(), 1.0);
    }

    #[test]
    fn table5_improvement_helper() {
        let table = Table5 {
            columns: vec![
                Table5Column { predictor: "HLS".into(), mape: [0.2, 8.0, 3.0, 0.3] },
                Table5Column { predictor: "RGCN-I".into(), mape: [0.4, 0.4, 0.4, 0.05] },
            ],
        };
        let lut = table.improvement_over_hls("RGCN-I", TargetMetric::Lut).unwrap();
        assert!((lut - 20.0).abs() < 1e-9);
        assert!(table.improvement_over_hls("missing", TargetMetric::Lut).is_none());
        assert!(table.to_string().contains("RGCN-I"));
    }

    #[test]
    fn scale_from_env_defaults_to_fast() {
        // The variable is not set in the test environment.
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Fast);
    }
}
