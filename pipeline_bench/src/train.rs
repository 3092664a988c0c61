//! `train`: mini-batch optimizer steps of `hier/rgcn` (RGCN-I) at
//! `TrainConfig::standard()` on seeded synthetic CDFGs. tensor, gnn and core
//! training do all the work; hlsim does none. Both hierarchical stages run:
//! the per-graph node-classifier loop and the fused regressor loop.
//!
//! Steps are timed from outside through `Predictor::fit_source`: the
//! [`StepClock`] source reads the program's own step and epoch counters on
//! every fetch. A step fetches its mini-batch first, so consecutive
//! first-fetches bracket one step. A fit is short and repeats until the
//! budget is spent; at the deadline the source refuses the next mini-batch,
//! which stops the fit at a step boundary.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hls_gnn_core::dataset::{Dataset, DatasetBuilder, GraphSample, SampleSource};
use hls_gnn_core::{Predictor, PredictorBuilder, TrainConfig};
use hls_gnn_obs::registry::Counter;
use hls_progen::{ProgramFamily, SyntheticConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::clock::{Interval, Stamp};
use crate::stats::{mean, percentile};
use crate::{checks, trace, Layers, Phase, Workload};

/// Labelled programs: the first half trains, the second is the held-out
/// test split behind `mape_pct`.
const CORPUS: usize = 128;
/// Every seed trains on the same programs, so the graph sizes that set a
/// step's cost do not vary by seed; `--seed` sets the order in which the
/// training set is presented.
const CORPUS_SEED: u64 = 7;
/// Epochs per fit: 2 × 4 steps per stage at 64 graphs and batch 16.
const EPOCHS: usize = 2;
const WARMUP_SEED: u64 = 0x5452_4149;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Classifier,
    Regressor,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    stage: Stage,
    start: Stamp,
    end: Stamp,
    graphs: usize,
}

/// A fit that ran to completion: when it started, when its regressor
/// stage started, and when it ended.
#[derive(Debug, Clone, Copy)]
struct Fit {
    start: Stamp,
    regressor: Stamp,
    end: Stamp,
}

/// A training source that timestamps step boundaries and stops the fit at
/// a deadline.
struct StepClock<'a> {
    inner: &'a Dataset,
    deadline: Instant,
    steps_total: Arc<Counter>,
    epochs_total: Arc<Counter>,
    state: Mutex<ClockState>,
}

struct ClockState {
    epochs_at_start: u64,
    last_step: u64,
    /// Open step: stage, start, graphs fetched so far.
    open: Option<(Stage, Stamp, usize)>,
    steps: Vec<Step>,
    stopped: bool,
}

impl<'a> StepClock<'a> {
    fn new(inner: &'a Dataset, deadline: Instant) -> Self {
        let registry = hls_gnn_obs::global();
        let steps_total = registry.counter("hlsgnn_train_steps_total", &[]);
        let epochs_total = registry.counter("hlsgnn_train_epochs_total", &[]);
        let state = ClockState {
            epochs_at_start: epochs_total.get(),
            last_step: steps_total.get(),
            open: None,
            steps: Vec::new(),
            stopped: false,
        };
        StepClock { inner, deadline, steps_total, epochs_total, state: Mutex::new(state) }
    }

    /// Closes the open step at `end` and returns every completed step.
    fn finish(self, end: Stamp) -> (Vec<Step>, bool) {
        let mut state = self.state.into_inner().expect("step clock lock");
        if let Some((stage, start, graphs)) = state.open.take() {
            state.steps.push(Step { stage, start, end, graphs });
        }
        (state.steps, state.stopped)
    }
}

impl SampleSource for StepClock<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, index: usize) -> hls_gnn_core::Result<Cow<'_, GraphSample>> {
        let now = Stamp::now();
        let mut state = self.state.lock().expect("step clock lock");
        let step = self.steps_total.get();
        if step != state.last_step {
            // First fetch of a new step: the previous one ended here.
            state.last_step = step;
            if let Some((stage, start, graphs)) = state.open.take() {
                state.steps.push(Step { stage, start, end: now, graphs });
            }
            if now.wall >= self.deadline {
                state.stopped = true;
                return Err(hls_gnn_core::Error::Config("benchmark budget spent".to_owned()));
            }
            let epochs = self.epochs_total.get() - state.epochs_at_start;
            let stage = if epochs <= EPOCHS as u64 { Stage::Classifier } else { Stage::Regressor };
            state.open = Some((stage, now, 0));
        }
        if let Some((_, _, graphs)) = state.open.as_mut() {
            *graphs += 1;
        }
        self.inner.fetch(index)
    }
}

pub struct Train {
    train: Dataset,
    test: Dataset,
    config: TrainConfig,
    test_mape: Option<f64>,
    /// Steps of the last phase, and the fits that ran to completion in it.
    steps: Vec<Step>,
    completed_fits: Vec<Fit>,
}

fn corpus(seed: u64, count: usize) -> Result<Dataset, String> {
    DatasetBuilder::new(ProgramFamily::Control)
        .count(count)
        .seed(seed)
        .generator_config(SyntheticConfig::control())
        .build()
        .map_err(|error| format!("labelling the training corpus: {error}"))
}

impl Workload for Train {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut samples = corpus(CORPUS_SEED, CORPUS)?.samples;
        let test = Dataset::new(samples.split_off(CORPUS / 2));
        samples.shuffle(&mut StdRng::seed_from_u64(seed));
        let train = Dataset::new(samples);
        let config = TrainConfig { epochs: EPOCHS, ..TrainConfig::standard() };
        // Warm-up: one epoch on one mini-batch of other programs.
        let warmup = corpus(WARMUP_SEED, config.batch_size)?;
        let warmup_config = TrainConfig { epochs: 1, ..config.clone() };
        PredictorBuilder::parse("hier/rgcn")
            .and_then(|builder| builder.config(warmup_config).train(&warmup, &Dataset::default()))
            .map_err(|error| format!("warm-up fit: {error}"))?;
        Ok(Train {
            train,
            test,
            config,
            test_mape: None,
            steps: Vec::new(),
            completed_fits: Vec::new(),
        })
    }

    fn measure(&mut self, budget: Duration) -> Phase {
        let mut phase = Phase::default();
        self.steps.clear();
        self.completed_fits.clear();
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            let mut predictor =
                PredictorBuilder::parse("hier/rgcn").expect("a built-in spec parses").build();
            let clock = StepClock::new(&self.train, deadline);
            let started = Stamp::now();
            let fitted = predictor.fit_source(&clock, &Dataset::default(), &self.config);
            let ended = Stamp::now();
            phase.time += started.until(&ended);
            let (steps, stopped) = clock.finish(ended);
            let graphs: usize = steps.iter().map(|step| step.graphs).sum();
            phase.designs += graphs as u64;
            for step in &steps {
                phase.op(step.start.until(&step.end));
            }
            let outcome = match fitted {
                Err(_) if stopped => Ok(()),
                Err(error) => Err(format!("fit failed: {error}")),
                Ok(()) => {
                    let regressor_start = steps
                        .iter()
                        .find(|step| step.stage == Stage::Regressor)
                        .map_or(ended, |step| step.start);
                    if let Some(first) = steps.first() {
                        let (start, regressor) = (first.start.wall, regressor_start.wall);
                        trace::record("train.classifier_stage", start, regressor);
                        trace::record("train.regressor_stage", regressor, ended.wall);
                        self.completed_fits.push(Fit {
                            start: first.start,
                            regressor: regressor_start,
                            end: ended,
                        });
                    }
                    // The check's inference must not count in the step profile.
                    let profiling = gnn_tensor::profile::enabled();
                    gnn_tensor::profile::set_enabled(false);
                    let per_target = predictor.evaluate(&self.test);
                    let checked = checks::training_run(&predictor.snapshot(), &per_target);
                    gnn_tensor::profile::set_enabled(profiling);
                    if checked.is_ok() && self.test_mape.is_none() {
                        self.test_mape = Some(100.0 * mean(&per_target));
                    }
                    checked
                }
            };
            for step in &steps {
                trace::record("train.step", step.start.wall, step.end.wall);
                phase.check(outcome.clone());
            }
            self.steps.extend(steps);
        }
        let mut nodes: Vec<f64> = self.train.samples.iter().map(|s| s.num_nodes() as f64).collect();
        nodes.sort_by(f64::total_cmp);
        let per_stage = |stage| self.steps.iter().filter(|s| s.stage == stage).count() as f64;
        phase.record = vec![
            ("nodes_mean", mean(&nodes)),
            ("nodes_p90", percentile(&nodes, 0.9)),
            ("classifier_steps", per_stage(Stage::Classifier)),
            ("regressor_steps", per_stage(Stage::Regressor)),
            ("completed_fits", self.completed_fits.len() as f64),
        ];
        phase
    }

    fn mape_pct(&mut self) -> f64 {
        // A run too short to finish a fit trains one untimed, as its first
        // fit would have: the same programs in the same order.
        if self.test_mape.is_none() {
            let mut predictor =
                PredictorBuilder::parse("hier/rgcn").expect("a built-in spec parses").build();
            if predictor.fit(&self.train, &Dataset::default(), &self.config).is_ok() {
                let per_target = predictor.evaluate(&self.test);
                if checks::training_run(&predictor.snapshot(), &per_target).is_ok() {
                    self.test_mape = Some(100.0 * mean(&per_target));
                }
            }
        }
        self.test_mape.unwrap_or(f64::NAN)
    }

    fn layers(&mut self, traced: &Phase, _spans: &[trace::Span]) -> Result<Layers, String> {
        let stage_s = |pick: fn(&Fit) -> Interval| {
            let seconds: Vec<f64> =
                self.completed_fits.iter().map(|fit| pick(fit).wall.as_secs_f64()).collect();
            mean(&seconds)
        };
        let steps = traced.wall_us.len().max(1) as f64;
        let step_ns: f64 = traced.wall_us.iter().sum::<f64>() * 1e3;
        let profile = gnn_tensor::profile::snapshot();
        let ops_ms = |filter: &dyn Fn(&str) -> bool| {
            let ns: u64 =
                profile.ops.iter().filter(|r| filter(r.kind.name())).map(|r| r.total_ns()).sum();
            ns as f64 / 1e6 / steps
        };
        let phase_ms = |names: &[&str]| {
            let ns: u64 = profile
                .phases
                .iter()
                .filter(|p| names.contains(&p.phase.name()))
                .map(|p| p.total_ns)
                .sum();
            ns as f64 / 1e6 / steps
        };
        let gather_scatter = |name: &str| {
            name == "gather_rows" || name.starts_with("scatter_add") || name.starts_with("segment_")
        };
        let matmul = profile.ops.iter().find(|row| row.kind.name() == "matmul");
        let (matmul_ns, matmul_flops) = matmul.map_or((0, 0), |row| (row.total_ns(), row.flops));
        Ok(vec![
            ("core.classifier_stage_s", stage_s(|fit| fit.start.until(&fit.regressor))),
            ("core.regressor_stage_s", stage_s(|fit| fit.regressor.until(&fit.end))),
            ("tensor.matmul_ms", ops_ms(&|name| name == "matmul")),
            ("tensor.matmul_gflops", matmul_flops as f64 / (matmul_ns as f64).max(1.0)),
            ("tensor.gather_scatter_ms", ops_ms(&gather_scatter)),
            ("tensor.elementwise_ms", ops_ms(&|name| name != "matmul" && !gather_scatter(name))),
            ("tensor.backward_setup_ms", phase_ms(&["backward_setup"])),
            ("tensor.optimizer_ms", phase_ms(&["optimizer"])),
            ("tensor.fetch_assemble_ms", phase_ms(&["fetch", "assemble"])),
            ("tensor.attributed_pct", 100.0 * profile.attributed_ns() as f64 / step_ns.max(1.0)),
        ])
    }
}
