//! Output checks. Each returns `Err` with a reason when an op's output is
//! wrong; the workloads count such ops as failed instead of stopping.

use hls_gnn_core::dataset::GraphSample;
use hls_gnn_core::persist::SavedPredictor;
use hls_gnn_core::task::TargetMetric;

pub type Check = Result<(), String>;

/// A labelled sample: every per-node vector matches the node count, and the
/// graph-level targets are finite and non-negative.
pub fn labelled_sample(sample: &GraphSample) -> Check {
    let nodes = sample.num_nodes();
    let lengths = [
        ("node_features", sample.node_features.len()),
        ("node_aux_resources", sample.node_aux_resources.len()),
        ("node_resource_types", sample.node_resource_types.len()),
        ("node_analytic", sample.node_analytic.len()),
    ];
    for (field, len) in lengths {
        if len != nodes {
            return Err(format!("{}: {field} has {len} entries for {nodes} nodes", sample.name));
        }
    }
    if let Some(bad) = sample.targets.iter().find(|t| !t.is_finite() || **t < 0.0) {
        return Err(format!("{}: target {bad} is not a finite non-negative value", sample.name));
    }
    Ok(())
}

/// A finished training run: the weights are finite and so is every
/// test-split MAPE. `Predictor::fit_source` does not return its epoch
/// losses; a non-finite loss propagates through the gradients into the
/// weights, which `Predictor::snapshot` refuses to export.
pub fn training_run(
    snapshot: &hls_gnn_core::Result<SavedPredictor>,
    test_mape: &[f64; TargetMetric::COUNT],
) -> Check {
    if let Err(error) = snapshot {
        return Err(format!("trained model does not export: {error}"));
    }
    if let Some(bad) = test_mape.iter().find(|mape| !mape.is_finite()) {
        return Err(format!("non-finite test MAPE {bad}"));
    }
    Ok(())
}

/// A prediction equals the reference bit for bit.
pub fn same_bits(
    name: &str,
    got: &[f64; TargetMetric::COUNT],
    want: &[f64; TargetMetric::COUNT],
) -> Check {
    if got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits()) {
        Ok(())
    } else {
        Err(format!("{name}: prediction {got:?} differs from reference {want:?}"))
    }
}

/// A served prediction: it names the design sent and equals the in-process
/// reference bit for bit.
pub fn served(
    got_name: &str,
    got: &[f64; TargetMetric::COUNT],
    name: &str,
    want: &[f64; TargetMetric::COUNT],
) -> Check {
    if got_name != name {
        return Err(format!("the answer names `{got_name}`, the request sent `{name}`"));
    }
    same_bits(name, got, want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_gnn_core::dataset::GraphSample;
    use hls_ir::graph::GraphKind;
    use hls_progen::{ProgramGenerator, SyntheticConfig};
    use hls_sim::FpgaDevice;

    fn sample() -> GraphSample {
        let func = ProgramGenerator::new(SyntheticConfig::control(), 5).generate();
        GraphSample::from_function(&func, GraphKind::Cdfg, &FpgaDevice::default())
            .expect("flow runs")
    }

    /// Counts outcomes the way a workload does: (attempted, failed).
    fn tally(outcomes: impl IntoIterator<Item = Check>) -> (u64, u64) {
        let mut phase = crate::Phase::default();
        for outcome in outcomes {
            phase.check(outcome);
        }
        (phase.attempted, phase.failed)
    }

    #[test]
    fn corrupted_samples_count_as_failed() {
        let good = sample();
        let mut short = good.clone();
        short.node_aux_resources.pop();
        let mut negative = good.clone();
        negative.targets[1] = -1.0;
        let mut nan = good.clone();
        nan.targets[3] = f64::NAN;
        let outcomes = [&good, &short, &negative, &nan].map(labelled_sample);
        assert_eq!(tally(outcomes), (4, 3));
    }

    #[test]
    fn diverged_weights_and_non_finite_mape_count_as_failed() {
        use hls_gnn_core::{Dataset, GnnPredictor, Predictor, TrainConfig};

        let train = Dataset::new(vec![sample(), sample()]);
        let mut predictor = GnnPredictor::hierarchical(gnn::GnnKind::Rgcn, &TrainConfig::fast());
        predictor.fit(&train, &Dataset::default(), &TrainConfig::fast()).expect("trains");
        let exported = predictor.snapshot();
        let mut diverged = exported.clone().expect("finite weights export");
        diverged.regressor[0].data[0] = f32::NAN;
        let diverged = GnnPredictor::from_saved(&diverged).expect("shapes still match").snapshot();
        let mape = [10.0, 20.0, 30.0, 40.0];
        let outcomes = [
            training_run(&exported, &mape),
            training_run(&exported, &[10.0, f64::NAN, 30.0, 40.0]),
            training_run(&exported, &[f64::INFINITY, 20.0, 30.0, 40.0]),
            training_run(&diverged, &mape),
        ];
        assert_eq!(tally(outcomes), (4, 3));
    }

    #[test]
    fn a_one_ulp_prediction_change_counts_as_failed() {
        let want: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        let mut got = want;
        got[2] = f64::from_bits(got[2].to_bits() + 1);
        assert_eq!(tally([same_bits("k", &want, &want), same_bits("k", &got, &want)]), (2, 1));
    }

    #[test]
    fn wrong_answers_count_as_failed() {
        let want = [1.0, 2.0, 3.0, 0.5];
        let mut drifted = want;
        drifted[0] += 1e-9;
        let outcomes = [
            served("d", &want, "d", &want),
            served("other", &want, "d", &want),
            served("d", &drifted, "d", &want),
        ];
        assert_eq!(tally(outcomes), (3, 2));
    }
}
