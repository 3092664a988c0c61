//! Design-space exploration: the motivating use case of the paper's
//! introduction, on the real DSE subsystem (`hls_gnn_dse`). A designer wants
//! the resource/timing trade-off curve of a dot-product accumulator across
//! unroll factors, operand precisions, array partitionings and accumulator
//! interleavings — *before* running HLS on any of them.
//!
//! The example follows the surrogate-DSE protocol: synthesise a seeded ~20%
//! sample of the space through the HLS flow, train the predictor on exactly
//! those labelled designs, and rank the rest with the model. It then
//!
//! 1. explores the 324-point `dot` space exhaustively, extracting the
//!    predicted Pareto front over [DSP, LUT, FF, CP];
//! 2. repeats the search with the budgeted NSGA-II strategy at a quarter of
//!    the evaluations and compares the recovered hypervolume;
//! 3. checks the predicted LUT ordering against the `hls_sim` ground truth
//!    with the rank-correlation metrics.
//!
//! Run with:
//! ```text
//! cargo run --release --example dse_ranking
//! ```

use hls_gnn_core::builder::PredictorBuilder;
use hls_gnn_core::metrics::{kendall_tau, spearman_rho};
use hls_gnn_core::runtime::ParallelConfig;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_dse::{
    front_hypervolume, reference_point, sample_training_set, DesignSpace, Evaluator, Exhaustive,
    Explorer, Nsga2,
};
use hls_sim::FpgaDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Surrogate training set: synthesise a seeded 20% sample of the space
    // through the HLS flow. The model is selected by spec string, as a DSE
    // tool would from its config.
    let space = DesignSpace::dot();
    let sample = space.len() / 5;
    println!("labelling {sample} sampled designs of `{}` through the flow ...", space.name());
    let (trained, corpus) = sample_training_set(&space, &FpgaDevice::default(), 3, sample)?;
    let split = corpus.split(0.9, 0.05, 3);
    let predictor = PredictorBuilder::parse("base/rgcn")?
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)?;

    // Exhaustive sweep of the whole space. Candidate generations shard
    // across HLSGNN_WORKERS threads, and within each shard the fused
    // mini-batching engine unions several candidate graphs per forward
    // tape; predictions are bit-identical at every worker count and chunk
    // plan.
    let parallel = ParallelConfig::from_env();
    println!(
        "\nexploring `{}`: {} points over {} knobs",
        space.name(),
        space.len(),
        space.knobs().len()
    );
    let mut evaluator = Evaluator::new(&space, &predictor, FpgaDevice::default(), parallel.clone());
    let exhaustive = Exhaustive.explore(&mut evaluator)?;
    println!(
        "exhaustive: {} designs, {} distinct kernels after fingerprint dedup, front size {}",
        exhaustive.distinct_evaluations,
        exhaustive.predictions_computed,
        exhaustive.front.len()
    );
    println!(
        "\n{:<28} {:>8} {:>10} {:>10} {:>8}",
        "pareto-front design", "pred DSP", "pred LUT", "pred FF", "pred CP"
    );
    for point in exhaustive.front.iter().take(10) {
        println!(
            "{:<28} {:>8.1} {:>10.1} {:>10.1} {:>8.2}",
            point.design,
            point.predicted[0],
            point.predicted[1],
            point.predicted[2],
            point.predicted[3]
        );
    }
    if exhaustive.front.len() > 10 {
        println!("... and {} more", exhaustive.front.len() - 10);
    }

    // The budgeted evolutionary search: a quarter of the evaluations.
    let budget = space.len() / 4;
    let mut evaluator = Evaluator::new(&space, &predictor, FpgaDevice::default(), parallel);
    let evolved = Nsga2::with_budget(3, budget).explore(&mut evaluator)?;
    let reference = reference_point(&exhaustive.evaluated);
    let full_hv = front_hypervolume(&exhaustive.front, &reference);
    let evolved_hv = front_hypervolume(&evolved.front, &reference);
    println!(
        "\nnsga2 @ {} of {} evaluations recovers {:.1}% of the exhaustive hypervolume",
        evolved.distinct_evaluations,
        space.len(),
        100.0 * evolved_hv / full_hv
    );

    // Rank agreement between the predicted and true LUT orderings on the
    // held-out designs (the trained sample must not flatter the metric).
    let heldout: Vec<_> =
        exhaustive.evaluated.iter().filter(|p| !trained.contains(&p.index)).collect();
    let predicted_lut: Vec<f64> = heldout.iter().map(|p| p.predicted[1]).collect();
    let true_lut: Vec<f64> = heldout.iter().map(|p| p.ground_truth[1]).collect();
    println!(
        "\npredicted-vs-simulated LUT ranking over {} held-out designs: \
         Spearman {:.3}, Kendall {:.3}",
        heldout.len(),
        spearman_rho(&predicted_lut, &true_lut),
        kendall_tau(&predicted_lut, &true_lut)
    );
    let best_predicted = heldout
        .iter()
        .min_by(|a, b| a.predicted[1].total_cmp(&b.predicted[1]))
        .expect("space is non-empty");
    let best_true = heldout
        .iter()
        .min_by(|a, b| a.ground_truth[1].total_cmp(&b.ground_truth[1]))
        .expect("space is non-empty");
    println!(
        "predicted cheapest design: {}   (true cheapest: {})",
        best_predicted.design, best_true.design
    );
    Ok(())
}
