//! `hls-gnn-dse` — explore a design space with a trained predictor.
//!
//! ```text
//! hls-gnn-dse <space> <model.json>   # spaces: dot, dot-tiny, fir, fir-tiny, stencil
//! hls-gnn-dse <space> <model.hgns>   # binary snapshots work too (format sniffed)
//! hls-gnn-dse <space> --demo         # train a small demo model first
//! ```
//!
//! `--device <name>` selects the target FPGA part from the device catalog
//! (case-insensitive; defaults to the catalog's first part), and
//! `--catalog <file>` swaps the built-in catalog for one loaded from disk
//! (see `hls-gnn-pack validate-catalog` and the checked-in
//! `devices.catalog`).
//!
//! Environment knobs: `HLSGNN_DSE_STRATEGY` (`exhaustive`, `random`,
//! `anneal`, `nsga2` or `all`), `HLSGNN_DSE_SEED`, `HLSGNN_DSE_BUDGET`
//! (distinct evaluations for the budgeted strategies; default a quarter of
//! the space), `HLSGNN_DSE_POP` / `HLSGNN_DSE_GENS` (NSGA-II shape), plus
//! the engine-wide `HLSGNN_WORKERS`. Each strategy writes
//! `results/dse_<space>_<strategy>.json`; for a fixed seed the bytes are
//! identical across runs and worker counts.

use hls_gnn_core::builder::PredictorBuilder;
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::runtime::ParallelConfig;
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::train::TrainConfig;
use hls_gnn_dse::{
    sample_training_set, DesignSpace, DseReport, Evaluator, Exhaustive, Explorer, Nsga2,
    RandomSearch, SimulatedAnnealing,
};
use hls_gnn_store::load_predictor_auto;
use hls_sim::{DeviceCatalog, FpgaDevice};

fn fail(message: &str) -> ! {
    eprintln!("hls-gnn-dse: {message}");
    std::process::exit(2);
}

/// Parses a `usize` environment knob; garbage warns and falls back.
fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) if raw.trim().is_empty() => default,
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: unrecognised {name} value `{raw}`; using {default}");
            default
        }),
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    env_usize(name, default as usize) as u64
}

fn demo_model(space: &DesignSpace, device: &FpgaDevice, seed: u64) -> Box<dyn Predictor> {
    // The surrogate protocol: synthesise a ~20% sample of the space through
    // the flow and train on exactly that, then rank the rest with the model.
    let count = (space.len() / 5).clamp(8.min(space.len()), 64);
    eprintln!(
        "training a demo model (base/gcn, fast config) on {count} sampled designs of `{}` ...",
        space.name()
    );
    let (_, corpus) = sample_training_set(space, device, seed, count)
        .unwrap_or_else(|error| fail(&format!("demo corpus failed: {error}")));
    let split = corpus.split(0.85, 0.1, 42);
    PredictorBuilder::parse("base/gcn")
        .expect("demo spec parses")
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)
        .unwrap_or_else(|error| fail(&format!("demo training failed: {error}")))
}

fn write_report(space: &str, strategy: &str, report: &DseReport) {
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            let path = format!("results/dse_{space}_{strategy}.json");
            std::fs::create_dir_all("results").ok();
            match std::fs::write(&path, json) {
                Ok(()) => println!("wrote {path}"),
                Err(error) => eprintln!("failed to write {path}: {error}"),
            }
        }
        Err(error) => eprintln!("failed to serialise the {strategy} report: {error}"),
    }
}

/// Splits `--device <name>` / `--catalog <file>` out of the argument list,
/// returning the remaining positional arguments.
fn parse_flags(args: Vec<String>) -> (Vec<String>, Option<String>, Option<String>) {
    let mut positional = Vec::new();
    let mut device = None;
    let mut catalog = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let slot = match arg.as_str() {
            "--device" => &mut device,
            "--catalog" => &mut catalog,
            _ => {
                positional.push(arg);
                continue;
            }
        };
        match iter.next() {
            Some(value) => *slot = Some(value),
            None => fail(&format!("{arg} needs a value (see --help)")),
        }
    }
    (positional, device, catalog)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: hls-gnn-dse [--device <name>] [--catalog <file>] <space> \
             <model.json|model.hgns | --demo>\n\n\
             Explores a design space with a trained predictor and writes\n\
             results/dse_<space>_<strategy>.json per strategy. The snapshot\n\
             format (JSON or binary) is sniffed from the file.\n\
             Spaces: {}.\n\
             Devices: {} (or any part from a --catalog file).\n\
             Env: HLSGNN_DSE_STRATEGY (exhaustive|random|anneal|nsga2|all),\n\
             HLSGNN_DSE_SEED, HLSGNN_DSE_BUDGET, HLSGNN_DSE_POP, HLSGNN_DSE_GENS,\n\
             HLSGNN_WORKERS.",
            DesignSpace::NAMED.join(", "),
            DeviceCatalog::builtin().names().join(", ")
        );
        return;
    }
    let (positional, device_name, catalog_path) = parse_flags(args);
    let [space_name, model_arg] = positional.as_slice() else {
        fail(
            "usage: hls-gnn-dse [--device <name>] [--catalog <file>] <space> \
             <model.json|model.hgns | --demo> (see --help)",
        );
    };
    let catalog = match &catalog_path {
        Some(path) => DeviceCatalog::load(path).unwrap_or_else(|error| fail(&format!("{error}"))),
        None => DeviceCatalog::builtin(),
    };
    let device: FpgaDevice = match &device_name {
        Some(name) => {
            catalog.select(name).unwrap_or_else(|error| fail(&format!("{error}"))).clone()
        }
        // No explicit part: the catalog's first entry (for the built-in
        // catalog this is the default device, so behaviour is unchanged).
        None => catalog.devices()[0].clone(),
    };
    let space: DesignSpace = space_name.parse().unwrap_or_else(|error| fail(&format!("{error}")));
    let seed = env_u64("HLSGNN_DSE_SEED", 7);
    // Default budget: a quarter of the space, but never a degenerate search
    // on tiny spaces (floor of 16 or the whole space, whichever is less).
    let default_budget = space.len().div_ceil(4).max(16.min(space.len()));
    let budget = env_usize("HLSGNN_DSE_BUDGET", default_budget).max(2);
    let population = env_usize("HLSGNN_DSE_POP", (budget / 3).clamp(4, 64));
    let generations = env_usize("HLSGNN_DSE_GENS", 12);
    let strategy_env = std::env::var("HLSGNN_DSE_STRATEGY").unwrap_or_else(|_| "all".to_owned());
    let parallel = ParallelConfig::from_env();

    // Validate the strategy selection before any expensive work (loading or
    // demo-training a model), so a typo fails in milliseconds.
    let exhaustive = Exhaustive;
    let random = RandomSearch { seed, budget };
    let anneal = SimulatedAnnealing::with_budget(seed, budget);
    let nsga2 = Nsga2 { seed, population, generations, budget };
    let strategies: Vec<&dyn Explorer> = match strategy_env.trim() {
        "exhaustive" => vec![&exhaustive],
        "random" => vec![&random],
        "anneal" => vec![&anneal],
        "nsga2" => vec![&nsga2],
        "all" | "" => vec![&exhaustive, &random, &anneal, &nsga2],
        other => fail(&format!(
            "unknown HLSGNN_DSE_STRATEGY `{other}` (expected exhaustive, random, anneal, \
             nsga2 or all)"
        )),
    };

    let predictor: Box<dyn Predictor> = if model_arg == "--demo" {
        demo_model(&space, &device, seed)
    } else {
        // Accepts both snapshot formats by sniffing the magic bytes.
        let bytes = std::fs::read(model_arg)
            .unwrap_or_else(|error| fail(&format!("cannot read `{model_arg}`: {error}")));
        load_predictor_auto(&bytes)
            .unwrap_or_else(|error| fail(&format!("cannot load `{model_arg}`: {error}")))
    };

    println!(
        "exploring `{}` ({} points, {} knobs) with {} on {} — seed {seed}, budget {budget}, \
         {} worker(s)",
        space.name(),
        space.len(),
        space.knobs().len(),
        predictor.name(),
        device.name,
        parallel.workers()
    );

    for strategy in strategies {
        let mut evaluator =
            Evaluator::new(&space, predictor.as_ref(), device.clone(), parallel.clone());
        let exploration = {
            let _span = hls_gnn_obs::span!("dse_explore", strategy = strategy.name());
            match strategy.explore(&mut evaluator) {
                Ok(exploration) => exploration,
                Err(error) => fail(&format!("{} exploration failed: {error}", strategy.name())),
            }
        };
        let report = DseReport::new(&space, &exploration, &predictor.name(), seed);
        println!(
            "\n[{}] evaluated {}/{} designs ({} model calls, {} fingerprint reuses), \
             front {} designs, hypervolume {:.3e}",
            report.strategy,
            report.distinct_evaluations,
            report.space_size,
            report.predictions_computed,
            report.prediction_reuses,
            report.front.len(),
            report.hypervolume
        );
        // Pre-filter accounting stays on stdout only: the JSON report is
        // byte-identical with or without the static skip.
        println!(
            "  static pre-filter: {} flow runs, {} skipped before lowering \
             (effective-design memo)",
            evaluator.flow_calls(),
            evaluator.flow_reuses()
        );
        for agreement in &report.rank_agreement {
            println!(
                "  rank agreement {}: Spearman {:.3}  Kendall {:.3}",
                agreement.target, agreement.spearman, agreement.kendall
            );
        }
        println!(
            "  {:<28} {:>8} {:>10} {:>10} {:>8}  feasible",
            "front design",
            TargetMetric::Dsp.name(),
            TargetMetric::Lut.name(),
            TargetMetric::Ff.name(),
            TargetMetric::Cp.name()
        );
        for point in report.front.iter().take(12) {
            println!(
                "  {:<28} {:>8.1} {:>10.1} {:>10.1} {:>8.2}  {}",
                point.design,
                point.predicted[0],
                point.predicted[1],
                point.predicted[2],
                point.predicted[3],
                point.feasible
            );
        }
        if report.front.len() > 12 {
            println!("  ... and {} more", report.front.len() - 12);
        }
        write_report(space.name(), &report.strategy, &report);
    }
}
