//! Runs the ablation sweep over the design choices called out in DESIGN.md:
//! sum vs mean pooling, relational vs plain message passing, and the
//! hierarchical (knowledge-infused) stage — plus the analytic-bound feature
//! ablation on the same Table-2 CDFG protocol.

use hls_gnn_core::experiments::{run_ablation, run_analytic_ablation, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    println!(
        "Running ablations at {:?} scale ({} CDFG programs)",
        config.scale, config.cdfg_programs
    );
    let report = match run_ablation(&config) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("ablation failed: {error}");
            std::process::exit(1);
        }
    };
    println!("{report}");
    hls_gnn_bench::write_report("ablation", &report);

    let analytic = match run_analytic_ablation(&config) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("analytic ablation failed: {error}");
            std::process::exit(1);
        }
    };
    println!("{analytic}");
    hls_gnn_bench::write_report("ablation_analytic", &analytic);
}
