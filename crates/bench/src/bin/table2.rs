//! Regenerates Table 2: MAPE of graph-level regression with the 14 screened
//! GNN models on the DFG and CDFG corpora (off-the-shelf approach).

use hls_gnn_core::experiments::{run_table2, ExperimentConfig};

fn main() {
    let mut config = ExperimentConfig::from_env();
    // HLSGNN_MODELS=rgcn,sage,... restricts the sweep (default: all 14).
    if let Some(models) = hls_gnn_bench::models_from_env() {
        config = config.with_models(models);
    }
    println!(
        "Running Table 2 at {:?} scale ({} DFG / {} CDFG programs, {} epochs, hidden {}, \
         {} models, {} worker(s), batch size {})",
        config.scale,
        config.dfg_programs,
        config.cdfg_programs,
        config.train.epochs,
        config.train.hidden_dim,
        config.table2_models.len(),
        config.parallel.workers(),
        config.train.batch_size
    );
    let table = match run_table2(&config) {
        Ok(table) => table,
        Err(error) => {
            eprintln!("table2 failed: {error}");
            std::process::exit(1);
        }
    };
    println!("{table}");
    hls_gnn_bench::write_report("table2", &table);
}
