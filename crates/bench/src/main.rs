//! Entry point listing the available benchmark binaries.

fn main() {
    println!("hls-gnn-bench: benchmark harness for the HLS-GNN reproduction.");
    println!();
    println!(
        "Table / figure regeneration binaries (cargo run -p hls-gnn-bench --release --bin <name>):"
    );
    println!("  table2         MAPE of 14 off-the-shelf GNN models on DFG/CDFG corpora (Table 2)");
    println!("  table3         node-level resource-type classification accuracy (Table 3)");
    println!("  table4         the three approaches with RGCN/PNA backbones (Table 4)");
    println!("  table5         generalisation to real applications vs the HLS report (Table 5)");
    println!(
        "  speedup        GNN inference vs full HLS flow wall-clock (the 40x timeliness claim)"
    );
    println!("  ablation       pooling / relational-edge / hierarchy ablations");
    println!("  export_dataset benchmark corpora to the portable JSON release format");
    println!("  train_predict  train a predictor chosen by spec string (e.g. hier/rgcn),");
    println!("                 write it to a .hgns snapshot, reload that file, and batch-predict");
    println!("                 a held-out sweep (exits 1 unless the reload is bit-exact)");
    println!();
    println!("Environment:");
    println!("  HLSGNN_SCALE=fast|standard|paper   corpus/model scale (default: fast)");
    println!("  HLSGNN_MODELS=rgcn,sage,...        restrict the table2 sweep to these backbones");
    println!("  HLSGNN_WORKERS=N                   parallel training/inference workers");
    println!("                                     (0/unset = all hardware threads, 1 = serial;");
    println!("                                      results are bit-identical for any N)");
    println!();
    println!("Timing harness (label, train, predict, serve workloads):");
    println!(
        "  cargo run --release --manifest-path pipeline_bench/Cargo.toml -- --workload <name>"
    );
}
