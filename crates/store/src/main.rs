//! `hls-gnn-pack` — command-line front end for the persistence layer.
//!
//! ```text
//! hls-gnn-pack inspect <file>                      # container header & sections
//! hls-gnn-pack validate-catalog <devices.catalog>  # check a device-catalog file
//! hls-gnn-pack pack-dataset <dfg|cdfg> <count> <seed> <dir>  # spill a corpus
//! hls-gnn-pack dataset-info <dir>                  # summarise a dataset store
//! ```
//!
//! Trained models are `.hgns` files written by `train_predict`; `inspect`
//! lists their sections. `pack-dataset` honours `HLSGNN_PACK_SHARD`
//! (samples per shard, default 512).

use hls_gnn_store::{Container, ShardedDataset, SyntheticSpill};
use hls_progen::synthetic::ProgramFamily;

fn fail(message: &str) -> ! {
    eprintln!("hls-gnn-pack: {message}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: hls-gnn-pack <command> ...\n\
         \n\
         commands:\n\
         \x20 inspect <file>                   show container version and sections\n\
         \x20 validate-catalog <file>          validate a device-catalog file\n\
         \x20 pack-dataset <dfg|cdfg> <count> <seed> <dir>  spill a synthetic corpus\n\
         \x20 dataset-info <dir>               summarise a dataset store\n\
         \n\
         env: HLSGNN_PACK_SHARD (samples per shard for pack-dataset, default 512)"
    );
    std::process::exit(1);
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn cmd_inspect(path: &str) {
    let bytes =
        std::fs::read(path).unwrap_or_else(|error| fail(&format!("cannot read `{path}`: {error}")));
    let container = Container::from_bytes(&bytes).unwrap_or_else(|error| fail(&error.to_string()));
    println!(
        "{path}: container version {}, {} ({} section(s))",
        container.version(),
        human_bytes(bytes.len() as u64),
        container.sections().len()
    );
    for (name, kind, payload_len) in container.sections() {
        let elems = payload_len / kind.elem_size();
        println!(
            "  {name:<16} {:<5} {:>12}  {elems} element(s)",
            kind.name(),
            human_bytes(payload_len as u64)
        );
    }
}

fn cmd_validate_catalog(path: &str) {
    let catalog =
        hls_sim::DeviceCatalog::load(path).unwrap_or_else(|error| fail(&error.to_string()));
    println!("{path}: valid device catalog with {} part(s)", catalog.len());
    for device in catalog.devices() {
        println!(
            "  {:<28} clock {} ns, {} DSP, {} LUT, {} FF",
            device.name,
            device.clock_period_ns,
            device.dsp_capacity,
            device.lut_capacity,
            device.ff_capacity
        );
    }
}

fn cmd_pack_dataset(family: &str, count: &str, seed: &str, dir: &str) {
    let family = match family {
        "dfg" => ProgramFamily::StraightLine,
        "cdfg" => ProgramFamily::Control,
        other => fail(&format!("unknown family `{other}` (expected `dfg` or `cdfg`)")),
    };
    let count: usize = count.parse().unwrap_or_else(|_| fail(&format!("invalid count `{count}`")));
    let seed: u64 = seed.parse().unwrap_or_else(|_| fail(&format!("invalid seed `{seed}`")));
    let shard = std::env::var("HLSGNN_PACK_SHARD")
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(hls_gnn_store::DEFAULT_SHARD_SAMPLES);
    let manifest = SyntheticSpill::new(family)
        .count(count)
        .seed(seed)
        .shard_max_samples(shard)
        .run(dir)
        .unwrap_or_else(|error| fail(&error.to_string()));
    println!(
        "spilled {} graph(s) / {} node(s) into {} shard(s) under {dir}",
        manifest.graph_count,
        manifest.node_count,
        manifest.shards.len()
    );
}

fn cmd_dataset_info(dir: &str) {
    let store = ShardedDataset::open(dir).unwrap_or_else(|error| fail(&error.to_string()));
    let manifest = store.manifest();
    println!("{dir}: dataset store version {}", manifest.version);
    println!("  description: {}", manifest.description);
    println!("  graphs: {}, nodes: {}", manifest.graph_count, manifest.node_count);
    println!("  shards: {}", manifest.shards.len());
    for shard in &manifest.shards {
        println!(
            "    {:<20} {:>6} sample(s) {:>12}",
            shard.file,
            shard.samples,
            human_bytes(shard.bytes)
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["inspect", path] => cmd_inspect(path),
        ["validate-catalog", path] => cmd_validate_catalog(path),
        ["pack-dataset", family, count, seed, dir] => cmd_pack_dataset(family, count, seed, dir),
        ["dataset-info", dir] => cmd_dataset_info(dir),
        ["--help" | "-h"] | [] => usage(),
        _ => usage(),
    }
}
