//! `hls-gnn-store` — binary zero-copy persistence and streaming dataset
//! storage for the HLS-GNN stack.
//!
//! Three layers, bottom to top:
//!
//! * [`container`] — the on-disk byte format: a magic + version file header
//!   followed by length-prefixed named sections, each carrying an FNV-1a-64
//!   checksum. Payloads are 8-byte aligned, so `f32`/`f64`/`u64` blobs load
//!   by slice-reinterpretation of the file buffer (zero-copy on
//!   little-endian targets) instead of a float-parse per value. Any
//!   single-byte corruption anywhere in a file is a typed
//!   [`hls_gnn_core::Error::Parse`], never a panic.
//! * [`snapshot`] — trained-predictor snapshots as `.hgns` containers, the
//!   only on-disk form of a trained model: [`encode_snapshot`] writes one,
//!   [`decode_snapshot`] reads one back bit-exactly and refuses hostile
//!   files with a typed error, and [`snapshot_from_file`] reads one from a
//!   path.
//! * [`dataset_store`] — sharded on-disk corpora: [`SyntheticSpill`] streams
//!   a progen corpus to disk one program at a time, and [`ShardedDataset`]
//!   implements [`hls_gnn_core::SampleSource`] so the `_source` training and
//!   evaluation entry points iterate it with a bounded resident set —
//!   bit-identical to in-RAM training at any shard size, because both paths
//!   share one training loop.
//!
//! The `hls-gnn-pack` binary (this crate's `src/main.rs`) exposes the format
//! on the command line: inspect container sections, spill and summarise
//! dataset stores, and validate device-catalog files.
//!
//! ```
//! use hls_gnn_store::{Container, ContainerWriter};
//!
//! let mut writer = ContainerWriter::new();
//! writer.add_bytes("meta", br#"{"purpose": "doc example"}"#);
//! writer.add_f32("weights", &[0.5, -1.25, 3.0]);
//! let bytes = writer.finish();
//!
//! let container = Container::from_bytes(&bytes)?;
//! assert_eq!(container.f32s("weights")?.as_ref(), &[0.5, -1.25, 3.0]);
//! # Ok::<(), hls_gnn_core::Error>(())
//! ```

pub mod container;
pub mod dataset_store;
pub mod snapshot;

pub use container::{AlignedBytes, Container, ContainerWriter, ElemKind, CONTAINER_VERSION, MAGIC};
pub use dataset_store::{
    write_dataset, DatasetStoreWriter, ShardEntry, ShardedDataset, StoreManifest, SyntheticSpill,
    DEFAULT_CACHE_BUDGET, DEFAULT_SHARD_BYTES, DEFAULT_SHARD_SAMPLES, STORE_FORMAT, STORE_VERSION,
};
pub use snapshot::{decode_snapshot, encode_snapshot, snapshot_from_file};
