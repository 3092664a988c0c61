//! Sharded on-disk dataset store: progen corpora spill to disk shard by
//! shard, and training streams them back with a bounded resident set.
//!
//! # Layout
//!
//! A store is a directory:
//!
//! ```text
//! corpus/
//!   manifest.json     — format marker, counts, shard list
//!   shard-000000.hgns — container: shard/meta, shard/index, shard/samples
//!   shard-000001.hgns
//!   ...
//! ```
//!
//! Each shard is a checksummed [`crate::container`] file whose
//! `shard/samples` section concatenates binary-encoded samples and whose
//! `shard/index` section holds `n + 1` byte offsets into it. The sample
//! encoding is a compact little-endian record of the release-format
//! [`ExportedGraph`] plus (since format v2) the per-node analytic-bound
//! features, which the release JSON deliberately omits; decoding goes
//! *through* [`ExportedGraph::to_sample`], so every structural invariant
//! (vocabulary bounds, edge endpoints, relation ids) is re-checked on
//! untrusted bytes — the store never feeds unvalidated data into the
//! panicking graph constructors.
//!
//! [`ShardedDataset`] implements [`SampleSource`], so
//! `train_regressor_source` / `Predictor::fit_source` iterate a corpus
//! larger than memory while only `cache_budget` bytes of decoded shards stay
//! resident. Because the in-RAM and streamed paths share one training loop
//! (the `_source` functions), results are bit-identical at any shard size.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hls_gnn_core::dataset::{Dataset, GraphSample, SampleSource};
use hls_gnn_core::export::{ExportedEdge, ExportedGraph, ExportedNode};
use hls_gnn_core::{Error, Result};
use hls_progen::synthetic::{ProgramFamily, ProgramGenerator, SyntheticConfig};
use hls_sim::FpgaDevice;
use serde::{Deserialize, Serialize};

use crate::container::{Container, ContainerWriter};

/// Current dataset-store format version. v2 appended the per-node
/// analytic-bound features (`GraphSample::node_analytic`) to the sample
/// record so a streamed corpus round-trips bit-exactly; v1 shards still
/// decode, with those features zero-filled.
pub const STORE_VERSION: u32 = 2;

/// Format marker in `manifest.json`, so arbitrary JSON files are not
/// mistaken for store manifests.
pub const STORE_FORMAT: &str = "hls-gnn-dataset-store";

/// Format marker inside each shard's `shard/meta` section.
const SHARD_FORMAT: &str = "hls-gnn-dataset-shard";

/// Default shard capacity in samples.
pub const DEFAULT_SHARD_SAMPLES: usize = 512;

/// Default shard capacity in encoded bytes (8 MiB).
pub const DEFAULT_SHARD_BYTES: usize = 8 << 20;

/// Default decoded-shard cache budget for readers (64 MiB of encoded-size
/// equivalent; at least one shard always stays resident).
pub const DEFAULT_CACHE_BUDGET: u64 = 64 << 20;

// ---------------------------------------------------------------------------
// Sample codec
// ---------------------------------------------------------------------------

/// Graph kind codes in the binary sample record.
const KIND_DFG: u8 = 0;
const KIND_CDFG: u8 = 1;

fn encode_sample(sample: &GraphSample) -> Vec<u8> {
    let graph = ExportedGraph::from(sample);
    let mut out = Vec::new();
    let name = graph.name.as_bytes();
    out.extend_from_slice(&u32::try_from(name.len()).expect("name fits u32").to_le_bytes());
    out.extend_from_slice(name);
    out.push(match graph.kind.as_str() {
        "dfg" => KIND_DFG,
        "cdfg" => KIND_CDFG,
        other => unreachable!("ExportedGraph only produces dfg/cdfg, got {other}"),
    });
    out.extend_from_slice(&u32::try_from(graph.nodes.len()).expect("fits u32").to_le_bytes());
    out.extend_from_slice(&u32::try_from(graph.edges.len()).expect("fits u32").to_le_bytes());
    for value in graph.targets.iter().chain(&graph.hls_estimate) {
        out.extend_from_slice(&value.to_le_bytes());
    }
    for node in &graph.nodes {
        out.extend_from_slice(&u32::try_from(node.node_type).expect("fits u32").to_le_bytes());
        out.extend_from_slice(&node.bitwidth.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(node.opcode_category).expect("fits u32").to_le_bytes(),
        );
        out.extend_from_slice(&u32::try_from(node.opcode).expect("fits u32").to_le_bytes());
        out.push(node.is_start_of_path);
        out.extend_from_slice(&node.cluster_group.to_le_bytes());
        for value in node.hls_resources.iter().chain(&node.resource_types) {
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
    for edge in &graph.edges {
        out.extend_from_slice(&u32::try_from(edge.src).expect("fits u32").to_le_bytes());
        out.extend_from_slice(&u32::try_from(edge.dst).expect("fits u32").to_le_bytes());
        out.extend_from_slice(&u32::try_from(edge.relation).expect("fits u32").to_le_bytes());
    }
    // v2: the analytic-bound features travel outside `ExportedGraph` — the
    // release JSON format omits them (they are recomputable from the
    // program), but a stored corpus has no program to recompute from.
    debug_assert_eq!(sample.node_analytic.len(), graph.nodes.len());
    for values in &sample.node_analytic {
        for value in values {
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
    out
}

/// Bounds-checked little-endian reader over one encoded sample record.
struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, count: usize) -> Result<&'a [u8]> {
        let slice = self
            .bytes
            .get(self.offset..self.offset.saturating_add(count))
            .ok_or_else(|| Error::Parse("sample record is truncated".to_owned()))?;
        self.offset += count;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f32x3(&mut self) -> Result<[f32; 3]> {
        let bytes = self.take(12)?;
        let mut out = [0.0f32; 3];
        for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *value = f32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        Ok(out)
    }

    fn f64x4(&mut self) -> Result<[f64; 4]> {
        let bytes = self.take(32)?;
        let mut out = [0.0f64; 4];
        for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *value = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        Ok(out)
    }
}

fn decode_sample(bytes: &[u8], version: u32) -> Result<GraphSample> {
    let mut cursor = Cursor { bytes, offset: 0 };
    let name_len = cursor.u32()? as usize;
    let name = std::str::from_utf8(cursor.take(name_len)?)
        .map_err(|_| Error::Parse("sample name is not valid UTF-8".to_owned()))?
        .to_owned();
    let kind = match cursor.u8()? {
        KIND_DFG => "dfg",
        KIND_CDFG => "cdfg",
        other => return Err(Error::Parse(format!("unknown graph-kind code {other}"))),
    };
    let node_count = cursor.u32()? as usize;
    let edge_count = cursor.u32()? as usize;
    let targets = cursor.f64x4()?;
    let hls_estimate = cursor.f64x4()?;
    let mut nodes = Vec::with_capacity(node_count.min(bytes.len()));
    for _ in 0..node_count {
        nodes.push(ExportedNode {
            node_type: cursor.u32()? as usize,
            bitwidth: cursor.u16()?,
            opcode_category: cursor.u32()? as usize,
            opcode: cursor.u32()? as usize,
            is_start_of_path: cursor.u8()?,
            cluster_group: cursor.i32()?,
            hls_resources: cursor.f32x3()?,
            resource_types: cursor.f32x3()?,
        });
    }
    let mut edges = Vec::with_capacity(edge_count.min(bytes.len()));
    for _ in 0..edge_count {
        edges.push(ExportedEdge {
            src: cursor.u32()? as usize,
            dst: cursor.u32()? as usize,
            relation: cursor.u32()? as usize,
        });
    }
    // v1 records predate the analytic features; `to_sample` zero-fills them.
    let mut analytic = Vec::new();
    if version >= 2 {
        analytic.reserve_exact(node_count.min(bytes.len()));
        for _ in 0..node_count {
            analytic.push(cursor.f32x3()?);
        }
    }
    if cursor.offset != bytes.len() {
        return Err(Error::Parse(format!(
            "sample record has {} trailing bytes",
            bytes.len() - cursor.offset
        )));
    }
    // Route through the release-format validator: vocabulary bounds, edge
    // endpoints and relation ids are all re-checked before the panicking
    // graph constructors run.
    let mut sample =
        ExportedGraph { name, kind: kind.to_owned(), nodes, edges, targets, hls_estimate }
            .to_sample()?;
    if version >= 2 {
        sample.node_analytic = analytic;
    }
    Ok(sample)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One shard of a dataset store, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard file name, relative to the store directory.
    pub file: String,
    /// Number of samples in the shard.
    pub samples: usize,
    /// Encoded payload size in bytes (the reader's cache-budget proxy).
    pub bytes: u64,
}

/// The `manifest.json` of a dataset store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Always [`STORE_FORMAT`].
    pub format: String,
    /// Store format version ([`STORE_VERSION`]).
    pub version: u32,
    /// Free-form provenance description.
    pub description: String,
    /// Total number of graphs across all shards.
    pub graph_count: usize,
    /// Total number of nodes across all graphs.
    pub node_count: usize,
    /// The shards, in sample order.
    pub shards: Vec<ShardEntry>,
}

impl StoreManifest {
    fn validate(&self) -> Result<()> {
        if self.format != STORE_FORMAT {
            return Err(Error::Parse(format!(
                "not a dataset-store manifest: format is `{}`, expected `{STORE_FORMAT}`",
                self.format
            )));
        }
        if self.version == 0 || self.version > STORE_VERSION {
            return Err(Error::Parse(format!(
                "dataset-store version {} is not supported by this build \
                 (supported: 1..={STORE_VERSION})",
                self.version
            )));
        }
        let total: usize = self.shards.iter().map(|s| s.samples).sum();
        if total != self.graph_count {
            return Err(Error::Parse(format!(
                "manifest claims {} graphs but its shards hold {total}",
                self.graph_count
            )));
        }
        if self.shards.iter().any(|s| s.samples == 0) {
            return Err(Error::Parse("manifest lists an empty shard".to_owned()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer: push samples one at a time, shards roll over when they
/// reach the sample or byte capacity, and `finish` seals the manifest.
pub struct DatasetStoreWriter {
    dir: PathBuf,
    description: String,
    shard_max_samples: usize,
    shard_max_bytes: usize,
    pending: Vec<Vec<u8>>,
    pending_bytes: usize,
    shards: Vec<ShardEntry>,
    graph_count: usize,
    node_count: usize,
}

impl DatasetStoreWriter {
    /// Creates the store directory (it may exist, but must not already hold
    /// a manifest — stores are written once, not appended to in place).
    ///
    /// # Errors
    /// Returns [`Error::Config`] when the directory cannot be created or a
    /// manifest already exists there.
    pub fn create(dir: impl AsRef<Path>, description: impl Into<String>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Config(format!("cannot create {}: {e}", dir.display())))?;
        let manifest = dir.join("manifest.json");
        if manifest.exists() {
            return Err(Error::Config(format!(
                "{} already holds a dataset store; refusing to overwrite it",
                dir.display()
            )));
        }
        Ok(DatasetStoreWriter {
            dir,
            description: description.into(),
            shard_max_samples: DEFAULT_SHARD_SAMPLES,
            shard_max_bytes: DEFAULT_SHARD_BYTES,
            pending: Vec::new(),
            pending_bytes: 0,
            shards: Vec::new(),
            graph_count: 0,
            node_count: 0,
        })
    }

    /// Caps shards at `count` samples (minimum 1).
    pub fn shard_max_samples(mut self, count: usize) -> Self {
        self.shard_max_samples = count.max(1);
        self
    }

    /// Caps shards at roughly `bytes` of encoded payload (a shard always
    /// accepts at least one sample, however large).
    pub fn shard_max_bytes(mut self, bytes: usize) -> Self {
        self.shard_max_bytes = bytes.max(1);
        self
    }

    /// Appends one sample, rolling over to a new shard when the current one
    /// is full.
    ///
    /// # Errors
    /// Returns [`Error::Config`] when a full shard fails to write to disk.
    pub fn push(&mut self, sample: &GraphSample) -> Result<()> {
        let encoded = encode_sample(sample);
        if !self.pending.is_empty()
            && (self.pending.len() >= self.shard_max_samples
                || self.pending_bytes + encoded.len() > self.shard_max_bytes)
        {
            self.flush_shard()?;
        }
        self.pending_bytes += encoded.len();
        self.pending.push(encoded);
        self.graph_count += 1;
        self.node_count += sample.num_nodes();
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let file = format!("shard-{:06}.hgns", self.shards.len());
        let meta = ShardMeta {
            format: SHARD_FORMAT.to_owned(),
            version: STORE_VERSION,
            samples: self.pending.len(),
        };
        let meta_json = serde_json::to_string(&meta)
            .map_err(|e| Error::Config(format!("failed to serialise shard metadata: {e}")))?;
        let mut index = Vec::with_capacity(self.pending.len() + 1);
        let mut samples = Vec::with_capacity(self.pending_bytes);
        index.push(0u64);
        for encoded in &self.pending {
            samples.extend_from_slice(encoded);
            index.push(samples.len() as u64);
        }
        let mut writer = ContainerWriter::new();
        writer.add_bytes("shard/meta", meta_json.as_bytes());
        writer.add_u64("shard/index", &index);
        writer.add_bytes("shard/samples", &samples);
        let bytes = writer.finish();
        let path = self.dir.join(&file);
        std::fs::write(&path, &bytes)
            .map_err(|e| Error::Config(format!("cannot write {}: {e}", path.display())))?;
        self.shards.push(ShardEntry {
            file,
            samples: self.pending.len(),
            bytes: bytes.len() as u64,
        });
        self.pending.clear();
        self.pending_bytes = 0;
        Ok(())
    }

    /// Flushes the last shard and writes `manifest.json`.
    ///
    /// # Errors
    /// Returns [`Error::Config`] on I/O or serialisation failure.
    pub fn finish(mut self) -> Result<StoreManifest> {
        self.flush_shard()?;
        let manifest = StoreManifest {
            format: STORE_FORMAT.to_owned(),
            version: STORE_VERSION,
            description: self.description.clone(),
            graph_count: self.graph_count,
            node_count: self.node_count,
            shards: self.shards.clone(),
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| Error::Config(format!("failed to serialise manifest: {e}")))?;
        let path = self.dir.join("manifest.json");
        std::fs::write(&path, json + "\n")
            .map_err(|e| Error::Config(format!("cannot write {}: {e}", path.display())))?;
        Ok(manifest)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardMeta {
    format: String,
    version: u32,
    samples: usize,
}

/// Spills a whole in-memory dataset to a store directory.
///
/// # Errors
/// As [`DatasetStoreWriter`].
pub fn write_dataset(
    dir: impl AsRef<Path>,
    dataset: &Dataset,
    description: impl Into<String>,
) -> Result<StoreManifest> {
    let mut writer = DatasetStoreWriter::create(dir, description)?;
    for sample in &dataset.samples {
        writer.push(sample)?;
    }
    writer.finish()
}

// ---------------------------------------------------------------------------
// Synthetic spill
// ---------------------------------------------------------------------------

/// Generates a synthetic corpus straight into a store directory, one program
/// at a time — peak memory is one shard, independent of `count`.
///
/// Mirrors [`hls_gnn_core::dataset::DatasetBuilder`] exactly (same generator,
/// same seed stream, same flow), so at the same seed the spilled corpus is
/// bit-identical to the in-RAM one.
pub struct SyntheticSpill {
    family: ProgramFamily,
    count: usize,
    seed: u64,
    device: FpgaDevice,
    config: Option<SyntheticConfig>,
    shard_max_samples: usize,
    shard_max_bytes: usize,
}

impl SyntheticSpill {
    /// Starts a spill for the given program family (defaults match
    /// `DatasetBuilder`: 100 programs, seed 0, default device).
    pub fn new(family: ProgramFamily) -> Self {
        SyntheticSpill {
            family,
            count: 100,
            seed: 0,
            device: FpgaDevice::default(),
            config: None,
            shard_max_samples: DEFAULT_SHARD_SAMPLES,
            shard_max_bytes: DEFAULT_SHARD_BYTES,
        }
    }

    /// Number of programs to generate.
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Target device.
    pub fn device(mut self, device: FpgaDevice) -> Self {
        self.device = device;
        self
    }

    /// Overrides the synthetic-generator configuration.
    pub fn generator_config(mut self, config: SyntheticConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Caps shards at `count` samples.
    pub fn shard_max_samples(mut self, count: usize) -> Self {
        self.shard_max_samples = count;
        self
    }

    /// Caps shards at roughly `bytes` of encoded payload.
    pub fn shard_max_bytes(mut self, bytes: usize) -> Self {
        self.shard_max_bytes = bytes;
        self
    }

    /// Runs the generator and the HLS flow, spilling each labelled sample to
    /// the store as it is produced.
    ///
    /// # Errors
    /// Returns [`Error::DatasetTooSmall`] for a zero count, flow errors from
    /// labelling, and [`Error::Config`] on I/O failure.
    pub fn run(self, dir: impl AsRef<Path>) -> Result<StoreManifest> {
        if self.count == 0 {
            return Err(Error::DatasetTooSmall("requested a dataset of zero programs".to_owned()));
        }
        let config = self.config.unwrap_or_else(|| match self.family {
            ProgramFamily::StraightLine => SyntheticConfig::straight_line(),
            ProgramFamily::Control => SyntheticConfig::control(),
        });
        let kind = self.family.graph_kind();
        let description = format!(
            "synthetic {} corpus: {} programs, seed {}, device {}",
            match self.family {
                ProgramFamily::StraightLine => "straight-line (DFG)",
                ProgramFamily::Control => "control-flow (CDFG)",
            },
            self.count,
            self.seed,
            self.device.name,
        );
        let mut writer = DatasetStoreWriter::create(dir, description)?
            .shard_max_samples(self.shard_max_samples)
            .shard_max_bytes(self.shard_max_bytes);
        let mut generator = ProgramGenerator::new(config, self.seed);
        for func in generator.generate_iter(self.count) {
            writer.push(&GraphSample::from_function(&func, kind, &self.device)?)?;
        }
        writer.finish()
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A dataset streamed from a store directory with a bounded resident set.
///
/// Implements [`SampleSource`], so the `_source` training and evaluation
/// entry points consume it directly. Decoded shards are cached in an LRU
/// keyed by encoded size; at least one shard always stays resident, so the
/// budget bounds memory without ever thrashing a single-shard store.
pub struct ShardedDataset {
    dir: PathBuf,
    manifest: StoreManifest,
    /// `cumulative[i]` = number of samples in shards `0..i` (length
    /// `shards + 1`), for O(log shards) index-to-shard lookup.
    cumulative: Vec<usize>,
    cache_budget: u64,
    cache: Mutex<ShardCache>,
}

#[derive(Default)]
struct ShardCache {
    /// Most-recently-used at the back.
    resident: VecDeque<(usize, Arc<Vec<GraphSample>>, u64)>,
    resident_bytes: u64,
}

impl ShardedDataset {
    /// Opens a store directory, validating its manifest.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] on a missing/malformed/contradictory
    /// manifest or an unsupported store version.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let path = dir.join("manifest.json");
        let json = std::fs::read_to_string(&path)
            .map_err(|e| Error::Parse(format!("cannot read {}: {e}", path.display())))?;
        let manifest: StoreManifest = serde_json::from_str(&json)
            .map_err(|e| Error::Parse(format!("{}: {e}", path.display())))?;
        manifest.validate().map_err(|e| match e {
            Error::Parse(message) => Error::Parse(format!("{}: {message}", path.display())),
            other => other,
        })?;
        let mut cumulative = Vec::with_capacity(manifest.shards.len() + 1);
        cumulative.push(0);
        for shard in &manifest.shards {
            cumulative.push(cumulative.last().expect("nonempty") + shard.samples);
        }
        Ok(ShardedDataset {
            dir,
            manifest,
            cumulative,
            cache_budget: DEFAULT_CACHE_BUDGET,
            cache: Mutex::new(ShardCache::default()),
        })
    }

    /// Sets the decoded-shard cache budget (in encoded bytes; the proxy for
    /// resident memory). At least one shard always stays resident.
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// Number of shard files.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    fn load_shard(&self, shard_index: usize) -> Result<Arc<Vec<GraphSample>>> {
        let entry = &self.manifest.shards[shard_index];
        if let Some(samples) = {
            let mut cache = self.cache.lock().expect("shard cache is not poisoned");
            cache.touch(shard_index)
        } {
            return Ok(samples);
        }
        // Decode outside the lock: concurrent readers of *different* shards
        // must not serialise on one shard's decode.
        let path = self.dir.join(&entry.file);
        let bytes = std::fs::read(&path)
            .map_err(|e| Error::Parse(format!("cannot read {}: {e}", path.display())))?;
        let samples = Arc::new(decode_shard(&bytes, entry.samples).map_err(|e| match e {
            Error::Parse(message) => Error::Parse(format!("{}: {message}", path.display())),
            other => other,
        })?);
        let mut cache = self.cache.lock().expect("shard cache is not poisoned");
        cache.insert(shard_index, Arc::clone(&samples), entry.bytes, self.cache_budget);
        Ok(samples)
    }
}

impl ShardCache {
    fn touch(&mut self, shard_index: usize) -> Option<Arc<Vec<GraphSample>>> {
        let position = self.resident.iter().position(|(index, _, _)| *index == shard_index)?;
        let entry = self.resident.remove(position).expect("position is in range");
        let samples = Arc::clone(&entry.1);
        self.resident.push_back(entry);
        samples.into()
    }

    fn insert(
        &mut self,
        shard_index: usize,
        samples: Arc<Vec<GraphSample>>,
        bytes: u64,
        budget: u64,
    ) {
        // A concurrent loader may have inserted the same shard while this
        // thread decoded it outside the lock; keep one copy either way.
        if self.touch(shard_index).is_some() {
            return;
        }
        self.resident.push_back((shard_index, samples, bytes));
        self.resident_bytes += bytes;
        while self.resident_bytes > budget && self.resident.len() > 1 {
            let (_, _, evicted) = self.resident.pop_front().expect("nonempty");
            self.resident_bytes -= evicted;
        }
    }
}

fn decode_shard(bytes: &[u8], expected_samples: usize) -> Result<Vec<GraphSample>> {
    let container = Container::from_bytes(bytes)?;
    let meta_json = std::str::from_utf8(container.bytes("shard/meta")?)
        .map_err(|_| Error::Parse("shard metadata is not valid UTF-8".to_owned()))?;
    let meta: ShardMeta = serde_json::from_str(meta_json)
        .map_err(|e| Error::Parse(format!("failed to parse shard metadata: {e}")))?;
    if meta.format != SHARD_FORMAT {
        return Err(Error::Parse(format!(
            "not a dataset shard: format is `{}`, expected `{SHARD_FORMAT}`",
            meta.format
        )));
    }
    if meta.version == 0 || meta.version > STORE_VERSION {
        return Err(Error::Parse(format!(
            "shard version {} is not supported by this build (supported: 1..={STORE_VERSION})",
            meta.version
        )));
    }
    if meta.samples != expected_samples {
        return Err(Error::Parse(format!(
            "shard holds {} samples but the manifest expects {expected_samples}",
            meta.samples
        )));
    }
    let index = container.u64s("shard/index")?;
    let payload = container.bytes("shard/samples")?;
    if index.len() != meta.samples + 1 {
        return Err(Error::Parse(format!(
            "shard index has {} offsets, expected {}",
            index.len(),
            meta.samples + 1
        )));
    }
    if index.first() != Some(&0) || *index.last().expect("nonempty") != payload.len() as u64 {
        return Err(Error::Parse("shard index does not span the sample payload".to_owned()));
    }
    let mut samples = Vec::with_capacity(meta.samples);
    for window in index.windows(2) {
        let (start, end) = (window[0], window[1]);
        if start > end || end > payload.len() as u64 {
            return Err(Error::Parse("shard index offsets are not monotonic".to_owned()));
        }
        samples.push(decode_sample(&payload[start as usize..end as usize], meta.version)?);
    }
    Ok(samples)
}

impl SampleSource for ShardedDataset {
    fn len(&self) -> usize {
        self.manifest.graph_count
    }

    fn fetch(&self, index: usize) -> Result<Cow<'_, GraphSample>> {
        assert!(
            index < self.manifest.graph_count,
            "sample index {index} out of range for a store of {} graphs",
            self.manifest.graph_count
        );
        // partition_point gives the first cumulative bound above `index`;
        // its predecessor is the owning shard.
        let shard_index = self.cumulative.partition_point(|&bound| bound <= index) - 1;
        let samples = self.load_shard(shard_index)?;
        Ok(Cow::Owned(samples[index - self.cumulative[shard_index]].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_gnn_core::dataset::DatasetBuilder;

    fn tiny_dataset(count: usize) -> Dataset {
        DatasetBuilder::new(ProgramFamily::Control)
            .count(count)
            .seed(9)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
            .build()
            .expect("dataset builds")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hls-gnn-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn samples_round_trip_bit_exactly_through_the_codec() {
        for sample in &tiny_dataset(4).samples {
            let decoded =
                decode_sample(&encode_sample(sample), STORE_VERSION).expect("codec round trips");
            assert_eq!(&decoded, sample);
        }
    }

    #[test]
    fn v1_records_still_decode_with_zero_filled_analytic_features() {
        for sample in &tiny_dataset(2).samples {
            // A v1 record is the v2 record minus the trailing analytic block.
            let mut encoded = encode_sample(sample);
            encoded.truncate(encoded.len() - 12 * sample.num_nodes());
            let decoded = decode_sample(&encoded, 1).expect("v1 record decodes");
            assert_eq!(decoded.node_analytic, vec![[0.0f32; 3]; sample.num_nodes()]);
            let mut expected = sample.clone();
            expected.node_analytic = decoded.node_analytic.clone();
            assert_eq!(decoded, expected);
        }
    }

    #[test]
    fn mangled_sample_records_error_and_never_panic() {
        let sample = &tiny_dataset(1).samples[0];
        let encoded = encode_sample(sample);
        for length in 0..encoded.len() {
            assert!(
                decode_sample(&encoded[..length], STORE_VERSION).is_err(),
                "truncation to {length}"
            );
        }
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode_sample(&trailing, STORE_VERSION).is_err());
        // Clobbering counts and codes must fail structurally, not panic.
        for index in 0..encoded.len().min(64) {
            let mut mangled = encoded.clone();
            mangled[index] = 0xFF;
            let _ = decode_sample(&mangled, STORE_VERSION); // must not panic;
                                                            // Err or a (validated)
                                                            // different sample
        }
    }

    #[test]
    fn store_round_trips_a_dataset_bit_exactly_at_any_shard_size() {
        let dataset = tiny_dataset(7);
        for shard_size in [1, 2, 3, 7, 64] {
            let dir = temp_dir(&format!("roundtrip-{shard_size}"));
            let mut writer = DatasetStoreWriter::create(&dir, "round trip")
                .unwrap()
                .shard_max_samples(shard_size);
            for sample in &dataset.samples {
                writer.push(sample).unwrap();
            }
            let manifest = writer.finish().unwrap();
            assert_eq!(manifest.graph_count, dataset.len());
            assert_eq!(manifest.node_count, dataset.total_nodes());
            let expected_shards = dataset.len().div_ceil(shard_size);
            assert_eq!(manifest.shards.len(), expected_shards);

            let store = ShardedDataset::open(&dir).unwrap();
            assert_eq!(SampleSource::len(&store), dataset.len());
            let materialized = Dataset::from_source(&store).unwrap();
            assert_eq!(materialized.samples, dataset.samples);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_tight_cache_budget_keeps_at_most_one_extra_shard_resident() {
        let dataset = tiny_dataset(6);
        let dir = temp_dir("budget");
        write_dataset_with_shard_size(&dir, &dataset, 2);
        // Budget 1 byte: every insert evicts down to a single shard.
        let store = ShardedDataset::open(&dir).unwrap().with_cache_budget(1);
        for index in (0..dataset.len()).rev() {
            let fetched = store.fetch(index).unwrap();
            assert_eq!(fetched.as_ref(), &dataset.samples[index]);
        }
        assert_eq!(store.cache.lock().unwrap().resident.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn write_dataset_with_shard_size(dir: &Path, dataset: &Dataset, shard_size: usize) {
        let mut writer =
            DatasetStoreWriter::create(dir, "test").unwrap().shard_max_samples(shard_size);
        for sample in &dataset.samples {
            writer.push(sample).unwrap();
        }
        writer.finish().unwrap();
    }

    #[test]
    fn spilled_synthetic_corpus_matches_the_in_ram_builder_bit_for_bit() {
        let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
            .count(5)
            .seed(21)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
            .build()
            .unwrap();
        let dir = temp_dir("spill");
        let manifest = SyntheticSpill::new(ProgramFamily::StraightLine)
            .count(5)
            .seed(21)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
            .shard_max_samples(2)
            .run(&dir)
            .unwrap();
        assert_eq!(manifest.graph_count, 5);
        let store = ShardedDataset::open(&dir).unwrap();
        assert_eq!(Dataset::from_source(&store).unwrap().samples, dataset.samples);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_tampering_is_detected() {
        let dataset = tiny_dataset(4);
        let dir = temp_dir("tamper");
        write_dataset_with_shard_size(&dir, &dataset, 2);
        let path = dir.join("manifest.json");
        let pristine = std::fs::read_to_string(&path).unwrap();

        for (needle, replacement) in [
            ("\"version\": 2", "\"version\": 99"),
            ("\"version\": 2", "\"version\": 0"),
            (STORE_FORMAT, "some-other-format"),
            ("\"graph_count\": 4", "\"graph_count\": 5"),
        ] {
            assert!(pristine.contains(needle), "fixture drifted: `{needle}` not found");
            std::fs::write(&path, pristine.replace(needle, replacement)).unwrap();
            assert!(
                matches!(ShardedDataset::open(&dir), Err(Error::Parse(_))),
                "tampering `{needle}` went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_corruption_is_detected_at_load_time() {
        let dataset = tiny_dataset(3);
        let dir = temp_dir("shard-corrupt");
        write_dataset_with_shard_size(&dir, &dataset, 8);
        let shard_path = dir.join("shard-000000.hgns");
        let mut bytes = std::fs::read(&shard_path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x41;
        std::fs::write(&shard_path, &bytes).unwrap();
        let store = ShardedDataset::open(&dir).unwrap();
        assert!(matches!(store.fetch(0), Err(Error::Parse(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writers_refuse_to_clobber_an_existing_store() {
        let dataset = tiny_dataset(1);
        let dir = temp_dir("clobber");
        write_dataset_with_shard_size(&dir, &dataset, 8);
        assert!(matches!(DatasetStoreWriter::create(&dir, "again"), Err(Error::Config(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
