//! Deterministic, thread-confined parallel execution for training and
//! evaluation.
//!
//! The autodiff tape ([`gnn_tensor::Var`]) is a thread-local arena with
//! `Rc`-held parameter leaves and is therefore `!Send`: a live model can
//! never cross a thread boundary. The
//! runtime sidesteps that by confining every model to the worker thread that
//! constructs it — a job receives only `Send` inputs (a job index, plain-data
//! snapshots, sample slices shared by reference) and returns only `Send`
//! outputs (metric arrays, rows, snapshots), so the coordinator never holds a
//! tape built on another thread.
//!
//! Determinism: [`run_jobs`] returns results in job order, regardless of
//! which worker executed which job or how the OS interleaved them. There is
//! no work stealing — workers claim the next job index from a shared atomic
//! cursor and each job's RNG state is derived purely from its seed, so every
//! metric is bit-identical to the serial path for any worker count.
//! `HLSGNN_WORKERS=1` is exactly the legacy serial code path (no threads are
//! spawned at all).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::approach::GnnPredictor;
use crate::dataset::GraphSample;
use crate::predictor::Predictor;
use crate::task::TargetMetric;
use crate::Result;

/// Worker-count configuration for the parallel runtime.
///
/// Constructed explicitly ([`ParallelConfig::with_workers`],
/// [`ParallelConfig::serial`]) or from the `HLSGNN_WORKERS` environment
/// variable ([`ParallelConfig::from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    workers: NonZeroUsize,
}

impl ParallelConfig {
    /// The environment variable the bench binaries and default configs read
    /// the worker count from.
    pub const ENV_VAR: &'static str = "HLSGNN_WORKERS";

    /// One worker: the exact legacy serial behaviour (no threads spawned).
    pub fn serial() -> Self {
        ParallelConfig::with_workers(1)
    }

    /// A fixed worker count; `0` is clamped to `1`.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig { workers: NonZeroUsize::new(workers.max(1)).expect("clamped to >= 1") }
    }

    /// One worker per available hardware thread.
    pub fn available() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero")),
        }
    }

    /// Reads the worker count from `HLSGNN_WORKERS`. Unset, empty or `0`
    /// means "all available hardware threads"; `1` selects the exact serial
    /// path; anything unparseable warns on stderr and falls back to the
    /// default (consistent with how `HLSGNN_SCALE` treats typos).
    ///
    /// The variable is read once per process: repeated calls return the
    /// cached result (and a typo warns once, not once per experiment
    /// config).
    pub fn from_env() -> Self {
        static CACHE: std::sync::OnceLock<ParallelConfig> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| Self::from_env_value(&std::env::var(Self::ENV_VAR).unwrap_or_default()))
            .clone()
    }

    /// The parsing behind [`ParallelConfig::from_env`], separated from the
    /// process environment so it can be tested without races on env state.
    fn from_env_value(raw: &str) -> Self {
        let raw = raw.trim();
        if raw.is_empty() {
            return Self::available();
        }
        match raw.parse::<usize>() {
            Ok(0) => Self::available(),
            Ok(workers) => Self::with_workers(workers),
            Err(_) => {
                eprintln!(
                    "warning: unrecognised {} value `{raw}`; falling back to all available \
                     hardware threads (expected a worker count, 0 or unset = all, 1 = serial)",
                    Self::ENV_VAR
                );
                Self::available()
            }
        }
    }

    /// The configured worker count (always at least 1).
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// True when the configuration selects the exact legacy serial path.
    pub fn is_serial(&self) -> bool {
        self.workers() == 1
    }
}

impl Default for ParallelConfig {
    /// All available hardware threads ([`ParallelConfig::available`]) — pure,
    /// no environment read. Entry points that honour `HLSGNN_WORKERS` call
    /// [`ParallelConfig::from_env`] explicitly.
    fn default() -> Self {
        ParallelConfig::available()
    }
}

/// Chunk planning for fused training mini-batches.
///
/// A training step runs the regressor on *chunks* of graphs that
/// [`gnn::GraphBatch`] disjoint-unions into one block-diagonal super-graph,
/// so a chunk costs one forward/backward tape however many graphs it holds.
/// A chunk holds at most one mini-batch (`TrainConfig::batch_size` graphs)
/// and at most the node budget. Chunking never changes the SGD protocol —
/// mini-batch boundaries, shuffling and loss scaling follow
/// `TrainConfig::batch_size` exactly. Inference does not chunk: it runs one
/// design per forward ([`Predictor::predict_batch`]).
///
/// The default derives the node budget from the hidden dimension;
/// [`BatchConfig::with_node_budget`] pins it, which frozen protocols (the
/// registry parity gate) use so their chunk plans — and therefore their
/// floating-point accumulation order — cannot drift when the default is
/// retuned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchConfig {
    /// `None` = derive the per-chunk node budget from the hidden dimension;
    /// `Some(n)` = cap every chunk at `n` nodes.
    node_budget_override: Option<NonZeroUsize>,
}

impl BatchConfig {
    /// The default working-set target of one fused tape, in `f32` elements of
    /// one `nodes × hidden` intermediate: 1 048 576 floats = 4 MiB. The old
    /// 24 576-float (96 KiB) budget dodged an allocator cliff — the previous
    /// engine allocated a fresh buffer per op, and past glibc's
    /// `MMAP_THRESHOLD` each allocation became an mmap/munmap round trip with
    /// page-fault zeroing. The arena tape records every op into one flat
    /// buffer that is recycled across steps, so that cliff no longer exists;
    /// the budget's remaining job is to bound the peak memory of a fused tape
    /// (a few × this many floats across the layer stack's intermediates).
    pub const DEFAULT_BUDGET_FLOATS: usize = 1_048_576;

    /// Default cap on the nodes of one fused tape regardless of hidden width.
    /// Re-measured on the arena-tape engine (standard-scale RGCN training
    /// sweeps on a single worker): wall-clock *improves* monotonically as the
    /// budget grows — 128-node tapes ≈ 75 s, 512 ≈ 70 s, 4096 ≈ 61 s —
    /// because bigger fused kernels amortise per-chunk encode/fuse overhead
    /// and there is no longer a per-op allocation penalty for large
    /// intermediates. The cap therefore sits high enough that the mini-batch
    /// size, not the node budget, is what normally closes a chunk; it
    /// survives only as a memory guard for degenerate corpora of huge graphs.
    pub const MAX_FUSED_NODES: usize = 4096;

    /// Caps every chunk at `nodes` nodes instead of the derived budget; `0`
    /// restores the derived budget.
    pub fn with_node_budget(mut self, nodes: usize) -> Self {
        self.node_budget_override = NonZeroUsize::new(nodes);
        self
    }

    /// Maximum node count of one chunk for a model of the given hidden
    /// dimension: [`BatchConfig::MAX_FUSED_NODES`], shrunk further for very
    /// wide models so a `nodes × hidden` intermediate stays under
    /// [`BatchConfig::DEFAULT_BUDGET_FLOATS`]. Overridable via
    /// [`BatchConfig::with_node_budget`]. Always at least 1.
    pub fn node_budget(&self, hidden_dim: usize) -> usize {
        match self.node_budget_override {
            Some(nodes) => nodes.get(),
            None => {
                Self::MAX_FUSED_NODES.min(Self::DEFAULT_BUDGET_FLOATS / hidden_dim.max(1)).max(1)
            }
        }
    }

    /// Deterministically packs a run of samples (given their node counts, in
    /// order) into chunks: a chunk closes once it holds `batch_size` graphs
    /// or fusing the next graph would exceed the node budget. Every chunk
    /// holds at least one graph (a graph larger than the whole budget still
    /// forms its own chunk). Returns the chunk lengths; they sum to
    /// `sizes.len()`.
    pub fn plan_chunks(&self, sizes: &[usize], batch_size: usize, hidden_dim: usize) -> Vec<usize> {
        let width = batch_size.max(1);
        let budget = self.node_budget(hidden_dim);
        let mut lengths = Vec::new();
        let mut count = 0usize;
        let mut nodes = 0usize;
        for &size in sizes {
            if count > 0 && (count >= width || nodes + size > budget) {
                lengths.push(count);
                count = 0;
                nodes = 0;
            }
            count += 1;
            nodes += size;
        }
        if count > 0 {
            lengths.push(count);
        }
        lengths
    }
}

/// Runs `jobs` independent jobs and returns their results in job order.
///
/// With one worker (or at most one job) this is a plain serial loop — the
/// exact legacy behaviour. Otherwise `min(workers, jobs)` scoped threads each
/// claim the next unclaimed job index from an atomic cursor, run the job
/// thread-confined, and ship the `Send` result back to the coordinator,
/// which reorders by index. Job closures typically construct, train and
/// evaluate a model entirely on the worker thread; the `!Send` tape never
/// crosses threads.
///
/// # Panics
/// Propagates a panic from any job.
pub fn run_jobs<R, F>(config: &ParallelConfig, jobs: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if config.is_serial() || jobs <= 1 {
        return (0..jobs).map(job).collect();
    }
    let abort = AtomicBool::new(false);
    run_jobs_cancellable(config, jobs, &abort, job)
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed"))
        .collect()
}

/// The shared worker pool behind [`run_jobs`] and [`try_run_jobs`]: workers
/// claim monotonically increasing job indices from an atomic cursor and stop
/// claiming once `abort` is raised, so cancelled (never-claimed) slots form a
/// suffix of the returned vector.
fn run_jobs_cancellable<R, F>(
    config: &ParallelConfig,
    jobs: usize,
    abort: &AtomicBool,
    job: F,
) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Raises `abort` if dropped by a panic unwinding through a job, so the
    // other workers stop claiming instead of finishing the whole job list
    // before the panic propagates out of the scope.
    struct AbortOnPanic<'a>(&'a AtomicBool);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let workers = config.workers().min(jobs);
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(jobs);
    results.resize_with(jobs, || None);
    let (job, cursor) = (&job, &cursor);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut completed = Vec::new();
                    while !abort.load(Ordering::Relaxed) {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs {
                            break;
                        }
                        let guard = AbortOnPanic(abort);
                        let result = job(index);
                        std::mem::forget(guard);
                        completed.push((index, result));
                    }
                    completed
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("runtime worker panicked") {
                results[index] = Some(result);
            }
        }
    });
    results
}

/// [`run_jobs`] for fallible jobs. A failure cancels the jobs not yet
/// claimed (no point training five more models once one combo has already
/// failed), and the returned error is the *lowest-indexed* one — jobs are
/// claimed in index order, so that is exactly the error the legacy serial
/// loop surfaced first, independent of scheduling. With one worker this *is*
/// the legacy loop: it short-circuits at the first error.
///
/// # Errors
/// The first (by job index) error any job produced.
pub fn try_run_jobs<T, F>(config: &ParallelConfig, jobs: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if config.is_serial() || jobs <= 1 {
        return (0..jobs).map(job).collect();
    }
    let abort = AtomicBool::new(false);
    let slots = run_jobs_cancellable(config, jobs, &abort, |index| {
        let result = job(index);
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        result
    });
    let mut out = Vec::with_capacity(jobs);
    for slot in slots {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(error)) => return Err(error),
            // Cancelled slots form a suffix behind a failed (lower-indexed)
            // job, so the `Err` arm above always returns before reaching one.
            None => unreachable!("job cancelled without a preceding failure"),
        }
    }
    Ok(out)
}

/// Shards a batched prediction across workers for large inference sets.
///
/// The trained state is exported once as a plain-`Matrix`, `Send + Sync`
/// snapshot ([`Predictor::snapshot`]); each worker rehydrates its own
/// thread-confined [`GnnPredictor`] from the shared snapshot and predicts a
/// contiguous shard. Inference is deterministic per sample, so the
/// concatenated result is bit-identical to `predictor.predict_batch(samples)`
/// at any worker count.
///
/// Falls back to the serial path when the configuration is serial, the batch
/// is trivial, or the predictor cannot be snapshotted (an untrained model
/// reports its per-sample errors exactly as before).
pub fn predict_batch_sharded<P>(
    predictor: &P,
    samples: &[GraphSample],
    config: &ParallelConfig,
) -> Vec<Result<[f64; TargetMetric::COUNT]>>
where
    P: Predictor + ?Sized,
{
    if config.is_serial() || samples.len() < 2 {
        return predictor.predict_batch(samples);
    }
    let Ok(snapshot) = predictor.snapshot() else {
        return predictor.predict_batch(samples);
    };
    let shard_size = samples.len().div_ceil(config.workers().min(samples.len()));
    let shards: Vec<&[GraphSample]> = samples.chunks(shard_size).collect();
    let snapshot = &snapshot;
    run_jobs(config, shards.len(), move |index| {
        let shard = shards[index];
        match GnnPredictor::from_saved(snapshot) {
            Ok(rehydrated) => rehydrated.predict_batch(shard),
            Err(error) => shard.iter().map(|_| Err(error.clone())).collect(),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_value_parsing_covers_the_grammar() {
        assert_eq!(ParallelConfig::from_env_value(""), ParallelConfig::available());
        assert_eq!(ParallelConfig::from_env_value("  "), ParallelConfig::available());
        assert_eq!(ParallelConfig::from_env_value("0"), ParallelConfig::available());
        assert_eq!(ParallelConfig::from_env_value("1"), ParallelConfig::serial());
        assert_eq!(ParallelConfig::from_env_value(" 4 "), ParallelConfig::with_workers(4));
        // Garbage warns and falls back instead of panicking or masking.
        assert_eq!(ParallelConfig::from_env_value("many"), ParallelConfig::available());
        assert!(ParallelConfig::serial().is_serial());
        assert!(!ParallelConfig::with_workers(3).is_serial());
        assert_eq!(ParallelConfig::with_workers(0).workers(), 1);
        assert!(ParallelConfig::available().workers() >= 1);
    }

    #[test]
    fn node_budget_derivation_and_overrides() {
        let config = BatchConfig::default();
        // Narrow models cap at MAX_FUSED_NODES, very wide models shrink so
        // one nodes × hidden intermediate stays within the float budget.
        assert_eq!(config.node_budget(16), BatchConfig::MAX_FUSED_NODES);
        assert_eq!(config.node_budget(32), BatchConfig::MAX_FUSED_NODES);
        assert_eq!(config.node_budget(300), BatchConfig::DEFAULT_BUDGET_FLOATS / 300);
        assert_eq!(config.node_budget(usize::MAX), 1);
        assert_eq!(config.with_node_budget(64).node_budget(300), 64);
        assert_eq!(config.with_node_budget(64).with_node_budget(0).node_budget(300), 3495);
    }

    #[test]
    fn chunk_planning_respects_batch_size_and_budget_and_covers_all_samples() {
        let config = BatchConfig::default().with_node_budget(100);
        // Mini-batch cap.
        assert_eq!(config.plan_chunks(&[10; 7], 3, 16), vec![3, 3, 1]);
        // Budget cap (40+40 fits, a third 40 would overflow).
        assert_eq!(config.plan_chunks(&[40; 5], 16, 16), vec![2, 2, 1]);
        // An over-budget graph still forms its own chunk.
        assert_eq!(config.plan_chunks(&[250, 10, 10], 16, 16), vec![1, 2]);
        // A one-node budget packs one graph per chunk.
        assert_eq!(config.with_node_budget(1).plan_chunks(&[10; 3], 16, 16), vec![1, 1, 1]);
        // Empty input plans nothing.
        assert!(config.plan_chunks(&[], 16, 16).is_empty());
    }

    #[test]
    fn jobs_return_in_index_order_for_any_worker_count() {
        let square = |index: usize| index * index;
        let expected: Vec<usize> = (0..23).map(square).collect();
        for workers in [1, 2, 4, 7, 32] {
            let config = ParallelConfig::with_workers(workers);
            assert_eq!(run_jobs(&config, 23, square), expected, "workers = {workers}");
        }
        assert!(run_jobs::<usize, _>(&ParallelConfig::with_workers(4), 0, square).is_empty());
    }

    #[test]
    fn fallible_jobs_surface_the_lowest_indexed_error() {
        let job = |index: usize| -> Result<usize> {
            if index % 3 == 2 {
                Err(crate::Error::Config(format!("job {index} failed")))
            } else {
                Ok(index)
            }
        };
        for workers in [1, 4] {
            let config = ParallelConfig::with_workers(workers);
            let error = try_run_jobs(&config, 9, job).unwrap_err();
            assert_eq!(error, crate::Error::Config("job 2 failed".to_owned()));
            let ok = try_run_jobs(&config, 2, job).unwrap();
            assert_eq!(ok, vec![0, 1]);
        }
    }

    #[test]
    fn a_failed_job_cancels_the_rest() {
        // Serial: the exact legacy short-circuit — nothing past the failure
        // runs.
        let executed = AtomicUsize::new(0);
        let error = try_run_jobs(&ParallelConfig::serial(), 64, |index| {
            executed.fetch_add(1, Ordering::Relaxed);
            if index == 3 {
                Err(crate::Error::Config("boom".to_owned()))
            } else {
                Ok(index)
            }
        })
        .unwrap_err();
        assert_eq!(error, crate::Error::Config("boom".to_owned()));
        assert_eq!(executed.load(Ordering::Relaxed), 4, "serial stops at the failing job");

        // Parallel: workers stop claiming once the failure is recorded; only
        // already-claimed jobs finish. Job 0 fails instantly while the others
        // take ~2 ms, so the abort flag is up long before the workers come
        // back for more work.
        let executed = AtomicUsize::new(0);
        let error = try_run_jobs(&ParallelConfig::with_workers(4), 64, |index| {
            executed.fetch_add(1, Ordering::Relaxed);
            if index == 0 {
                Err(crate::Error::Config("boom".to_owned()))
            } else {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(index)
            }
        })
        .unwrap_err();
        assert_eq!(error, crate::Error::Config("boom".to_owned()));
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 64, "parallel must not run the full job list, ran {ran}");
    }
}
