//! Per-op tape profiler: wall time, invocation counts and analytic
//! FLOPs/bytes per [`OpKind`], aggregated across threads.
//!
//! When enabled (`HLSGNN_PROFILE=1`, or [`set_enabled`]`(true)`), the arena
//! tape times every forward op as it is recorded and every backward op as it
//! is replayed, and attributes an analytic cost model — floating-point
//! operations and bytes moved, both derived purely from the op record's
//! shapes — to the op's kind. [`snapshot`] folds the accumulators into a
//! table with a roofline-style arithmetic-intensity column (FLOPs / byte):
//! high-intensity kinds (matmul) are compute-bound candidates for SIMD and
//! threading, low-intensity kinds (gather/scatter, elementwise) are
//! memory-bound and won't repay vectorisation effort.
//!
//! Training phases that run *outside* the tape — mini-batch fetch and the
//! optimiser (gradient clip + Adam + tape reset) — are timed through
//! [`PhaseTimer`] so the profile accounts for the whole training step, not
//! just the op stream. The `tensor_profile` bin gates on this: ops + phases
//! must cover ≥ 90% of the measured `train_step` wall time.
//!
//! Cost discipline mirrors `hls_gnn_obs`: the disabled path is one relaxed
//! atomic load per op (the `tensor_profile` gate holds the *enabled* path
//! under the same < 2% median-per-pair budget as the span layer), the
//! enabled path is two monotonic clock reads plus a handful of relaxed
//! atomics. Profiling never touches the numerics — loss histories are
//! bit-identical with the profiler on or off.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Environment variable enabling the profiler (`1`/`true`/`on`).
pub const PROFILE_ENV_VAR: &str = "HLSGNN_PROFILE";

/// The kind of a tape op — one variant per [`crate::tape`] op record, used
/// as the profile aggregation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum OpKind {
    Add,
    Sub,
    Mul,
    DivEps,
    Scale,
    AddScalar,
    MulScalarVar,
    MulColBroadcast,
    Matmul,
    AddRowBroadcast,
    LeakyRelu,
    Sigmoid,
    Tanh,
    Exp,
    LogEps,
    SqrtEps,
    Dropout,
    Sum,
    SumAxis0,
    ConcatCols,
    ConcatRows,
    GatherRows,
    ScatterAddRows,
    ScatterAddOnto,
    SegmentSum,
    SegmentExtremum,
    ScaleRows,
    Mse,
    BceWithLogits,
}

impl OpKind {
    /// Number of op kinds.
    pub const COUNT: usize = 29;

    /// Every kind, in declaration order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::DivEps,
        OpKind::Scale,
        OpKind::AddScalar,
        OpKind::MulScalarVar,
        OpKind::MulColBroadcast,
        OpKind::Matmul,
        OpKind::AddRowBroadcast,
        OpKind::LeakyRelu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Exp,
        OpKind::LogEps,
        OpKind::SqrtEps,
        OpKind::Dropout,
        OpKind::Sum,
        OpKind::SumAxis0,
        OpKind::ConcatCols,
        OpKind::ConcatRows,
        OpKind::GatherRows,
        OpKind::ScatterAddRows,
        OpKind::ScatterAddOnto,
        OpKind::SegmentSum,
        OpKind::SegmentExtremum,
        OpKind::ScaleRows,
        OpKind::Mse,
        OpKind::BceWithLogits,
    ];

    /// Stable lowercase name (the profile table / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::DivEps => "div_eps",
            OpKind::Scale => "scale",
            OpKind::AddScalar => "add_scalar",
            OpKind::MulScalarVar => "mul_scalar_var",
            OpKind::MulColBroadcast => "mul_col_broadcast",
            OpKind::Matmul => "matmul",
            OpKind::AddRowBroadcast => "add_row_broadcast",
            OpKind::LeakyRelu => "leaky_relu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Exp => "exp",
            OpKind::LogEps => "log_eps",
            OpKind::SqrtEps => "sqrt_eps",
            OpKind::Dropout => "dropout",
            OpKind::Sum => "sum",
            OpKind::SumAxis0 => "sum_axis0",
            OpKind::ConcatCols => "concat_cols",
            OpKind::ConcatRows => "concat_rows",
            OpKind::GatherRows => "gather_rows",
            OpKind::ScatterAddRows => "scatter_add_rows",
            OpKind::ScatterAddOnto => "scatter_add_onto",
            OpKind::SegmentSum => "segment_sum",
            OpKind::SegmentExtremum => "segment_extremum",
            OpKind::ScaleRows => "scale_rows",
            OpKind::Mse => "mse",
            OpKind::BceWithLogits => "bce_with_logits",
        }
    }
}

/// A training-loop phase timed outside the op stream (no tape ops run inside
/// these regions, so phase time and op time never overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Mini-batch fetch (dataset access).
    Fetch,
    /// Tape-free input assembly: batch fusing, feature/index/target
    /// marshalling, per-edge normalisation tables.
    Assemble,
    /// Backward-pass setup inside the tape: growing the gradient and stamp
    /// buffers and seeding the root before the op replay.
    BackwardSetup,
    /// Gradient zero/clip + optimiser update + tape reset.
    Optimizer,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 4;

    /// Every phase, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Fetch, Phase::Assemble, Phase::BackwardSetup, Phase::Optimizer];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Assemble => "assemble",
            Phase::BackwardSetup => "backward_setup",
            Phase::Optimizer => "optimizer",
        }
    }
}

const ENABLED_UNKNOWN: u8 = 0;
const ENABLED_ON: u8 = 1;
const ENABLED_OFF: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(ENABLED_UNKNOWN);

/// Whether the profiler is recording. Defaults to off; `HLSGNN_PROFILE=1`
/// (or [`set_enabled`]`(true)`) turns it on. The off path of every hook is a
/// single relaxed load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        ENABLED_ON => true,
        ENABLED_OFF => false,
        _ => {
            let on = matches!(
                std::env::var(PROFILE_ENV_VAR).as_deref(),
                Ok("1") | Ok("true") | Ok("on")
            );
            ENABLED.store(if on { ENABLED_ON } else { ENABLED_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the profiler switch at runtime (wins over `HLSGNN_PROFILE`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { ENABLED_ON } else { ENABLED_OFF }, Ordering::Relaxed);
}

/// One per-kind accumulator cell. Plain relaxed atomics: the profile is a
/// monotone sum, exact under any interleaving.
struct KindSlot {
    count: AtomicU64,
    forward_ns: AtomicU64,
    backward_ns: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
}

impl KindSlot {
    #[allow(clippy::declare_interior_mutable_const)] // array-repeat seed only
    const NEW: KindSlot = KindSlot {
        count: AtomicU64::new(0),
        forward_ns: AtomicU64::new(0),
        backward_ns: AtomicU64::new(0),
        flops: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    };
}

struct PhaseSlot {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl PhaseSlot {
    #[allow(clippy::declare_interior_mutable_const)] // array-repeat seed only
    const NEW: PhaseSlot = PhaseSlot { count: AtomicU64::new(0), total_ns: AtomicU64::new(0) };
}

static KINDS: [KindSlot; OpKind::COUNT] = [KindSlot::NEW; OpKind::COUNT];
static PHASES: [PhaseSlot; Phase::COUNT] = [PhaseSlot::NEW; Phase::COUNT];

/// Credits one recorded forward op to `kind`. Called by the tape with the
/// analytic cost of the forward computation.
pub(crate) fn record_forward(kind: OpKind, elapsed_ns: u64, flops: u64, bytes: u64) {
    let slot = &KINDS[kind as usize];
    slot.count.fetch_add(1, Ordering::Relaxed);
    slot.forward_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    slot.flops.fetch_add(flops, Ordering::Relaxed);
    slot.bytes.fetch_add(bytes, Ordering::Relaxed);
}

/// Credits one replayed backward op to `kind`, with the analytic cost of the
/// gradient computation.
pub(crate) fn record_backward(kind: OpKind, elapsed_ns: u64, flops: u64, bytes: u64) {
    let slot = &KINDS[kind as usize];
    slot.backward_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    slot.flops.fetch_add(flops, Ordering::Relaxed);
    slot.bytes.fetch_add(bytes, Ordering::Relaxed);
}

/// RAII timer for an off-tape [`Phase`]; inert when the profiler is off.
pub struct PhaseTimer {
    phase: Phase,
    start: Option<Instant>,
}

/// Starts timing `phase`. Bind the result so the guard covers the region.
pub fn phase_timer(phase: Phase) -> PhaseTimer {
    PhaseTimer { phase, start: enabled().then(Instant::now) }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let slot = &PHASES[self.phase as usize];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.total_ns.fetch_add(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }
}

/// Aggregated statistics for one op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// The op kind.
    pub kind: OpKind,
    /// Forward invocations recorded.
    pub count: u64,
    /// Total forward wall time, nanoseconds.
    pub forward_ns: u64,
    /// Total backward wall time, nanoseconds.
    pub backward_ns: u64,
    /// Analytic floating-point operations (forward + backward).
    pub flops: u64,
    /// Analytic bytes moved (forward + backward).
    pub bytes: u64,
}

impl OpStats {
    /// Forward + backward wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.forward_ns + self.backward_ns
    }

    /// Roofline arithmetic intensity: FLOPs per byte moved.
    pub fn intensity(&self) -> f64 {
        self.flops as f64 / self.bytes.max(1) as f64
    }
}

/// Aggregated statistics for one off-tape phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// The phase.
    pub phase: Phase,
    /// Timed regions entered.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time profile snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Per-kind rows, only kinds that were invoked, sorted by descending
    /// total time (ties by name for determinism).
    pub ops: Vec<OpStats>,
    /// Off-tape phase rows, only phases that were entered.
    pub phases: Vec<PhaseStats>,
}

impl OpProfile {
    /// Total attributed wall time — every op (forward + backward) plus every
    /// off-tape phase — in nanoseconds.
    pub fn attributed_ns(&self) -> u64 {
        self.ops.iter().map(OpStats::total_ns).sum::<u64>()
            + self.phases.iter().map(|phase| phase.total_ns).sum::<u64>()
    }
}

/// Folds the global accumulators into a profile snapshot.
pub fn snapshot() -> OpProfile {
    let mut ops: Vec<OpStats> = OpKind::ALL
        .iter()
        .map(|&kind| {
            let slot = &KINDS[kind as usize];
            OpStats {
                kind,
                count: slot.count.load(Ordering::Relaxed),
                forward_ns: slot.forward_ns.load(Ordering::Relaxed),
                backward_ns: slot.backward_ns.load(Ordering::Relaxed),
                flops: slot.flops.load(Ordering::Relaxed),
                bytes: slot.bytes.load(Ordering::Relaxed),
            }
        })
        .filter(|stats| stats.count > 0)
        .collect();
    ops.sort_by(|a, b| {
        b.total_ns().cmp(&a.total_ns()).then_with(|| a.kind.name().cmp(b.kind.name()))
    });
    let phases = Phase::ALL
        .iter()
        .map(|&phase| {
            let slot = &PHASES[phase as usize];
            PhaseStats {
                phase,
                count: slot.count.load(Ordering::Relaxed),
                total_ns: slot.total_ns.load(Ordering::Relaxed),
            }
        })
        .filter(|stats| stats.count > 0)
        .collect();
    OpProfile { ops, phases }
}

/// Zeroes every accumulator (the profile is cumulative across steps and
/// threads otherwise).
pub fn reset() {
    for slot in &KINDS {
        slot.count.store(0, Ordering::Relaxed);
        slot.forward_ns.store(0, Ordering::Relaxed);
        slot.backward_ns.store(0, Ordering::Relaxed);
        slot.flops.store(0, Ordering::Relaxed);
        slot.bytes.store(0, Ordering::Relaxed);
    }
    for slot in &PHASES {
        slot.count.store(0, Ordering::Relaxed);
        slot.total_ns.store(0, Ordering::Relaxed);
    }
}
