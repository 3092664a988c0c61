//! Tests of the per-op tape profiler.
//!
//! The profiler switch and its accumulators are process-global, so these
//! tests live in their own test binary: while one of them holds the switch
//! on, no tape or `Var` test of the library can run a backward pass in the
//! same process and add rows to the profile under assertion.

use std::sync::{Mutex, MutexGuard};

use gnn_tensor::profile::{phase_timer, reset, set_enabled, snapshot, OpKind, Phase};
use gnn_tensor::{Matrix, Var};

/// Serializes the tests that flip the global profiler switch or reset its
/// accumulators.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn profile_attributes_ops_and_is_resettable() {
    let _guard = global_lock();
    set_enabled(true);
    reset();
    let a = Var::parameter(Matrix::full(8, 8, 1.0));
    let b = Var::parameter(Matrix::full(8, 8, 2.0));
    let loss = a.matmul(&b).leaky_relu(0.1).sum();
    loss.backward();
    gnn_tensor::tape::reset();
    let profile = snapshot();
    set_enabled(false);
    let kinds: Vec<OpKind> = profile.ops.iter().map(|stats| stats.kind).collect();
    assert!(kinds.contains(&OpKind::Matmul), "matmul missing from {kinds:?}");
    assert!(kinds.contains(&OpKind::LeakyRelu));
    assert!(kinds.contains(&OpKind::Sum));
    let matmul = profile.ops.iter().find(|s| s.kind == OpKind::Matmul).unwrap();
    assert!(matmul.count >= 1);
    // At least forward 2·8·8·8 plus backward 4·8·8·8 analytic FLOPs.
    assert!(matmul.flops >= 2 * 512 + 4 * 512, "flops = {}", matmul.flops);
    assert!(matmul.backward_ns > 0, "backward replay must be timed");
    assert!(matmul.intensity() > 0.0);
    reset();
    assert!(snapshot().ops.is_empty());
}

#[test]
fn disabled_profiler_records_nothing() {
    let _guard = global_lock();
    set_enabled(false);
    reset();
    let a = Var::parameter(Matrix::full(4, 4, 1.0));
    a.matmul(&a).sum().backward();
    gnn_tensor::tape::reset();
    assert!(snapshot().ops.is_empty());
    let _timer = phase_timer(Phase::Optimizer);
    drop(_timer);
    assert!(snapshot().phases.is_empty());
}

#[test]
fn phase_timers_accumulate_when_enabled() {
    let _guard = global_lock();
    set_enabled(true);
    reset();
    {
        let _timer = phase_timer(Phase::Fetch);
    }
    {
        let _timer = phase_timer(Phase::Optimizer);
    }
    let profile = snapshot();
    set_enabled(false);
    assert_eq!(profile.phases.len(), 2);
    assert!(profile.phases.iter().any(|p| p.phase == Phase::Fetch && p.count >= 1));
    assert!(profile.phases.iter().any(|p| p.phase == Phase::Optimizer && p.count >= 1));
    reset();
}

#[test]
fn names_are_unique_and_cover_all_kinds() {
    let mut names: Vec<&str> = OpKind::ALL.iter().map(|kind| kind.name()).collect();
    assert_eq!(names.len(), OpKind::COUNT);
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), OpKind::COUNT, "duplicate OpKind names");
}
