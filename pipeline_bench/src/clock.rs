//! The clocks the benchmark reads.
//!
//! End-to-end times are the process's CPU time: user plus system time of
//! all of its threads. On a shared host a thread also waits while other
//! tenants hold the processor; wall time counts that wait and CPU time does
//! not, so CPU time is the program's own cost. Wall time is kept beside it
//! for spans and for the informational `wall_*` figures.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("pipeline_bench reads Linux clocks and /proc; it builds on 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, over all of its threads.
pub fn cpu_time() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

fn read_clock(clock_id: i32) -> Duration {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux); clock_gettime writes only into it.
    let status = unsafe { clock_gettime(clock_id, &mut now) };
    assert_eq!(status, 0, "clock_gettime({clock_id}) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// A point in time on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: Duration,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp { wall: Instant::now(), cpu: cpu_time() }
    }

    /// Time from `self` to `later`, on both clocks.
    pub fn until(&self, later: &Stamp) -> Interval {
        Interval { wall: later.wall - self.wall, cpu: later.cpu.saturating_sub(self.cpu) }
    }

    pub fn elapsed(&self) -> Interval {
        self.until(&Stamp::now())
    }
}

/// A length of time on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    pub wall: Duration,
    pub cpu: Duration,
}

impl std::ops::AddAssign for Interval {
    fn add_assign(&mut self, other: Interval) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        // Other tests run in this process at the same time, so the sleep is
        // checked on this thread's clock, read the same way.
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let before = read_clock(CLOCK_THREAD_CPUTIME_ID);
        std::thread::sleep(Duration::from_millis(50));
        let slept = read_clock(CLOCK_THREAD_CPUTIME_ID) - before;
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?} of CPU");

        let started = Stamp::now();
        let thread_before = read_clock(CLOCK_THREAD_CPUTIME_ID);
        let mut state = 1u64;
        while started.elapsed().wall < Duration::from_millis(50) {
            state = std::hint::black_box(state.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = read_clock(CLOCK_THREAD_CPUTIME_ID) - thread_before;
        assert!(worked >= Duration::from_millis(5), "a busy loop used {worked:?} of CPU");
        assert!(started.elapsed().cpu >= worked, "the process clock counts this thread");
    }
}
