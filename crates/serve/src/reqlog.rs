//! Request-scoped access logging: per-request records, a structured access
//! log on stderr, and a bounded in-memory ring for `/debug/slow`.
//!
//! Every request admitted to the service gets a monotonic request id and,
//! when it resolves, a [`RequestRecord`] capturing where its latency went:
//! queue wait (admission to worker pick-up), service time (pick-up to
//! reply), and the outcome. Records of requests at or above the configured threshold land in
//! a fixed-size ring, so a stuck or slow deployment can be diagnosed from
//! `GET /debug/slow` without grepping logs (a threshold of 0 retains every
//! request).
//! The stderr access log (one line per request, `key=value` fields) is on by
//! default and switched off with `HLSGNN_SERVE_ACCESS_LOG=0`.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Requests retained in the slow-request ring.
pub const SLOW_CAPACITY: usize = 64;

/// How a request left the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Computed by a worker and answered.
    Served,
    /// Answered from the prediction cache without touching the queue.
    CacheHit,
    /// Refused at the admission bound with 503.
    Shed,
    /// Admitted, but the model failed on it.
    Error,
}

impl Outcome {
    /// Stable lower-snake name used in access-log lines and `/debug/slow`.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Served => "served",
            Outcome::CacheHit => "cache_hit",
            Outcome::Shed => "shed",
            Outcome::Error => "error",
        }
    }
}

/// One resolved request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Monotonic request id, assigned at admission (1-based).
    pub id: u64,
    /// How the request resolved.
    pub outcome: Outcome,
    /// Admission to worker pick-up, microseconds.
    pub queue_wait_us: u64,
    /// Worker pick-up to reply, microseconds.
    pub service_us: u64,
    /// End-to-end admission-to-reply latency, microseconds.
    pub latency_us: u64,
}

/// The per-service request log: the bounded slow ring plus the stderr
/// access log.
pub struct RequestLog {
    model: String,
    slow_threshold_us: u64,
    access_log: bool,
    slow: Mutex<VecDeque<RequestRecord>>,
}

impl RequestLog {
    /// A log for `model`, capturing requests at or above
    /// `slow_threshold_us` in the slow ring (a threshold of 0 captures
    /// everything — useful in tests).
    pub fn new(model: impl Into<String>, slow_threshold_us: u64, access_log: bool) -> Self {
        RequestLog {
            model: model.into(),
            slow_threshold_us,
            access_log,
            slow: Mutex::new(VecDeque::with_capacity(SLOW_CAPACITY)),
        }
    }

    /// The slow-request latency threshold, microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Records one resolved request: the slow ring when it crossed the
    /// threshold, one access-log line when logging is on. Returns whether
    /// the request counted as slow (the caller owns the
    /// `hlsgnn_serve_slow_total` counter).
    pub fn record(&self, record: RequestRecord) -> bool {
        if self.access_log {
            eprintln!(
                "hls-gnn-serve: access id={} model={} outcome={} queue_wait_us={} service_us={} \
                 latency_us={}",
                record.id,
                self.model,
                record.outcome.name(),
                record.queue_wait_us,
                record.service_us,
                record.latency_us,
            );
        }
        let slow = record.latency_us >= self.slow_threshold_us;
        if slow {
            let mut ring = self.slow.lock().expect("request-log lock");
            if ring.len() == SLOW_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        slow
    }

    /// The retained slow requests, oldest first.
    pub fn slow(&self) -> Vec<RequestRecord> {
        self.slow.lock().expect("request-log lock").iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, latency_us: u64) -> RequestRecord {
        RequestRecord {
            id,
            outcome: Outcome::Served,
            queue_wait_us: 0,
            service_us: latency_us,
            latency_us,
        }
    }

    #[test]
    fn slow_ring_is_bounded_and_keeps_the_newest() {
        let log = RequestLog::new("test", 0, false);
        for id in 1..=(SLOW_CAPACITY as u64 + 10) {
            log.record(record(id, 1));
        }
        let slow = log.slow();
        assert_eq!(slow.len(), SLOW_CAPACITY);
        assert_eq!(slow.first().map(|r| r.id), Some(11));
        assert_eq!(slow.last().map(|r| r.id), Some(SLOW_CAPACITY as u64 + 10));
    }

    #[test]
    fn slow_ring_applies_the_threshold() {
        let log = RequestLog::new("test", 100, false);
        assert!(!log.record(record(1, 99)));
        assert!(log.record(record(2, 100)));
        assert!(log.record(record(3, 250)));
        let slow = log.slow();
        assert_eq!(slow.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn outcome_names_are_stable() {
        let names: Vec<&str> = [Outcome::Served, Outcome::CacheHit, Outcome::Shed, Outcome::Error]
            .iter()
            .map(|outcome| outcome.name())
            .collect();
        assert_eq!(names, vec!["served", "cache_hit", "shed", "error"]);
    }
}
