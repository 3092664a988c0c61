//! The bounded coalescing request queue.
//!
//! Concurrent frontend threads push individual requests; worker threads pull
//! *micro-batches*: one blocking pop plus a greedy, caller-controlled grab of
//! whatever else is already waiting. Draining is strictly FIFO, so request
//! order is preserved, and the admission bound is enforced at submit time —
//! a full queue rejects the request immediately (the frontend answers 503)
//! instead of queueing unbounded work the service cannot keep up with.
//!
//! The queue itself is type-generic and policy-free: the service supplies the
//! coalescing predicate (coalesce width and per-tape node budget, mirroring
//! the training engine's `plan_chunks` greedy rule) as a closure.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was rejected. The rejected item is handed back so the
/// caller can report on it without cloning every submission up front.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at its admission bound; shed the request.
    Full(T),
    /// The queue was closed for shutdown.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with batch (coalescing) drains.
#[derive(Debug)]
pub struct CoalescingQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    bound: usize,
}

impl<T> CoalescingQueue<T> {
    /// Creates a queue admitting at most `bound` waiting items (clamped to at
    /// least 1).
    pub fn new(bound: usize) -> Self {
        CoalescingQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// The admission bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Number of items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// True when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True after [`CoalescingQueue::close`].
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock poisoned").closed
    }

    /// Admits an item, or rejects it when the queue is full or closed.
    ///
    /// # Errors
    /// [`SubmitError::Full`] at the admission bound, [`SubmitError::Closed`]
    /// after [`CoalescingQueue::close`]; both return the item.
    pub fn try_submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(SubmitError::Closed(item));
        }
        if inner.items.len() >= self.bound {
            return Err(SubmitError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available (or the queue is closed
    /// *and* empty, returning `None`), then drains a micro-batch: the first
    /// item unconditionally, then — in FIFO order — every further item for
    /// which `take_next(&next, &batch_so_far)` says yes, stopping at the
    /// first refusal. An item the predicate would always refuse still drains
    /// alone, so nothing can starve.
    ///
    /// Closing wakes all blocked drains; remaining items are still handed
    /// out, so a graceful shutdown finishes the backlog.
    pub fn drain_coalesced<F>(&self, mut take_next: F) -> Option<Vec<T>>
    where
        F: FnMut(&T, &[T]) -> bool,
    {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if !inner.items.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
        let first = inner.items.pop_front().expect("checked non-empty");
        let mut batch = vec![first];
        while let Some(front) = inner.items.front() {
            if take_next(front, &batch) {
                let item = inner.items.pop_front().expect("front exists");
                batch.push(item);
            } else {
                break;
            }
        }
        Some(batch)
    }

    /// Closes the queue: further submissions are rejected, blocked drains
    /// wake up, and workers exit once the backlog is empty.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admission_bound_sheds_deterministically() {
        let queue = CoalescingQueue::new(2);
        assert!(queue.try_submit(1).is_ok());
        assert!(queue.try_submit(2).is_ok());
        match queue.try_submit(3) {
            Err(SubmitError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        // Draining frees capacity again.
        let batch = queue.drain_coalesced(|_, _| true).expect("items waiting");
        assert_eq!(batch, vec![1, 2]);
        assert!(queue.try_submit(4).is_ok());
    }

    #[test]
    fn coalescing_is_fifo_and_respects_the_predicate() {
        let queue = CoalescingQueue::new(16);
        for item in 0..6 {
            queue.try_submit(item).unwrap();
        }
        // Width-2 micro-batches.
        let batch = queue.drain_coalesced(|_, taken| taken.len() < 2).unwrap();
        assert_eq!(batch, vec![0, 1]);
        // A "node budget": stop once the running sum would exceed 9.
        let batch =
            queue.drain_coalesced(|next, taken| taken.iter().sum::<i32>() + next <= 9).unwrap();
        assert_eq!(batch, vec![2, 3, 4]);
        // An item the predicate refuses still drains alone.
        let batch = queue.drain_coalesced(|_, _| false).unwrap();
        assert_eq!(batch, vec![5]);
    }

    #[test]
    fn close_rejects_submissions_and_drains_the_backlog() {
        let queue = CoalescingQueue::new(4);
        queue.try_submit(7).unwrap();
        queue.close();
        match queue.try_submit(8) {
            Err(SubmitError::Closed(item)) => assert_eq!(item, 8),
            other => panic!("expected Closed, got {other:?}"),
        }
        // The backlog is still handed out, then drains return None.
        assert_eq!(queue.drain_coalesced(|_, _| true), Some(vec![7]));
        assert_eq!(queue.drain_coalesced(|_, _| true), None);
    }

    #[test]
    fn blocked_drains_wake_on_submit_and_on_close() {
        let queue = Arc::new(CoalescingQueue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = queue.drain_coalesced(|_, _| true) {
                    seen.extend(batch);
                }
                seen
            })
        };
        for item in 0..10 {
            loop {
                match queue.try_submit(item) {
                    Ok(()) => break,
                    Err(SubmitError::Full(_)) => std::thread::yield_now(),
                    Err(SubmitError::Closed(_)) => panic!("queue closed early"),
                }
            }
        }
        // Let the consumer finish the backlog before closing.
        while !queue.is_empty() {
            std::thread::yield_now();
        }
        queue.close();
        let mut seen = consumer.join().expect("consumer exits");
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
