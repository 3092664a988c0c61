//! The bounded request queue.
//!
//! Concurrent frontend threads push individual requests; worker threads pop
//! them one at a time, blocking while the queue is empty. Popping is strictly
//! FIFO, so request order is preserved, and the admission bound is enforced
//! at submit time — a full queue rejects the request immediately (the
//! frontend answers 503) instead of queueing unbounded work the service
//! cannot keep up with.

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

/// A bounded MPMC FIFO queue with a blocking [`BoundedQueue::pop`].
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    bound: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `bound` waiting items (clamped to at
    /// least 1).
    pub fn new(bound: usize) -> Self {
        BoundedQueue {
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

    /// True after [`BoundedQueue::close`].
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock poisoned").closed
    }

    /// Admits an item, or rejects it when the queue is full or closed.
    ///
    /// # Errors
    /// [`SubmitError::Full`] at the admission bound, [`SubmitError::Closed`]
    /// after [`BoundedQueue::close`]; both return the item.
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

    /// Blocks until an item is available and takes the oldest, or returns
    /// `None` once the queue is closed *and* empty. Closing wakes all
    /// blocked pops; remaining items are still handed out, so a graceful
    /// shutdown finishes the backlog.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: further submissions are rejected, blocked pops
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
        let queue = BoundedQueue::new(2);
        assert!(queue.try_submit(1).is_ok());
        assert!(queue.try_submit(2).is_ok());
        match queue.try_submit(3) {
            Err(SubmitError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        // Popping frees capacity again.
        assert_eq!(queue.pop(), Some(1));
        assert!(queue.try_submit(4).is_ok());
    }

    #[test]
    fn pop_is_fifo() {
        let queue = BoundedQueue::new(16);
        for item in 0..6 {
            queue.try_submit(item).unwrap();
        }
        let popped: Vec<i32> = (0..6).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(popped, (0..6).collect::<Vec<_>>());
        assert!(queue.is_empty());
    }

    #[test]
    fn close_rejects_submissions_and_drains_the_backlog() {
        let queue = BoundedQueue::new(4);
        queue.try_submit(7).unwrap();
        queue.try_submit(9).unwrap();
        queue.close();
        match queue.try_submit(8) {
            Err(SubmitError::Closed(item)) => assert_eq!(item, 8),
            other => panic!("expected Closed, got {other:?}"),
        }
        // The backlog is still handed out in order, then pops return None.
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), Some(9));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn blocked_pops_wake_on_submit_and_on_close() {
        let queue = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = queue.pop() {
                    seen.push(item);
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
        // One consumer pops in FIFO order.
        assert_eq!(consumer.join().expect("consumer exits"), (0..10).collect::<Vec<_>>());
    }
}
