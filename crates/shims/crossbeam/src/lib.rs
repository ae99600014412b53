//! Offline stand-in for `crossbeam`, providing the subset this workspace
//! uses: unbounded and bounded MPMC channels with cloneable senders *and*
//! receivers (built on `Mutex<VecDeque>` + `Condvar`).

/// MPMC channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Signalled on every pop so bounded senders blocked on a full
        /// queue can retry.
        space: Condvar,
        /// `None` = unbounded.
        cap: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// Bounded channel at capacity; the message comes back.
        Full(T),
        /// Every receiver is gone; the message comes back.
        Disconnected(T),
    }

    impl<T> std::fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Every sender dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`] when every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Timed out with nothing received.
        Timeout,
        /// Every sender dropped and the queue is drained.
        Disconnected,
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// The receiving half; cloneable (messages go to whichever receiver
    /// pops first).
    pub struct Receiver<T>(Arc<Inner<T>>);

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a bounded channel holding at most `cap` messages.
    /// [`Sender::send`] blocks while full; [`Sender::try_send`] returns
    /// [`TrySendError::Full`] instead.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Wake blocked receivers so they observe disconnection.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message; errors if every receiver is gone. On a
        /// bounded channel, blocks while the queue is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if self.0.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                match self.0.cap {
                    Some(cap) if q.len() >= cap => {
                        q = self.0.space.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            q.push_back(value);
            drop(q);
            self.0.ready.notify_one();
            Ok(())
        }

        /// Non-blocking send: [`TrySendError::Full`] on a bounded channel
        /// at capacity, [`TrySendError::Disconnected`] when every receiver
        /// is gone — either way the message comes back to the caller.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cap) = self.0.cap {
                if q.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            q.push_back(value);
            drop(q);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Wake bounded senders blocked on a full queue so they
                // observe the disconnection.
                self.0.space.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Pops a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            match q.pop_front() {
                Some(v) => {
                    self.0.space.notify_one();
                    Ok(v)
                }
                None if self.0.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    self.0.space.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.0.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    self.0.space.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }

        /// Drains currently queued messages without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }
    }

    /// Iterator over immediately available messages.
    pub struct TryIter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn fifo_and_try_iter() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnects_both_ways() {
        let (tx, rx) = unbounded::<i32>();
        drop(rx);
        assert!(tx.send(1).is_err());
        let (tx, rx) = unbounded::<i32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cross_thread_recv() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv(), Ok(42));
        h.join().unwrap();
    }

    #[test]
    fn bounded_try_send_reports_full_then_drains() {
        let (tx, rx) = bounded::<i32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn bounded_try_send_detects_disconnect() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded::<i32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2).unwrap());
        // The sender is blocked on the full queue until this pop.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap();
    }
}
