//! Stand-in for the part of `crossbeam-channel` this repository uses:
//! multi-producer multi-consumer `bounded` / `unbounded` channels with
//! blocking `send`, `recv`, `recv_timeout` and `try_recv`. The sandbox
//! the benchmark is built in has no crate registry, so the benchmark's
//! manifest patches this crate in. It is one `Mutex<VecDeque>` and two
//! condition variables — slower per message than the lock-free original,
//! which is stated next to `pool.dispatch_us` in the benchmark's README.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `None` for an unbounded channel.
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // No user code runs under the lock, so it cannot be poisoned by a
        // panic that left the queue half-updated.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

pub struct Sender<T>(Arc<Shared<T>>);
pub struct Receiver<T>(Arc<Shared<T>>);

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}
impl std::error::Error for RecvError {}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// A channel holding at most `capacity` messages.
///
/// # Panics
/// Panics on `capacity == 0`: the rendezvous channel is not implemented,
/// and no caller in this repository asks for one.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "stand-in crossbeam-channel has no zero-capacity channel");
    channel(Some(capacity))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

impl<T> Sender<T> {
    pub fn send(&self, message: T) -> Result<(), SendError<T>> {
        let mut state = self.0.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(message));
            }
            if self.0.capacity.is_none_or(|cap| state.queue.len() < cap) {
                state.queue.push_back(message);
                drop(state);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            state = self.0.not_full.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl<T> Receiver<T> {
    fn take(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
        let message = state.queue.pop_front()?;
        drop(state);
        if self.0.capacity.is_some() {
            self.0.not_full.notify_one();
        }
        Some(message)
    }

    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.lock();
        loop {
            if !state.queue.is_empty() {
                return Ok(self.take(state).expect("queue checked non-empty under the lock"));
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.0.not_empty.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let state = self.0.lock();
        let disconnected = state.senders == 0;
        match self.take(state) {
            Some(message) => Ok(message),
            None if disconnected => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.lock();
        loop {
            if !state.queue.is_empty() {
                return Ok(self.take(state).expect("queue checked non-empty under the lock"));
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self
                .0
                .not_empty
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// Blocks on `recv` and ends when the channel is empty and disconnected.
pub struct IntoIter<T>(Receiver<T>);

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter(self)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.0.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_blocks_and_delivers_in_order_to_many_receivers() {
        let (tx, rx) = bounded::<usize>(2);
        let sum = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    scope.spawn(move || {
                        let mut sum = 0;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            for v in 0..1000 {
                tx.send(v).unwrap();
            }
            drop(tx);
            workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
        });
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn disconnects_are_reported() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Timeout));
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
