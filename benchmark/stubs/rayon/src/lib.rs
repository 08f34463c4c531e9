//! Stand-in for the part of `rayon` this repository uses:
//! `Vec::into_par_iter().map(f).collect()` and
//! `slice.par_iter_mut().for_each(f)`. The sandbox the benchmark is
//! built in has no crate registry, so the benchmark's manifest patches
//! this crate in.
//!
//! Each call runs its items on scoped `std` threads, at most
//! `available_parallelism()` of them, which pull the next item from a
//! shared queue — the load balance of a work-stealing pool for the few,
//! large items `supmr-merge` submits, without the resident pool. The
//! thread spawns cost tens of microseconds per call against merges that
//! take tens of milliseconds.

use std::sync::Mutex;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

fn width(items: usize) -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(items)
}

/// Applies `f` to every item on up to [`width`] threads and returns the
/// results in item order.
fn run_ordered<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = width(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let total = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let next = || queue.lock().expect("no user code runs under the queue lock").next();
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((index, item)) = next() {
                        done.push((index, f(item)));
                    }
                    done
                })
            })
            .collect();
        let mut all = Vec::with_capacity(total);
        for worker in workers {
            match worker.join() {
                Ok(done) => all.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_ordered(self.items, f);
    }
}

pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_ordered(self.items, self.f).into_iter().collect()
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_keeps_item_order() {
        let squares: Vec<u64> =
            (0..1000u64).collect::<Vec<_>>().into_par_iter().map(|x| x * x).collect();
        assert!(squares.iter().enumerate().all(|(i, &s)| s == (i * i) as u64));
    }

    #[test]
    fn par_iter_mut_reaches_every_element() {
        let mut runs = vec![vec![3, 1, 2], vec![9, 8], vec![], vec![5]];
        runs.par_iter_mut().for_each(|run| run.sort_unstable());
        assert_eq!(runs, vec![vec![1, 2, 3], vec![8, 9], vec![], vec![5]]);
    }
}
