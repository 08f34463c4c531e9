//! Bandwidth throttling: emulating a slow device on fast hardware.
//!
//! Real-execution experiments need to reproduce the paper's storage
//! environment — a 3-disk RAID-0 capped at 384 MB/s — on machines whose
//! page cache would otherwise serve the scaled-down inputs at tens of
//! GB/s. [`TokenBucket`] implements the standard rate limiter and is the
//! pacing [`Device`]: [`ThrottledSource`] puts it in front of a source, a
//! file set or a run store, so moving B bytes takes ≈ B/rate wall-clock
//! seconds and genuinely overlaps with computation the way a slow device
//! does.
//!
//! The bucket's arithmetic is a pure state machine over nanosecond
//! timestamps ([`BucketState`]) so its invariants are unit- and
//! property-testable without sleeping; the blocking wrapper adds real
//! time.

use crate::shape::{Device, Shaped, Transfer};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use supmr_metrics::unpoisoned;

/// Pure token-bucket arithmetic over a nanosecond clock.
///
/// Tokens are bytes. The bucket refills continuously at `rate` bytes/sec
/// up to `burst` bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketState {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    available: f64,
    last_refill_nanos: u64,
}

impl BucketState {
    /// New bucket, full at time `now_nanos`.
    ///
    /// # Panics
    /// Panics if `rate` or `burst` is not positive and finite.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, now_nanos: u64) -> BucketState {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "rate must be positive"
        );
        assert!(burst_bytes.is_finite() && burst_bytes > 0.0, "burst must be positive");
        BucketState {
            rate_bytes_per_sec,
            burst_bytes,
            available: burst_bytes,
            last_refill_nanos: now_nanos,
        }
    }

    /// Refill for elapsed time. Clock must be monotone; earlier timestamps
    /// are ignored.
    pub fn refill(&mut self, now_nanos: u64) {
        if now_nanos <= self.last_refill_nanos {
            return;
        }
        let dt = (now_nanos - self.last_refill_nanos) as f64 / 1e9;
        self.available = (self.available + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last_refill_nanos = now_nanos;
    }

    /// Take up to `want` tokens; returns how many were granted (possibly
    /// zero). Partial grants let large reads stream at the configured
    /// rate instead of stalling for one huge refill.
    pub fn take(&mut self, want: u64, now_nanos: u64) -> u64 {
        self.refill(now_nanos);
        let granted = (self.available.floor() as u64).min(want);
        self.available -= granted as f64;
        granted
    }

    /// Time until at least `want.min(burst)` tokens will be available.
    pub fn time_until_available(&self, want: u64) -> Duration {
        let want = (want as f64).min(self.burst_bytes);
        let deficit = want - self.available;
        if deficit <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(deficit / self.rate_bytes_per_sec)
        }
    }

    /// Currently available tokens (whole bytes).
    pub fn available(&self) -> u64 {
        self.available.max(0.0) as u64
    }

    /// Configured rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.rate_bytes_per_sec
    }
}

/// A thread-safe, blocking token bucket over the wall clock.
///
/// Cloning shares the underlying bucket, so several endpoints contend
/// for the same device bandwidth (e.g. the `supmr` CLI's ingest source
/// and spill run store under one `--throttle` rate).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    state: Arc<Mutex<BucketState>>,
    epoch: Instant,
}

impl TokenBucket {
    /// A bucket that sustains `rate_bytes_per_sec` with a burst of one
    /// tenth of a second of traffic (min 64KiB) — small enough that pacing
    /// is smooth, large enough that syscall-sized reads don't thrash.
    pub fn new(rate_bytes_per_sec: f64) -> TokenBucket {
        let burst = (rate_bytes_per_sec / 10.0).max(64.0 * 1024.0);
        TokenBucket::with_burst(rate_bytes_per_sec, burst)
    }

    /// A bucket with an explicit burst size in bytes.
    pub fn with_burst(rate_bytes_per_sec: f64, burst_bytes: f64) -> TokenBucket {
        TokenBucket {
            state: Arc::new(Mutex::new(BucketState::new(rate_bytes_per_sec, burst_bytes, 0))),
            epoch: Instant::now(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Block until `n` bytes of budget have been consumed.
    ///
    /// Sleeps for the computed refill time between grants rather than
    /// polling: a continuously-refilling bucket would otherwise hand out
    /// a few bytes every wake-up and turn "waiting for the disk" into a
    /// busy-spin — which would corrupt the CPU-utilization traces this
    /// throttle exists to make realistic.
    pub fn acquire(&self, mut n: u64) {
        while n > 0 {
            let (granted, wait) = {
                let mut st = unpoisoned(self.state.lock());
                let got = st.take(n, self.now_nanos());
                let remaining = n - got;
                let wait =
                    if remaining > 0 { st.time_until_available(remaining) } else { Duration::ZERO };
                (got, wait)
            };
            n -= granted;
            if n > 0 {
                // Cap sleeps so wake-ups stay responsive for small
                // rates, and floor them so this never degrades into a
                // spin.
                std::thread::sleep(
                    wait.min(Duration::from_millis(50)).max(Duration::from_millis(1)),
                );
            }
        }
    }

    /// Non-blocking acquire of up to `n` bytes; returns bytes granted.
    pub fn try_acquire(&self, n: u64) -> u64 {
        unpoisoned(self.state.lock()).take(n, self.now_nanos())
    }

    /// Configured rate in bytes/second.
    pub fn rate(&self) -> f64 {
        unpoisoned(self.state.lock()).rate()
    }
}

impl Device for TokenBucket {
    /// Pace: the transfer returns once its bytes have drawn their tokens.
    fn after(&self, _: Transfer, bytes: u64, _: Duration) {
        self.acquire(bytes);
    }

    fn describe(&self, inner: String) -> String {
        format!("{inner} @ {:.1} MB/s", self.rate() / (1024.0 * 1024.0))
    }
}

/// A source, file set or run store paced through a [`TokenBucket`].
pub type ThrottledSource<T> = Shaped<T, TokenBucket>;

impl<T> ThrottledSource<T> {
    /// Pace `inner` at `rate_bytes_per_sec` with a private bucket.
    pub fn new(inner: T, rate_bytes_per_sec: f64) -> Self {
        Self::with_bucket(inner, TokenBucket::new(rate_bytes_per_sec))
    }

    /// Pace `inner` through a (possibly shared) bucket: share the ingest
    /// bucket with a run store and spill traffic competes with ingest
    /// for the same simulated device, like a real disk.
    pub fn with_bucket(inner: T, bucket: TokenBucket) -> Self {
        Shaped { inner, device: bucket }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DataSource, FileSet, MemFileSet, MemSource, SourceExt};

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn bucket_state_starts_full_and_refills_to_burst() {
        let mut b = BucketState::new(1000.0, 500.0, 0);
        assert_eq!(b.available(), 500);
        assert_eq!(b.take(400, 0), 400);
        assert_eq!(b.available(), 100);
        // After 10 seconds it has refilled, but only to burst.
        b.refill(10 * SEC);
        assert_eq!(b.available(), 500);
    }

    #[test]
    fn bucket_state_grants_partially() {
        let mut b = BucketState::new(100.0, 100.0, 0);
        assert_eq!(b.take(250, 0), 100);
        assert_eq!(b.take(150, SEC), 100);
        assert_eq!(b.take(50, 2 * SEC - 1), 50); // 0.999…s refill covers it
        assert_eq!(b.available(), 49); // 99.99… − 50, floored
    }

    #[test]
    fn bucket_state_rate_is_respected_over_time() {
        // Draining continuously for 10 virtual seconds at rate R grants
        // at most burst + 10R bytes.
        let mut b = BucketState::new(1_000.0, 200.0, 0);
        let mut granted = 0;
        for t in 0..=10_000u64 {
            granted += b.take(u64::MAX, t * SEC / 1000);
        }
        assert!(granted <= 200 + 10_000 + 1, "granted {granted}");
        assert!(granted >= 10_000, "granted {granted}");
    }

    #[test]
    fn bucket_state_ignores_backwards_clock() {
        let mut b = BucketState::new(100.0, 100.0, SEC);
        b.take(100, SEC);
        b.refill(0); // earlier than last refill
        assert_eq!(b.available(), 0);
    }

    #[test]
    fn time_until_available_caps_at_burst() {
        let b = {
            let mut b = BucketState::new(100.0, 50.0, 0);
            b.take(50, 0);
            b
        };
        // Wanting 1000 bytes > burst: wait only until burst is full.
        assert!((b.time_until_available(1000).as_secs_f64() - 0.5).abs() < 1e-6);
        assert!((b.time_until_available(10).as_secs_f64() - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        BucketState::new(0.0, 10.0, 0);
    }

    #[test]
    fn blocking_bucket_paces_wall_clock() {
        // 1 MB/s, acquire 200KB beyond the 64KiB min-burst => >=0.1s.
        let bucket = TokenBucket::with_burst(1_000_000.0, 64.0 * 1024.0);
        bucket.acquire(64 * 1024); // drain the initial burst
        let t0 = Instant::now();
        bucket.acquire(150_000);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.10, "took {dt}s, expected >= 0.10s");
        assert!(dt < 2.0, "took {dt}s, expected well under 2s");
    }

    #[test]
    fn try_acquire_never_blocks() {
        let bucket = TokenBucket::with_burst(10.0, 100.0);
        assert_eq!(bucket.try_acquire(40), 40);
        assert_eq!(bucket.try_acquire(100), 60);
        assert_eq!(bucket.try_acquire(100), 0);
    }

    #[test]
    fn throttled_source_reads_correctly_and_slowly() {
        let data: Vec<u8> = (0..200_000u32).map(|x| x as u8).collect();
        let rate = 1_000_000.0; // 1 MB/s
        let mut src = ThrottledSource::with_bucket(
            MemSource::from(data.clone()),
            TokenBucket::with_burst(rate, 64.0 * 1024.0),
        );
        assert_eq!(src.len(), data.len() as u64);
        let t0 = Instant::now();
        let out = src.read_all().unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out, data);
        // 200KB at 1MB/s with 64KiB initial burst: >= ~0.13s.
        assert!(dt >= 0.12, "read took {dt}s");
        assert!(src.describe().contains("MB/s"));
    }

    #[test]
    fn throttled_fileset_paces_and_preserves_contents() {
        let files = vec![vec![1u8; 50_000], vec![2u8; 50_000]];
        let mut fs = ThrottledSource::with_bucket(
            MemFileSet::new(files.clone()),
            TokenBucket::with_burst(1_000_000.0, 32.0 * 1024.0),
        );
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.total_len(), 100_000);
        let t0 = Instant::now();
        assert_eq!(fs.read_file(0).unwrap(), files[0]);
        assert_eq!(fs.read_file(1).unwrap(), files[1]);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.05, "reads took {dt}s");
    }

    #[test]
    fn shared_bucket_is_contended() {
        // One device: a source read and a run-store write on two threads
        // draw on one bucket, so together they move at most rate × wall
        // plus one burst.
        use crate::{MemRunStore, RunStore};
        use std::io::Write;
        let bucket = TokenBucket::with_burst(1_000_000.0, 32.0 * 1024.0);
        let mut src =
            ThrottledSource::with_bucket(MemSource::from(vec![0u8; 75_000]), bucket.clone());
        let store = ThrottledSource::with_bucket(MemRunStore::new(), bucket);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| src.read_all().unwrap());
            s.spawn(|| store.create("run").unwrap().write_all(&[0u8; 75_000]).unwrap());
        });
        let dt = t0.elapsed().as_secs_f64();
        // 150KB total minus 32KiB burst at 1MB/s ≈ 0.117s minimum.
        assert!(dt >= 0.117, "combined transfers took {dt}s");
    }
}
