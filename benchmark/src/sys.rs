//! What the benchmark reads from the operating system, and the one
//! scratch directory it writes to.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// CPU seconds (user + system) this process has used, all threads, exited
/// ones included, at nanosecond resolution.
///
/// This is `CLOCK_PROCESS_CPUTIME_ID`, the quantity `/proc/self/stat`
/// reports as utime + stime, without that file's 10 ms ticks: a job of a
/// few hundred milliseconds would otherwise read in steps of several
/// percent.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` with
    // the layout the C library uses on 64-bit Linux (two 64-bit fields),
    // the only platform this benchmark supports (it also reads `/proc`).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Return the allocator to the state a fresh process has: free chunks
/// coalesced, free pages handed back to the kernel.
///
/// A sort job allocates and frees over a million small vectors. Left
/// alone, glibc keeps them in per-size free lists in the order they were
/// freed, and the next job in the same process is handed that scrambled
/// memory: it runs up to twice as slow, by an amount that depends on how
/// many jobs the process ran before. A batch job's user runs one job per
/// process, so every batch operation of the benchmark starts from here.
/// (`serve_mix` does not: a daemon's heap ages, and that is its users'
/// experience.)
pub fn reset_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and may be called at any
        // time from any thread; it only reorganises the allocator's own
        // free memory.
        unsafe { malloc_trim(0) };
    }
}

/// Peak resident set (`VmHWM`) of this process in MB. 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Restart the peak-resident-set watermark at the current resident set
/// (`/proc/self/clear_refs`, Linux ≥ 4.0), so the next [`peak_rss_mb`] is
/// the peak since this call. Where the kernel refuses, the watermark
/// stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The benchmark's scratch directory: every input file and spill run
/// lives under it, and dropping it removes them — on success, on a
/// failed check, and on a panic's unwind alike.
///
/// It sits under the working directory (`.bench_tmp/`), not the system
/// temp dir: the benchmark may only write inside its checkout.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        // The counter keeps two workloads set up in one process (the tests
        // do that) out of each other's files.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(".bench_tmp").join(format!(
            "supmr-benchmark-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only when no other benchmark process is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb() > 0.5, "a running process holds more than half a megabyte");
        assert!(nproc() >= 1);
    }
}
