//! Host probe, process memory and run metadata.
//!
//! The probes are a fixed single-threaded CPU loop and a fixed memory walk,
//! timed at the start and the end of every workload.  They are recorded
//! with the run, never gated: their only job is to let a reader tell a
//! slow host state from a slow change.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Median over five repetitions of a fixed integer-mixing loop, in ms.
pub fn probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x1234_5678_9abc_def0u64);
            for i in 0..4_000_000u64 {
                x = (x ^ (x >> 31))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Median over three walks of a random cycle through 32 MiB, in ms: the
/// memory-bound counterpart of [`probe_ms`].  Grouping and merging are
/// memory-bound, and a host whose memory is contended slows them while
/// the CPU loop stays fast.
pub fn memory_probe_ms() -> f64 {
    const SLOTS: usize = 1 << 23;
    // Sattolo's shuffle: `next` is one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut at = 0u32;
            for _ in 0..1_000_000 {
                at = next[at as usize];
            }
            black_box(at);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    })
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM").map_or(0.0, |k| k / 1024.0)
}

/// Current resident set size (VmRSS), in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS").map_or(0.0, |k| k * 1024.0)
}

/// Resident bytes when the run started, before any input was generated
/// (recorded by the first call).
pub fn rss_baseline() -> f64 {
    static BASELINE: OnceLock<f64> = OnceLock::new();
    *BASELINE.get_or_init(rss_bytes)
}

/// The checkout's git revision, read from `.git` without running git, or
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPUs the process may run on when it starts (recorded by the first
/// call, so call it before [`pin_to_one_cpu`]).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins this process, and the threads and processes it starts later, to
/// the last CPU it may run on, and returns that CPU (`None` where pinning
/// is not available).  Call it before starting any thread.
///
/// The client and the server threads take turns: with one client at most
/// one of them has work at a time, so one CPU serves them all.  Unpinned,
/// the scheduler places the threads of each run on the same or on
/// different CPUs and keeps them there, and a cheap request's round trip
/// then differs by a cross-CPU wake-up between runs.  The same CPU every
/// run, so runs do not differ by which CPU they got either.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable CPU set of `size` bytes, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: as above, for a set that holds one CPU.
        let set = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
        (set == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");
