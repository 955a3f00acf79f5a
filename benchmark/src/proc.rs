//! What the benchmark reads from `/proc` and the clock: peak and current
//! resident memory, CPU time per named thread, and the filesystem a
//! directory lives on. Linux only; a missing file reads as zero.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn status_kib(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") as f64 / 1024.0
}

/// CPU time (running on a core) per thread name, in nanoseconds, summed
/// over threads that share a name. Read from `schedstat`, which counts
/// in nanoseconds where `stat` counts in 10 ms ticks.
pub fn thread_cpu_ns() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()))
            .unwrap_or(0);
        *out.entry(name.trim().to_string()).or_insert(0) += ns;
    }
    out
}

/// CPU time the calling thread has used so far. A thread that is about
/// to end reports its own, because `/proc` forgets it when it does.
pub fn this_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU nanoseconds of the threads whose name starts with `prefix`.
pub fn cpu_of(cpu: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    cpu.iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, ns)| ns).sum()
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine: steal is
/// time the hypervisor ran someone else while this VM had work to do.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else { return (0, 0) };
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .map(|l| l.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
}

/// Tells glibc's allocator to keep what is freed: no block below 32 MiB
/// gets a mapping of its own and the heap's top is never given back. Left
/// to itself it returns and re-faults the 160 KiB vector of every long
/// `scan_collect` — in `engine_batch_scan` 300 000 page faults a second, a
/// sixth of the CPU time, and in a VM each fault of a fresh page is the
/// host's to serve: the workload measured the host's mood (and scanned at
/// little over half the speed). `main` calls it first thing. Elsewhere
/// than on glibc it does nothing.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes plain integers and only sets tunables of
        // the allocator; no other thread exists yet.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
        }
    }
}

/// A CPU set as the kernel takes it; the benchmark only ever uses the
/// first 64 CPUs of it.
type CpuSet = [u64; 16];

/// The CPUs (of the first 64) this process could run on when it started,
/// as a bit mask; 0 when the kernel will not say. `main` calls it before
/// any thread is confined.
pub fn cpus_at_start() -> u64 {
    static CPUS: OnceLock<u64> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // into `set`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc == 0 {
            set[0]
        } else {
            0
        }
    })
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to the CPUs in `mask`. Best effort: an empty mask or a refusal leaves
/// the thread where it was.
pub fn run_on(mask: u64) {
    if mask != 0 {
        let mut set: CpuSet = [0; 16];
        set[0] = mask;
        // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `set`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

fn cpu_bits(mask: u64) -> impl Iterator<Item = u32> {
    (0..64).filter(move |bit| mask >> bit & 1 == 1)
}

/// Confines the calling thread to the `lane`-th CPU (wrapping round), so
/// that the threads of an engine workload never share a core while
/// another sits idle.
pub fn run_on_nth(lane: u64) {
    let all = cpus_at_start();
    let n = all.count_ones() as u64;
    if let Some(bit) = cpu_bits(all).nth((lane % n.max(1)) as usize) {
        run_on(1 << bit);
    }
}

/// The CPUs split into the server's half (the lower ones) and the load
/// generator's; with a single CPU both get it.
pub fn split_cpus() -> (u64, u64) {
    let all = cpus_at_start();
    let n = all.count_ones() as usize;
    if n < 2 {
        return (all, all);
    }
    let server = cpu_bits(all).take(n / 2).fold(0, |mask, bit| mask | 1 << bit);
    (server, all & !server)
}

/// Lowers the calling thread's timer slack from the default 50 µs to the
/// minimum, so that its sleeps end as close to on time as the kernel can
/// manage. Best effort: a failure leaves the default in place.
pub fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes plain integers, touches
    // no memory of ours and only changes a scheduling hint of this thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// The traced binary's allocator: the system allocator, counting live
/// bytes, so that a structure's footprint is a count that repeats
/// exactly (a resident-set delta does not: freed pages get reused).
#[cfg(feature = "counters")]
pub mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicIsize, Ordering};

    static LIVE: AtomicIsize = AtomicIsize::new(0);

    pub struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter is a statistic only.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            // SAFETY: the caller's contract, forwarded verbatim.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            // SAFETY: the caller's contract, forwarded verbatim.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    pub fn live_bytes() -> Option<isize> {
        Some(LIVE.load(Ordering::Relaxed))
    }
}

#[cfg(not(feature = "counters"))]
pub mod heap {
    /// `None`: this binary does not count allocations.
    pub fn live_bytes() -> Option<isize> {
        None
    }
}
