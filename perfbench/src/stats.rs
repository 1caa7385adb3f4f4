//! Small measurement helpers: percentiles, a seeded generator, and the
//! process's resident-memory high-water mark.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample set ascending (NaN-safe total order).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample set.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// SplitMix64: a tiny, well-mixed, seedable generator. The benchmark's
/// inputs and request streams derive from it alone, so one seed always
/// gives the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: return free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Whose CPU time [`cpu_seconds`] reads.
#[derive(Clone, Copy, Debug)]
pub enum CpuScope {
    /// Every thread of the process, finished ones included.
    Process,
    /// The calling thread.
    Thread,
}

#[cfg(target_os = "linux")]
mod rusage {
    /// `struct timeval` of the Linux C ABI.
    #[repr(C)]
    pub struct Timeval {
        pub sec: std::ffi::c_long,
        pub usec: std::ffi::c_long,
    }

    /// `struct rusage` of the Linux C ABI: two timevals, then 14 longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub rest: [std::ffi::c_long; 14],
    }

    extern "C" {
        pub fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
    }
}

/// User + system CPU seconds consumed so far. Linux excludes time the
/// hypervisor stole from the guest, so unlike wall time this does not
/// move with the load other guests put on the host. 0 off Linux.
pub fn cpu_seconds(scope: CpuScope) -> f64 {
    #[cfg(target_os = "linux")]
    {
        let who = match scope {
            CpuScope::Process => 0, // RUSAGE_SELF
            CpuScope::Thread => 1,  // RUSAGE_THREAD
        };
        let mut u = rusage::Rusage {
            utime: rusage::Timeval { sec: 0, usec: 0 },
            stime: rusage::Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `u` is a properly aligned, writable `struct rusage` that
        // outlives the call, and `who` is a valid selector.
        if unsafe { rusage::getrusage(who, &mut u) } != 0 {
            return 0.0;
        }
        let secs = |t: &rusage::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        secs(&u.utime) + secs(&u.stime)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = scope;
        0.0
    }
}

/// CPU time (ms, every thread) spent in `f`, and its result.
pub fn cpu_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let c0 = cpu_seconds(CpuScope::Process);
    let out = f();
    ((cpu_seconds(CpuScope::Process) - c0) * 1e3, out)
}

/// Reset the kernel's resident high-water mark (`VmHWM`) so a later
/// [`peak_rss_mib`] covers only what follows. Free heap memory that the
/// set-up left behind is handed back first, so the mark starts from live
/// data rather than from whatever the allocator happened to keep.
/// Returns false where `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own state under its locks, and is safe to call from any
    // thread at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Resident high-water mark (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (ms, x) = cpu_ms(|| (0..20_000_000u64).fold(0u64, |a, i| a.wrapping_add(i * i)));
        assert!(std::hint::black_box(x) > 0);
        assert!(ms > 0.0);
        assert!(cpu_seconds(CpuScope::Thread) > 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| (3..=5).contains(&r.range(3, 5))));
    }
}
