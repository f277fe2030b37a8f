//! Host fingerprint printed with every result.

use spmv_smp::stream::run_stream;
use spmv_smp::ThreadTeam;

/// Bytes per MiB.
const MIB: usize = 1 << 20;

/// Footprint of the in-cache STREAM run (three arrays together).
pub const IN_CACHE_MIB: usize = 48;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The largest cache level the kernel reports for CPU 0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, MIB),
                None => (size, 1),
            },
        };
        num.parse::<usize>().ok().map(|v| v * mult)
    })
    .max()
}

/// Out-of-cache STREAM footprint: at least four times the reported last
/// level cache (256 MiB when the host reports none), rounded up to MiB.
pub fn out_of_cache_mib(llc: Option<usize>) -> usize {
    (4 * llc.unwrap_or(64 * MIB)).div_ceil(MIB)
}

/// STREAM triad GB/s (write-allocate counted) with `threads` threads on
/// three arrays totalling `footprint_mib`; best of `reps`.
pub fn triad_gbs(threads: usize, footprint_mib: usize, reps: usize) -> f64 {
    let team = ThreadTeam::new(threads);
    run_stream(&team, footprint_mib * MIB / 3 / 8, reps).triad_gbs
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_cache_is_four_times_the_llc() {
        assert_eq!(out_of_cache_mib(Some(300 * MIB)), 1200);
        assert_eq!(out_of_cache_mib(None), 256);
    }
}
