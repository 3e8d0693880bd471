//! Process-level resource readings from Linux `/proc`, taken around one
//! run inside this process.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, across all of its
/// threads, including threads that have already exited.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain. `utime` and `stime` are fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat: no command-name field")?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Resets this process's peak resident set size to its current size, so
/// the next [`peak_rss_bytes`] covers only what ran in between.
///
/// Memory the allocator kept from earlier runs and set-up is handed back
/// first, so that the current size is the floor a fresh `dedukt count`
/// process would start from, not whatever the last run left behind.
pub fn reset_peak_rss() -> Result<(), String> {
    release_free_heap();
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Returns the allocator's free heap memory to the kernel (glibc
/// `malloc_trim`); other C libraries keep theirs.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and only releases
        // memory that no allocation holds.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size (`VmHWM`) since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}
