//! Host-speed calibration: a fixed piece of work that does not call the
//! program under test, timed after every set-up and every timed run.
//!
//! A shared host's speed drifts by up to 2× within minutes, far more
//! than the program changes between two commits. The calibration runs on
//! as many threads and in the same minutes as the program, so the ratio
//! `REFERENCE_SECS / calibration seconds` says how fast the host ran;
//! the end-to-end times are scaled by it to seconds at the reference
//! speed. The calibration never changes with the program, so a faster
//! program still reads faster.

use crate::host;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration thread takes at the reference speed. Times
/// scaled by [`Speed`] read as seconds on a host that runs the
/// calibration in this long.
pub const REFERENCE_SECS: f64 = 0.2;

/// Slots of each thread's count table: 64 MiB of `u32`, far past the
/// last-level cache, like the program's count tables.
const TABLE_SLOTS: usize = 1 << 24;

/// Keys each thread hashes, sorts and counts.
const KEYS: usize = 1 << 20;

/// Counting passes over the sorted keys, each with its own slot order.
const PASSES: u64 = 4;

/// Steps of each thread's dependent hash chain, the arithmetic-bound
/// part of the work.
const CHAIN: usize = 10_000_000;

/// One timed calibration.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds, all threads.
    pub cpu: f64,
}

/// Runs the calibration once on `threads` threads, each on its own keys.
/// The program must be idle meanwhile: the CPU time is the process's.
pub fn measure(threads: usize) -> Result<Sample, String> {
    let cpu0 = host::cpu_seconds()?;
    let t = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            s.spawn(move || black_box(work(i as u64)));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds()? - cpu0;
    eprintln!("calibration: wall {wall:.3} s, cpu {cpu:.2} s");
    Ok(Sample { wall, cpu })
}

/// How fast the host ran, from the calibrations of one phase of an
/// invocation.
pub struct Speed {
    /// Wall-time factor: reference seconds per measured second.
    pub wall: f64,
    /// CPU-time factor, likewise.
    pub cpu: f64,
}

impl Speed {
    /// Factors from the median calibration, so that one calibration
    /// caught by a passing stall does not move them.
    pub fn of(samples: &[Sample], threads: usize) -> Speed {
        let wall = crate::median(samples.iter().map(|s| s.wall));
        let cpu = crate::median(samples.iter().map(|s| s.cpu));
        Speed {
            wall: REFERENCE_SECS / wall,
            cpu: REFERENCE_SECS * threads as f64 / cpu,
        }
    }
}

/// Runs a chain of dependent hashes, then hashes pseudo-random keys,
/// sorts them and counts them into a table several times over, as the
/// program hashes, sorts and counts k-mers.
fn work(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..CHAIN {
        x = splitmix64(x);
    }
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x = splitmix64(x);
            x
        })
        .collect();
    keys.sort_unstable();
    let mut table = vec![0u32; TABLE_SLOTS];
    for pass in 0..PASSES {
        for &k in &keys {
            let slot = splitmix64(k ^ pass) as usize & (TABLE_SLOTS - 1);
            table[slot] = table[slot].wrapping_add(1);
        }
    }
    table.iter().map(|&c| u64::from(c) * u64::from(c)).sum()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
