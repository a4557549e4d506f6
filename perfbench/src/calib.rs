//! Host speed: a fixed reference workload, timed between jobs.
//!
//! The host is shared, and its speed drifts over minutes: in one set of
//! runs, the same single-threaded set-up took from 0.20 s to 0.30 s from
//! one run to the next, and the jobs of those runs moved with it. The
//! reference workload below is the benchmark's own code, so a change to
//! the program cannot change its time; the time it takes shows how fast
//! the host runs at that moment. A run reports its end-to-end times scaled
//! by `NOMINAL_S` over the median reference time of the run: the time the
//! run would have taken on a host running the reference in `NOMINAL_S`.
//!
//! Each sample runs in a child process, so that the reference's memory
//! does not count in the benchmark process's high-water mark.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The argument that makes the benchmark binary time one reference run,
/// print its seconds and exit.
pub const SAMPLE_FLAG: &str = "--reference-sample";

/// About the median reference time on a 2-core Intel Xeon VM, where run
/// medians ranged from 0.17 s to 0.29 s. A fixed constant, so scaled times
/// keep their units and their size.
pub const NOMINAL_S: f64 = 0.25;

/// Times one reference run in a child process and waits for it to end.
pub fn sample() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("reference sample: {e}"))?;
    let out = Command::new(exe)
        .arg(SAMPLE_FLAG)
        .output()
        .map_err(|e| format!("reference sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() && s > 0.0 => Ok(s),
        _ => Err(format!("reference sample failed: {}", out.status)),
    }
}

/// Runs the reference workload on two threads, as many as a job uses, and
/// returns its wall time.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| work(1));
        work(2);
    });
    t.elapsed().as_secs_f64()
}

/// String building, hashing, sorting and dependent reads over a table
/// larger than a core's cache: the kinds of work a job does.
fn work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<String, u32> = HashMap::new();
    for _ in 0..100_000 {
        let v = next();
        *counts.entry(format!("tok{}-{}", v % 40_000, (v >> 32) % 7)).or_default() += 1;
    }
    let mut values: Vec<u64> = (0..400_000).map(|_| next()).collect();
    values.sort_unstable();
    let n = 1usize << 20;
    let table: Vec<u64> = (0..n).map(|_| next()).collect();
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..1_000_000 {
        acc = acc.wrapping_add(table[i]);
        i = ((table[i] ^ acc) as usize) & (n - 1);
    }
    black_box(counts.len() as u64 + values[values.len() / 2] + acc)
}
