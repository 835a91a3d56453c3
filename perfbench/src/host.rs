//! Host calibration: a fixed reference kernel timed next to every op.
//!
//! The machine this runs on may be shared, so its speed drifts from run
//! to run. Every timed op is preceded by one run of [`ref_kernel`]; an op's
//! calibrated time is its wall time scaled by [`REF_NOMINAL_MS`] over
//! the reference time adjacent to it, i.e. the time the op would have
//! taken on a host where the kernel takes exactly the nominal time.

use std::hint::black_box;
use std::time::Instant;

/// Elements the kernel fills, sorts and hashes: 200k × 8 B ≈ 1.6 MB.
pub const REF_ELEMS: usize = 200_000;

/// The reference kernel's nominal duration. Calibrated times are wall
/// times rescaled to a host on which the kernel takes exactly this long.
pub const REF_NOMINAL_MS: f64 = 10.0;

/// Fill–sort–hash passes per kernel run (about 10 ms in all).
pub const REF_PASSES: usize = 2;

/// Runs the reference kernel once — [`REF_PASSES`] rounds of fill, sort
/// and hash over `REF_ELEMS` words, single-threaded — and returns its
/// wall time in ms.
pub fn ref_kernel() -> f64 {
    let start = Instant::now();
    let mut v: Vec<u64> = vec![0; REF_ELEMS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..REF_PASSES {
        for w in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        black_box(&mut v).sort_unstable();
        for w in &v {
            h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        }
    }
    black_box(h);
    start.elapsed().as_secs_f64() * 1e3
}

/// Scales a wall time by the host-speed factor `REF_NOMINAL_MS / ref_ms`.
pub fn calibrate(wall: f64, ref_ms: f64) -> f64 {
    wall * REF_NOMINAL_MS / ref_ms
}

/// The reference time adjacent to op `i`: the mean of the kernel run
/// just before it and the one just after it (the next op's, or the
/// closing run). `refs` has one entry per op plus the closing run.
pub fn adjacent_ref(refs: &[f64], i: usize) -> f64 {
    (refs[i] + refs[i + 1]) / 2.0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_rescales_to_the_nominal_host() {
        // A host twice as slow as nominal: kernel 20 ms, op 50 ms wall
        // → 25 ms calibrated.
        assert_eq!(calibrate(50.0, 2.0 * REF_NOMINAL_MS), 25.0);
        // At nominal speed the wall time is unchanged.
        assert_eq!(calibrate(7.5, REF_NOMINAL_MS), 7.5);
        // Adjacent reference: mean of the runs before and after.
        let refs = [10.0, 12.0, 14.0];
        assert_eq!(adjacent_ref(&refs, 0), 11.0);
        assert_eq!(adjacent_ref(&refs, 1), 13.0);
    }

    #[test]
    fn ref_kernel_runs_and_reports_positive_time() {
        assert!(ref_kernel() > 0.0);
    }
}
