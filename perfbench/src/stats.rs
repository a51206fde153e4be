//! Order statistics and process resource usage.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between the
/// closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    let weight = position - low as f64;
    Some(sorted[low] * (1.0 - weight) + sorted[high] * weight)
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time (user + system, all threads) and peak resident set size of this
/// process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_mb: f64,
}

pub fn usage() -> Usage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a properly sized and aligned `struct rusage` for
    // 64-bit Linux, and getrusage only writes into it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(&raw.utime) + micros(&raw.stime)),
        peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(4.0));
        assert_eq!(median(&values), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn usage_reports_cpu_and_rss() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu >= before.cpu);
        assert!(after.peak_rss_mb > 0.0);
    }
}
