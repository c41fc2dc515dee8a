//! Order statistics, the output digest and the process's peak memory.

/// FNV-1a, 64 bit: the digest of fixtures and of workload outputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile a sample of `n` supports: p90 when at least ten samples
/// lie beyond it (`n >= 100`), else the highest percentile that still has ten
/// samples beyond it, and never below the median.
pub fn tail_percentile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.9)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// driver's acceptance statistic). `None` below two values or at median 0.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (v.len() + 1) / 4).clamp(1, v.len() - 1);
        let delta = (i * (v.len() + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / m.abs())
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(600), 0.9);
        assert_eq!(tail_percentile(100), 0.9);
        // 40 samples: ten beyond p75.
        assert_eq!(tail_percentile(40), 0.75);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(16), 0.5);
        assert_eq!(tail_percentile(0), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
