//! Small measuring helpers: percentiles, peak RSS, directory size.

use std::path::Path;

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `q`-quantile (0..=1) by nearest rank; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Cuts `values`, in order, into as many equal segments of at least
/// `min_len` as fit (at least one), takes each segment's `q`-quantile and
/// returns the median of those. A disturbance that lasts a second shifts
/// one segment, not the result.
pub fn segmented_percentile(values: &[f64], min_len: usize, q: f64) -> f64 {
    let segments = (values.len() / min_len.max(1)).max(1);
    let per: Vec<f64> = (0..segments)
        .map(|k| {
            let (lo, hi) = (
                k * values.len() / segments,
                (k + 1) * values.len() / segments,
            );
            percentile(&values[lo..hi], q)
        })
        .collect();
    median(&per)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn segments_shrug_off_a_burst() {
        let mut v = vec![1.0; 600];
        v[..150].fill(50.0);
        assert_eq!(segmented_percentile(&v, 200, 0.95), 1.0);
        assert_eq!(percentile(&v, 0.95), 50.0);
        assert_eq!(segmented_percentile(&[2.0, 4.0], 200, 0.5), 2.0);
    }
}
