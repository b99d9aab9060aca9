//! Percentiles, medians and the run-to-run spread.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_GUARD: usize = 10;

/// The highest tail quantile `n` samples support with at least
/// [`TAIL_GUARD`] samples beyond it; `None` below 40 samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| n - rank(n, q) >= TAIL_GUARD)
}

/// Nearest rank of quantile `q` among `n` samples, 1-based (the small
/// slack keeps `100 * 0.9` from landing on rank 91).
fn rank(n: usize, q: f64) -> usize {
    (((n as f64) * q - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Median, tail percentile and rate of one measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The quantile `tail_ms` was read at (0.99 when the window is sized
    /// as intended).
    pub tail_q: f64,
    pub per_s: f64,
}

/// Summarise `(completion offset s, latency ms)` samples of a window of
/// `window_s` seconds. The window is cut into up to `slices` equal parts
/// that each support a p99, and the median over the parts is reported,
/// so that one disturbed stretch does not set the run's number.
pub fn summarize(samples: &[(f64, f64)], window_s: f64, slices: usize) -> Summary {
    let n = samples.len();
    let per_slice_floor = (TAIL_GUARD as f64 / 0.01).ceil() as usize + 100;
    let parts = slices.min(n / per_slice_floor).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(at, ms) in samples {
        let idx = ((at / window_s) * parts as f64) as usize;
        buckets[idx.min(parts - 1)].push(ms);
    }

    let tail_q = buckets
        .iter()
        .map(|b| tail_quantile(b.len()).unwrap_or(0.5))
        .fold(0.99, f64::min);
    let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for b in &mut buckets {
        b.sort_by(f64::total_cmp);
        p50s.push(quantile(b, 0.5));
        tails.push(quantile(b, tail_q));
        rates.push(b.len() as f64 / (window_s / parts as f64));
    }
    Summary {
        samples: n,
        p50_ms: median(&p50s),
        tail_ms: median(&tails),
        tail_q,
        per_s: median(&rates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1100), Some(0.99));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        for n in [40usize, 137, 1000, 5000] {
            let q = tail_quantile(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = quantile(&sorted, q);
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_GUARD, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_takes_the_median_over_slices() {
        // Three slices of 1200 samples; the middle one is disturbed.
        let mut samples = Vec::new();
        for s in 0..3 {
            for i in 0..1200 {
                let at = s as f64 + i as f64 / 1200.0;
                let ms = if s == 1 { 9.0 } else { 1.0 };
                samples.push((at, ms));
            }
        }
        let sum = summarize(&samples, 3.0, 3);
        assert_eq!(sum.samples, 3600);
        assert_eq!(sum.p50_ms, 1.0);
        assert_eq!(sum.tail_q, 0.99);
        assert!((sum.per_s - 1200.0).abs() < 1e-9);
        // Too few samples for slices: one part, lower tail quantile.
        let few: Vec<(f64, f64)> = (0..150).map(|i| (i as f64 / 150.0, 1.0)).collect();
        assert_eq!(summarize(&few, 1.0, 5).tail_q, 0.9);
    }
}
