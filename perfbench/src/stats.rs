//! Order statistics over measured samples.

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of unsorted samples, `0.0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// 99th percentile of unsorted samples, `0.0` when there are none.
pub fn p99(samples: &[f64]) -> f64 {
    quantile(samples, 0.99).unwrap_or(0.0)
}

/// Arithmetic mean, `0.0` when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the 99th percentile — the tail a p99 rests on.
pub fn beyond_p99(samples: &[f64]) -> usize {
    let cut = p99(samples);
    samples.iter().filter(|&&x| x > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(p99(&v), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
