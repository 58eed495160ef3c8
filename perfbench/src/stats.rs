//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark prints comes from the full sample, never
//! from a bucketed histogram, and travels with its sample count. A tail
//! is taken only at a percentile that has at least [`TAIL_BEYOND`]
//! samples beyond it.

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A quantile as printed: its value, the percentile it was taken at and
/// the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the `(n − 1)·q` rule); `None` when empty.
/// Sorts `samples` in place. Generic so that raw `u32` span samples
/// need no widened copy.
pub fn quantile<T: Copy + Into<f64>>(samples: &mut [T], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(|a, b| (*a).into().total_cmp(&(*b).into()));
    let pos = (samples.len() - 1) as f64 * q;
    let lo: f64 = samples[pos.floor() as usize].into();
    let hi: f64 = samples[pos.ceil() as usize].into();
    Some(lo + (hi - lo) * (pos - pos.floor()))
}

/// The median of `samples`; `None` when empty.
pub fn median<T: Copy + Into<f64>>(samples: &mut [T]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The tail of `samples` at `q_max`, or — when fewer than
/// [`TAIL_BEYOND`] samples lie beyond `q_max` — at the highest
/// percentile that has that many beyond it. `None` when that
/// percentile would not lie above the median.
pub fn tail<T: Copy + Into<f64>>(samples: &mut [T], q_max: f64) -> Option<Quantile> {
    let n = samples.len();
    let q = q_max.min(1.0 - TAIL_BEYOND as f64 / n.max(1) as f64);
    if q <= 0.5 {
        return None;
    }
    quantile(samples, q).map(|value| Quantile { value, q, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_inputs() {
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&mut v), Some(3.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(5.0));
        assert_eq!(quantile(&mut v, 0.25), Some(2.0));
        // Even count: interpolates between the two middle samples.
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
        // 0..=100: the p-th percentile is p itself.
        let mut v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
        assert_eq!(median::<f64>(&mut []), None);
        // Raw integer samples give the same answers.
        let mut v: Vec<u32> = vec![4, 1, 3, 2];
        assert_eq!(median(&mut v), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99, so p99 stands.
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&mut v, 0.99).unwrap();
        assert_eq!((t.q, t.n), (0.99, 1000));
        assert!((t.value - 989.01).abs() < 1e-9);
        // 200 samples: p99 would have two beyond; p95 has ten.
        let mut v: Vec<f64> = (0..200).map(f64::from).collect();
        let t = tail(&mut v, 0.99).unwrap();
        assert!((t.q - 0.95).abs() < 1e-12);
        assert!((t.value - 189.05).abs() < 1e-9);
        // 20 samples: the only admissible percentile is the median.
        let mut v = vec![1.0; 20];
        assert_eq!(tail(&mut v, 0.99), None);
        assert_eq!(tail::<f64>(&mut [], 0.99), None);
    }
}
