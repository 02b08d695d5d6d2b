//! Exact sample statistics: every latency is kept as a raw sample, so a
//! reported quantile is an observed value, never a histogram bucket edge.

/// Raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Quantile `q` by linear interpolation between order statistics
    /// (the "type 7" estimator). `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Quantile `q` as the median over consecutive blocks of at least
    /// `min_block` samples (at most `max_blocks` of them), which keeps one
    /// burst from setting a tail; pooled when fewer than two blocks fit.
    /// Returns the value and the number of blocks.
    pub fn block_quantile(&self, q: f64, min_block: usize, max_blocks: usize) -> (f64, usize) {
        let blocks = (self.0.len() / min_block.max(1)).min(max_blocks);
        if blocks < 2 {
            return (self.quantile(q), 1);
        }
        let size = self.0.len() / blocks;
        let per: Vec<f64> = self
            .0
            .chunks(size)
            .take(blocks)
            .map(|b| quantile(b, q))
            .collect();
        (median(&per), blocks)
    }

    /// Samples strictly above quantile `q`: how much a tail percentile
    /// can be trusted (it should be at least ten).
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.0.iter().filter(|&&v| v > cut).count()
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Throughput (ops/s) of each of `blocks` consecutive, equally long runs
/// of `(ops, µs)` calls; one stall then sets one block's rate, not the
/// whole slice's.
pub fn block_rates(calls: &[(f64, f64)], blocks: usize) -> Vec<f64> {
    let size = calls.len().div_ceil(blocks.max(1)).max(1);
    calls
        .chunks(size)
        .map(|b| b.iter().map(|c| c.0).sum::<f64>() * 1e6 / b.iter().map(|c| c.1).sum::<f64>())
        .collect()
}

/// Least-squares line `y = a + b·x`; returns `(a, b)`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (f64::NAN, f64::NAN);
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = Samples((1..=5).map(f64::from).collect());
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(0.9), 4.6);
        assert_eq!(s.beyond(0.5), 2);
    }

    #[test]
    fn block_quantile_takes_the_median_block() {
        let mut v: Vec<f64> = vec![1.0; 3000];
        v[10] = 1e6; // one burst in the first block
        let s = Samples(v);
        assert_eq!(s.block_quantile(1.0, 1000, 5), (1.0, 3));
        assert_eq!(s.block_quantile(1.0, 5000, 5), (1e6, 1));
    }

    #[test]
    fn block_rates_split_evenly() {
        let calls = [(10.0, 1e6), (10.0, 1e6), (30.0, 1e6), (30.0, 1e6)];
        assert_eq!(block_rates(&calls, 2), vec![10.0, 30.0]);
    }

    #[test]
    fn fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|x| (f64::from(x), 3.0 + 2.0 * f64::from(x)))
            .collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}
