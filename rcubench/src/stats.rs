//! Exact timing statistics. Every end-to-end timing keeps its raw
//! samples, so a quantile is a recorded value, not a bucket bound.

/// Raw samples of one timing, in nanoseconds, in the order they were
/// taken. A request that was refused or shed is recorded as `u64::MAX`:
/// it misses every latency limit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
    }

    pub fn append(&mut self, other: &mut Samples) {
        self.values.append(&mut other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples in the order they were taken.
    pub fn in_order(&self) -> &[u64] {
        &self.values
    }

    /// Nearest-rank quantile: the `ceil(q * n)`-th smallest sample.
    /// `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// The median, over consecutive windows of `window` samples, of each
    /// window's exact `q`-quantile (a short last window joins the one
    /// before it). A stall that hits one window moves that window's tail,
    /// not the reported one. With fewer than two windows' worth of
    /// samples this is the plain quantile.
    pub fn windowed_quantile(&self, q: f64, window: usize) -> Option<u64> {
        let n_windows = self.values.len() / window.max(1);
        if n_windows < 2 {
            return self.quantile(q);
        }
        let per_window: Vec<f64> = (0..n_windows)
            .map(|w| {
                let end = if w + 1 == n_windows {
                    self.values.len()
                } else {
                    (w + 1) * window
                };
                let mut v = self.values[w * window..end].to_vec();
                v.sort_unstable();
                nearest_rank(&v, q).expect("non-empty window") as f64
            })
            .collect();
        median(&per_window).map(|m| m as u64)
    }
}

fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of a set of per-repetition measurements (mean of the middle
/// two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_sample_set_are_exact() {
        // 1..=1000 inserted out of order: 3 is coprime to 1001, so
        // `i * 3 % 1001` permutes 1..=1000.
        let mut s = Samples::new();
        for i in 1..=1000u64 {
            s.push(i * 3 % 1001);
        }
        assert_eq!(s.quantile(0.5), Some(500));
        assert_eq!(s.quantile(0.99), Some(990));
        assert_eq!(s.quantile(1.0), Some(1000));
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn refused_requests_dominate_the_tail() {
        let mut s = Samples::new();
        for i in 0..98 {
            s.push(100 + i);
        }
        s.push(u64::MAX);
        s.push(u64::MAX);
        assert_eq!(s.quantile(0.99), Some(u64::MAX));
        assert_eq!(s.quantile(0.5), Some(149));
    }

    #[test]
    fn windowed_quantile_ignores_a_stall_in_one_window() {
        let mut s = Samples::new();
        for w in 0..5u64 {
            for i in 1..=100u64 {
                // Window 2 has a stall: its top ten samples are huge.
                s.push(if w == 2 && i > 90 { 1_000_000 } else { i });
            }
        }
        assert_eq!(s.quantile(0.99), Some(1_000_000));
        assert_eq!(s.windowed_quantile(0.99, 100), Some(99));
        // Too few samples for two windows: the plain quantile.
        assert_eq!(s.windowed_quantile(0.5, 1000), s.quantile(0.5));
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(Samples::new().quantile(0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
