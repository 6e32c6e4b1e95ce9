//! Order statistics over the samples a run collects. Every reported
//! timing is a median (or a named percentile) and carries its sample
//! count, so a reader can tell one sample from a thousand.

/// A bag of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.values.extend(vs);
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// The `q`-quantile, `q` in `[0, 1]`, linearly interpolated between
    /// the two nearest order statistics. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, q)
    }
}

/// [`Samples::percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(vs: &[f64]) -> Samples {
        let mut s = Samples::default();
        s.extend(vs.iter().copied());
        s
    }

    #[test]
    fn empty_has_no_statistics() {
        let s = Samples::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.median(), None);
        assert_eq!(s.percentile(0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(bag(&[3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(bag(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(bag(&[7.0]).median(), Some(7.0));
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let s = bag(&(1..=101).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(0.5), Some(51.0));
        assert_eq!(s.percentile(0.99), Some(100.0));
        assert_eq!(s.percentile(1.0), Some(101.0));
        assert_eq!(s.percentile(7.0), Some(101.0));
        assert_eq!(bag(&[10.0, 20.0]).percentile(0.25), Some(12.5));
    }

    #[test]
    fn count_follows_insertion() {
        let mut s = bag(&[5.0, 1.0, 9.0]);
        assert_eq!(s.count(), 3);
        s.push(2.0);
        s.extend(None);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
