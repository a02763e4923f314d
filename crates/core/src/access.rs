//! Access accounting: sequential (SA) and random (RA) accesses.
//!
//! The paper's efficiency results (Figures 5–8) report the **average
//! percentage of SAs** an algorithm performs relative to a naive full
//! scan of all lists; "a smaller percentage exhibits higher scalability"
//! (§4.2). `AccessStats` tracks both access kinds so the TA baseline's RA
//! cost is visible too.

/// Counters for one algorithm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Sequential accesses performed (sorted-list entry reads).
    pub sa: u64,
    /// Random accesses performed (point lookups by id).
    pub ra: u64,
    /// Total entries across all input lists (the naive algorithm's SA count).
    pub total_entries: u64,
}

impl AccessStats {
    /// Fresh counters for inputs with the given total entry count.
    pub fn new(total_entries: u64) -> Self {
        AccessStats {
            sa: 0,
            ra: 0,
            total_entries,
        }
    }

    /// Record one sequential access.
    #[inline]
    pub fn record_sa(&mut self) {
        self.sa += 1;
    }

    /// Record one random access.
    #[inline]
    pub fn record_ra(&mut self) {
        self.ra += 1;
    }

    /// All accesses.
    pub fn total_accesses(&self) -> u64 {
        self.sa + self.ra
    }

    /// The paper's headline metric: `% SA = 100 · sa / total_entries`.
    pub fn sa_percent(&self) -> f64 {
        if self.total_entries == 0 {
            0.0
        } else {
            100.0 * self.sa as f64 / self.total_entries as f64
        }
    }

    /// "Saveup": the fraction of entries *not* read, in percent
    /// (the paper reports "a save up of 75% or beyond").
    pub fn saveup_percent(&self) -> f64 {
        100.0 - self.sa_percent()
    }
}

/// Mean/stderr aggregation of a metric over several runs — the figures
/// report averages over 20 random groups "with standard error bars".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_err: f64,
}

impl Aggregate {
    /// Aggregate a slice of samples.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Aggregate::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Aggregate {
                n,
                mean,
                std_err: 0.0,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        Aggregate {
            n,
            mean,
            std_err: (var / n as f64).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let mut s = AccessStats::new(200);
        for _ in 0..50 {
            s.record_sa();
        }
        s.record_ra();
        assert_eq!(s.sa, 50);
        assert_eq!(s.ra, 1);
        assert_eq!(s.total_accesses(), 51);
        assert!((s.sa_percent() - 25.0).abs() < 1e-12);
        assert!((s.saveup_percent() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_have_zero_percent() {
        let s = AccessStats::new(0);
        assert_eq!(s.sa_percent(), 0.0);
    }

    #[test]
    fn aggregate_mean_and_stderr() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a.n, 3);
        assert!((a.mean - 2.0).abs() < 1e-12);
        // sample var = 1, stderr = sqrt(1/3).
        assert!((a.std_err - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregate_degenerate_cases() {
        assert_eq!(Aggregate::of(&[]).n, 0);
        let one = Aggregate::of(&[5.0]);
        assert_eq!(one.mean, 5.0);
        assert_eq!(one.std_err, 0.0);
    }
}
