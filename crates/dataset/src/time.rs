//! Time model: timestamps, periods and timeline discretization.
//!
//! The paper (§2) treats time as "a set of consecutive timestamps that form
//! periods"; each period `p = [s, f]` is an interval with a starting and an
//! ending timestamp, periods need not have equal lengths, and the experiment
//! section (§4.2.1) discretizes one year of history at five granularities:
//! week, month, two-month, season and half-year.
//!
//! We model timestamps as seconds relative to a simulation epoch, and
//! periods as half-open `[start, end)` intervals, which removes boundary
//! double-counting while preserving the paper's semantics.

use crate::error::DatasetError;

/// A point in simulated time, in seconds since the simulation epoch.
pub type Timestamp = i64;

/// Seconds in one day.
pub const DAY: i64 = 86_400;
/// Seconds in one (non-leap) year; the paper's studies span one year.
pub const YEAR: i64 = 365 * DAY;

/// A half-open time interval `[start, end)`.
///
/// Corresponds to the paper's period `p = [s, f]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Period {
    /// Inclusive start timestamp (`s` in the paper).
    pub start: Timestamp,
    /// Exclusive end timestamp (`f` in the paper).
    pub end: Timestamp,
}

impl Period {
    /// Create a period, validating `start < end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self, DatasetError> {
        if start >= end {
            return Err(DatasetError::InvalidTime(format!(
                "period start {start} must precede end {end}"
            )));
        }
        Ok(Period { start, end })
    }

    /// Length of the period in seconds (`f - s`).
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// Whether the period has zero length (never true for validated periods).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `ts` falls inside `[start, end)`.
    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.start && ts < self.end
    }

    /// The paper's precedence relation `p_i ⪯ p_j`
    /// (`s_i ≤ s_j` and `f_i ≤ f_j`).
    pub fn precedes(&self, other: &Period) -> bool {
        self.start <= other.start && self.end <= other.end
    }
}

/// Discretization granularities used in §4.2.1 (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// 7-day periods (53 per year).
    Week,
    /// 30-day periods (~12 per year).
    Month,
    /// 60-day periods (~6 per year); the paper's default.
    TwoMonth,
    /// 91-day periods (~4 per year).
    Season,
    /// 182-day periods (~2 per year).
    HalfYear,
    /// Arbitrary period length in seconds.
    Custom(i64),
}

impl Granularity {
    /// Period length in seconds.
    pub fn seconds(&self) -> i64 {
        match self {
            Granularity::Week => 7 * DAY,
            Granularity::Month => 30 * DAY,
            Granularity::TwoMonth => 60 * DAY,
            Granularity::Season => 91 * DAY,
            Granularity::HalfYear => 182 * DAY,
            Granularity::Custom(s) => *s,
        }
    }

    /// Human-readable label matching Figure 4's x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            Granularity::Week => "Week",
            Granularity::Month => "Month",
            Granularity::TwoMonth => "Two-Month",
            Granularity::Season => "Season",
            Granularity::HalfYear => "Half-Year",
            Granularity::Custom(_) => "Custom",
        }
    }

    /// The five named granularities in the order Figure 4 presents them.
    pub fn figure4_sweep() -> [Granularity; 5] {
        [
            Granularity::Week,
            Granularity::Month,
            Granularity::TwoMonth,
            Granularity::Season,
            Granularity::HalfYear,
        ]
    }
}

/// A sequence of consecutive periods starting at the beginning of time `s0`.
///
/// The paper's dynamic-affinity drift (Eq. 1) aggregates over "all time
/// periods included in the interval `[s0, f]`"; `Timeline` is the canonical
/// owner of that period sequence. Periods are consecutive but may have
/// different lengths (§2.1 allows varying lengths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    origin: Timestamp,
    periods: Vec<Period>,
}

impl Timeline {
    /// Build a timeline from explicit, already-consecutive periods.
    ///
    /// Validates that periods are non-empty, consecutive and start at the
    /// first period's start (which becomes `s0`).
    pub fn from_periods(periods: Vec<Period>) -> Result<Self, DatasetError> {
        if periods.is_empty() {
            return Err(DatasetError::InvalidTime("timeline needs ≥1 period".into()));
        }
        for w in periods.windows(2) {
            if w[0].end != w[1].start {
                return Err(DatasetError::InvalidTime(format!(
                    "periods must be consecutive: [{},{}) then [{},{})",
                    w[0].start, w[0].end, w[1].start, w[1].end
                )));
            }
        }
        for p in &periods {
            if p.is_empty() {
                return Err(DatasetError::InvalidTime("empty period in timeline".into()));
            }
        }
        Ok(Timeline {
            origin: periods[0].start,
            periods,
        })
    }

    /// Discretize `[origin, horizon)` into equal-length periods of the given
    /// granularity; the final period is truncated at `horizon` (periods may
    /// have varying lengths, as §2.1 allows).
    pub fn discretize(
        origin: Timestamp,
        horizon: Timestamp,
        granularity: Granularity,
    ) -> Result<Self, DatasetError> {
        if horizon <= origin {
            return Err(DatasetError::InvalidTime(format!(
                "horizon {horizon} must be after origin {origin}"
            )));
        }
        let step = granularity.seconds();
        if step <= 0 {
            return Err(DatasetError::InvalidTime(
                "granularity must be positive".into(),
            ));
        }
        let mut periods = Vec::with_capacity(((horizon - origin) / step + 1) as usize);
        let mut s = origin;
        while s < horizon {
            let e = (s + step).min(horizon);
            periods.push(Period { start: s, end: e });
            s = e;
        }
        Ok(Timeline { origin, periods })
    }

    /// One year of two-month periods starting at the epoch: the paper's
    /// default discretization (6 periods, §4.2.1).
    pub fn paper_default() -> Self {
        Timeline::discretize(0, YEAR, Granularity::TwoMonth).expect("static parameters are valid")
    }

    /// The beginning of time `s0`.
    pub fn origin(&self) -> Timestamp {
        self.origin
    }

    /// End of the last period.
    pub fn horizon(&self) -> Timestamp {
        self.periods.last().expect("timeline is non-empty").end
    }

    /// All periods in chronological order.
    pub fn periods(&self) -> &[Period] {
        &self.periods
    }

    /// Number of periods.
    pub fn num_periods(&self) -> usize {
        self.periods.len()
    }

    /// The period with the given index.
    pub fn period(&self, idx: usize) -> Option<Period> {
        self.periods.get(idx).copied()
    }

    /// Index of the period containing `ts`, if any.
    pub fn period_index(&self, ts: Timestamp) -> Option<usize> {
        if ts < self.origin || ts >= self.horizon() {
            return None;
        }
        // Binary search over period starts.
        let idx = match self.periods.binary_search_by(|p| p.start.cmp(&ts)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        debug_assert!(self.periods[idx].contains(ts));
        Some(idx)
    }

    /// Periods `p'` with `p' ⪯ p_idx`, i.e. indices `0..=idx` — the
    /// aggregation range of Eq. 1 for the period at `idx`.
    pub fn periods_up_to(&self, idx: usize) -> &[Period] {
        &self.periods[..=idx.min(self.periods.len() - 1)]
    }

    /// Wall-clock length `f − s0` between the beginning of time and the end
    /// of the period at `idx` (the continuous model's Δ).
    pub fn elapsed_until_end_of(&self, idx: usize) -> i64 {
        self.periods[idx.min(self.periods.len() - 1)].end - self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_validation() {
        assert!(Period::new(0, 10).is_ok());
        assert!(Period::new(10, 10).is_err());
        assert!(Period::new(11, 10).is_err());
    }

    #[test]
    fn period_contains_half_open() {
        let p = Period::new(5, 10).unwrap();
        assert!(p.contains(5));
        assert!(p.contains(9));
        assert!(!p.contains(10));
        assert!(!p.contains(4));
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn precedes_matches_paper_definition() {
        let p1 = Period::new(0, 5).unwrap();
        let p2 = Period::new(5, 10).unwrap();
        assert!(p1.precedes(&p2));
        assert!(!p2.precedes(&p1));
        // A period precedes itself (s_i ≤ s_j and f_i ≤ f_j hold).
        assert!(p1.precedes(&p1));
    }

    #[test]
    fn figure4_period_counts_over_one_year() {
        // Figure 4 reports 53 / 12 / 6 / 4 / 2 periods for the five
        // granularities over the one-year study window.
        let expect = [53usize, 13, 7, 5, 3];
        // Note: the paper reports floor-style counts (12 months, 6
        // two-month); with truncation of the trailing partial period we get
        // one extra stub for non-dividing granularities. Assert both the
        // full-period counts and the total coverage.
        for (g, &want_with_stub) in Granularity::figure4_sweep().iter().zip(expect.iter()) {
            let tl = Timeline::discretize(0, YEAR, *g).unwrap();
            let full = tl
                .periods()
                .iter()
                .filter(|p| p.len() == g.seconds())
                .count();
            let want_full = (YEAR / g.seconds()) as usize;
            assert_eq!(full, want_full, "{} full periods", g.label());
            assert!(tl.num_periods() == want_with_stub || tl.num_periods() == want_with_stub - 1);
            assert_eq!(tl.horizon(), YEAR);
        }
    }

    #[test]
    fn paper_default_is_six_or_seven_two_month_periods() {
        let tl = Timeline::paper_default();
        // 365 days / 60 days = 6 full periods + a 5-day stub.
        assert_eq!(tl.num_periods(), 7);
        assert_eq!(tl.periods()[0].len(), 60 * DAY);
        assert_eq!(tl.origin(), 0);
    }

    #[test]
    fn period_index_finds_the_right_period() {
        let tl = Timeline::discretize(0, 100, Granularity::Custom(30)).unwrap();
        assert_eq!(tl.num_periods(), 4); // 30,30,30,10
        assert_eq!(tl.period_index(0), Some(0));
        assert_eq!(tl.period_index(29), Some(0));
        assert_eq!(tl.period_index(30), Some(1));
        assert_eq!(tl.period_index(99), Some(3));
        assert_eq!(tl.period_index(100), None);
        assert_eq!(tl.period_index(-1), None);
    }

    #[test]
    fn from_periods_requires_consecutive() {
        let ok = Timeline::from_periods(vec![
            Period::new(0, 10).unwrap(),
            Period::new(10, 15).unwrap(),
        ]);
        assert!(ok.is_ok());
        let gap = Timeline::from_periods(vec![
            Period::new(0, 10).unwrap(),
            Period::new(11, 15).unwrap(),
        ]);
        assert!(gap.is_err());
        assert!(Timeline::from_periods(vec![]).is_err());
    }

    #[test]
    fn varying_length_periods_supported() {
        let tl = Timeline::from_periods(vec![
            Period::new(0, 10).unwrap(),
            Period::new(10, 100).unwrap(),
            Period::new(100, 101).unwrap(),
        ])
        .unwrap();
        assert_eq!(tl.num_periods(), 3);
        assert_eq!(tl.elapsed_until_end_of(1), 100);
        assert_eq!(tl.periods_up_to(1).len(), 2);
        assert_eq!(tl.periods_up_to(99).len(), 3);
    }

    #[test]
    fn discretize_rejects_bad_inputs() {
        assert!(Timeline::discretize(10, 10, Granularity::Week).is_err());
        assert!(Timeline::discretize(0, 100, Granularity::Custom(0)).is_err());
        assert!(Timeline::discretize(0, 100, Granularity::Custom(-5)).is_err());
    }
}
