//! Closed-interval arithmetic for score bounds.
//!
//! GRECA never knows an item's exact score until every component is read;
//! it works with `[lower, upper]` envelopes (§3.2's `ComputeLB` /
//! `ComputeUB`). All operations here are *sound*: if `x ∈ a` and `y ∈ b`
//! then `x ∘ y ∈ a ∘ b`. Soundness (not tightness) is what the
//! correctness proof needs; for fully-resolved inputs every operation
//! collapses to the exact scalar result, which a property test in
//! `greca-core` pins against the scalar scorer.

use std::ops::Add;

/// A closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Construct, checking `lo ≤ hi` in debug builds.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi + 1e-9, "invalid interval [{lo}, {hi}]");
        Interval { lo, hi: hi.max(lo) }
    }

    /// A degenerate (exact) interval.
    #[inline]
    pub fn exact(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Whether the interval is (numerically) a single point.
    #[inline]
    pub fn is_exact(&self) -> bool {
        (self.hi - self.lo).abs() <= 1e-12
    }

    /// Width `hi − lo`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside the interval (with tolerance).
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo - 1e-9 && v <= self.hi + 1e-9
    }

    /// Bitwise endpoint equality — the change-detection predicate of the
    /// incremental bound maintenance in [`crate::greca`]. Stricter than
    /// `==` (it distinguishes `-0.0` from `0.0`), which is the sound
    /// direction: a spurious "changed" only triggers a recomputation
    /// that reproduces the same value, never a stale bound.
    #[inline]
    pub fn bit_eq(&self, other: &Interval) -> bool {
        self.lo.to_bits() == other.lo.to_bits() && self.hi.to_bits() == other.hi.to_bits()
    }

    /// Scale by a non-negative constant.
    #[inline]
    pub fn scale(self, c: f64) -> Interval {
        debug_assert!(c >= 0.0, "scale must be non-negative");
        Interval::new(self.lo * c, self.hi * c)
    }

    /// Product of two **non-negative** intervals.
    #[inline]
    pub fn mul_nonneg(self, other: Interval) -> Interval {
        debug_assert!(
            self.lo >= -1e-9 && other.lo >= -1e-9,
            "operands must be ≥ 0"
        );
        Interval::new(
            self.lo.max(0.0) * other.lo.max(0.0),
            self.hi.max(0.0) * other.hi.max(0.0),
        )
    }

    /// `|a − b|` envelope.
    #[inline]
    pub fn abs_diff(self, other: Interval) -> Interval {
        let hi = (self.hi - other.lo).max(other.hi - self.lo).max(0.0);
        let lo = if self.hi < other.lo {
            other.lo - self.hi
        } else if other.hi < self.lo {
            self.lo - other.hi
        } else {
            0.0 // overlapping intervals can be equal
        };
        Interval::new(lo, hi)
    }

    /// `x²` envelope.
    #[inline]
    pub fn square(self) -> Interval {
        if self.lo <= 0.0 && self.hi >= 0.0 {
            Interval::new(0.0, self.lo.powi(2).max(self.hi.powi(2)))
        } else {
            let (a, b) = (self.lo.powi(2), self.hi.powi(2));
            Interval::new(a.min(b), a.max(b))
        }
    }

    /// `c − x` envelope (used for the `1 − dis` term).
    #[inline]
    pub fn sub_from(self, c: f64) -> Interval {
        Interval::new(c - self.hi, c - self.lo)
    }

    /// Element-wise minimum (for least-misery: `min` over members).
    #[inline]
    pub fn min_with(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Mean of a non-empty slice of intervals.
    pub fn mean(intervals: &[Interval]) -> Interval {
        assert!(!intervals.is_empty(), "mean of no intervals");
        let n = intervals.len() as f64;
        let lo = intervals.iter().map(|i| i.lo).sum::<f64>() / n;
        let hi = intervals.iter().map(|i| i.hi).sum::<f64>() / n;
        Interval::new(lo, hi)
    }

    /// Minimum of a non-empty slice of intervals.
    pub fn min_of(intervals: &[Interval]) -> Interval {
        assert!(!intervals.is_empty(), "min of no intervals");
        intervals
            .iter()
            .copied()
            .reduce(|a, b| a.min_with(b))
            .expect("non-empty")
    }
}

impl Add for Interval {
    type Output = Interval;

    /// Interval sum.
    #[inline]
    fn add(self, other: Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_eq_distinguishes_zero_signs() {
        let a = Interval::new(0.0, 1.0);
        assert!(a.bit_eq(&Interval::new(0.0, 1.0)));
        assert!(!a.bit_eq(&Interval::new(-0.0, 1.0)), "-0.0 is a change");
        assert!(!a.bit_eq(&Interval::new(0.0, 0.5)));
    }

    #[test]
    fn exact_intervals_are_points() {
        let i = Interval::exact(2.5);
        assert!(i.is_exact());
        assert_eq!(i.width(), 0.0);
        assert!(i.contains(2.5));
        assert!(!i.contains(2.6));
    }

    #[test]
    fn add_and_scale() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        let s = a + b;
        assert_eq!((s.lo, s.hi), (0.0, 5.0));
        let sc = a.scale(2.0);
        assert_eq!((sc.lo, sc.hi), (2.0, 4.0));
    }

    #[test]
    fn mul_nonneg_endpoints() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(0.5, 3.0);
        let p = a.mul_nonneg(b);
        assert_eq!((p.lo, p.hi), (0.5, 6.0));
    }

    #[test]
    fn abs_diff_overlapping_has_zero_lo() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(2.0, 4.0);
        let d = a.abs_diff(b);
        assert_eq!(d.lo, 0.0);
        assert_eq!(d.hi, 3.0);
    }

    #[test]
    fn abs_diff_disjoint_has_gap_lo() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(5.0, 6.0);
        let d = a.abs_diff(b);
        assert_eq!((d.lo, d.hi), (3.0, 5.0));
        // Symmetric.
        let d2 = b.abs_diff(a);
        assert_eq!((d2.lo, d2.hi), (3.0, 5.0));
    }

    #[test]
    fn abs_diff_exact_inputs_collapse() {
        let d = Interval::exact(4.0).abs_diff(Interval::exact(1.5));
        assert!(d.is_exact());
        assert_eq!(d.lo, 2.5);
    }

    #[test]
    fn square_spanning_zero() {
        let s = Interval::new(-2.0, 1.0).square();
        assert_eq!((s.lo, s.hi), (0.0, 4.0));
        let s2 = Interval::new(1.0, 3.0).square();
        assert_eq!((s2.lo, s2.hi), (1.0, 9.0));
        let s3 = Interval::new(-3.0, -1.0).square();
        assert_eq!((s3.lo, s3.hi), (1.0, 9.0));
    }

    #[test]
    fn sub_from_flips() {
        let i = Interval::new(0.25, 0.75).sub_from(1.0);
        assert_eq!((i.lo, i.hi), (0.25, 0.75));
        let j = Interval::new(0.0, 2.0).sub_from(1.0);
        assert_eq!((j.lo, j.hi), (-1.0, 1.0));
    }

    #[test]
    fn mean_and_min() {
        let xs = [Interval::new(0.0, 1.0), Interval::new(2.0, 4.0)];
        let m = Interval::mean(&xs);
        assert_eq!((m.lo, m.hi), (1.0, 2.5));
        let mn = Interval::min_of(&xs);
        assert_eq!((mn.lo, mn.hi), (0.0, 1.0));
    }

    #[test]
    fn soundness_sampling() {
        // Randomized containment check across the operations.
        let cases = [
            (Interval::new(0.0, 2.0), Interval::new(1.0, 3.0)),
            (Interval::new(0.5, 0.5), Interval::new(0.0, 4.0)),
            (Interval::new(2.0, 5.0), Interval::new(0.0, 1.0)),
        ];
        for (a, b) in cases {
            for &x in &[a.lo, (a.lo + a.hi) / 2.0, a.hi] {
                for &y in &[b.lo, (b.lo + b.hi) / 2.0, b.hi] {
                    assert!((a + b).contains(x + y));
                    assert!(a.mul_nonneg(b).contains(x * y));
                    assert!(a.abs_diff(b).contains((x - y).abs()));
                    assert!(a.square().contains(x * x));
                    assert!(a.sub_from(1.0).contains(1.0 - x));
                    assert!(a.min_with(b).contains(x.min(y)) || x.min(y) > a.min_with(b).hi);
                }
            }
        }
    }
}
