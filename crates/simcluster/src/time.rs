//! Virtual time primitives.
//!
//! All running-time numbers produced by this reproduction are *virtual*:
//! they are derived from the dependency graph of the computation and a
//! deterministic [`CostModel`](crate::CostModel), never from the host's
//! wall clock. This is what lets a single-core container reproduce the
//! running-time *shape* of a 4-node local cluster or an 80-instance EC2
//! deployment (see DESIGN.md §5).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time, stored as integer nanoseconds.
///
/// Nanosecond integer resolution keeps arithmetic exact and ordering
/// total, which in turn keeps the whole simulation deterministic: two
/// runs with the same inputs produce bit-identical timelines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VDuration(u64);

impl VDuration {
    /// The zero-length span.
    pub const ZERO: VDuration = VDuration(0);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VDuration(ns)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VDuration(us * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        VDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative or non-finite inputs clamp to zero: cost formulas may
    /// produce tiny negative values through float error and a virtual
    /// duration is by definition non-negative.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return VDuration::ZERO;
        }
        VDuration((s * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; virtual durations never underflow.
    pub fn saturating_sub(self, rhs: VDuration) -> VDuration {
        VDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for VDuration {
    type Output = VDuration;
    fn add(self, rhs: VDuration) -> VDuration {
        VDuration(
            self.0
                .checked_add(rhs.0)
                .expect("virtual duration overflow"),
        )
    }
}

impl AddAssign for VDuration {
    fn add_assign(&mut self, rhs: VDuration) {
        *self = *self + rhs;
    }
}

impl Sub for VDuration {
    type Output = VDuration;
    fn sub(self, rhs: VDuration) -> VDuration {
        VDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual duration underflow"),
        )
    }
}

impl Mul<u64> for VDuration {
    type Output = VDuration;
    fn mul(self, rhs: u64) -> VDuration {
        VDuration(self.0.checked_mul(rhs).expect("virtual duration overflow"))
    }
}

impl Mul<f64> for VDuration {
    type Output = VDuration;
    fn mul(self, rhs: f64) -> VDuration {
        VDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for VDuration {
    type Output = VDuration;
    fn div(self, rhs: u64) -> VDuration {
        VDuration(self.0 / rhs)
    }
}

impl Sum for VDuration {
    fn sum<I: Iterator<Item = VDuration>>(iter: I) -> VDuration {
        iter.fold(VDuration::ZERO, Add::add)
    }
}

impl fmt::Display for VDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// An instant on the virtual timeline, measured from the start of the
/// simulated computation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VInstant(u64);

impl VInstant {
    /// The origin of the virtual timeline (job submission time).
    pub const EPOCH: VInstant = VInstant(0);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        VInstant(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from the epoch to this instant.
    pub const fn since_epoch(self) -> VDuration {
        VDuration(self.0)
    }

    /// The later of two instants. Message arrival at a task merges the
    /// sender's timestamp into the receiver's clock with exactly this.
    pub fn max(self, other: VInstant) -> VInstant {
        VInstant(self.0.max(other.0))
    }

    /// Elapsed span since `earlier`; panics if `earlier` is later than
    /// `self`, which would indicate a causality bug in an engine.
    pub fn duration_since(self, earlier: VInstant) -> VDuration {
        VDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("virtual instant causality violation"),
        )
    }
}

impl Add<VDuration> for VInstant {
    type Output = VInstant;
    fn add(self, rhs: VDuration) -> VInstant {
        VInstant(self.0.checked_add(rhs.0).expect("virtual instant overflow"))
    }
}

impl AddAssign<VDuration> for VInstant {
    fn add_assign(&mut self, rhs: VDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for VInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(VDuration::from_secs(2), VDuration::from_millis(2_000));
        assert_eq!(VDuration::from_millis(3), VDuration::from_micros(3_000));
        assert_eq!(VDuration::from_micros(5), VDuration::from_nanos(5_000));
        assert_eq!(VDuration::from_secs_f64(1.5), VDuration::from_millis(1_500));
    }

    #[test]
    fn negative_and_nan_float_spans_clamp_to_zero() {
        assert_eq!(VDuration::from_secs_f64(-1.0), VDuration::ZERO);
        assert_eq!(VDuration::from_secs_f64(f64::NAN), VDuration::ZERO);
        assert_eq!(VDuration::from_secs_f64(f64::NEG_INFINITY), VDuration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = VInstant::EPOCH + VDuration::from_secs(10);
        assert_eq!(t.as_secs_f64(), 10.0);
        let u = t + VDuration::from_millis(500);
        assert_eq!(u.duration_since(t), VDuration::from_millis(500));
        assert_eq!(t.max(u), u);
        assert_eq!(u.max(t), u);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn duration_since_panics_on_causality_violation() {
        let t = VInstant::EPOCH + VDuration::from_secs(1);
        let _ = VInstant::EPOCH.duration_since(t);
    }

    #[test]
    fn duration_sum_and_scale() {
        let total: VDuration = (1..=4).map(VDuration::from_secs).sum();
        assert_eq!(total, VDuration::from_secs(10));
        assert_eq!(VDuration::from_secs(10) / 4, VDuration::from_millis(2_500));
        assert_eq!(VDuration::from_secs(3) * 2u64, VDuration::from_secs(6));
        assert_eq!(VDuration::from_secs(4) * 0.5, VDuration::from_secs(2));
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let a = VDuration::from_secs(1);
        let b = VDuration::from_secs(2);
        assert_eq!(a.saturating_sub(b), VDuration::ZERO);
        assert_eq!(b.saturating_sub(a), VDuration::from_secs(1));
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(VDuration::from_millis(1_234).to_string(), "1.234s");
        let t = VInstant::EPOCH + VDuration::from_millis(250);
        assert_eq!(t.to_string(), "t+0.250s");
    }
}
