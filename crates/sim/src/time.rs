//! Virtual-time representation.
//!
//! Simulated time is a non-negative `f64` number of seconds wrapped in a
//! newtype so that it cannot be confused with work amounts, byte counts or
//! wall-clock durations, and so that it can carry a total order (the raw
//! `f64` only offers `PartialOrd`).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the start of the simulation.
///
/// `SimTime` is totally ordered; constructing one from a NaN panics, which
/// keeps the event queue's ordering invariant trivially valid.
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub(crate) const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative: virtual time flows forward from
    /// zero only.
    pub(crate) fn new(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(secs)
    }

    /// Seconds since the epoch as a raw float.
    pub fn secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN is rejected at construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, dt: f64) -> SimTime {
        SimTime::new(self.0 + dt)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, dt: f64) {
        *self = *self + dt;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::new(1.5);
        let b = a + 2.5;
        assert_eq!(b.secs(), 4.0);
        assert_eq!(b - a, 2.5);
        let mut c = a;
        c += 0.5;
        assert_eq!(c.secs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    fn zero_is_epoch() {
        assert_eq!(SimTime::ZERO.secs(), 0.0);
        assert_eq!(SimTime::ZERO, SimTime::new(0.0));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::new(1.25)), "1.250000");
        assert_eq!(format!("{:?}", SimTime::new(0.5)), "0.500000s");
    }
}
