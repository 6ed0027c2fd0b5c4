//! Simulation time, frequency and bandwidth types.
//!
//! All simulated time is kept in integer **picoseconds** so that the three
//! clock domains of the paper's Table 2 — the 2.67 GHz host core
//! (374.5 ps/cycle), DDR4 (tCK = 937 ps) and HMC (tCK = 1600 ps) — can be
//! mixed without rounding drift. The newtypes keep cycle counts, durations
//! and transfer rates from being confused ([C-NEWTYPE]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in picoseconds.
///
/// `Ps` is deliberately both an instant and a duration (like `u64` nanoseconds
/// in many simulators): the simulation starts at `Ps::ZERO` and all
/// arithmetic is saturating-free integer math.
///
/// ```
/// use charon_sim::time::Ps;
/// let t = Ps::from_ns(3.0) + Ps::from_ns(1.5);
/// assert_eq!(t, Ps(4500));
/// assert!((t.as_ns() - 4.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(pub u64);

impl Ps {
    /// The origin of simulated time (also the zero duration).
    pub const ZERO: Ps = Ps(0);

    /// Creates a duration from (possibly fractional) nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Ps {
        assert!(ns.is_finite() && ns >= 0.0, "invalid nanosecond value {ns}");
        Ps((ns * 1000.0).round() as u64)
    }

    /// Creates a duration from microseconds.
    pub fn from_us(us: f64) -> Ps {
        Ps::from_ns(us * 1000.0)
    }

    /// Creates a duration from milliseconds.
    pub fn from_ms(ms: f64) -> Ps {
        Ps::from_ns(ms * 1_000_000.0)
    }

    /// This duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This duration in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This duration in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// This duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The later of two instants.
    pub fn max(self, other: Ps) -> Ps {
        Ps(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Ps) -> Ps {
        Ps(self.0.min(other.0))
    }

    /// `self - other`, clamped at zero (useful for "time remaining" math).
    pub fn saturating_sub(self, other: Ps) -> Ps {
        Ps(self.0.saturating_sub(other.0))
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        Ps(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_ms())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.as_us())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.as_ns())
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// A clock frequency.
///
/// ```
/// use charon_sim::time::Freq;
/// let host = Freq::ghz(2.67);
/// assert_eq!(host.period().0, 375); // 374.5 ps rounds to 375
/// assert_eq!(host.cycles_to_ps(4).0, 1498);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freq {
    hz: f64,
}

impl Freq {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn ghz(ghz: f64) -> Freq {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency {ghz} GHz");
        Freq { hz: ghz * 1e9 }
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: f64) -> Freq {
        Freq::ghz(mhz / 1000.0)
    }

    /// Creates a frequency from its clock period.
    pub fn from_period(period: Ps) -> Freq {
        assert!(period > Ps::ZERO, "zero clock period");
        Freq { hz: 1e12 / period.0 as f64 }
    }

    /// The frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// One clock period.
    pub fn period(self) -> Ps {
        Ps((1e12 / self.hz).round() as u64)
    }

    /// The duration of `cycles` clock cycles.
    pub fn cycles_to_ps(self, cycles: u64) -> Ps {
        Ps(((cycles as f64) * 1e12 / self.hz).round() as u64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.hz / 1e9)
    }
}

/// A transfer rate in bytes per second.
///
/// ```
/// use charon_sim::time::{Bandwidth, Ps};
/// let link = Bandwidth::gbps(80.0);
/// // 256 B at 80 GB/s = 3.2 ns.
/// assert_eq!(link.transfer_time(256), Ps(3200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from gigabytes per second (decimal GB, as in the
    /// paper's "80GB/s per link").
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive and finite.
    pub fn gbps(gbps: f64) -> Bandwidth {
        assert!(gbps.is_finite() && gbps > 0.0, "invalid bandwidth {gbps} GB/s");
        Bandwidth { bytes_per_sec: gbps * 1e9 }
    }

    /// The rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in gigabytes per second.
    pub fn as_gbps(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to serialize `bytes` onto this resource.
    pub fn transfer_time(self, bytes: u64) -> Ps {
        Ps(((bytes as f64) * 1e12 / self.bytes_per_sec).round() as u64)
    }

    /// Splits this bandwidth evenly over `n` sub-resources (e.g. 320 GB/s per
    /// cube over 32 vaults).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split(self, n: u64) -> Bandwidth {
        assert!(n > 0, "cannot split bandwidth over zero resources");
        Bandwidth { bytes_per_sec: self.bytes_per_sec / n as f64 }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_roundtrips_ns() {
        let t = Ps::from_ns(13.5);
        assert_eq!(t, Ps(13_500));
        assert!((t.as_ns() - 13.5).abs() < 1e-9);
    }

    #[test]
    fn ps_display_picks_unit() {
        assert_eq!(Ps(500).to_string(), "500 ps");
        assert_eq!(Ps(1_500).to_string(), "1.500 ns");
        assert_eq!(Ps(2_500_000).to_string(), "2.500 us");
        assert_eq!(Ps(3_000_000_000).to_string(), "3.000 ms");
    }

    #[test]
    fn ps_arithmetic() {
        let a = Ps(100);
        let b = Ps(40);
        assert_eq!(a + b, Ps(140));
        assert_eq!(a - b, Ps(60));
        assert_eq!(a * 3, Ps(300));
        assert_eq!(a / 4, Ps(25));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn ps_sum() {
        let total: Ps = [Ps(1), Ps(2), Ps(3)].into_iter().sum();
        assert_eq!(total, Ps(6));
    }

    #[test]
    fn freq_period_and_cycles() {
        let f = Freq::ghz(1.0);
        assert_eq!(f.period(), Ps(1000));
        assert_eq!(f.cycles_to_ps(28), Ps(28_000));
    }

    #[test]
    fn freq_from_period_roundtrip() {
        let f = Freq::from_period(Ps(1600)); // HMC tCK
        assert!((f.as_hz() - 625e6).abs() < 1.0);
        assert_eq!(f.period(), Ps(1600));
    }

    #[test]
    fn bandwidth_transfer_and_split() {
        let per_cube = Bandwidth::gbps(320.0);
        let per_vault = per_cube.split(32);
        assert!((per_vault.as_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(per_vault.transfer_time(64), Ps(6400));
    }

    #[test]
    #[should_panic]
    fn negative_ns_panics() {
        let _ = Ps::from_ns(-1.0);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_split_panics() {
        let _ = Bandwidth::gbps(1.0).split(0);
    }
}
