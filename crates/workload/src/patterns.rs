//! The three request patterns of §7.1.
//!
//! * **P1** — LC requests sent *periodically* (a square-ish wave of bursts),
//!   BE requests sent *randomly* (constant-rate Poisson);
//! * **P2** — BE periodic, LC random;
//! * **P3** — both random.
//!
//! A pattern is a pair of rate functions (requests/second as a function of
//! time) for the two service classes; the trace generator thins a Poisson
//! process against them.

use tango_types::{ServiceClass, SimTime};

/// Which of the paper's three patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Periodic LC, random BE.
    P1,
    /// Periodic BE, random LC.
    P2,
    /// Both random.
    P3,
}

impl PatternKind {
    /// All three, in paper order.
    pub const ALL: [PatternKind; 3] = [PatternKind::P1, PatternKind::P2, PatternKind::P3];
}

/// Period of the square wave for the periodic class.
const PERIOD: SimTime = SimTime::from_secs(20);
/// Fraction of the period spent in the high phase.
const DUTY: f64 = 0.5;
/// High-phase rate of the periodic class, as a multiple of its mean.
const SWING: f64 = 1.8;

/// A concrete pattern: per-class arrival rates over time.
#[derive(Debug, Clone)]
pub struct Pattern {
    kind: PatternKind,
    /// Mean rate for each class, requests/second.
    lc_mean_rps: f64,
    be_mean_rps: f64,
}

impl Pattern {
    /// Build a pattern with the given mean rates. The periodic class
    /// runs a 20 s square wave: 1.8× its mean for the first half of each
    /// period, and a low phase that keeps its *mean* at the requested
    /// rate for the second.
    pub fn new(kind: PatternKind, lc_mean_rps: f64, be_mean_rps: f64) -> Self {
        Pattern {
            kind,
            lc_mean_rps,
            be_mean_rps,
        }
    }

    /// The pattern kind.
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// Mean rate of a class.
    pub fn mean_rps(&self, class: ServiceClass) -> f64 {
        match class {
            ServiceClass::Lc => self.lc_mean_rps,
            ServiceClass::Be => self.be_mean_rps,
        }
    }

    fn periodic_rate(&self, mean: f64, at: SimTime) -> f64 {
        // square wave with mean preserved:
        // high phase rate = SWING*mean, low phase chosen so duty-weighted
        // average equals mean.
        let period_us = PERIOD.as_micros();
        let phase = (at.as_micros() % period_us) as f64 / period_us as f64;
        let high = SWING * mean;
        let low = ((1.0 - DUTY * SWING) / (1.0 - DUTY)).max(0.0) * mean;
        if phase < DUTY {
            high
        } else {
            low
        }
    }

    /// Instantaneous arrival rate (req/s) for `class` at time `at`.
    pub fn rate(&self, class: ServiceClass, at: SimTime) -> f64 {
        let mean = self.mean_rps(class);
        let periodic = matches!(
            (self.kind, class),
            (PatternKind::P1, ServiceClass::Lc) | (PatternKind::P2, ServiceClass::Be)
        );
        if periodic {
            self.periodic_rate(mean, at)
        } else {
            mean
        }
    }

    /// The maximum instantaneous rate either phase can reach, used as the
    /// thinning envelope by the generator.
    pub fn peak_rate(&self, class: ServiceClass) -> f64 {
        let mean = self.mean_rps(class);
        match (self.kind, class) {
            (PatternKind::P1, ServiceClass::Lc) | (PatternKind::P2, ServiceClass::Be) => {
                SWING * mean
            }
            _ => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_oscillates_lc_but_not_be() {
        let p = Pattern::new(PatternKind::P1, 10.0, 4.0);
        let t_high = SimTime::from_secs(1); // phase 0.05 < duty
        let t_low = SimTime::from_secs(15); // phase 0.75 >= duty
        assert!(p.rate(ServiceClass::Lc, t_high) > p.rate(ServiceClass::Lc, t_low));
        assert_eq!(p.rate(ServiceClass::Be, t_high), 4.0);
        assert_eq!(p.rate(ServiceClass::Be, t_low), 4.0);
    }

    #[test]
    fn p2_oscillates_be_but_not_lc() {
        let p = Pattern::new(PatternKind::P2, 10.0, 4.0);
        let t_high = SimTime::from_secs(1);
        let t_low = SimTime::from_secs(15);
        assert_eq!(p.rate(ServiceClass::Lc, t_high), 10.0);
        assert!(p.rate(ServiceClass::Be, t_high) > p.rate(ServiceClass::Be, t_low));
    }

    #[test]
    fn p3_is_flat_for_both() {
        let p = Pattern::new(PatternKind::P3, 10.0, 4.0);
        for s in [0, 3, 7, 13, 19] {
            let t = SimTime::from_secs(s);
            assert_eq!(p.rate(ServiceClass::Lc, t), 10.0);
            assert_eq!(p.rate(ServiceClass::Be, t), 4.0);
        }
    }

    #[test]
    fn periodic_mean_is_preserved() {
        let p = Pattern::new(PatternKind::P1, 10.0, 4.0);
        // integrate the LC rate over one period in 1ms steps
        let period = SimTime::from_secs(20);
        let steps = 20_000;
        let sum: f64 = (0..steps)
            .map(|i| {
                p.rate(
                    ServiceClass::Lc,
                    SimTime::from_micros(i * period.as_micros() / steps),
                )
            })
            .sum();
        let mean = sum / steps as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn peak_rate_bounds_instantaneous_rate() {
        for kind in PatternKind::ALL {
            let p = Pattern::new(kind, 10.0, 4.0);
            for class in [ServiceClass::Lc, ServiceClass::Be] {
                let peak = p.peak_rate(class);
                for s in 0..40 {
                    let r = p.rate(class, SimTime::from_millis(s * 500));
                    assert!(r <= peak + 1e-9, "{kind:?}/{class}: {r} > {peak}");
                }
            }
        }
    }

    #[test]
    fn rates_are_never_negative() {
        for kind in PatternKind::ALL {
            let p = Pattern::new(kind, 5.0, 5.0);
            for s in 0..60 {
                for class in [ServiceClass::Lc, ServiceClass::Be] {
                    assert!(p.rate(class, SimTime::from_millis(s * 333)) >= 0.0);
                }
            }
        }
    }
}
