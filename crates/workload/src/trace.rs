//! The request generator.
//!
//! Mirrors the paper's §6.2 setup: one server replays a trace of LC/BE
//! service requests against the edge-cloud system. Arrivals are a
//! non-homogeneous Poisson process — pattern rate × diurnal multiplier —
//! realized by thinning; BE requests additionally arrive in small bursts
//! (Google batch jobs schedule many tasks at once). Per-request resource
//! demands jitter log-normally around the service's minimum request, and
//! request origins are skewed across clusters ("user requests' loads are
//! uneven and fluctuating across geographical locations", §1).

use crate::catalog::ServiceCatalog;
use crate::diurnal::DiurnalProfile;
use crate::patterns::Pattern;
use tango_simcore::SimRng;
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ClusterId, Resources, ServiceClass, ServiceId, SimTime};

/// One synthesized arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time at the origin master node.
    pub at: SimTime,
    /// Service type.
    pub service: ServiceId,
    /// LC or BE.
    pub class: ServiceClass,
    /// Cluster whose master receives the request.
    pub origin: ClusterId,
    /// Jittered per-request resource demand.
    pub demand: Resources,
}

snap_record!(TraceEvent {
    at,
    service,
    class,
    origin,
    demand,
});

/// Parameters of a synthesized trace.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Arrival pattern (P1/P2/P3 with mean rates).
    pub pattern: Pattern,
    /// Diurnal modulation (use [`DiurnalProfile::flat`] to disable).
    pub diurnal: DiurnalProfile,
    /// Hour-of-day at simulation t = 0.
    pub start_hour: f64,
    /// Number of clusters requests can originate from.
    pub clusters: usize,
    /// Trace length.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// σ of the log-normal demand jitter (0 disables jitter).
    pub demand_jitter_sigma: f64,
    /// Zipf exponent for the cluster-origin skew (0 = uniform).
    pub cluster_skew: f64,
    /// Mean BE burst size (≥ 1.0; 1.0 = no bursts).
    pub be_burst_mean: f64,
}

impl TraceSpec {
    /// A reasonable default around a given pattern.
    pub fn new(pattern: Pattern, clusters: usize, duration: SimTime, seed: u64) -> Self {
        TraceSpec {
            pattern,
            diurnal: DiurnalProfile::flat(),
            start_hour: 12.0,
            clusters: clusters.max(1),
            duration,
            seed,
            demand_jitter_sigma: 0.25,
            cluster_skew: 0.6,
            be_burst_mean: 2.0,
        }
    }
}

/// The state of a synthesized trace, advanced one arrival at a time.
///
/// It owns everything the trace has drawn so far (RNG, the two class
/// clocks, the pending burst copies) and borrows the catalog only for
/// each step, so a long-lived owner (the runtime's lifecycle stage)
/// can pull arrivals lazily instead of queueing the whole horizon up
/// front, and checkpoint the cursor ([`snapshot`](Self::snapshot) /
/// [`restore`](Self::restore)) instead of the arrivals.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    spec: TraceSpec,
    rng: SimRng,
    /// Independent thinned-Poisson clocks per class.
    next_lc: SimTime,
    next_be: SimTime,
    cluster_weights: Vec<f64>,
    lc_ids: Vec<ServiceId>,
    be_ids: Vec<ServiceId>,
    /// Pending burst copies of the last BE arrivals, sorted descending
    /// by time so the earliest pops off the back.
    pending: Vec<TraceEvent>,
}

impl TraceCursor {
    /// A cursor at the start of the trace `spec` describes over `catalog`.
    pub fn new(catalog: &ServiceCatalog, spec: TraceSpec) -> Self {
        let mut rng = SimRng::new(spec.seed);
        let cluster_weights: Vec<f64> = (0..spec.clusters)
            .map(|i| 1.0 / ((i + 1) as f64).powf(spec.cluster_skew))
            .collect();
        let mut cursor = TraceCursor {
            spec,
            rng: rng.fork(),
            next_lc: SimTime::ZERO,
            next_be: SimTime::ZERO,
            cluster_weights,
            lc_ids: catalog.lc_ids(),
            be_ids: catalog.be_ids(),
            pending: Vec::new(),
        };
        cursor.next_lc = cursor.draw_next(ServiceClass::Lc, SimTime::ZERO);
        cursor.next_be = cursor.draw_next(ServiceClass::Be, SimTime::ZERO);
        cursor
    }

    fn envelope(&self, class: ServiceClass) -> f64 {
        self.spec.pattern.peak_rate(class).max(1e-9)
    }

    /// Draw the next *candidate* arrival for a class strictly after `from`
    /// using the envelope rate; thinning happens at emission time.
    fn draw_next(&mut self, class: ServiceClass, from: SimTime) -> SimTime {
        let mean_gap_s = 1.0 / self.envelope(class);
        let gap = self.rng.exponential(mean_gap_s);
        from + SimTime::from_micros((gap * 1e6).max(1.0) as u64)
    }

    fn hour_at(&self, at: SimTime) -> f64 {
        self.spec.start_hour + at.as_secs_f64() / 3_600.0
    }

    fn accept(&mut self, class: ServiceClass, at: SimTime) -> bool {
        let rate =
            self.spec.pattern.rate(class, at) * self.spec.diurnal.multiplier(self.hour_at(at));
        self.rng.chance(rate / self.envelope(class))
    }

    fn jitter_demand(&mut self, base: Resources) -> Resources {
        let sigma = self.spec.demand_jitter_sigma;
        if sigma <= 0.0 {
            return base;
        }
        // log-normal with median 1, clamped to keep demands schedulable.
        let factor = self.rng.log_normal(0.0, sigma).clamp(0.5, 3.0);
        base.scale_f64(factor).max(&Resources::new(1, 1, 0, 0))
    }

    fn make_event(
        &mut self,
        catalog: &ServiceCatalog,
        class: ServiceClass,
        at: SimTime,
    ) -> Option<TraceEvent> {
        let ids = match class {
            ServiceClass::Lc => &self.lc_ids,
            ServiceClass::Be => &self.be_ids,
        };
        if ids.is_empty() {
            return None;
        }
        let service = ids[self.rng.next_below(ids.len() as u64) as usize];
        let origin = ClusterId(self.rng.weighted_index(&self.cluster_weights).unwrap_or(0) as u32);
        let demand = self.jitter_demand(catalog.get(service).min_request);
        Some(TraceEvent {
            at,
            service,
            class,
            origin,
            demand,
        })
    }

    /// Queue extra burst copies after a BE head event.
    fn maybe_burst(&mut self, catalog: &ServiceCatalog, head: &TraceEvent) {
        if self.spec.be_burst_mean <= 1.0 {
            return;
        }
        // geometric extra count with mean be_burst_mean - 1
        let p = 1.0 / self.spec.be_burst_mean;
        let mut extra = 0usize;
        while !self.rng.chance(p) && extra < 16 {
            extra += 1;
        }
        for i in 0..extra {
            // burst members share the origin; demands re-jittered, times
            // offset by a few ms so they stay ordered.
            let base = catalog.get(head.service).min_request;
            let demand = self.jitter_demand(base);
            let at = head.at + SimTime::from_millis((i as u64 + 1) * 2);
            if at <= self.spec.duration {
                self.pending.push(TraceEvent {
                    at,
                    demand,
                    ..head.clone()
                });
            }
        }
        // sorted descending, so pop() from the end yields the earliest
        self.pending.sort_by_key(|e| std::cmp::Reverse(e.at));
    }

    /// The next arrival of the trace, or `None` once it is exhausted.
    /// `catalog` must be the one the cursor was created over.
    pub fn next_event(&mut self, catalog: &ServiceCatalog) -> Option<TraceEvent> {
        loop {
            // flush pending burst members that precede both clocks
            if let Some(p) = self.pending.last() {
                if p.at <= self.next_lc && p.at <= self.next_be {
                    return self.pending.pop();
                }
            }
            let (class, at) = if self.next_lc <= self.next_be {
                (ServiceClass::Lc, self.next_lc)
            } else {
                (ServiceClass::Be, self.next_be)
            };
            if at > self.spec.duration {
                // drain remaining pending burst events within duration
                return self.pending.pop();
            }
            // advance that clock
            let next = self.draw_next(class, at);
            match class {
                ServiceClass::Lc => self.next_lc = next,
                ServiceClass::Be => self.next_be = next,
            }
            if self.accept(class, at) {
                if let Some(e) = self.make_event(catalog, class, at) {
                    if class.is_be() {
                        self.maybe_burst(catalog, &e);
                    }
                    return Some(e);
                }
            }
        }
    }

    /// Encode the drawn state: the RNG, both class clocks and the
    /// pending bursts. The spec and everything derived from it are
    /// rebuilt by [`TraceCursor::new`] at restore time.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.rng.state().encode(w);
        self.next_lc.encode(w);
        self.next_be.encode(w);
        self.pending.encode(w);
    }

    /// Overlay a [`snapshot`](Self::snapshot) onto a cursor built from the
    /// same spec and catalog. Every pending burst must be a BE arrival
    /// of this catalog from one of the spec's clusters, and the list
    /// must be sorted descending within `[from, spec.duration]` (`from`
    /// is the restored clock: a pending burst is never older than the
    /// arrival the cursor last produced), or the state is
    /// [`SnapError::Corrupt`].
    pub fn restore(&mut self, r: &mut SnapReader<'_>, from: SimTime) -> Result<(), SnapError> {
        let rng = <[u64; 4]>::decode(r)?;
        let next_lc = SimTime::decode(r)?;
        let next_be = SimTime::decode(r)?;
        let pending = Vec::<TraceEvent>::decode(r)?;
        let valid = |e: &TraceEvent| {
            e.class == ServiceClass::Be
                && self.be_ids.contains(&e.service)
                && e.origin.index() < self.spec.clusters
                && (from..=self.spec.duration).contains(&e.at)
        };
        if !pending.iter().all(valid) || !pending.windows(2).all(|p| p[0].at >= p[1].at) {
            return Err(SnapError::Corrupt("trace burst"));
        }
        self.rng = SimRng::from_state(rng);
        self.next_lc = next_lc;
        self.next_be = next_be;
        self.pending = pending;
        Ok(())
    }
}

/// Iterator producing [`TraceEvent`]s in non-decreasing time order: a
/// [`TraceCursor`] bound to its catalog.
pub struct TraceGenerator<'a> {
    catalog: &'a ServiceCatalog,
    cursor: TraceCursor,
}

impl<'a> TraceGenerator<'a> {
    /// Create a generator over `catalog` according to `spec`.
    pub fn new(catalog: &'a ServiceCatalog, spec: TraceSpec) -> Self {
        TraceGenerator {
            catalog,
            cursor: TraceCursor::new(catalog, spec),
        }
    }

    /// Generate the whole trace eagerly.
    pub fn collect_events(self) -> Vec<TraceEvent> {
        self.collect()
    }
}

impl Iterator for TraceGenerator<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.cursor.next_event(self.catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternKind;

    fn gen_events(kind: PatternKind, lc: f64, be: f64, secs: u64, seed: u64) -> Vec<TraceEvent> {
        let catalog = ServiceCatalog::standard();
        let spec = TraceSpec::new(
            Pattern::new(kind, lc, be),
            4,
            SimTime::from_secs(secs),
            seed,
        );
        TraceGenerator::new(&catalog, spec).collect_events()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen_events(PatternKind::P3, 20.0, 10.0, 30, 5);
        let b = gen_events(PatternKind::P3, 20.0, 10.0, 30, 5);
        assert_eq!(a, b);
        let c = gen_events(PatternKind::P3, 20.0, 10.0, 30, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_ordered_and_within_duration() {
        let ev = gen_events(PatternKind::P1, 30.0, 15.0, 60, 1);
        assert!(!ev.is_empty());
        for w in ev.windows(2) {
            assert!(w[0].at <= w[1].at, "{} > {}", w[0].at, w[1].at);
        }
        assert!(ev.iter().all(|e| e.at <= SimTime::from_secs(60)));
    }

    #[test]
    fn mean_rates_are_approximated() {
        let ev = gen_events(PatternKind::P3, 50.0, 10.0, 120, 3);
        let lc = ev.iter().filter(|e| e.class.is_lc()).count() as f64 / 120.0;
        // BE rate counts head events plus bursts; only check LC precisely.
        assert!((lc - 50.0).abs() < 5.0, "lc rate = {lc}");
    }

    #[test]
    fn be_bursts_inflate_be_count() {
        let catalog = ServiceCatalog::standard();
        let mk = |burst: f64, seed: u64| {
            let mut spec = TraceSpec::new(
                Pattern::new(PatternKind::P3, 0.0, 10.0),
                4,
                SimTime::from_secs(60),
                seed,
            );
            spec.be_burst_mean = burst;
            TraceGenerator::new(&catalog, spec).collect_events().len()
        };
        let without: usize = (0..5).map(|s| mk(1.0, s)).sum();
        let with: usize = (0..5).map(|s| mk(2.5, s)).sum();
        assert!(
            with as f64 > without as f64 * 1.5,
            "with={with} without={without}"
        );
    }

    #[test]
    fn demands_jitter_around_min_request() {
        let ev = gen_events(PatternKind::P3, 50.0, 0.0, 30, 9);
        let catalog = ServiceCatalog::standard();
        let mut saw_above = false;
        let mut saw_below = false;
        for e in &ev {
            let base = catalog.get(e.service).min_request.cpu_milli;
            let d = e.demand.cpu_milli;
            assert!(d >= base / 2 && d <= base * 3 + 1, "d={d} base={base}");
            if d > base {
                saw_above = true;
            }
            if d < base {
                saw_below = true;
            }
        }
        assert!(saw_above && saw_below);
    }

    #[test]
    fn origins_are_skewed_but_cover_clusters() {
        let ev = gen_events(PatternKind::P3, 80.0, 20.0, 60, 13);
        let mut counts = [0usize; 4];
        for e in &ev {
            counts[e.origin.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "counts={counts:?}");
        assert!(counts[0] > counts[3], "counts={counts:?}");
    }

    #[test]
    fn p1_lc_arrivals_oscillate() {
        // Count LC arrivals in the high half vs low half of each period.
        let ev = gen_events(PatternKind::P1, 60.0, 0.0, 120, 21);
        let period_us = 20_000_000u64;
        let mut high = 0usize;
        let mut low = 0usize;
        for e in ev.iter().filter(|e| e.class.is_lc()) {
            if (e.at.as_micros() % period_us) < period_us / 2 {
                high += 1;
            } else {
                low += 1;
            }
        }
        assert!(high as f64 > 2.0 * low as f64, "high={high} low={low}");
    }

    #[test]
    fn a_restored_cursor_continues_the_trace() {
        let catalog = ServiceCatalog::standard();
        let spec = TraceSpec::new(
            Pattern::new(PatternKind::P3, 40.0, 30.0),
            4,
            SimTime::from_secs(20),
            11,
        );
        let whole = TraceGenerator::new(&catalog, spec.clone()).collect_events();
        let mut cursor = TraceCursor::new(&catalog, spec.clone());
        // stop inside a burst with at least two copies still pending
        let mut head = Vec::new();
        while head.len() < 100 || cursor.pending.len() < 2 {
            head.push(cursor.next_event(&catalog).expect("a burst comes up"));
        }
        let mut w = SnapWriter::new();
        cursor.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut restored = TraceCursor::new(&catalog, spec.clone());
        let from = head.last().unwrap().at;
        restored
            .restore(&mut SnapReader::new(&bytes), from)
            .unwrap();
        let tail: Vec<TraceEvent> = std::iter::from_fn(|| restored.next_event(&catalog)).collect();
        assert_eq!([head, tail].concat(), whole);

        // bursts out of order, or older than the restored clock, are corrupt
        let corrupt = |edit: &dyn Fn(&mut Vec<TraceEvent>), from: SimTime| {
            let mut c = cursor.clone();
            edit(&mut c.pending);
            let mut w = SnapWriter::new();
            c.snapshot(&mut w);
            let bytes = w.into_bytes();
            TraceCursor::new(&catalog, spec.clone()).restore(&mut SnapReader::new(&bytes), from)
        };
        assert_eq!(corrupt(&|_| {}, from), Ok(()));
        let bad = Err(SnapError::Corrupt("trace burst"));
        assert_eq!(corrupt(&|p| p.reverse(), from), bad);
        assert_eq!(corrupt(&|_| {}, SimTime::from_secs(21)), bad);
        assert_eq!(corrupt(&|p| p[0].at = SimTime::from_secs(21), from), bad);
        assert_eq!(corrupt(&|p| p[0].origin = ClusterId(4), from), bad);
        assert_eq!(corrupt(&|p| p[0].service = catalog.lc_ids()[0], from), bad);
    }

    #[test]
    fn zero_rate_classes_produce_nothing() {
        let ev = gen_events(PatternKind::P3, 0.0, 0.0, 30, 2);
        assert!(ev.is_empty());
    }
}
