//! The ten-service catalog.
//!
//! §6.2: the `LatencySensitivity` field of the Google trace classifies
//! services into ten categories of LC and BE services; each application
//! runs in a single container. The concrete names below are the edge
//! workloads the paper's introduction and footnote 3 motivate (cloud
//! rendering, audio/video, AR/VR for LC; analytics and training for BE).
//!
//! QoS targets cluster around the ~300 ms the Fig. 1 measurement reports
//! for production LC services.

use tango_types::{Resources, ServiceClass, ServiceId, ServiceSpec, SimTime};

/// An immutable set of service specifications, indexed densely by
/// [`ServiceId`].
#[derive(Debug, Clone)]
pub struct ServiceCatalog {
    specs: Vec<ServiceSpec>,
}

impl ServiceCatalog {
    /// Build a catalog from raw specs. Ids are re-assigned densely in
    /// order.
    pub fn from_specs(mut specs: Vec<ServiceSpec>) -> Self {
        for (i, s) in specs.iter_mut().enumerate() {
            s.id = ServiceId(i as u16);
        }
        ServiceCatalog { specs }
    }

    /// The standard ten-service catalog (five LC + five BE).
    pub fn standard() -> Self {
        let lc = |name: &str, cpu: u64, mem: u64, work: u64, qos_ms: u64, kib: u64| ServiceSpec {
            id: ServiceId(0),
            name: name.into(),
            class: ServiceClass::Lc,
            min_request: Resources::new(cpu, mem, 20, 64),
            work_milli_ms: work,
            qos_target: SimTime::from_millis(qos_ms),
            payload_kib: kib,
        };
        let be = |name: &str, cpu: u64, mem: u64, work: u64, kib: u64| ServiceSpec {
            id: ServiceId(0),
            name: name.into(),
            class: ServiceClass::Be,
            min_request: Resources::new(cpu, mem, 10, 256),
            work_milli_ms: work,
            qos_target: SimTime::MAX,
            payload_kib: kib,
        };
        ServiceCatalog::from_specs(vec![
            // --- Latency-Critical (γ ≈ 200-400 ms, base service 40-120 ms) ---
            // name            cpu   mem  work[mcore·ms]  γ[ms] payload
            lc("cloud-render", 500, 512, 30_000, 250, 256), // 60ms base
            lc("ar-vr", 400, 256, 16_000, 200, 128),        // 40ms base
            lc("cloud-gaming", 600, 512, 48_000, 300, 256), // 80ms base
            lc("video-conference", 300, 256, 24_000, 350, 192), // 80ms base
            lc("ml-inference", 800, 1_024, 96_000, 400, 64), // 120ms base
            // --- Best-Effort (no γ; base service 0.5-4 s) ---
            be("data-analytics", 500, 1_024, 400_000, 512), // 0.8s base
            be("model-training", 1_000, 2_048, 4_000_000, 1_024), // 4s base
            be("video-transcode", 800, 512, 1_600_000, 2_048), // 2s base
            be("log-compaction", 300, 512, 300_000, 768),   // 1s base
            be("web-indexing", 400, 768, 600_000, 384),     // 1.5s base
        ])
    }

    /// Number of service types.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the catalog has no services.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec by id. Panics on out-of-range id (catalog ids are dense).
    pub fn get(&self, id: ServiceId) -> &ServiceSpec {
        &self.specs[id.index()]
    }

    /// All specs in id order.
    pub fn specs(&self) -> &[ServiceSpec] {
        &self.specs
    }

    /// Ids of all LC services.
    pub fn lc_ids(&self) -> Vec<ServiceId> {
        self.specs
            .iter()
            .filter(|s| s.class.is_lc())
            .map(|s| s.id)
            .collect()
    }

    /// Ids of all BE services.
    pub fn be_ids(&self) -> Vec<ServiceId> {
        self.specs
            .iter()
            .filter(|s| s.class.is_be())
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_ten_services_five_per_class() {
        let c = ServiceCatalog::standard();
        assert_eq!(c.len(), 10);
        assert_eq!(c.lc_ids().len(), 5);
        assert_eq!(c.be_ids().len(), 5);
    }

    #[test]
    fn ids_are_dense_and_in_order() {
        let c = ServiceCatalog::standard();
        for (i, s) in c.specs().iter().enumerate() {
            assert_eq!(s.id.index(), i);
            assert_eq!(c.get(s.id).name, s.name);
        }
    }

    #[test]
    fn lc_targets_are_near_the_papers_300ms_and_be_has_none() {
        let c = ServiceCatalog::standard();
        for id in c.lc_ids() {
            let t = c.get(id).qos_target;
            assert!(
                (SimTime::from_millis(150)..=SimTime::from_millis(500)).contains(&t),
                "{} target {t}",
                c.get(id).name
            );
        }
        for id in c.be_ids() {
            assert_eq!(c.get(id).qos_target, SimTime::MAX);
        }
    }

    #[test]
    fn lc_base_service_time_fits_within_target() {
        let c = ServiceCatalog::standard();
        for id in c.lc_ids() {
            let s = c.get(id);
            let base = s.base_service_time();
            assert!(
                base.as_millis_f64() < s.qos_target.as_millis_f64() * 0.5,
                "{}: base {} vs target {}",
                s.name,
                base,
                s.qos_target
            );
        }
    }

    #[test]
    fn be_services_are_heavier_than_lc() {
        let c = ServiceCatalog::standard();
        let avg = |ids: &[ServiceId]| -> f64 {
            ids.iter()
                .map(|&i| c.get(i).work_milli_ms as f64)
                .sum::<f64>()
                / ids.len() as f64
        };
        assert!(avg(&c.be_ids()) > 10.0 * avg(&c.lc_ids()));
    }

    #[test]
    fn from_specs_reassigns_ids() {
        let mut specs = ServiceCatalog::standard().specs().to_vec();
        specs.reverse();
        let c = ServiceCatalog::from_specs(specs);
        assert_eq!(c.get(ServiceId(0)).name, "web-indexing");
        assert_eq!(c.get(ServiceId(0)).id, ServiceId(0));
    }
}
