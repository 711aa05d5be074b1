//! Harmonious Resource Management (§4).
//!
//! HRM is Tango's elastic resource-allocation layer, three cooperating
//! pieces:
//!
//! * [`dvpa::Dvpa`] — the dynamic vertical pod autoscaler (§4.2): scales a
//!   running pod by writing pod-level and container-level CGroup limits in
//!   the mandatory order (expand: pod → container; shrink: container →
//!   pod), ~23 ms per operation, zero interruption — versus the native
//!   VPA's 2.3 s delete-and-rebuild.
//! * [`regulations::HrmAllocator`] — the resource-usage regulations
//!   (§4.1): BE services soak up all idle resources; LC requests may
//!   additionally claim BE-held *compressible* resources by throttling
//!   (CPU/bandwidth share transfer) and BE-held *incompressible* resources
//!   by evicting BE containers. After every admission/completion the
//!   allocator walks the node's container records and rebalances their
//!   limits through D-VPA.
//! * [`reassurance::Reassurer`] — the QoS re-assurance mechanism (§4.3,
//!   Algorithm 1): watches per-(node, service) slack scores δ = 1 − ξ/γ
//!   and nudges the service's minimum resource request up when δ < α
//!   (poor) and down when δ > β (excellent), in small, frequent steps.

pub mod dvpa;
pub mod reassurance;
pub mod regulations;

pub use dvpa::{Dvpa, ScaleOutcome};
pub use reassurance::{ReassuranceConfig, Reassurer};
pub use regulations::{AdmitOutcome, HrmAllocator, StaticAllocator};
