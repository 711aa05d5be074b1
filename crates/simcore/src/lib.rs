//! Deterministic discrete-event simulation engine.
//!
//! The Tango paper evaluates on a "dual-space" system (§6.1): four physical
//! K8s clusters plus one hundred *behaviour-level simulated* clusters whose
//! request lifecycles are driven by recorded service-time models. This crate
//! provides the clockwork for that twin space: a monotonic event queue with
//! stable tie-breaking, a seedable RNG with the distributions the workload
//! generator needs, and a tiny engine loop.
//!
//! Determinism contract: given the same seed and the same sequence of
//! scheduled events, a simulation produces bit-identical results. All
//! ordering ties are broken by insertion sequence number, never by pointer
//! or hash order.

pub mod engine;
pub mod queue;
pub mod rng;

pub use engine::{Engine, EventHandler};
pub use queue::{EventQueue, KEYED_SEQS};
pub use rng::SimRng;
