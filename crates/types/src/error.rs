//! Workspace-wide error type.

use crate::ids::NodeId;
use crate::resources::Resources;
use std::fmt;

/// Errors surfaced by the Tango substrates and algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum TangoError {
    /// A resource accounting operation would overdraw a budget.
    InsufficientResources {
        /// What was requested.
        requested: Resources,
        /// What was available.
        available: Resources,
    },
    /// A cgroup write violated the hierarchy invariants (e.g. child limit
    /// above parent limit, or wrong pod/container write order).
    CgroupViolation(String),
    /// Referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A scheduler could not produce a placement.
    Unschedulable(String),
    /// The flow solver was given an infeasible or malformed problem.
    FlowInfeasible(String),
    /// Shape mismatch or invalid parameter in the neural-network stack.
    NnShape(String),
    /// Invalid configuration.
    Config(String),
}

impl fmt::Display for TangoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TangoError::InsufficientResources {
                requested,
                available,
            } => write!(
                f,
                "insufficient resources: requested [{requested}] but only [{available}] available"
            ),
            TangoError::CgroupViolation(msg) => write!(f, "cgroup violation: {msg}"),
            TangoError::UnknownNode(id) => write!(f, "unknown node {id}"),
            TangoError::Unschedulable(msg) => write!(f, "unschedulable: {msg}"),
            TangoError::FlowInfeasible(msg) => write!(f, "flow problem infeasible: {msg}"),
            TangoError::NnShape(msg) => write!(f, "nn shape error: {msg}"),
            TangoError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for TangoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_helpfully() {
        let e = TangoError::InsufficientResources {
            requested: Resources::cpu_mem(100, 50),
            available: Resources::cpu_mem(10, 5),
        };
        let s = e.to_string();
        assert!(s.contains("insufficient"));
        assert!(s.contains("cpu=100m"));

        assert!(TangoError::UnknownNode(NodeId(3))
            .to_string()
            .contains("node-3"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TangoError::Config("x".into()));
    }
}
