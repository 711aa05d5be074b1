//! A guided tour of D-VPA's CGroup control flow (Fig. 5): deploy a
//! service pod, scale it up and down with D-VPA (ordered, non-disruptive
//! writes) and with the stock K8s VPA (delete-and-rebuild), and print the
//! pod- and container-level CGroup limits D-VPA leaves behind.
//!
//! ```sh
//! cargo run --release --example dvpa_inspection
//! ```

use tango_repro::hrm::Dvpa;
use tango_repro::kube::{NativeVpa, Node};
use tango_repro::types::{
    ClusterId, NodeId, RequestId, Resources, ServiceClass, ServiceId, ServiceSpec, SimTime,
};

fn spec() -> ServiceSpec {
    ServiceSpec {
        id: ServiceId(0),
        name: "cloud-render".into(),
        class: ServiceClass::Lc,
        min_request: Resources::cpu_mem(500, 256),
        work_milli_ms: 50_000,
        qos_target: SimTime::from_millis(300),
        payload_kib: 256,
    }
}

/// Print the pod- and container-level CGroup limits of `service`.
fn print_limits(node: &Node, service: ServiceId) {
    let (pod_cg, ctr_cg) = node.scaling_cgroups(service).unwrap();
    for cg in [pod_cg, ctr_cg] {
        println!(
            "  limit {} -> [{}]",
            node.cgroups.path(cg),
            node.cgroups.limit(cg)
        );
    }
}

fn main() {
    let capacity = Resources::new(8_000, 16_384, 1_000, 100_000);
    let svc = spec();

    // ---- D-VPA path -------------------------------------------------
    let mut node = Node::new(NodeId(1), ClusterId(0), false, capacity);
    node.deploy_service(
        &svc,
        Resources::new(1_000, 1_024, 100, 1_000),
        SimTime::ZERO,
    )
    .unwrap();
    node.admit(
        RequestId(1),
        svc.id,
        svc.min_request,
        svc.work_milli_ms as f64,
        SimTime::ZERO,
    )
    .unwrap();

    let mut dvpa = Dvpa::default();
    println!("== D-VPA: expand 1000m -> 2000m while a request is running ==");
    let out = dvpa
        .scale(
            &mut node,
            svc.id,
            Resources::new(2_000, 2_048, 200, 2_000),
            SimTime::from_millis(10),
        )
        .unwrap();
    print_limits(&node, svc.id);
    println!(
        "  {} writes, finished at {} (op latency 23 ms), request still running: {}",
        out.writes,
        out.completed_at,
        node.running_count() == 1
    );

    println!("\n== D-VPA: shrink back to 600m (container before pod) ==");
    let out = dvpa
        .scale(
            &mut node,
            svc.id,
            Resources::new(600, 1_024, 100, 1_000),
            SimTime::from_millis(40),
        )
        .unwrap();
    print_limits(&node, svc.id);
    println!("  {} writes", out.writes);

    // the in-flight request survives everything and completes
    node.advance(SimTime::from_millis(200));
    println!(
        "  request completed without interruption: {}",
        node.take_completions().len() == 1
    );

    // ---- native K8s-VPA path ----------------------------------------
    println!("\n== stock K8s VPA: same expansion, delete-and-rebuild ==");
    let mut node2 = Node::new(NodeId(2), ClusterId(0), false, capacity);
    node2
        .deploy_service(
            &svc,
            Resources::new(1_000, 1_024, 100, 1_000),
            SimTime::ZERO,
        )
        .unwrap();
    node2
        .admit(
            RequestId(2),
            svc.id,
            svc.min_request,
            svc.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
    let vpa = NativeVpa::default();
    let outcome = vpa
        .scale(
            &mut node2,
            svc.id,
            Resources::new(2_000, 2_048, 200, 2_000),
            SimTime::from_millis(10),
        )
        .unwrap();
    println!(
        "  interrupted {} running request(s); pod dark until {}",
        outcome.interrupted.len(),
        outcome.ready_at
    );
    println!(
        "  D-VPA latency advantage: 23 ms vs {} ms  (~{}x)",
        outcome.ready_at.as_millis() - 10,
        (outcome.ready_at.as_millis() - 10) / 23
    );
}
