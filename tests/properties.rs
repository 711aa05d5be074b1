//! Property-based tests over core invariants, spanning crates.
//!
//! The container this repo builds in has no network access to crates.io,
//! so `proptest` is unavailable; these are the same properties expressed
//! as deterministic seeded sweeps over `SimRng`-generated inputs. Each
//! property runs a few hundred random cases, so a violation that proptest
//! would find is still found — it just won't be shrunk automatically.

use tango_repro::cgroup::{CgroupFs, QosLevel};
use tango_repro::flow::{FlowGraph, MinCostMaxFlow};
use tango_repro::metrics::percentile;
use tango_repro::simcore::{EventQueue, SimRng};
use tango_repro::types::{ContainerId, Resources, SimTime};

const CASES: u64 = 256;

fn arb_resources(rng: &mut SimRng) -> Resources {
    Resources::new(
        rng.next_below(10_000),
        rng.next_below(20_000),
        rng.next_below(2_000),
        rng.next_below(50_000),
    )
}

/// a + b - b == a for all resource vectors.
#[test]
fn resources_add_sub_roundtrip() {
    let mut rng = SimRng::new(0xADD5);
    for _ in 0..CASES {
        let a = arb_resources(&mut rng);
        let b = arb_resources(&mut rng);
        assert_eq!(a + b - b, a);
    }
}

/// saturating_sub never exceeds the minuend and never underflows.
#[test]
fn resources_saturating_sub_bounded() {
    let mut rng = SimRng::new(0x5AB5);
    for _ in 0..CASES {
        let a = arb_resources(&mut rng);
        let b = arb_resources(&mut rng);
        let d = a.saturating_sub(&b);
        assert!(d.fits_within(&a));
        assert_eq!(a.checked_sub(&b).is_some(), b.fits_within(&a));
    }
}

/// capacity_for: the returned count of units always fits, count+1 never does.
#[test]
fn capacity_for_is_maximal() {
    let mut rng = SimRng::new(0xCAFE);
    let mut tried = 0;
    while tried < CASES {
        let avail = arb_resources(&mut rng);
        let unit = arb_resources(&mut rng);
        if unit.is_zero() {
            continue;
        }
        tried += 1;
        let k = avail.capacity_for(&unit);
        assert!(unit.scale(k).fits_within(&avail));
        if k < u64::MAX {
            // unit has at least one nonzero dim, so k+1 units must not fit
            assert!(!unit.scale(k + 1).fits_within(&avail) || unit.is_zero());
        }
    }
}

/// split_compressible partitions exactly.
#[test]
fn split_compressible_partitions() {
    let mut rng = SimRng::new(0x5971);
    for _ in 0..CASES {
        let a = arb_resources(&mut rng);
        let (c, i) = a.split_compressible();
        assert_eq!(c + i, a);
        assert_eq!(c.memory_mib, 0);
        assert_eq!(c.disk_mib, 0);
        assert_eq!(i.cpu_milli, 0);
        assert_eq!(i.bandwidth_mbps, 0);
    }
}

/// Event queue pops in non-decreasing time order regardless of insert order.
#[test]
fn event_queue_is_time_ordered() {
    let mut rng = SimRng::new(0xE0E0);
    for _ in 0..64 {
        let n = 1 + rng.next_below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    }
}

/// Percentile returns an element of the sample, and p100 is the max.
#[test]
fn percentile_returns_sample_member() {
    let mut rng = SimRng::new(0xBCBC);
    for _ in 0..128 {
        let n = 1 + rng.next_below(100) as usize;
        let samples: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_micros(rng.next_below(1_000_000)))
            .collect();
        let q = rng.range_f64(0.0, 100.0);
        let p = percentile(&samples, q).unwrap();
        assert!(samples.contains(&p));
        let p100 = percentile(&samples, 100.0).unwrap();
        assert_eq!(p100, *samples.iter().max().unwrap());
        assert!(p <= p100);
    }
}

/// RNG shuffle is always a permutation.
#[test]
fn shuffle_is_permutation() {
    let mut seeder = SimRng::new(0x517F);
    for _ in 0..128 {
        let seed = seeder.next_u64();
        let n = 1 + seeder.next_below(100) as usize;
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

/// Min-cost max-flow conserves flow at interior nodes and never
/// exceeds capacities, on random layered graphs.
#[test]
fn flow_conservation_and_capacity() {
    let mut seeder = SimRng::new(0xF10F);
    for _ in 0..64 {
        let seed = seeder.next_u64();
        let width = 2 + seeder.next_below(4) as usize;
        let n_caps = 12 + seeder.next_below(48) as usize;
        let caps: Vec<i64> = (0..n_caps)
            .map(|_| 1 + seeder.next_below(19) as i64)
            .collect();
        let layers = 3;
        let n = 2 + layers * width;
        let mut g = FlowGraph::new(n);
        let node = |l: usize, w: usize| 2 + l * width + w;
        let mut rng = SimRng::new(seed);
        let mut edges = Vec::new();
        let mut ci = 0usize;
        let next_cap = |ci: &mut usize| {
            let c = caps[*ci % caps.len()];
            *ci += 1;
            c
        };
        for w in 0..width {
            edges.push(g.add_edge(0, node(0, w), next_cap(&mut ci), rng.next_below(10) as i64));
            edges.push(g.add_edge(
                node(layers - 1, w),
                1,
                next_cap(&mut ci),
                rng.next_below(10) as i64,
            ));
        }
        for l in 0..layers - 1 {
            for w in 0..width {
                let t = rng.next_below(width as u64) as usize;
                edges.push(g.add_edge(
                    node(l, w),
                    node(l + 1, t),
                    next_cap(&mut ci),
                    rng.next_below(20) as i64,
                ));
            }
        }
        let r = MinCostMaxFlow::new(&mut g).solve(0, 1, i64::MAX);
        assert!(r.flow >= 0);
        // capacity respected on every forward edge
        for &e in &edges {
            assert!(g.flow(e) <= g.capacity(e));
            assert!(g.flow(e) >= 0);
        }
    }
}

/// CGroup invariant: after any sequence of valid ordered scalings,
/// a child's effective limit never exceeds its parent's limit.
#[test]
fn cgroup_child_never_exceeds_parent() {
    let mut rng = SimRng::new(0xC64);
    for _ in 0..64 {
        let n_targets = 1 + rng.next_below(19) as usize;
        let cap = Resources::new(8_000, 8_192, 1_000, 10_000);
        let mut fs = CgroupFs::new(cap);
        let (pod, ctr) = fs
            .create_pod(
                QosLevel::Burstable,
                ContainerId(0),
                Resources::cpu_mem(1_000, 1_000),
            )
            .unwrap();
        for _ in 0..n_targets {
            let cpu = 1 + rng.next_below(7_999);
            let mem = 1 + rng.next_below(7_999);
            let target = Resources::cpu_mem(cpu, mem.min(8_192));
            // D-VPA ordering: pod to max first, container, pod to target
            let cur_pod = fs.limit(pod);
            let tmp = cur_pod.max(&target);
            if tmp != cur_pod {
                fs.set_limit(pod, tmp).unwrap();
            }
            fs.set_limit(ctr, target).unwrap();
            if tmp != target {
                fs.set_limit(pod, target).unwrap();
            }
            let eff = fs.effective_limit(ctr);
            assert!(eff.fits_within(&fs.limit(pod)));
            assert!(eff.fits_within(&cap));
        }
    }
}
