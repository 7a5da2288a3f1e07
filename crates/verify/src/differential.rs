//! Seeded differential test of the flat verifier kernel against the
//! hash-based reference in [`crate::reference`], on trees, a torus, a
//! dragonfly and an irregular fabric under every engine, with random
//! corruptions of the installed state.
//!
//! Per verification the two must agree on:
//! - the `Err` cases, message included;
//! - black-hole, forwarding-loop and stale-route violations, byte for byte
//!   and in order;
//! - which lanes are cyclic — and every reported chain must be a cycle of
//!   the reference CDG of its lane;
//! - the dependency edges of every lane, as sets.

use ib_routing::cdg::Cdg;
use ib_routing::testutil::assign_lids;
use ib_routing::{EngineKind, SwitchGraph, VlAssignment};
use ib_subnet::topology::dragonfly::{dragonfly, DragonflySpec};
use ib_subnet::topology::fattree::{paper_324, paper_648};
use ib_subnet::topology::irregular::{irregular, IrregularSpec};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum, VirtualLane};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::reference;
use crate::{FabricVerifier, InvariantClass, VerifyReport};

/// SplitMix64: a seeded, dependency-free stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn is_walk_class(class: InvariantClass) -> bool {
    matches!(
        class,
        InvariantClass::BlackHole | InvariantClass::ForwardingLoop | InvariantClass::StaleRoute
    )
}

/// Dense channel ids of a reference CDG.
fn channel_ids(cdg: &Cdg) -> FxHashMap<(u32, u8), usize> {
    (0..cdg.num_channels())
        .map(|id| (cdg.channel(id), id))
        .collect()
}

/// Parses a deadlock violation into its lane and `(switch, port)` chain.
fn parse_cycle(detail: &str, index_of_name: &FxHashMap<&str, u32>) -> (u8, Vec<(u32, u8)>) {
    let rest = detail.strip_prefix("VL").expect("lane prefix");
    let (lane, chain) = rest
        .split_once(" channel dependency cycle: ")
        .expect("cycle detail");
    let chain = chain
        .split(" -> ")
        .map(|hop| {
            let (name, port) = hop.rsplit_once(":p").expect("name:pN");
            (index_of_name[name], port.parse().expect("port"))
        })
        .collect();
    (lane.parse().expect("lane"), chain)
}

/// Verifies `subnet` both ways and asserts they agree. Returns the number
/// of cyclic lanes.
fn assert_agrees(
    subnet: &Subnet,
    verifier: FabricVerifier,
    vls: &VlAssignment,
    what: &str,
) -> usize {
    let fast = verifier.verify_with_vls(subnet, vls);
    let slow = if verifier.deadlock {
        match reference::lane_cdgs(&verifier, subnet, vls) {
            Ok(lanes) => Some(lanes),
            Err(slow) => {
                let fast = fast.expect_err(what);
                assert_eq!(fast.to_string(), slow.to_string(), "{what}");
                return 0;
            }
        }
    } else {
        None
    };
    let report: VerifyReport = fast.unwrap_or_else(|e| panic!("{what}: {e}"));
    let walk: Vec<_> = report
        .violations
        .iter()
        .filter(|v| is_walk_class(v.class))
        .cloned()
        .collect();
    assert_eq!(
        walk,
        reference::walk_violations(&verifier, subnet),
        "{what}"
    );
    let Some((g, lanes)) = slow else {
        assert_eq!(report.count(InvariantClass::DeadlockCycle), 0, "{what}");
        return 0;
    };
    assert_deadlock_agrees(subnet, verifier, vls, &report, &g, &lanes, what)
}

fn assert_deadlock_agrees(
    subnet: &Subnet,
    verifier: FabricVerifier,
    vls: &VlAssignment,
    report: &VerifyReport,
    g: &SwitchGraph,
    lanes: &[(u8, Cdg)],
    what: &str,
) -> usize {
    let reference: FxHashMap<u8, &Cdg> = lanes.iter().map(|(l, c)| (*l, c)).collect();
    let ids: FxHashMap<u8, FxHashMap<(u32, u8), usize>> =
        lanes.iter().map(|(l, c)| (*l, channel_ids(c))).collect();
    let has_edge = |lane: u8, a: (u32, u8), b: (u32, u8)| {
        let (Some(cdg), Some(ids)) = (reference.get(&lane), ids.get(&lane)) else {
            return false;
        };
        match (ids.get(&a), ids.get(&b)) {
            (Some(&x), Some(&y)) => cdg.witness_of(x, y).is_some(),
            _ => false,
        }
    };

    // Same edge sets, lane by lane.
    let fast_edges = verifier
        .dependency_edges(subnet, vls)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    for (lane, edges) in &fast_edges {
        let expected = reference.get(lane).map_or(0, |c| c.num_edges());
        assert_eq!(edges.len(), expected, "{what}: VL{lane} edge count");
        for &(a, b) in edges {
            assert!(
                has_edge(*lane, a, b),
                "{what}: VL{lane} edge {a:?} -> {b:?}"
            );
        }
    }
    for (lane, cdg) in lanes {
        if cdg.num_edges() > 0 {
            assert!(
                fast_edges.iter().any(|(l, _)| l == lane),
                "{what}: VL{lane} missing"
            );
        }
    }

    // Same cyclic lanes; every chain a real cycle of the reference lane.
    let mut names: FxHashMap<&str, u32> = FxHashMap::default();
    for s in 0..g.len() {
        let fresh = names.insert(subnet.name_of(g.node_id(s)), s as u32);
        assert!(fresh.is_none(), "{what}: switch names must be unique");
    }
    let mut cyclic = FxHashSet::default();
    for v in report
        .violations
        .iter()
        .filter(|v| v.class == InvariantClass::DeadlockCycle)
    {
        let (lane, chain) = parse_cycle(&v.detail, &names);
        assert!(cyclic.insert(lane), "{what}: VL{lane} reported twice");
        for (i, &a) in chain.iter().enumerate() {
            let b = chain[(i + 1) % chain.len()];
            assert!(has_edge(lane, a, b), "{what}: {} is not a cycle", v.detail);
        }
    }
    let expected: FxHashSet<u8> = lanes
        .iter()
        .filter(|(_, c)| c.find_cycle().is_some())
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(cyclic, expected, "{what}: cyclic lanes");
    cyclic.len()
}

fn install(t: &mut BuiltTopology, engine: EngineKind) -> VlAssignment {
    let tables = engine.build().compute(&t.subnet).expect("routing");
    tables.install(&mut t.subnet).expect("install");
    tables.vls
}

/// `(switch, port, neighbour switch, its port)` for every live
/// switch-to-switch link direction.
fn switch_links(subnet: &Subnet) -> Vec<(NodeId, PortNum, NodeId, PortNum)> {
    subnet
        .switches()
        .flat_map(|n| {
            n.connected_ports()
                .filter(|(_, r)| subnet.node(r.node).is_switch())
                .map(move |(p, r)| (n.id, p, r.node, r.port))
        })
        .collect()
}

fn set_row(subnet: &mut Subnet, sw: NodeId, lid: Lid, port: PortNum) {
    subnet.lft_mut(sw).expect("switch LFT").set(lid, port);
}

/// One random corruption of the installed rows; returns its name.
fn corrupt(subnet: &mut Subnet, rng: &mut Rng) -> &'static str {
    let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
    let lids = subnet.lids();
    let lid = rng.pick(&lids);
    match rng.below(3) {
        0 => {
            let sw = rng.pick(&switches);
            let ports: Vec<PortNum> = subnet.node(sw).connected_ports().map(|(p, _)| p).collect();
            set_row(subnet, sw, lid, rng.pick(&ports));
            "misroute"
        }
        1 => {
            let sw = rng.pick(&switches);
            if rng.below(2) == 0 {
                subnet.lft_mut(sw).expect("switch LFT").clear(lid);
            } else {
                set_row(subnet, sw, lid, PortNum::DROP);
            }
            "drop"
        }
        _ => {
            let (a, pa, b, pb) = rng.pick(&switch_links(subnet));
            set_row(subnet, a, lid, pa);
            set_row(subnet, b, lid, pb);
            "cross-pointing loop"
        }
    }
}

/// Verifier settings a trial draws from: default, a tight hop budget, a
/// viewpoint, and the walk alone.
fn verifier_for(subnet: &Subnet, rng: &mut Rng) -> FabricVerifier {
    let base = FabricVerifier::new();
    match rng.below(4) {
        0 => base.with_max_hops(1 + rng.below(4)),
        1 => base.with_viewpoint(rng.pick(&subnet.switches().map(|n| n.id).collect::<Vec<_>>())),
        2 => base.with_deadlock(false),
        _ => base,
    }
}

/// Isolates one switch's switch links, re-routes the split fabric, then
/// grows back a row toward a destination beyond the split.
fn stale_route_on_a_split(t: &mut BuiltTopology, engine: EngineKind, rng: &mut Rng, what: &str) {
    let leaf = rng.pick(t.leaves());
    let uplinks: Vec<PortNum> = t
        .subnet
        .node(leaf)
        .connected_ports()
        .filter(|(_, r)| t.subnet.node(r.node).is_switch())
        .map(|(p, _)| p)
        .collect();
    for p in uplinks {
        t.subnet.set_link_down(leaf, p).expect("cabled");
    }
    let vls = match engine.build().compute(&t.subnet) {
        Ok(tables) => {
            tables.install(&mut t.subnet).expect("install");
            tables.vls
        }
        // An engine that refuses the split still leaves stale tables to
        // compare on.
        Err(_) => VlAssignment::SingleVl,
    };
    assert_agrees(
        &t.subnet,
        FabricVerifier::new(),
        &vls,
        &format!("{what} split"),
    );
    let lost: Vec<Lid> = t
        .subnet
        .node(leaf)
        .connected_ports()
        .filter_map(|(_, r)| t.subnet.node(r.node).ports[r.port.raw() as usize].lid)
        .collect();
    let kept: Vec<NodeId> = t
        .subnet
        .switches()
        .map(|n| n.id)
        .filter(|&n| n != leaf)
        .collect();
    if let (false, Some(&sw)) = (lost.is_empty(), kept.first()) {
        // A drop row toward the lost side is legal; a port row is stale.
        set_row(
            &mut t.subnet,
            rng.pick(&kept),
            rng.pick(&lost),
            PortNum::DROP,
        );
        let sw = if rng.below(2) == 0 {
            sw
        } else {
            rng.pick(&kept)
        };
        let port = t
            .subnet
            .node(sw)
            .connected_ports()
            .next()
            .expect("cabled")
            .0;
        set_row(&mut t.subnet, sw, rng.pick(&lost), port);
    }
    let what = format!("{what} stale route");
    assert_agrees(&t.subnet, FabricVerifier::new(), &vls, &what);
    assert_agrees(
        &t.subnet,
        FabricVerifier::new().with_viewpoint(t.hosts[0]),
        &vls,
        &what,
    );
}

/// Moves switch-LID columns from their own lane onto VL0, and returns the
/// number of cyclic lanes that produced.
fn lane_swap(subnet: &Subnet, vls: &VlAssignment, rng: &mut Rng, what: &str) -> usize {
    let VlAssignment::PerDestination(map) = vls else {
        return 0;
    };
    let lifted: Vec<u16> = map
        .iter()
        .filter(|(_, lane)| **lane != VirtualLane::VL0)
        .map(|(&lid, _)| lid)
        .collect();
    if lifted.is_empty() {
        return 0;
    }
    let mut moved = map.clone();
    let mut sorted = lifted;
    sorted.sort_unstable();
    for _ in 0..=rng.below(sorted.len()) {
        moved.insert(rng.pick(&sorted), VirtualLane::VL0);
    }
    assert_agrees(
        subnet,
        FabricVerifier::new(),
        &VlAssignment::PerDestination(moved),
        &format!("{what} lane swap"),
    )
}

/// Runs `trials` random corruption rounds on one fabric under one engine.
fn differential(
    build: fn() -> BuiltTopology,
    engine: EngineKind,
    seed: u64,
    trials: usize,
) -> usize {
    let mut rng = Rng(seed);
    let mut t = build();
    assign_lids(&mut t);
    let vls = install(&mut t, engine);
    let what = format!("{} under {engine:?} (seed {seed})", t.name);
    let mut cyclic = assert_agrees(&t.subnet, FabricVerifier::new(), &vls, &what);
    cyclic += assert_agrees(
        &t.subnet,
        FabricVerifier::new(),
        &VlAssignment::SingleVl,
        &what,
    );
    for trial in 0..trials {
        let mut subnet = t.subnet.clone();
        let mut done = Vec::new();
        for _ in 0..=rng.below(3) {
            done.push(corrupt(&mut subnet, &mut rng));
        }
        let verifier = verifier_for(&subnet, &mut rng);
        let what = format!("{what} trial {trial}: {}", done.join(" + "));
        cyclic += assert_agrees(&subnet, verifier, &vls, &what);
        cyclic += lane_swap(&subnet, &vls, &mut rng, &what);
    }
    stale_route_on_a_split(&mut t, engine, &mut rng, &what);
    cyclic
}

fn torus() -> BuiltTopology {
    torus_2d(4, 4, 1, true)
}

fn dragonfly_5x4() -> BuiltTopology {
    dragonfly(DragonflySpec::default())
}

fn irregular_12() -> BuiltTopology {
    irregular(IrregularSpec {
        num_switches: 12,
        num_hosts: 24,
        extra_links: 8,
        seed: 0x5EED,
    })
}

#[test]
fn differential_paper_324_all_engines() {
    let mut cyclic = 0;
    for (i, engine) in EngineKind::all().into_iter().enumerate() {
        cyclic += differential(paper_324, engine, 0x324 + i as u64, 12);
    }
    assert!(cyclic > 0, "no trial closed a CDG cycle");
}

/// LASH is left out here: its own route computation on this tree takes
/// about 45 s in a debug build. The 324-node tree, the torus, the
/// dragonfly and the irregular fabric cover its per-switch-pair lanes.
#[test]
fn differential_paper_648_tree_engines_and_dfsssp() {
    for (i, engine) in [
        EngineKind::FatTree,
        EngineKind::MinHop,
        EngineKind::UpDown,
        EngineKind::Dfsssp,
    ]
    .into_iter()
    .enumerate()
    {
        differential(paper_648, engine, 0x648 + i as u64, 4);
    }
}

#[test]
fn differential_torus_dragonfly_irregular() {
    let mut cyclic = 0;
    for (f, build) in [torus as fn() -> BuiltTopology, dragonfly_5x4, irregular_12]
        .into_iter()
        .enumerate()
    {
        for (i, engine) in [
            EngineKind::MinHop,
            EngineKind::UpDown,
            EngineKind::Dfsssp,
            EngineKind::Lash,
        ]
        .into_iter()
        .enumerate()
        {
            cyclic += differential(build, engine, (f * 16 + i) as u64, 12);
        }
    }
    // Min-Hop's single lane on the wrapped torus is the canonical cycle.
    assert!(cyclic > 0, "no trial closed a CDG cycle");
}
