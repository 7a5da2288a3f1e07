//! End-to-end checks for the SM's incremental repair sweep.
//!
//! The headline claim: answering a link-down with delta-routing — re-route
//! only the destination columns whose installed paths crossed the failed
//! link, splice, distribute the dirty blocks — sends strictly fewer SMPs
//! than a full reconfiguration on the paper's 648-node fat tree. The
//! equivalence suite then drives every routing engine through random
//! connectivity-preserving fault schedules with repair enabled and demands
//! a verifier-clean fabric (or an accounted fallback) every single time,
//! deterministically across worker counts.

use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions, SwitchGraph};
use ib_sm::{SmConfig, SubnetManager, SweepKind, Trap};
use ib_subnet::topology::fattree::{paper_324, paper_648, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::PortNum;
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every switch-to-switch cable, one entry per cable.
fn core_links(subnet: &Subnet) -> Vec<(NodeId, PortNum, NodeId)> {
    let mut out = Vec::new();
    for sw in subnet.physical_switches() {
        for (port, remote) in sw.cabled_ports() {
            if subnet.node(remote.node).is_physical_switch() && sw.id.index() < remote.node.index()
            {
                out.push((sw.id, port, remote.node));
            }
        }
    }
    out
}

/// Whether the switch core stays connected over up links with `skip` down.
fn connected_without(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
    skip: (NodeId, PortNum),
) -> bool {
    let switches: Vec<NodeId> = subnet.physical_switches().map(|n| n.id).collect();
    let Some(&start) = switches.first() else {
        return true;
    };
    let mut reached = vec![start];
    let mut frontier = vec![start];
    while let Some(cur) = frontier.pop() {
        for &(a, p, b) in links {
            if (a, p) == skip || !subnet.is_link_up(a, p) {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if from == cur && !reached.contains(&to) {
                    reached.push(to);
                    frontier.push(to);
                }
            }
        }
    }
    switches.iter().all(|s| reached.contains(s))
}

/// Up links whose loss keeps the core connected.
fn safe_to_down(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
) -> Vec<(NodeId, PortNum, NodeId)> {
    links
        .iter()
        .copied()
        .filter(|&(a, p, _)| subnet.is_link_up(a, p) && connected_without(subnet, links, (a, p)))
        .collect()
}

fn bring_up(mut t: BuiltTopology, config: SmConfig) -> (BuiltTopology, SubnetManager) {
    let mut sm = SubnetManager::new(t.hosts[0], config);
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bring-up");
    (t, sm)
}

/// The acceptance criterion: on the paper's 648-node fat tree with a
/// single link fault, the incremental repair sends strictly fewer LFT
/// SMPs than a full reconfiguration of the same degraded fabric.
#[test]
fn repair_beats_full_reconfiguration_on_the_648_fat_tree() {
    // The same cable on two identically-built fabrics.
    let fault = |t: &BuiltTopology| {
        let links = core_links(&t.subnet);
        safe_to_down(&t.subnet, &links)[0]
    };

    // Arm A: incremental repair answers the trap.
    let (mut a, mut sm_a) = bring_up(
        paper_648(),
        SmConfig {
            repair: true,
            ..SmConfig::default()
        },
    );
    let (node, port, _) = fault(&a);
    a.subnet.set_link_down(node, port).expect("link down");
    let mut transport = SmpTransport::perfect(sm_a.sm_node);
    let report = sm_a
        .handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node, port },
            &mut transport,
        )
        .expect("repair sweep");
    assert_eq!(report.kind, SweepKind::Repair, "the repair path ran");
    assert!(report.failed_blocks.is_empty());
    let repair_smps = report.distribution.lft_smps;

    let snap = sm_a.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.success"), 1);
    assert_eq!(snap.counter("repair.fallback"), 0);

    // Arm B: classic full reconfiguration of the same degraded fabric.
    let (mut b, mut sm_b) = bring_up(paper_648(), SmConfig::default());
    let (node_b, port_b, _) = fault(&b);
    assert_eq!((node_b, port_b), (node, port), "twin fabrics, same cable");
    b.subnet.set_link_down(node_b, port_b).expect("link down");
    let full = sm_b
        .full_reconfiguration(&mut b.subnet)
        .expect("full reconfiguration");
    let full_smps = full.distribution.lft_smps;

    assert!(
        repair_smps < full_smps,
        "incremental repair must send strictly fewer SMPs: {repair_smps} vs {full_smps}"
    );

    // Both fabrics converged to verifier-clean tables.
    for subnet in [&a.subnet, &b.subnet] {
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{}", r.summary());
    }
}

/// One repair-enabled fault schedule: `faults` seeded connectivity-
/// preserving link-downs, each answered through `handle_trap`. Returns the
/// installed LFT bytes and the repair counters.
fn run_schedule(
    build: fn() -> BuiltTopology,
    engine: EngineKind,
    seed: u64,
    faults: usize,
    workers: usize,
) -> (Vec<(NodeId, ib_subnet::Lft)>, u64, u64) {
    let (mut t, mut sm) = bring_up(
        build(),
        SmConfig {
            engine,
            repair: true,
            routing: RoutingOptions::default().with_workers(workers),
            ..SmConfig::default()
        },
    );
    let links = core_links(&t.subnet);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut transport = SmpTransport::perfect(sm.sm_node);
    for _ in 0..faults {
        let cands = safe_to_down(&t.subnet, &links);
        if cands.is_empty() {
            break;
        }
        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
        t.subnet.set_link_down(a, p).expect("link down");
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: a, port: p },
                &mut transport,
            )
            .expect("trap");
        assert!(report.failed_blocks.is_empty(), "sweep converged");
        // Every repaired (or fallen-back) fabric is verifier-clean: no
        // black holes, no forwarding loops, sound addressing.
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{engine:?} seed {seed}: {}", r.summary());
    }
    let snap = sm.observer().snapshot().expect("metrics on");
    let lfts = t
        .subnet
        .physical_switches()
        .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
        .collect();
    (
        lfts,
        snap.counter("repair.attempts"),
        snap.counter("repair.fallback"),
    )
}

/// Every engine, on a topology it supports, survives random repair-enabled
/// fault schedules: the repair either verifies clean or falls back (both
/// leave a clean fabric), and the outcome is byte-identical across routing
/// worker counts.
#[test]
fn every_engine_survives_repair_schedules_deterministically() {
    let fat: fn() -> BuiltTopology = || two_level(4, 2, 3);
    let torus: fn() -> BuiltTopology = || torus_2d(3, 3, 1, true);
    let scenarios: [(EngineKind, fn() -> BuiltTopology); 5] = [
        (EngineKind::FatTree, fat),
        (EngineKind::MinHop, fat),
        (EngineKind::UpDown, fat),
        (EngineKind::Dfsssp, torus),
        (EngineKind::Lash, torus),
    ];
    for (engine, build) in scenarios {
        for seed in [7u64, 99] {
            let (lfts_1, attempts_1, fallbacks_1) = run_schedule(build, engine, seed, 3, 1);
            let (lfts_4, attempts_4, fallbacks_4) = run_schedule(build, engine, seed, 3, 4);
            assert!(attempts_1 > 0, "{engine:?}: schedule exercised repair");
            assert_eq!(
                attempts_1, attempts_4,
                "{engine:?} seed {seed}: same schedule for any worker count"
            );
            assert_eq!(
                fallbacks_1, fallbacks_4,
                "{engine:?} seed {seed}: same fallback decisions"
            );
            assert_eq!(
                lfts_1, lfts_4,
                "{engine:?} seed {seed}: installed tables are worker-invariant"
            );
        }
    }
}

/// Each engine on a topology it supports: the paper's 324-node fat tree
/// for the tree engines, the wrapped 4x4 torus for the VL-layering ones.
fn engine_matrix() -> [(EngineKind, fn() -> BuiltTopology); 5] {
    let torus_4x4: fn() -> BuiltTopology = || torus_2d(4, 4, 1, true);
    [
        (EngineKind::FatTree, paper_324),
        (EngineKind::MinHop, paper_324),
        (EngineKind::UpDown, paper_324),
        (EngineKind::Dfsssp, torus_4x4),
        (EngineKind::Lash, torus_4x4),
    ]
}

/// No engine hides a full recompute behind its repair: a baseline missing
/// one switch's LFT cannot seed a column splice, so `repair_with_graph`
/// returns `Err` — and runs no routing phase, so the observer stays empty.
#[test]
fn every_engine_refuses_an_unusable_baseline() {
    for (engine, build) in engine_matrix() {
        let (t, _sm) = bring_up(
            build(),
            SmConfig {
                engine,
                ..SmConfig::default()
            },
        );
        let e = engine.build();
        let graph = SwitchGraph::build(&t.subnet).expect("graph");
        let mut prior = e.compute(&t.subnet).expect("compute");
        prior.lfts.remove(&graph.node_id(0));
        let observer = Observer::metrics();
        let result = e.repair_with_graph(
            &t.subnet,
            &graph,
            RoutingOptions::default(),
            &prior,
            &t.subnet.lids(),
            &observer,
        );
        assert!(result.is_err(), "{engine:?} repaired a partial baseline");
        let snap = observer.snapshot().expect("metrics on");
        assert!(snap.spans.is_empty(), "{engine:?}: {:?}", snap.spans);
        assert!(snap.counters.is_empty(), "{engine:?}: {:?}", snap.counters);
    }
}

/// A single fault is a batch of one: `repair_sweep` and
/// `repair_sweep_batch(&[fault])` on twin fabrics install byte-identical
/// LFTs with the same SMPs and verifier passes, keep the reverse route
/// index equal to the scan, and each emits only its own span.
#[test]
fn single_fault_repair_equals_a_batch_of_one() {
    for (engine, build) in engine_matrix() {
        let run = |batched: bool| {
            let (mut t, mut sm) = bring_up(
                build(),
                SmConfig {
                    engine,
                    repair: true,
                    ..SmConfig::default()
                },
            );
            let (node, port, _) = safe_to_down(&t.subnet, &core_links(&t.subnet))[0];
            t.subnet.set_link_down(node, port).expect("link down");
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let report = if batched {
                sm.repair_sweep_batch(&mut t.subnet, &[(node, port)], &mut transport)
            } else {
                sm.repair_sweep(&mut t.subnet, node, port, &mut transport)
            }
            .expect("repair");
            assert_eq!(report.kind, SweepKind::Repair, "{engine:?}");
            assert!(
                sm.verify_route_index(&t.subnet).is_empty(),
                "{engine:?} batched={batched}: index agrees with the scan"
            );
            let snap = sm.observer().snapshot().expect("metrics on");
            let (own, other) = if batched {
                ("resweep.batch", "resweep.repair")
            } else {
                ("resweep.repair", "resweep.batch")
            };
            assert_eq!(snap.spans_named(own).len(), 1, "{engine:?}: {own}");
            assert!(snap.spans_named(other).is_empty(), "{engine:?}: {other}");
            assert_eq!(snap.counter("repair.fallback"), 0, "{engine:?}");
            let lfts: Vec<(NodeId, ib_subnet::Lft)> = t
                .subnet
                .physical_switches()
                .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
                .collect();
            (
                lfts,
                report.distribution.lft_smps,
                snap.counter("verify.runs"),
            )
        };
        let (single_lfts, single_smps, single_runs) = run(false);
        let (batch_lfts, batch_smps, batch_runs) = run(true);
        assert_eq!(single_lfts, batch_lfts, "{engine:?}: installed LFTs");
        assert_eq!(single_smps, batch_smps, "{engine:?}: lft_smps");
        assert_eq!(single_runs, batch_runs, "{engine:?}: verify.runs");
    }
}

/// The per-engine matrix acceptance criterion: each engine answers a
/// single-fault trap with its native repair on a topology it supports —
/// the paper's 324- and 648-node fat trees for the tree engines, the
/// wrapped 4x4 torus for the VL-layering engines — and the repair sends
/// no more SMPs than the classic full-recompute sweep, strictly fewer
/// than `full_reconfiguration`, falls back zero times, and leaves the
/// reverse route index in lockstep with the two-row scan.
#[test]
fn native_repair_beats_full_sweeps_across_the_engine_matrix() {
    let torus_4x4: fn() -> BuiltTopology = || torus_2d(4, 4, 1, true);
    let matrix: [(EngineKind, fn() -> BuiltTopology); 7] = [
        (EngineKind::FatTree, paper_324),
        (EngineKind::MinHop, paper_324),
        (EngineKind::UpDown, paper_324),
        (EngineKind::FatTree, paper_648),
        (EngineKind::UpDown, paper_648),
        (EngineKind::Dfsssp, torus_4x4),
        (EngineKind::Lash, torus_4x4),
    ];
    for (engine, build) in matrix {
        // The same cable on identically-built fabrics.
        let fault = |t: &BuiltTopology| {
            let links = core_links(&t.subnet);
            safe_to_down(&t.subnet, &links)[0]
        };
        let trap_arm = |repair: bool| {
            let (mut t, mut sm) = bring_up(
                build(),
                SmConfig {
                    engine,
                    repair,
                    ..SmConfig::default()
                },
            );
            let (node, port, _) = fault(&t);
            t.subnet.set_link_down(node, port).expect("link down");
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let report = sm
                .handle_trap(
                    &mut t.subnet,
                    Trap::LinkStateChange { node, port },
                    &mut transport,
                )
                .expect("trap");
            assert!(report.failed_blocks.is_empty(), "{engine:?}: converged");
            if repair {
                assert_eq!(report.kind, SweepKind::Repair, "{engine:?}: repair ran");
            }
            (t, sm, report.distribution.lft_smps)
        };

        let (a, sm_a, repair_smps) = trap_arm(true);
        let snap = sm_a.observer().snapshot().expect("metrics on");
        assert_eq!(
            snap.counter(&format!("repair.success.{}", engine.name())),
            1,
            "{engine:?}: one tagged native repair"
        );
        assert_eq!(
            snap.counter("repair.fallback"),
            0,
            "{engine:?}: no fallback"
        );
        assert!(
            sm_a.verify_route_index(&a.subnet).is_empty(),
            "{engine:?}: index agrees with the scan after the splice"
        );
        let r = FabricVerifier::new()
            .with_deadlock(matches!(engine, EngineKind::Dfsssp | EngineKind::Lash))
            .verify_with_vls(&a.subnet, sm_a.installed_vls().expect("tables installed"))
            .expect("verifier");
        assert!(r.is_clean(), "{engine:?}: {}", r.summary());

        let (_, _, sweep_smps) = trap_arm(false);

        let (mut c, mut sm_c) = bring_up(
            build(),
            SmConfig {
                engine,
                ..SmConfig::default()
            },
        );
        let (node_c, port_c, _) = fault(&c);
        c.subnet.set_link_down(node_c, port_c).expect("link down");
        let full_rc_smps = sm_c
            .full_reconfiguration(&mut c.subnet)
            .expect("full reconfiguration")
            .distribution
            .lft_smps;

        assert!(
            repair_smps <= sweep_smps,
            "{engine:?}: repair must not exceed the full sweep: {repair_smps} vs {sweep_smps}"
        );
        // On the trees a single fault leaves most columns clean, so the
        // win is strict; the 16-switch torus is small enough that one
        // fault can dirty every block, making parity the floor there.
        let tree = matches!(
            engine,
            EngineKind::FatTree | EngineKind::MinHop | EngineKind::UpDown
        );
        assert!(
            if tree {
                repair_smps < full_rc_smps
            } else {
                repair_smps <= full_rc_smps
            },
            "{engine:?}: repair must beat full_reconfiguration: {repair_smps} vs {full_rc_smps}"
        );
    }
}

/// LASH's repair is an exact recompute of the dirty destination in-trees:
/// after a single-fault repair accepted by the CDG deadlock gate
/// (`verify: true`), the installed tables are byte-identical to a full
/// LASH reconfiguration of the same degraded torus, and the repaired
/// fabric passes the full deadlock-freedom check.
#[test]
fn lash_repair_matches_full_recompute_under_the_cdg_gate() {
    let build: fn() -> BuiltTopology = || torus_2d(4, 4, 1, true);
    let fault = |t: &BuiltTopology| {
        let links = core_links(&t.subnet);
        safe_to_down(&t.subnet, &links)[0]
    };

    // Arm A: native repair behind the deadlock-checking gate.
    let (mut a, mut sm_a) = bring_up(
        build(),
        SmConfig {
            engine: EngineKind::Lash,
            repair: true,
            verify: true,
            ..SmConfig::default()
        },
    );
    let (node, port, _) = fault(&a);
    a.subnet.set_link_down(node, port).expect("link down");
    let mut transport = SmpTransport::perfect(sm_a.sm_node);
    let report = sm_a
        .handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node, port },
            &mut transport,
        )
        .expect("repair sweep");
    assert_eq!(report.kind, SweepKind::Repair, "the repair path ran");
    assert!(report.failed_blocks.is_empty());
    let snap = sm_a.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.success.lash"), 1);
    assert_eq!(
        snap.counter("repair.fallback"),
        0,
        "the CDG gate accepted the incremental lane re-assignment"
    );

    // Arm B: full LASH recompute of the same degraded fabric.
    let (mut b, mut sm_b) = bring_up(
        build(),
        SmConfig {
            engine: EngineKind::Lash,
            ..SmConfig::default()
        },
    );
    let (node_b, port_b, _) = fault(&b);
    assert_eq!((node_b, port_b), (node, port), "twin fabrics, same cable");
    b.subnet.set_link_down(node_b, port_b).expect("link down");
    sm_b.full_reconfiguration(&mut b.subnet)
        .expect("full reconfiguration");

    let tables = |s: &Subnet| -> Vec<(NodeId, ib_subnet::Lft)> {
        s.physical_switches()
            .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
            .collect()
    };
    assert_eq!(
        tables(&a.subnet),
        tables(&b.subnet),
        "repair splice is byte-identical to the full recompute"
    );
    let r = FabricVerifier::new()
        .with_deadlock(true)
        .verify_with_vls(&a.subnet, sm_a.installed_vls().expect("tables installed"))
        .expect("verifier");
    assert!(r.is_clean(), "{}", r.summary());
}

/// The coalescing acceptance criterion: a 3-fault burst (seeded,
/// connectivity-preserving, every link down before any response — the
/// view a coalescing window hands the SM) repaired as one batched sweep
/// issues strictly fewer LFT SMPs and strictly fewer verifier passes
/// than repairing the same burst one trap at a time, with byte-identical
/// final tables on the paper's 648-node fat tree.
#[test]
fn batched_repair_beats_serial_on_a_648_tree_burst() {
    const FAULTS: usize = 3;
    let seed = 0x648_B57u64;
    let run = |batched: bool| {
        let (mut t, mut sm) = bring_up(
            paper_648(),
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        // Both arms re-derive the picks from the same seeded RNG over the
        // same evolving link state: identical cables, identical order.
        let links = core_links(&t.subnet);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let mut downed = Vec::new();
        for _ in 0..FAULTS {
            let cands = safe_to_down(&t.subnet, &links);
            let (a, p, _) = cands[rng.gen_range(0..cands.len())];
            t.subnet.set_link_down(a, p).expect("link down");
            downed.push((a, p));
        }
        assert_eq!(downed.len(), FAULTS, "burst fully injected");
        let mut smps = 0;
        if batched {
            let report = sm
                .repair_sweep_batch(&mut t.subnet, &downed, &mut transport)
                .expect("batch repair");
            assert_eq!(report.kind, SweepKind::Repair);
            assert!(report.failed_blocks.is_empty());
            smps += report.distribution.lft_smps;
        } else {
            for &(a, p) in &downed {
                let report = sm
                    .handle_trap(
                        &mut t.subnet,
                        Trap::LinkStateChange { node: a, port: p },
                        &mut transport,
                    )
                    .expect("trap");
                // The scoped gate accepts each mid-burst repair despite
                // the other faults' pre-existing damage.
                assert_eq!(report.kind, SweepKind::Repair);
                assert!(report.failed_blocks.is_empty());
                smps += report.distribution.lft_smps;
            }
        }
        let snap = sm.observer().snapshot().expect("metrics on");
        assert_eq!(snap.counter("repair.fallback"), 0, "no arm fell back");
        let r = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .expect("verifier");
        assert!(r.is_clean(), "{}", r.summary());
        let lfts: Vec<(NodeId, ib_subnet::Lft)> = t
            .subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().expect("installed LFT").clone()))
            .collect();
        (smps, snap.counter("verify.runs"), lfts)
    };

    let (batch_smps, batch_verifies, batch_lfts) = run(true);
    let (serial_smps, serial_verifies, serial_lfts) = run(false);
    assert!(
        batch_smps < serial_smps,
        "batch must send strictly fewer SMPs: {batch_smps} vs {serial_smps}"
    );
    assert_eq!(serial_verifies, FAULTS as u64, "one gate per serial repair");
    assert!(
        batch_verifies < serial_verifies,
        "batch must verify strictly fewer times: {batch_verifies} vs {serial_verifies}"
    );
    assert_eq!(batch_lfts, serial_lfts, "byte-identical final tables");
}
