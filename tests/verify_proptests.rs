//! Property-style tests over the fabric invariant verifier: fault-free
//! sweeps by every routing engine must verify clean on the paper's
//! topologies, and deliberately corrupted LFT entries must be caught in
//! the right invariant class no matter where the corruption lands.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so these are seeded randomized tests driven by the vendored
//! `rand` stub.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ib_core::migration::{swap_on_fabric, MigrationOptions};
use ib_mad::{SmpLedger, SmpTransport};
use ib_routing::testutil::{assign_lids, host_lid};
use ib_routing::EngineKind;
use ib_sm::{SmConfig, SubnetManager};
use ib_subnet::topology::fattree::{self, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_verify::{FabricVerifier, InvariantClass, LftSnapshot};

/// Computes and installs `engine`'s tables on `t`, returning the VL
/// layering for the verifier.
fn install(t: &mut BuiltTopology, engine: EngineKind) -> ib_routing::VlAssignment {
    assign_lids(t);
    let tables = engine.build().compute(&t.subnet).unwrap();
    tables.install(&mut t.subnet).unwrap();
    tables.vls
}

/// A managed min-hop fat tree for the corruption tests: LIDs assigned,
/// tables computed and installed.
fn minhop_fabric(leaves: usize, hosts_per_leaf: usize, spines: usize) -> BuiltTopology {
    let mut t = two_level(leaves, hosts_per_leaf, spines);
    install(&mut t, EngineKind::MinHop);
    t
}

// ---------------------------------------------------------------------
// Fault-free sweeps verify clean
// ---------------------------------------------------------------------

/// Every routing engine's fault-free tables on the paper's 324-node and
/// 648-node fat trees verify fully clean — black holes, forwarding
/// loops, addressing, *and* the per-lane CDG check.
///
/// Min-Hop and the fat-tree engine used to trip the deadlock invariant
/// here: spine-to-spine (switch LID) routes on a two-level tree must
/// descend and re-ascend — a valley — and neither engine made a VL
/// provision for that management traffic. Both now route switch-destined
/// columns up*/down*-legally on a dedicated lane, so all five engines
/// pass the full check.
#[test]
fn all_engines_verify_clean_on_paper_fat_trees() {
    let deadlock_free = EngineKind::all();
    for build in [
        fattree::paper_324 as fn() -> BuiltTopology,
        fattree::paper_648,
    ] {
        for engine in EngineKind::all() {
            let mut t = build();
            let vls = install(&mut t, engine);
            let report = FabricVerifier::new()
                .verify_with_vls(&t.subnet, &vls)
                .unwrap();
            let tag = format!("{} on {}", engine.name(), t.name);
            assert_eq!(
                report.count(InvariantClass::BlackHole),
                0,
                "{tag}: {report}"
            );
            assert_eq!(
                report.count(InvariantClass::ForwardingLoop),
                0,
                "{tag}: {report}"
            );
            assert_eq!(
                report.count(InvariantClass::Addressing),
                0,
                "{tag}: {report}"
            );
            if deadlock_free.contains(&engine) {
                assert!(report.is_clean(), "{tag}: {report}");
            }
            assert_eq!(report.switches, t.switch_levels.iter().map(Vec::len).sum());
        }
    }
}

/// The SM's own sweep-time verification gate (`SmConfig.verify`) passes
/// for every engine on a fault-free fat tree — bring-up succeeds instead
/// of erroring out. (The fat-tree engine's spine-to-spine valley used to
/// be rejected here; its switch-destined columns now ride a dedicated
/// up*/down*-legal lane. The gate's rejection path is exercised by
/// `minhop_on_wrapped_tori_always_trips_the_deadlock_invariant` below.)
#[test]
fn sm_sweep_verify_gate_passes_for_deadlock_free_engines() {
    for engine in EngineKind::all() {
        let mut t = two_level(4, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine,
                verify: true,
                ..SmConfig::default()
            },
        );
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(report.engine, engine.name());
    }
}

/// The deadlock-free engines verify clean on wrapped tori of random shape,
/// using the VL layering each engine produced.
#[test]
fn deadlock_free_engines_verify_clean_on_random_tori() {
    let mut rng = StdRng::seed_from_u64(0xFB_01);
    for _ in 0..6 {
        let rows = rng.gen_range(3usize..6);
        let cols = rng.gen_range(3usize..6);
        for engine in [EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash] {
            let mut t = torus_2d(rows, cols, 1, true);
            let vls = install(&mut t, engine);
            let report = FabricVerifier::new()
                .verify_with_vls(&t.subnet, &vls)
                .unwrap();
            assert!(
                report.is_clean(),
                "{} on {rows}x{cols} torus: {report}",
                engine.name()
            );
        }
    }
}

/// Min-hop on a wrapped torus is the canonical single-VL deadlock: the
/// verifier must report a CDG cycle (and nothing else), for any torus
/// shape, while the relaxed check stays clean.
#[test]
fn minhop_on_wrapped_tori_always_trips_the_deadlock_invariant() {
    let mut rng = StdRng::seed_from_u64(0xFB_02);
    for _ in 0..6 {
        let rows = rng.gen_range(4usize..7);
        let cols = rng.gen_range(4usize..7);
        let mut t = torus_2d(rows, cols, 1, true);
        install(&mut t, EngineKind::MinHop);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::DeadlockCycle) >= 1,
            "{rows}x{cols}: {report}"
        );
        assert_eq!(report.count(InvariantClass::BlackHole), 0);
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
        let relaxed = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .unwrap();
        assert!(relaxed.is_clean(), "{relaxed}");
    }
    // And the SM's sweep gate refuses to install such tables at all.
    let mut t = torus_2d(4, 4, 1, true);
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::MinHop,
            verify: true,
            ..SmConfig::default()
        },
    );
    let err = sm.bring_up(&mut t.subnet).unwrap_err();
    assert!(
        err.to_string().contains("deadlock-cycle"),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------
// Corrupted tables are caught, wherever the corruption lands
// ---------------------------------------------------------------------

/// Misrouting a random victim's row on its own leaf to a neighbor host is
/// always caught as a black hole (wrong-endpoint delivery).
#[test]
fn random_misroutes_are_black_holes() {
    let mut rng = StdRng::seed_from_u64(0xFB_03);
    for _ in 0..12 {
        let mut t = minhop_fabric(4, 3, 2);
        let victim_host = rng.gen_range(0usize..t.hosts.len());
        let victim = host_lid(&t, victim_host);
        // The victim's leaf, and a port on it leading to a *different* host.
        let leaf = t.switch_levels[0][victim_host / 3];
        let (wrong_port, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node != t.hosts[victim_host] && t.subnet.node(r.node).is_hca())
            .expect("leaf has another host");
        t.subnet.lft_mut(leaf).unwrap().set(victim, wrong_port);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::BlackHole) >= 1,
            "host {victim_host}: {report}"
        );
        assert!(report.summary().contains("wrong endpoint"));
    }
}

/// Cross-pointing a random (leaf, spine) pair's rows for a victim hosted
/// elsewhere is always caught as a forwarding loop.
#[test]
fn random_cross_pointing_rows_are_forwarding_loops() {
    let mut rng = StdRng::seed_from_u64(0xFB_04);
    for _ in 0..12 {
        let mut t = minhop_fabric(4, 2, 3);
        // Victim lives on leaf 0; corrupt a different leaf so the loop
        // sits on the far side of the fabric from the endpoint.
        let victim = host_lid(&t, rng.gen_range(0usize..2));
        let leaf = t.switch_levels[0][rng.gen_range(1usize..4)];
        let spine = t.switch_levels[1][rng.gen_range(0usize..3)];
        let (to_spine, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node == spine)
            .expect("leaf-spine cable");
        let (to_leaf, _) = t
            .subnet
            .node(spine)
            .connected_ports()
            .find(|(_, r)| r.node == leaf)
            .expect("spine-leaf cable");
        t.subnet.lft_mut(leaf).unwrap().set(victim, to_spine);
        t.subnet.lft_mut(spine).unwrap().set(victim, to_leaf);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::ForwardingLoop) >= 1,
            "{report}"
        );
    }
}

/// Dropping a random victim's row from its own leaf is always caught as a
/// black hole (missing row), and an explicit drop entry likewise.
#[test]
fn random_dropped_rows_are_black_holes() {
    let mut rng = StdRng::seed_from_u64(0xFB_05);
    for round in 0..12 {
        let mut t = minhop_fabric(4, 3, 2);
        let victim_host = rng.gen_range(0usize..t.hosts.len());
        let victim = host_lid(&t, victim_host);
        let leaf = t.switch_levels[0][victim_host / 3];
        if round % 2 == 0 {
            t.subnet.lft_mut(leaf).unwrap().clear(victim);
        } else {
            t.subnet
                .lft_mut(leaf)
                .unwrap()
                .set(victim, ib_types::PortNum::DROP);
        }
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::BlackHole) >= 1,
            "host {victim_host}: {report}"
        );
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
    }
}

// ---------------------------------------------------------------------
// Algorithm-1 locality: a swap touches exactly the two swapped columns
// ---------------------------------------------------------------------

/// §V-C's locality claim as a property: a LID swap between two random
/// hosts changes the forwarding columns of exactly those two LIDs — every
/// uninvolved column is byte-identical — and swapping back restores the
/// original fingerprint of the whole fabric.
#[test]
fn algorithm1_swap_touches_only_the_swapped_columns() {
    let mut rng = StdRng::seed_from_u64(0xFB_06);
    for _ in 0..8 {
        let mut t = minhop_fabric(4, 3, 2);
        let sm_node = t.hosts[0];
        // Two hosts on different leaves, so their rows genuinely differ
        // somewhere and the swap is not a no-op.
        let ha = rng.gen_range(0usize..3);
        let hb = 3 + rng.gen_range(0usize..9);
        let (a, b) = (host_lid(&t, ha), host_lid(&t, hb));
        let opts = MigrationOptions::default();
        let mut ledger = SmpLedger::new();
        let mut transport = SmpTransport::perfect(sm_node);
        let mut swap = |subnet: &mut ib_subnet::Subnet| {
            let (_, tx) = swap_on_fabric(
                subnet,
                sm_node,
                a,
                b,
                &opts,
                None,
                &mut transport,
                &mut ledger,
            )
            .unwrap();
            assert!(tx.committed);
        };

        let before = LftSnapshot::capture(&t.subnet);
        swap(&mut t.subnet);
        let after = LftSnapshot::capture(&t.subnet);

        let changed = before.diff(&after);
        assert_eq!(changed, vec![a.raw().min(b.raw()), a.raw().max(b.raw())]);
        assert!(before.verify_preserved(&after, &[a, b]).is_empty());
        let violations = before.verify_preserved(&after, &[]);
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .all(|v| v.class == InvariantClass::Addressing));

        // Swap back: the fabric fingerprint is restored exactly.
        swap(&mut t.subnet);
        let restored = LftSnapshot::capture(&t.subnet);
        assert!(before.diff(&restored).is_empty());
    }
}
