//! The fault layer's zero-cost property: running any pipeline under an
//! empty [`FaultPlan`] is byte-identical to running without the fault
//! layer at all — same ledger records (per-attempt accounting included),
//! same LFT contents, same replayed timings — for any plan seed. The
//! migration reference is the ledger phase and the moved columns the
//! record-only migration produced on this fabric, kept as literals.

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::{AttributeKind, SmpMethod, SmpStatus, SmpTransport};
use ib_sim::{FaultPlan, SmpLatencyModel, SmpReplay};
use ib_sm::Trap;
use ib_subnet::topology::fattree::two_level;
use ib_subnet::Lft;
use ib_types::{Lid, PortNum};

fn dc(arch: VirtArch) -> DataCenter {
    DataCenter::from_topology(
        two_level(2, 3, 2),
        DataCenterConfig {
            arch,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
    )
    .expect("bring-up")
}

/// The migration phase the record-only (fault-layer-free) migration
/// logged on this fabric before it was folded into the transactional
/// pipeline, for both vSwitch architectures: (target node index,
/// attribute, directed, hops), every record a first-try delivered `Set`.
const CLASSIC_MIGRATION_PHASE: [(usize, AttributeKind, bool, usize); 7] = [
    (4, AttributeKind::PortInfo, true, 0),
    (8, AttributeKind::PortInfo, true, 6),
    (8, AttributeKind::GuidInfo, true, 6),
    (0, AttributeKind::LftBlock, false, 2),
    (1, AttributeKind::LftBlock, false, 4),
    (2, AttributeKind::LftBlock, false, 3),
    (3, AttributeKind::LftBlock, false, 3),
];

/// The columns that record-only migration moved — (LID, output port on
/// physical switches 0..4) — with every other row left as it was.
fn classic_moved_columns(arch: VirtArch) -> Vec<(u16, [u8; 4])> {
    match arch {
        VirtArch::VSwitchPrepopulated => vec![(6, [4, 2, 2, 2]), (18, [1, 5, 1, 1])],
        _ => vec![(11, [5, 2, 2, 2])],
    }
}

fn physical_lfts(dc: &DataCenter) -> Vec<Lft> {
    dc.subnet
        .physical_switches()
        .map(|n| n.lft().expect("switch LFT").clone())
        .collect()
}

#[test]
fn empty_plan_migration_is_byte_identical_for_any_seed() {
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        // The seed must not matter when the drop probability is zero.
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let plan = FaultPlan::lossy(seed, 0.0);
            assert!(plan.is_fault_free());
            let mut faulty = dc(arch);
            let vm = faulty.create_vm("vm", 0).expect("create");
            let before = physical_lfts(&faulty);
            let mut transport = plan.transport(faulty.sm.sm_node);
            let report = faulty
                .migrate_vm_resilient(vm, 4, &mut transport)
                .expect("resilient migration");

            assert!(report.committed, "{arch}");
            assert_eq!(report.tx.retries, 0);
            assert_eq!(report.tx.rollback_smps, 0);
            // Ledger: the recorded records, attempt numbers and statuses
            // included.
            let phase = format!("migrate-{vm}");
            let records: Vec<(usize, AttributeKind, bool, usize)> = faulty
                .sm
                .ledger
                .phase_records(&phase)
                .iter()
                .map(|r| {
                    assert_eq!(r.method, SmpMethod::Set, "{arch} seed {seed}");
                    assert_eq!(r.attempt, 0, "{arch} seed {seed}");
                    assert_eq!(r.status, SmpStatus::Delivered, "{arch} seed {seed}");
                    (r.target.index(), r.attribute, r.directed, r.hops)
                })
                .collect();
            assert_eq!(
                records, CLASSIC_MIGRATION_PHASE,
                "{arch} seed {seed}: ledger must be byte-identical"
            );
            // Fabric: the recorded columns moved, nothing else.
            let after = physical_lfts(&faulty);
            let moved = classic_moved_columns(arch);
            for (raw, ports) in &moved {
                let column: Vec<Option<PortNum>> =
                    after.iter().map(|l| l.get(Lid::from_raw(*raw))).collect();
                let want: Vec<Option<PortNum>> =
                    ports.iter().map(|&p| Some(PortNum::new(p))).collect();
                assert_eq!(column, want, "{arch} seed {seed}: LID {raw}");
            }
            for (was, now) in before.iter().zip(&after) {
                for raw in 1..=was.num_blocks() as u16 * 64 {
                    if moved.iter().all(|(m, _)| *m != raw) {
                        let lid = Lid::from_raw(raw);
                        assert_eq!(was.get(lid), now.get(lid), "{arch} seed {seed}: LID {raw}");
                    }
                }
            }
            // Timings: the outcome-aware replay degenerates to the plain
            // replay, and the transport's virtual clock equals the serial
            // replay makespan (no jitter, no timeouts).
            let model = SmpLatencyModel::default();
            let plain = SmpReplay::run(&faulty.sm.ledger, Some(&phase), &model);
            let outcome_aware = SmpReplay::run_with_faults(
                &faulty.sm.ledger,
                Some(&phase),
                &model,
                &transport.retry,
            );
            assert_eq!(plain, outcome_aware);
            assert_eq!(transport.clock_ns(), plain.makespan.as_ns());
        }
    }
}

#[test]
fn empty_plan_resweep_matches_perfect_transport() {
    let (mut a, mut b) = (
        dc(VirtArch::VSwitchPrepopulated),
        dc(VirtArch::VSwitchPrepopulated),
    );
    // Same link failure on both fabrics.
    let cut = |dc: &DataCenter| {
        let leaf = dc.hypervisors[0].leaf;
        dc.subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, ep)| dc.subnet.node(ep.node).is_switch())
            .map(|(port, _)| port)
            .expect("leaf uplink")
    };
    let (pa, pb) = (cut(&a), cut(&b));
    assert_eq!(pa, pb);
    let (la, lb) = (a.hypervisors[0].leaf, b.hypervisors[0].leaf);
    a.subnet.set_link_down(la, pa).expect("cut");
    b.subnet.set_link_down(lb, pb).expect("cut");

    let mut perfect = SmpTransport::perfect(a.sm.sm_node);
    let ra =
        a.sm.handle_trap(
            &mut a.subnet,
            Trap::LinkStateChange { node: la, port: pa },
            &mut perfect,
        )
        .expect("re-sweep");
    let mut planned = FaultPlan::none().transport(b.sm.sm_node);
    let rb =
        b.sm.handle_trap(
            &mut b.subnet,
            Trap::LinkStateChange { node: lb, port: pb },
            &mut planned,
        )
        .expect("re-sweep");

    assert_eq!(ra, rb, "re-sweep reports must match");
    assert_eq!(a.sm.ledger.records(), b.sm.ledger.records());
    for sw in a.subnet.physical_switches() {
        assert_eq!(b.subnet.lft(sw.id).unwrap(), sw.lft().unwrap());
    }
}

#[test]
fn empty_plan_driver_never_touches_the_subnet() {
    let mut dcx = dc(VirtArch::VSwitchDynamic);
    let before: Vec<_> = dcx
        .subnet
        .physical_switches()
        .map(|n| (n.id, n.lft().unwrap().clone()))
        .collect();
    let plan = FaultPlan::none();
    let mut driver = plan.driver();
    assert!(driver.is_done());
    assert_eq!(driver.next_fault_at(), None);
    let fired = driver
        .advance(&mut dcx.subnet, ib_sim::SimTime(u64::MAX))
        .expect("advance");
    assert!(fired.is_empty());
    for (id, lft) in before {
        assert_eq!(dcx.subnet.lft(id).unwrap(), &lft);
    }
    // (`validate(true)` would reject the dormant, uncabled VFs of dynamic
    // mode — the degraded validator checks exactly what matters here.)
    dcx.subnet
        .validate_degraded()
        .expect("untouched fabric still validates");
}
