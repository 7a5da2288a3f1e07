//! Cross-crate scenarios around operational robustness: SM failover in the
//! middle of data-center life, and multi-tenant partitions riding along
//! with live migrations.

use ib_core::partition::{Membership, Tenancy};
use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_sm::failover::{SmGroup, SmState};
use ib_sm::{SmConfig, SubnetManager};
use ib_subnet::topology::fattree::two_level;

#[test]
fn failover_mid_datacenter_keeps_every_vm_reachable() {
    // Bring a data center up, run VMs, then replay an SM failover against
    // the same fabric: the standby adopts, and a subsequent migration
    // driven by the data center still works.
    let mut dc = DataCenter::from_topology(
        two_level(2, 3, 2),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let vm = dc.create_vm("survivor", 0).unwrap();

    // A standby SM group watching the same subnet (the data center's own
    // SM is the implicit master; hosts 1 and 2's PFs run standbys).
    let mut group = SmGroup::new(
        SmConfig::default(),
        vec![(dc.hypervisors[1].pf, 8), (dc.hypervisors[2].pf, 4)],
    );
    group.elect(&dc.subnet).unwrap();
    assert_eq!(group.master().unwrap().node, dc.hypervisors[1].pf);

    // Master dies; the standby adopts the fabric without renumbering.
    let lids_before = dc.subnet.lids();
    let (new_master, takeover_smps) = group.fail_over(&mut dc.subnet).unwrap();
    assert_eq!(new_master, dc.hypervisors[2].pf);
    assert!(takeover_smps > 0);
    assert_eq!(dc.subnet.lids(), lids_before, "no renumbering on failover");

    // Life goes on: migrate the VM and verify.
    let lid = dc.vm(vm).unwrap().lid;
    let report = dc.migrate_vm(vm, 5).unwrap();
    assert_eq!(report.lid, lid);
    assert_eq!(dc.vm(vm).unwrap().lid, lid, "the LID follows the VM");
    dc.verify_connectivity().unwrap();

    // The adopted manager can run a full reconfiguration. The earlier
    // swap-based migration rearranged rows relative to what the engine
    // would compute, so some blocks are dirty — but the fabric must stay
    // consistent afterwards, with the VM still at its migrated home.
    let inst = group.master_mut().unwrap();
    let rep = inst.manager.full_reconfiguration(&mut dc.subnet).unwrap();
    assert!(
        rep.distribution.lft_smps
            <= rep.distribution.switches_updated * rep.min_blocks_per_switch.max(1)
    );
    dc.verify_connectivity().unwrap();
}

#[test]
fn not_active_members_never_win() {
    let t = two_level(2, 2, 2);
    let mut subnet = t.subnet;
    let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
    sm.bring_up(&mut subnet).unwrap();

    let mut group = SmGroup::new(SmConfig::default(), vec![(t.hosts[0], 1), (t.hosts[1], 9)]);
    group.elect(&subnet).unwrap();
    // Kill both; third election must fail.
    group.fail_over(&mut subnet).unwrap();
    assert!(group.fail_over(&mut subnet).is_err());
    assert!(group
        .members()
        .iter()
        .all(|&(_, s)| s == SmState::NotActive));
}

#[test]
fn tenancy_survives_defragmentation() {
    // Partitions keep their members straight while the defragmenter
    // shuffles VMs across the fabric.
    let mut dc = ib_cloud::scenarios::testbed_datacenter(DataCenterConfig {
        arch: VirtArch::VSwitchDynamic,
        vfs_per_hypervisor: 4,
        ..DataCenterConfig::default()
    })
    .unwrap();
    let mut tenancy = Tenancy::new();
    tenancy.create_partition(0x11, "red").unwrap();
    tenancy.create_partition(0x22, "blue").unwrap();

    let mut red = Vec::new();
    let mut blue = Vec::new();
    for h in 0..4 {
        let r = dc.create_vm(format!("red-{h}"), h).unwrap();
        tenancy.enroll(&mut dc, r, 0x11, Membership::Full).unwrap();
        red.push(r);
        let b = dc.create_vm(format!("blue-{h}"), h).unwrap();
        tenancy.enroll(&mut dc, b, 0x22, Membership::Full).unwrap();
        blue.push(b);
    }

    let reports = ib_cloud::scenarios::defragment(&mut dc).unwrap();
    for r in &reports {
        tenancy.after_migration(&mut dc, r.vm).unwrap();
    }
    dc.verify_connectivity().unwrap();

    // Isolation is intact after the shuffle.
    for &r in &red {
        for &r2 in &red {
            assert!(tenancy.can_communicate(r, r2));
        }
        for &b in &blue {
            assert!(!tenancy.can_communicate(r, b));
        }
    }
    assert_eq!(tenancy.members(0x11).len(), 4);
    assert_eq!(tenancy.members(0x22).len(), 4);
}

#[test]
fn pkey_tables_reprogrammed_once_per_migration() {
    let mut dc = DataCenter::from_topology(
        two_level(2, 2, 2),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let mut tenancy = Tenancy::new();
    tenancy.create_partition(0x33, "green").unwrap();
    let vm = dc.create_vm("vm", 0).unwrap();
    tenancy.enroll(&mut dc, vm, 0x33, Membership::Full).unwrap();
    assert_eq!(tenancy.pkey_smps, 1);
    for (i, dest) in [2usize, 3, 1].into_iter().enumerate() {
        dc.migrate_vm(vm, dest).unwrap();
        tenancy.after_migration(&mut dc, vm).unwrap();
        assert_eq!(tenancy.pkey_smps, 2 + i);
    }
    dc.verify_connectivity().unwrap();
}
