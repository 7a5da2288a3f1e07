//! §VII-B: the OpenStack live-migration emulation, end to end — the four
//! steps, the Shared Port restrictions, and address preservation.

use ib_cloud::scenarios::{paper_testbed, testbed_datacenter};
use ib_cloud::{
    Inventory, LiveMigrationWorkflow, NodeResources, PlacementPolicy, SpreadPolicy, VmFlavor,
};
use ib_core::{DataCenterConfig, VirtArch};
use ib_mad::SmpTransport;
use ib_sim::SimTime;

fn config(arch: VirtArch) -> DataCenterConfig {
    DataCenterConfig {
        arch,
        vfs_per_hypervisor: 4,
        ..DataCenterConfig::default()
    }
}

#[test]
fn four_steps_execute_in_order_with_positive_durations() {
    let mut dc = testbed_datacenter(config(VirtArch::VSwitchPrepopulated)).unwrap();
    let vm = dc.create_vm("centos", 0).unwrap();
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    let trace = LiveMigrationWorkflow::default()
        .execute(&mut dc, vm, 3, &mut transport)
        .unwrap();
    let names: Vec<&str> = trace.steps.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "1-detach-vf-and-start-migration",
            "2-signal-opensm",
            "3-opensm-reconfigures",
            "4-attach-vf-with-guid",
        ]
    );
    assert!(trace.steps.iter().all(|s| s.duration > SimTime::ZERO));
    assert!(trace.addresses_preserved);
}

#[test]
fn guid_follows_the_vm() {
    let mut dc = testbed_datacenter(config(VirtArch::VSwitchDynamic)).unwrap();
    let vm = dc.create_vm("centos", 1).unwrap();
    let vguid = dc.vm(vm).unwrap().vguid;
    let gid = dc.vm(vm).unwrap().gid();
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    LiveMigrationWorkflow::default()
        .execute(&mut dc, vm, 4, &mut transport)
        .unwrap();
    let rec = dc.vm(vm).unwrap();
    assert_eq!(rec.vguid, vguid, "vGUID migrates with the VM");
    assert_eq!(rec.gid(), gid, "GID (prefix + vGUID) follows too");
}

#[test]
fn shared_port_allows_only_one_vm_per_node_to_move_safely() {
    let mut dc = testbed_datacenter(config(VirtArch::SharedPort)).unwrap();
    let a = dc.create_vm("a", 0).unwrap();
    let b = dc.create_vm("b", 0).unwrap();
    // Two VMs share hypervisor 0's LID: migrating either would break the
    // other — refused.
    assert!(dc.migrate_vm(a, 5).is_err());
    dc.destroy_vm(b).unwrap();
    // Alone, it may move to an empty node.
    let lid = dc.vm(a).unwrap().lid;
    let report = dc.migrate_vm(a, 5).unwrap();
    assert_eq!(report.lid, lid);
    assert_eq!(
        dc.vm(a).unwrap().lid,
        lid,
        "the LID value survives the move"
    );
    dc.verify_connectivity().unwrap();
}

#[test]
fn shared_port_vm_count_is_lid_bound_vswitch_is_not() {
    // The testbed emulation had to cap VMs at one per node; the vSwitch
    // architectures run the full VF complement.
    let mut shared = testbed_datacenter(config(VirtArch::SharedPort)).unwrap();
    let mut prepop = testbed_datacenter(config(VirtArch::VSwitchPrepopulated)).unwrap();
    for h in 0..6 {
        for v in 0..4 {
            shared.create_vm(format!("s-{h}-{v}"), h).unwrap();
            prepop.create_vm(format!("p-{h}-{v}"), h).unwrap();
        }
    }
    // Shared port: 24 VMs but only 11 LIDs in the subnet (VMs share).
    assert_eq!(shared.num_vms(), 24);
    assert_eq!(shared.subnet.num_lids(), 11);
    // Prepopulated: every VM owns a LID.
    assert_eq!(prepop.subnet.num_lids(), 35);
    let lids: std::collections::HashSet<u16> = prepop.vms().iter().map(|r| r.lid.raw()).collect();
    assert_eq!(lids.len(), 24, "24 distinct VM LIDs");
    let shared_lids: std::collections::HashSet<u16> =
        shared.vms().iter().map(|r| r.lid.raw()).collect();
    assert_eq!(shared_lids.len(), 6, "one shared LID per node");
}

#[test]
fn scheduler_places_and_workflow_moves() {
    // Place VMs with the spread policy, then rebalance one with the
    // workflow — the OpenStack-like control loop.
    let mut dc = testbed_datacenter(config(VirtArch::VSwitchPrepopulated)).unwrap();
    let mut inv = Inventory::from_nodes(vec![
        NodeResources {
            cores: 8,
            ram_gb: 32,
        },
        NodeResources {
            cores: 8,
            ram_gb: 32,
        },
        NodeResources {
            cores: 8,
            ram_gb: 32,
        },
        NodeResources {
            cores: 8,
            ram_gb: 32,
        },
        NodeResources {
            cores: 4,
            ram_gb: 32,
        },
        NodeResources {
            cores: 4,
            ram_gb: 32,
        },
    ]);
    let mut policy = SpreadPolicy;
    let flavor = VmFlavor::medium();
    let mut placed = Vec::new();
    for i in 0..6 {
        let h = policy.choose(&dc, &inv, &flavor).expect("capacity");
        inv.allocate(h, &flavor).unwrap();
        placed.push((dc.create_vm(format!("vm{i}"), h).unwrap(), h));
    }
    // Spread put one VM per node.
    let mut hosts: Vec<usize> = placed.iter().map(|&(_, h)| h).collect();
    hosts.sort_unstable();
    hosts.dedup();
    assert_eq!(hosts.len(), 6);

    // Evacuate node 5 (the small box) via the workflow.
    let (vm, src) = placed[5];
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    let trace = LiveMigrationWorkflow::default()
        .execute(&mut dc, vm, 0, &mut transport)
        .unwrap();
    inv.release(src, &flavor).unwrap();
    inv.allocate(0, &flavor).unwrap();
    assert!(trace.addresses_preserved);
    dc.verify_connectivity().unwrap();
}

#[test]
fn infra_nodes_keep_their_lids_out_of_the_vm_plane() {
    let built = paper_testbed().expect("testbed builds");
    let infra_count = built.subnet.num_hcas() - built.num_hosts();
    assert_eq!(infra_count, 3);
    let dc = testbed_datacenter(config(VirtArch::VSwitchDynamic)).unwrap();
    // 2 switches + 6 PFs + 3 infra = 11 LIDs, none of them VM LIDs.
    assert_eq!(dc.subnet.num_lids(), 11);
    assert_eq!(dc.num_vms(), 0);
}
