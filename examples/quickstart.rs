//! Quickstart: build a virtualized IB fabric, boot VMs, live-migrate one.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ib_vswitch::prelude::*;
use ib_vswitch::topology::fattree;

fn main() {
    // A 2-level fat tree: 6 leaves x 6 hosts, 3 spines (36 hosts, 9
    // switches), every host virtualized into a hypervisor with 4 VFs whose
    // LIDs are prepopulated at boot (§V-A of the paper).
    let built = fattree::two_level(6, 6, 3);
    let mut dc = DataCenter::from_topology(
        built,
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 4,
            engine: EngineKind::FatTree,
            ..DataCenterConfig::default()
        },
    )
    .expect("bring-up");

    println!("== fabric ==");
    println!("  hypervisors        : {}", dc.hypervisors.len());
    println!(
        "  physical switches  : {}",
        dc.subnet.num_physical_switches()
    );
    println!("  LIDs consumed      : {}", dc.subnet.num_lids());
    println!(
        "  bring-up           : {} SMPs total ({} LFT blocks), PCt = {:?} ({})",
        dc.bring_up.total_smps(),
        dc.bring_up.distribution.lft_smps,
        dc.bring_up.path_computation,
        dc.bring_up.engine,
    );

    // Boot a few VMs.
    let vm0 = dc.create_vm("web-0", 0).expect("create");
    let vm1 = dc.create_vm("web-1", 1).expect("create");
    let _vm2 = dc.create_vm("db-0", 2).expect("create");
    println!("\n== VMs ==");
    for rec in dc.vms() {
        println!(
            "  {:>6} on hypervisor {:>2} slot {} | LID {:>3} GID {}",
            rec.name,
            rec.hypervisor,
            rec.vf_slot,
            rec.lid,
            rec.gid()
        );
    }

    // Live-migrate vm0 to the far side of the fabric.
    let report = dc.migrate_vm(vm0, 30).expect("migrate");
    println!("\n== migration of {} ==", report.vm);
    println!(
        "  hypervisor {} -> {} (intra-leaf: {})",
        report.from_hypervisor, report.to_hypervisor, report.intra_leaf
    );
    println!("  LID {} (the address follows the VM)", report.lid);
    println!(
        "  SMPs: {} to hypervisors, {} LFT updates on {} switches (n'), max {} per switch (m')",
        report.hypervisor_smps,
        report.lft.lft_smps,
        report.lft.switches_updated,
        report.lft.max_blocks_per_switch,
    );

    // And one more, within a leaf this time.
    let report = dc.migrate_vm(vm1, 0).expect("migrate");
    println!("\n== migration of {} ==", report.vm);
    println!(
        "  hypervisor {} -> {} (intra-leaf: {})",
        report.from_hypervisor, report.to_hypervisor, report.intra_leaf
    );
    println!(
        "  {} LFT SMPs on {} switches",
        report.lft.lft_smps, report.lft.switches_updated
    );

    dc.verify_connectivity().expect("fabric stays consistent");
    println!("\nconnectivity verified: every VM reachable from every hypervisor");
}
