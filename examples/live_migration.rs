//! The §VII-B OpenStack live-migration workflow on the paper's testbed,
//! run under all three SR-IOV architectures.
//!
//! ```sh
//! cargo run --example live_migration
//! ```

use ib_cloud::scenarios::testbed_datacenter;
use ib_vswitch::prelude::*;

fn run(arch: VirtArch) {
    println!("\n================ {arch} ================");
    let mut dc = testbed_datacenter(DataCenterConfig {
        arch,
        vfs_per_hypervisor: 4,
        ..DataCenterConfig::default()
    })
    .expect("testbed bring-up");

    println!(
        "testbed: {} compute hypervisors, {} switches, {} LIDs",
        dc.hypervisors.len(),
        dc.subnet.num_physical_switches(),
        dc.subnet.num_lids()
    );

    let vm = dc.create_vm("centos7-vm", 0).expect("boot VM");
    {
        let rec = dc.vm(vm).unwrap();
        println!(
            "booted {} on hypervisor 0: LID {} vGUID {}",
            rec.name, rec.lid, rec.vguid
        );
    }

    // Under Shared Port the destination must be empty (the emulation
    // restriction); hypervisor 3 is on the other switch.
    let workflow = LiveMigrationWorkflow::default();
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    match workflow.execute(&mut dc, vm, 3, &mut transport) {
        Ok(trace) => {
            println!("four-step workflow:");
            for step in &trace.steps {
                println!("  {:<36} {}", step.name, step.duration);
            }
            println!(
                "downtime {} (network reconfiguration share: {:.4}%)",
                trace.timeline.downtime,
                trace.timeline.reconfiguration_share() * 100.0
            );
            println!(
                "addresses preserved across migration: {}",
                trace.addresses_preserved
            );
            println!(
                "reconfiguration SMPs: {} hypervisor-side + {} LFT updates (n' = {}, m' = {})",
                trace.report.hypervisor_smps,
                trace.report.lft.lft_smps,
                trace.report.lft.switches_updated,
                trace.report.lft.max_blocks_per_switch
            );
        }
        Err(e) => println!("migration refused: {e}"),
    }

    // Demonstrate the Shared Port restriction: boot a second VM on the
    // destination and try to move the first one back.
    if arch == VirtArch::SharedPort {
        let _squatter = dc.create_vm("squatter", 0).expect("boot");
        match dc.migrate_vm(vm, 0) {
            Err(e) => println!("as expected, shared-port refuses: {e}"),
            Ok(_) => println!("unexpected: shared-port migration onto a busy node succeeded"),
        }
    }

    dc.verify_connectivity()
        .expect("post-migration fabric consistent");
    println!("connectivity verified");
}

fn main() {
    println!("replica of the paper's testbed (section VII-A):");
    println!("  2x SUN DCS 36 QDR switches, 6 compute nodes, 3 infra nodes");
    for arch in [
        VirtArch::SharedPort,
        VirtArch::VSwitchPrepopulated,
        VirtArch::VSwitchDynamic,
    ] {
        run(arch);
    }
}
