//! The motivation chain of §I, reproduced end to end: peers of a migrated
//! VM either storm the SA with PathRecord queries (addresses changed — the
//! Shared Port world) or reconnect from cache (addresses preserved — the
//! vSwitch world, enabling the reference-[10] caching scheme).
//!
//! ```sh
//! cargo run --example sa_cache
//! ```

use ib_vswitch::prelude::*;
use ib_vswitch::sm::{PathRecordCache, SaService};
use ib_vswitch::topology::fattree;
use ib_vswitch::types::Gid;

fn main() {
    let built = fattree::two_level(4, 4, 2);
    let mut dc = DataCenter::from_topology(
        built,
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            ..DataCenterConfig::default()
        },
    )
    .expect("bring-up");

    // One VM that everyone talks to.
    let server = dc.create_vm("server", 0).expect("create");
    let server_gid: Gid = dc.vm(server).unwrap().gid();

    // The SA directory tracks the VM's addresses.
    let mut sa = SaService::new();
    sa.register(server_gid, dc.vm(server).unwrap().lid);

    // Twelve peers resolve the server once and cache the record.
    let mut caches: Vec<PathRecordCache> = (0..12).map(|_| PathRecordCache::new()).collect();
    let peer_lids: Vec<_> = (1..13)
        .map(|h| dc.hypervisors[h].pf_lid(&dc.subnet).unwrap())
        .collect();
    for (cache, &slid) in caches.iter_mut().zip(&peer_lids) {
        cache
            .resolve(&mut sa, &dc.subnet, slid, server_gid)
            .expect("resolve");
    }
    println!(
        "before migration: {} SA queries (one per peer, cold caches)",
        sa.queries_served
    );

    // Live-migrate the server across the fabric. Under the vSwitch
    // architecture all three addresses follow it.
    let report = dc.migrate_vm(server, 15).expect("migrate");
    println!(
        "migrated {} hyp {} -> {} | LID {} (unchanged) | {} LFT SMPs",
        report.vm, report.from_hypervisor, report.to_hypervisor, report.lid, report.lft.lft_smps
    );

    // Every cached record is still valid: the GID still answers at the
    // cached LID, because the LID moved *with* the VM.
    let stale = caches
        .iter()
        .filter(|c| c.is_stale(&dc.subnet, server_gid))
        .count();
    println!("stale cache entries after vSwitch migration: {stale}");

    let queries_before = sa.queries_served;
    for (cache, &slid) in caches.iter_mut().zip(&peer_lids) {
        let rec = cache
            .resolve(&mut sa, &dc.subnet, slid, server_gid)
            .expect("resolve");
        assert_eq!(rec.dlid, report.lid);
    }
    println!(
        "SA queries caused by 12 reconnections: {} (reference [10]'s caching pays off)",
        sa.queries_served - queries_before
    );

    // Contrast: simulate the Shared Port world where the LID changes.
    // Rebinding the server's record to a different LID invalidates every
    // cache at once — the query storm of §I.
    println!("\n-- counterfactual: the VM's LID had changed (Shared Port) --");
    let mut storm = 0;
    for cache in &mut caches {
        cache.invalidate(server_gid);
        storm += 1;
    }
    let queries_before = sa.queries_served;
    for (cache, &slid) in caches.iter_mut().zip(&peer_lids) {
        cache
            .resolve(&mut sa, &dc.subnet, slid, server_gid)
            .expect("resolve");
    }
    println!(
        "invalidated {storm} caches; reconnection cost {} fresh SA queries",
        sa.queries_served - queries_before
    );

    dc.verify_connectivity().expect("fabric consistent");
}
