//! `migrate-ft648`: one operation is one `migrate_vm_resilient` over a
//! perfect transport in a prepopulated-LID vSwitch data center on the
//! paper's 648-node fat tree — the paper's headline path, a handful of
//! SMPs and no path computation.
//!
//! A pass is one round trip: a seeded VM goes to a seeded hypervisor and
//! back. Every trip starts from the initial placement (two VMs in VF
//! slots 0 and 1 of every hypervisor), so any destination has a free VF
//! and the run ends on the bring-up tables.

use std::time::Instant;

use ib_core::{DataCenter, DataCenterConfig, VirtArch, VmId};
use ib_mad::{SmpLedger, SmpTransport};
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions};
use ib_subnet::topology::fattree;
use ib_subnet::Lft;

use crate::gen::round_trips;
use crate::{add, installed_lfts, trace, Bench, OpKind, PassOut, Setup};

/// VFs per hypervisor.
const VFS: usize = 4;
/// VMs booted per hypervisor.
const VMS_PER_HYPERVISOR: usize = 2;
/// Untimed round trips run during set-up.
const WARMUP_TRIPS: usize = 100;

/// The migration workload, set up.
#[derive(Debug)]
pub struct Migrate {
    dc: DataCenter,
    vms: Vec<VmId>,
    homes: Vec<usize>,
    trips: Vec<(usize, usize)>,
    pristine: Vec<Option<Lft>>,
}

impl Migrate {
    /// Builds the data center, boots the VMs, draws the trips and runs the
    /// warm-up trips.
    #[must_use]
    pub fn new(setup: Setup) -> Self {
        let config = DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: VFS,
            engine: EngineKind::FatTree,
            routing: RoutingOptions::default().with_workers(setup.workers),
            verify: false,
            ..DataCenterConfig::default()
        };
        let mut dc =
            DataCenter::from_topology(fattree::paper_648(), config).expect("data center bring-up");
        let mut vms = Vec::new();
        let mut homes = Vec::new();
        for hyp in 0..dc.hypervisors.len() {
            for k in 0..VMS_PER_HYPERVISOR {
                vms.push(dc.create_vm(format!("vm{hyp}-{k}"), hyp).expect("VM boot"));
                homes.push(hyp);
            }
        }
        let pristine = installed_lfts(&dc.subnet);
        let hypervisors = dc.hypervisors.len();
        let trips = round_trips(setup.seed, &homes, hypervisors, setup.passes);
        let warmup = round_trips(!setup.seed, &homes, hypervisors, WARMUP_TRIPS);
        let mut bench = Self {
            dc,
            vms,
            homes,
            trips: warmup,
            pristine,
        };
        for i in 0..WARMUP_TRIPS {
            let out = bench.run_pass(i, &Observer::disabled());
            assert!(
                out.failures.is_empty(),
                "warm-up migration failed: {:?}",
                out.failures
            );
        }
        bench.trips = trips;
        bench
    }
}

impl Bench for Migrate {
    fn run_pass(&mut self, index: usize, obs: &Observer) -> PassOut {
        let mut out = PassOut::default();
        self.dc.sm.set_observer(obs.clone());
        let mut transport = SmpTransport::perfect(self.dc.sm.sm_node);
        let (vm_index, dest) = self.trips[index];
        let vm = self.vms[vm_index];
        for to in [dest, self.homes[vm_index]] {
            let before = self.dc.sm.ledger.total();
            let started = Instant::now();
            let span = obs.span(trace::OP);
            let result = self.dc.migrate_vm_resilient(vm, to, &mut transport);
            span.end();
            let ns = started.elapsed().as_nanos() as u64;
            let smps = (self.dc.sm.ledger.total() - before) as u64;
            let why = match &result {
                Err(e) => Some(format!("migration of {vm} to {to}: {e}")),
                Ok(r) if !r.committed => Some(format!("migration of {vm} to {to} rolled back")),
                Ok(r) if r.lft.max_blocks_per_switch > 2 => Some(format!(
                    "migration of {vm} to {to} touched {} blocks on one switch",
                    r.lft.max_blocks_per_switch
                )),
                Ok(r)
                    if (r.hypervisor_smps + r.lft.lft_smps + r.lft.invalidation_smps) as u64
                        != smps =>
                {
                    Some(format!(
                        "migration of {vm} to {to}: report and ledger disagree"
                    ))
                }
                Ok(_) => None,
            };
            out.op(OpKind::Op, ns, smps, why);
            if obs.is_enabled() {
                if let Ok(r) = &result {
                    add(
                        &mut out.totals,
                        "migration.hypervisor_smps",
                        r.hypervisor_smps as f64,
                    );
                    add(&mut out.totals, "migration.lft_smps", r.lft.lft_smps as f64);
                    add(
                        &mut out.totals,
                        "migration.switches_updated",
                        r.lft.switches_updated as f64,
                    );
                    add(
                        &mut out.totals,
                        "migration.max_blocks_per_switch",
                        r.lft.max_blocks_per_switch as f64,
                    );
                    add(
                        &mut out.totals,
                        "migration.committed",
                        f64::from(u8::from(r.committed)),
                    );
                }
            }
        }
        // The ledger keeps every SMP it ever recorded; draining it per pass
        // keeps the process's memory at the working set, not the history.
        self.dc.sm.ledger = SmpLedger::new();
        out
    }

    fn finish(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Err(e) = self.dc.verify_connectivity() {
            failures.push(format!("connectivity: {e}"));
        }
        if installed_lfts(&self.dc.subnet) != self.pristine {
            failures.push("round trips did not restore the bring-up tables".into());
        }
        failures
    }
}
