//! The repository benchmark.
//!
//! Four seeded, closed-loop workloads drive the subnet manager through its
//! public API from one process, one operation at a time: the next
//! operation starts only after the previous one returned. Each workload is
//! a sequence of *passes*; a pass starts and ends in the same fabric state,
//! so any two passes can run back to back, and a traced run can run every
//! pass both with tracing off and with tracing on.
//!
//! The amount of work is fixed by the seed and `--seconds` (a nominal pass
//! rate per workload turns seconds into passes), so the exact counts of two
//! runs of one seed are comparable whatever the machine's speed.

#![forbid(unsafe_code)]

pub mod bringup;
pub mod churn;
pub mod gen;
pub mod migrate;
pub mod report;
pub mod run;
pub mod trace;

use std::collections::BTreeMap;

use ib_observe::Observer;
use ib_subnet::{Lft, Subnet};

/// Worker threads for routing and sweep planning: the CPU count of the
/// machine the workloads were sized on.
pub const WORKERS: usize = 2;

/// The workloads, by their fixed names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh bring-up of the paper's 5832-node fat tree.
    BringupFt5832,
    /// Coalesced link-failure bursts and restorations on the 5832-node
    /// tree under Up*/Down*.
    LinkchurnUpdn5832,
    /// Single link failures and restorations on a dragonfly under DFSSSP.
    LinkchurnDf,
    /// Round-trip live migrations on the 648-node tree's data center.
    MigrateFt648,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BringupFt5832,
        Workload::LinkchurnUpdn5832,
        Workload::LinkchurnDf,
        Workload::MigrateFt648,
    ];

    /// The workload's fixed name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BringupFt5832 => "bringup-ft5832",
            Workload::LinkchurnUpdn5832 => "linkchurn-updn5832",
            Workload::LinkchurnDf => "linkchurn-df",
            Workload::MigrateFt648 => "migrate-ft648",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes per second of `--seconds` on the 2-CPU machine the workloads
    /// were sized on.
    fn passes_per_second(self) -> f64 {
        match self {
            Workload::BringupFt5832 => 1.0 / 0.62,
            Workload::LinkchurnUpdn5832 => 1.0 / 6.5,
            Workload::LinkchurnDf => 1.0 / 0.45,
            Workload::MigrateFt648 => 1.0 / 0.0013,
        }
    }

    /// Set-ups per run; `setup_s` is their median. Cheap set-ups are
    /// repeated more, so every workload spends a few seconds on them.
    #[must_use]
    pub fn setups(self) -> usize {
        match self {
            Workload::BringupFt5832 => 5,
            Workload::LinkchurnUpdn5832 => 3,
            Workload::LinkchurnDf => 21,
            Workload::MigrateFt648 => 9,
        }
    }

    /// The pass count a run of `seconds` makes: at least one.
    #[must_use]
    pub fn passes_for(self, seconds: f64) -> usize {
        ((seconds * self.passes_per_second()).round() as usize).max(1)
    }
}

/// What one operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// The workload's only kind of operation.
    Op,
    /// A link-failure event.
    Down,
    /// A link-restoration event.
    Up,
}

/// One timed operation.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Its kind.
    pub kind: OpKind,
    /// Wall time of the operation (ns).
    pub ns: u64,
    /// SMPs the SM's ledger recorded during it: discovery, LID, LFT and
    /// hypervisor SMPs alike.
    pub smps: u64,
    /// Whether it failed: an error, undelivered blocks, a rolled-back
    /// migration or a failed correctness check.
    pub failed: bool,
}

/// Named sums over a pass, for the per-layer metrics.
pub type Totals = BTreeMap<String, f64>;

/// Adds `v` to the sum named `key`.
pub fn add(totals: &mut Totals, key: &str, v: f64) {
    *totals.entry(key.to_string()).or_default() += v;
}

/// What one pass produced.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Its operations, in order.
    pub ops: Vec<OpRecord>,
    /// Sums read from the SM's reports (traced passes only).
    pub totals: Totals,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

impl PassOut {
    /// Records a timed operation, marking it failed with `why` when set.
    pub fn op(&mut self, kind: OpKind, ns: u64, smps: u64, why: Option<String>) {
        let failed = why.is_some();
        if let Some(why) = why {
            self.failures.push(why);
        }
        self.ops.push(OpRecord {
            kind,
            ns,
            smps,
            failed,
        });
    }
}

/// A workload set up and ready to run passes.
pub trait Bench {
    /// Runs pass `index`. `obs` is disabled on untraced passes; on traced
    /// passes it is the observer the SM reports into and the benchmark's
    /// own spans share.
    fn run_pass(&mut self, index: usize, obs: &Observer) -> PassOut;

    /// End-of-run correctness checks; one line per failure.
    fn finish(&mut self) -> Vec<String>;
}

/// How a workload is set up.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Workload seed.
    pub seed: u64,
    /// Passes the run will make.
    pub passes: usize,
    /// Routing and sweep worker threads.
    pub workers: usize,
}

/// Every switch's installed LFT, in switch order: the fingerprint a pass
/// or run that restores the fabric must end on.
#[must_use]
pub fn installed_lfts(subnet: &Subnet) -> Vec<Option<Lft>> {
    subnet
        .physical_switches()
        .map(|n| n.lft().cloned())
        .collect()
}

/// Sets `workload` up: fabric build, bring-up, placement and warm-up.
#[must_use]
pub fn setup(workload: Workload, setup: Setup) -> Box<dyn Bench> {
    match workload {
        Workload::BringupFt5832 => Box::new(bringup::BringUp::new(setup)),
        Workload::LinkchurnUpdn5832 => Box::new(churn::Churn::updn5832(setup)),
        Workload::LinkchurnDf => Box::new(churn::Churn::dragonfly(setup)),
        Workload::MigrateFt648 => Box::new(migrate::Migrate::new(setup)),
    }
}
