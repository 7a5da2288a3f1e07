//! `bringup-ft5832`: one operation is one `SubnetManager::bring_up` of a
//! freshly built 5832-node fat tree under the fat-tree engine — the
//! paper's Fig. 7 / Table I path, `PCt` plus `n·m` LFT SMPs.

use std::time::Instant;

use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions};
use ib_sm::{BringUpReport, SmConfig, SubnetManager, SweepOptions};
use ib_subnet::topology::{fattree, BuiltTopology};
use ib_verify::ReverseRouteIndex;

use crate::{add, trace, Bench, OpKind, PassOut, Setup};

/// Table I's `n·m` for the 5832-node tree: 972 switches × 107 blocks.
pub const LFT_SMPS: usize = 972 * 107;

/// The bring-up workload.
#[derive(Debug)]
pub struct BringUp {
    /// Index into the tree's host list of the node the SM runs on.
    sm_host: usize,
    workers: usize,
    /// Routing decisions of the warm-up bring-up; every op must match.
    decisions: u64,
}

impl BringUp {
    /// Seeds the SM's host and runs the untimed warm-up bring-up.
    #[must_use]
    pub fn new(setup: Setup) -> Self {
        let mut t = build(&Observer::disabled());
        let sm_host = (setup.seed % t.hosts.len() as u64) as usize;
        let mut bench = Self {
            sm_host,
            workers: setup.workers,
            decisions: 0,
        };
        let (report, ..) = bench.bring_up(&mut t, &Observer::disabled());
        bench.decisions = report.map_or(0, |r| r.decisions);
        bench
    }

    fn config(&self) -> SmConfig {
        SmConfig {
            engine: EngineKind::FatTree,
            routing: RoutingOptions::default().with_workers(self.workers),
            sweep: SweepOptions::with_workers(self.workers),
            ..SmConfig::default()
        }
    }

    /// Brings `t` up as one operation: the report, the operation's wall
    /// time (ns) and the SMPs the ledger recorded.
    fn bring_up(
        &self,
        t: &mut BuiltTopology,
        obs: &Observer,
    ) -> (Result<BringUpReport, String>, u64, usize) {
        let mut sm = SubnetManager::new(t.hosts[self.sm_host], self.config());
        sm.set_observer(obs.clone());
        let started = Instant::now();
        let span = obs.span(trace::OP);
        let report = sm.bring_up(&mut t.subnet);
        span.end();
        let ns = started.elapsed().as_nanos() as u64;
        (report.map_err(|e| e.to_string()), ns, sm.ledger.total())
    }
}

fn build(obs: &Observer) -> BuiltTopology {
    let _span = obs.span("subnet.build");
    fattree::paper_5832()
}

impl Bench for BringUp {
    fn run_pass(&mut self, _index: usize, obs: &Observer) -> PassOut {
        let mut out = PassOut::default();
        let mut t = build(obs);
        let (report, ns, smps) = self.bring_up(&mut t, obs);
        let why = match &report {
            Err(e) => Some(format!("bring-up failed: {e}")),
            Ok(r) if r.distribution.lft_smps != LFT_SMPS => Some(format!(
                "bring-up sent {} LFT SMPs, Table I says {LFT_SMPS}",
                r.distribution.lft_smps
            )),
            Ok(r) if r.decisions != self.decisions => Some(format!(
                "bring-up made {} routing decisions, the warm-up made {}",
                r.decisions, self.decisions
            )),
            Ok(r) if r.total_smps() != smps => Some(format!(
                "report counts {} SMPs, the ledger {smps}",
                r.total_smps()
            )),
            Ok(_) => None,
        };
        out.op(OpKind::Op, ns, smps as u64, why);
        if obs.is_enabled() {
            if let Ok(r) = &report {
                add(
                    &mut out.totals,
                    "sm.discovery_smps",
                    r.discovery_smps as f64,
                );
                add(&mut out.totals, "sm.lid_smps", r.lid_smps as f64);
                add(
                    &mut out.totals,
                    "sweep.lft_smps",
                    r.distribution.lft_smps as f64,
                );
                add(&mut out.totals, "routing.decisions", r.decisions as f64);
            }
            let _span = obs.span("rindex.build");
            std::hint::black_box(ReverseRouteIndex::from_installed(&t.subnet));
        }
        out
    }

    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}
