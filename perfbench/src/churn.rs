//! The link-churn workloads: trap → converged, verified fabric.
//!
//! * `linkchurn-updn5832` — the 5832-node fat tree under Up*/Down* with
//!   repair, verify and coalescing on. A pass fails one burst each of 1, 2
//!   and 3 cables; a burst's downs are delivered through `handle_trap_at`
//!   on a logical clock, then one `flush_coalesced`: one batched repair.
//! * `linkchurn-df` — a 9-group dragonfly under DFSSSP with repair and
//!   verify on and coalescing off. A pass fails four single cables; each
//!   down is delivered through `handle_trap`: one unbatched repair.
//!
//! After a burst its cables come back up one at a time; each restoration
//! is one cable up, which the SM answers with a full light sweep. Every
//! pass ends with every cable up, so the installed tables must be the
//! bring-up tables again.

use std::time::Instant;

use ib_mad::{SmpLedger, SmpTransport};
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions};
use ib_sm::{
    CoalesceOptions, ResweepReport, SmConfig, SubnetManager, SweepKind, SweepOptions, Trap,
};
use ib_subnet::topology::dragonfly::{dragonfly, DragonflySpec};
use ib_subnet::topology::{fattree, BuiltTopology};
use ib_subnet::Lft;
use ib_types::IbResult;
use ib_verify::{affected_destinations, FabricVerifier};

use crate::gen::{churn_walk, switch_cables, Cable, Event};
use crate::{add, installed_lfts, trace, Bench, OpKind, PassOut, Setup};

/// Logical time between two events: past any coalescing window.
const EVENT_GAP_NS: u64 = 1_000_000_000;

/// A link-churn workload, set up.
#[derive(Debug)]
pub struct Churn {
    t: BuiltTopology,
    sm: SubnetManager,
    cables: Vec<Cable>,
    walk: Vec<Vec<Event>>,
    coalesce: bool,
    /// Installed LFT of every switch after bring-up, in switch order.
    pristine: Vec<Option<Lft>>,
    now_ns: u64,
}

impl Churn {
    /// `linkchurn-updn5832`.
    #[must_use]
    pub fn updn5832(setup: Setup) -> Self {
        Self::new(
            fattree::paper_5832(),
            EngineKind::UpDown,
            true,
            &[1, 2, 3],
            setup,
        )
    }

    /// `linkchurn-df`.
    #[must_use]
    pub fn dragonfly(setup: Setup) -> Self {
        let t = dragonfly(DragonflySpec {
            groups: 9,
            switches_per_group: 8,
            hosts_per_switch: 4,
        });
        Self::new(t, EngineKind::Dfsssp, false, &[1, 1, 1, 1], setup)
    }

    fn new(
        mut t: BuiltTopology,
        engine: EngineKind,
        coalesce: bool,
        bursts: &[usize],
        setup: Setup,
    ) -> Self {
        let cables = switch_cables(&t);
        let walk = churn_walk(
            setup.seed,
            &cables,
            t.subnet.num_nodes(),
            bursts,
            setup.passes,
        );
        let config = SmConfig {
            engine,
            routing: RoutingOptions::default().with_workers(setup.workers),
            sweep: SweepOptions::with_workers(setup.workers),
            verify: true,
            repair: true,
            coalesce: if coalesce {
                CoalesceOptions::enabled()
            } else {
                CoalesceOptions::default()
            },
            ..SmConfig::default()
        };
        let mut sm = SubnetManager::new(t.hosts[0], config);
        sm.bring_up(&mut t.subnet)
            .expect("bring-up of the churn fabric");
        let pristine = installed_lfts(&t.subnet);
        Self {
            t,
            sm,
            cables,
            walk,
            coalesce,
            pristine,
            now_ns: 0,
        }
    }

    fn trap(&self, c: usize) -> Trap {
        Trap::LinkStateChange {
            node: self.cables[c].a,
            port: self.cables[c].port,
        }
    }

    /// Delivers the traps of one event and returns the report that
    /// answered them.
    fn answer(
        &mut self,
        cables: &[usize],
        transport: &mut SmpTransport,
    ) -> IbResult<ResweepReport> {
        let now = self.now_ns;
        self.now_ns += EVENT_GAP_NS;
        if !self.coalesce {
            let [c] = cables else {
                unreachable!("uncoalesced events carry one cable")
            };
            let trap = self.trap(*c);
            return self.sm.handle_trap(&mut self.t.subnet, trap, transport);
        }
        let mut last = None;
        for (i, &c) in cables.iter().enumerate() {
            let trap = self.trap(c);
            last = Some(self.sm.handle_trap_at(
                &mut self.t.subnet,
                trap,
                transport,
                now + i as u64,
            )?);
        }
        let flushed = self.sm.flush_coalesced(
            &mut self.t.subnet,
            transport,
            now + CoalesceOptions::default().window_ns,
        )?;
        Ok(flushed
            .or(last)
            .expect("an event carries at least one cable"))
    }

    /// The traced-only side measurements of a failure event, outside the
    /// operation: the reverse-index lookup and the two-row scan for each
    /// failed cable, which must agree.
    fn time_lookups(&self, cables: &[usize], obs: &Observer) -> Option<String> {
        let mut problem = None;
        for &c in cables {
            let Cable { a, port, .. } = self.cables[c];
            let fast = self.sm.route_index().map(|idx| {
                let _span = obs.span("rindex.affected");
                idx.affected(&self.t.subnet, a, port)
            });
            let scan = {
                let _span = obs.span("affected.scan");
                affected_destinations(&self.t.subnet, a, port)
            };
            match fast {
                None => problem = Some("the SM has no reverse route index".to_string()),
                Some(fast) if fast != scan => {
                    problem = Some(format!("reverse index and scan disagree on cable {c}"));
                }
                Some(_) => {}
            }
        }
        problem
    }

    /// The traced-only verifier split, outside the operation: the walk
    /// alone, then the full verifier with the installed lanes. Both must
    /// find the fabric clean.
    fn time_verifier(&self, obs: &Observer) -> Option<String> {
        let subnet = &self.t.subnet;
        let walk = {
            let _span = obs.span("verify.walk");
            FabricVerifier::new().with_deadlock(false).verify(subnet)
        };
        let Some(vls) = self.sm.installed_vls() else {
            return Some("the SM has no installed lanes".into());
        };
        let full = {
            let _span = obs.span("verify.full");
            FabricVerifier::new().verify_with_vls(subnet, vls)
        };
        [("walk", walk), ("full", full)]
            .into_iter()
            .find_map(|(what, r)| match r {
                Ok(r) if r.is_clean() => None,
                Ok(r) => Some(format!("verifier {what}: {}", r.summary())),
                Err(e) => Some(format!("verifier {what}: {e}")),
            })
    }
}

impl Bench for Churn {
    fn run_pass(&mut self, index: usize, obs: &Observer) -> PassOut {
        let mut out = PassOut::default();
        self.sm.set_observer(obs.clone());
        let mut transport = SmpTransport::perfect(self.sm.sm_node);
        let traced = obs.is_enabled();
        for event in self.walk[index].clone() {
            let (kind, cables) = match event {
                Event::Down(cables) => (OpKind::Down, cables),
                Event::Up(c) => (OpKind::Up, vec![c]),
            };
            for &c in &cables {
                let Cable { a, port, .. } = self.cables[c];
                let flipped = if kind == OpKind::Down {
                    self.t.subnet.set_link_down(a, port)
                } else {
                    self.t.subnet.set_link_up(a, port)
                };
                flipped.expect("a generated cable is cabled");
            }
            let lookups = if traced && kind == OpKind::Down {
                self.time_lookups(&cables, obs)
            } else {
                None
            };
            let before = self.sm.ledger.total();
            let started = Instant::now();
            let span = obs.span(trace::OP);
            let answered = self.answer(&cables, &mut transport);
            span.end();
            let ns = started.elapsed().as_nanos() as u64;
            let smps = (self.sm.ledger.total() - before) as u64;
            let verified = if traced {
                self.time_verifier(obs)
            } else {
                None
            };
            let why = match &answered {
                Err(e) => Some(format!("event {cables:?}: {e}")),
                Ok(r) if !r.failed_blocks.is_empty() => Some(format!(
                    "event {cables:?} left {} blocks undelivered",
                    r.failed_blocks.len()
                )),
                Ok(r) if r.kind == SweepKind::Deferred => {
                    Some(format!("event {cables:?} was never flushed"))
                }
                Ok(_) => lookups.or(verified),
            };
            out.op(kind, ns, smps, why);
            if traced {
                if let Ok(r) = &answered {
                    add(
                        &mut out.totals,
                        "sweep.lft_smps",
                        r.distribution.lft_smps as f64,
                    );
                }
                if kind == OpKind::Down {
                    add(
                        &mut out.totals,
                        "repair.lid_columns",
                        self.t.subnet.num_lids() as f64,
                    );
                }
            }
        }
        if installed_lfts(&self.t.subnet) != self.pristine {
            out.failures.push(format!(
                "pass {index} ended with every cable up but the tables differ from bring-up"
            ));
            if let Some(last) = out.ops.last_mut() {
                last.failed = true;
            }
        }
        // The ledger keeps every SMP it ever recorded; draining it per pass
        // keeps the process's memory at the working set, not the history.
        self.sm.ledger = SmpLedger::new();
        out
    }

    fn finish(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        match self
            .sm
            .installed_vls()
            .map(|vls| FabricVerifier::new().verify_with_vls(&self.t.subnet, vls))
        {
            Some(Ok(r)) if r.is_clean() => {}
            Some(Ok(r)) => failures.push(format!("final fabric: {}", r.summary())),
            Some(Err(e)) => failures.push(format!("final fabric: {e}")),
            None => failures.push("the SM has no installed lanes".into()),
        }
        failures.extend(
            self.sm
                .verify_route_index(&self.t.subnet)
                .into_iter()
                .map(|m| format!("reverse route index: {m}")),
        );
        failures
    }
}
