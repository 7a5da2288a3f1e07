//! Trap-driven re-sweeps: the SM's reaction to fabric faults.
//!
//! IBA switches report port-state changes to the SM with unsolicited trap
//! MADs (traps 128/129-131). OpenSM reacts with a *light sweep* — reroute
//! and redistribute over the topology it already knows — and escalates to a
//! *heavy sweep* (full rediscovery) when the light sweep finds the
//! topology itself changed underneath it.
//!
//! The implementation here keeps the paper's central invariant: a re-sweep
//! **adopts** the surviving LID and LFT state rather than renumbering. LIDs
//! of nodes that fell off the fabric are pruned and released; every
//! surviving node keeps its LID, so live connections (§II-C: "the LID is
//! part of the connection state") are undisturbed. Distribution is
//! resumable: blocks whose `Set` SMPs exhaust their retries are retried in
//! follow-up passes without resending what already landed.
//!
//! Discovery `Get`s are modeled fault-free: the SM retries discovery
//! indefinitely in practice, and the interesting accounting — extra `Set`
//! SMPs, retries, rollbacks — is all on the configuration side.

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum};

use crate::discovery;
use crate::distribution::{self, FailedBlock, ResumeAccounting};
use crate::report::DistributionReport;
use crate::sm::SubnetManager;

/// Maximum resume passes over failed blocks before a sweep gives up. With
/// the default 4-attempt retry policy this bounds the per-block attempt
/// budget at 68 sends — plenty for any loss rate the harness sweeps, while
/// still terminating against a structurally unreachable switch.
const MAX_RETRY_PASSES: usize = 16;

/// An unsolicited event notice delivered to the SM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A port changed state (IBA trap 128): link went down or came up.
    LinkStateChange {
        /// Reporting node.
        node: NodeId,
        /// Port whose state changed.
        port: PortNum,
    },
    /// A switch stopped responding entirely (modeled as the neighbor traps
    /// OpenSM aggregates when a crossbar dies).
    SwitchDeath {
        /// The dead switch.
        node: NodeId,
    },
}

/// How deep a re-sweep went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepKind {
    /// Reroute + redistribute over the known topology.
    Light,
    /// Full rediscovery, pruning of vanished nodes, then reroute.
    Heavy,
    /// Incremental repair: only the destination columns whose installed
    /// paths crossed the failed link were re-routed and redistributed.
    Repair,
    /// Nothing yet: the trap was queued by coalescing
    /// ([`crate::CoalesceOptions`]) and will be answered, together with
    /// every other trap in its window, by one batched repair sweep when
    /// the driver calls [`SubnetManager::flush_coalesced`].
    Deferred,
}

/// What a trap-driven re-sweep did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResweepReport {
    /// Light or heavy.
    pub kind: SweepKind,
    /// True if a light sweep found stale topology and escalated to heavy.
    pub escalated: bool,
    /// LIDs pruned (cleared and released) because their owners fell off
    /// the fabric. Always empty for a pure light sweep — surviving LIDs
    /// are never renumbered.
    pub pruned_lids: Vec<Lid>,
    /// Nodes dropped from the active fabric.
    pub removed_nodes: usize,
    /// Accumulated distribution accounting across all resume passes.
    pub distribution: DistributionReport,
    /// Resume passes over failed blocks (0 = everything landed first try).
    pub retry_passes: usize,
    /// Blocks still undelivered when the sweep gave up (empty on success).
    pub failed_blocks: Vec<FailedBlock>,
}

impl ResweepReport {
    /// A sweep of `kind` that pruned, removed and sent nothing: the shape
    /// of an absorbed or deferred trap and of a clean repair no-op, and
    /// the template every other sweep fills its outcome into.
    fn empty(kind: SweepKind) -> Self {
        Self {
            kind,
            escalated: false,
            pruned_lids: Vec::new(),
            removed_nodes: 0,
            distribution: DistributionReport::default(),
            retry_passes: 0,
            failed_blocks: Vec::new(),
        }
    }
}

impl SubnetManager {
    /// Reacts to a trap: link-state changes get a light sweep (escalating
    /// if the known topology no longer routes), a switch death goes
    /// straight to a heavy sweep.
    pub fn handle_trap<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        trap: Trap,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        self.ledger.observer().incr("trap.received");
        if self.trap_is_beyond_split(subnet, &trap) {
            self.ledger.observer().incr("sm.trap_absorbed_lost");
            return Ok(ResweepReport::empty(SweepKind::Light));
        }
        match trap {
            Trap::LinkStateChange { node, port } => {
                if self.config().repair {
                    self.repair_sweep(subnet, node, port, transport)
                } else {
                    self.light_sweep(subnet, transport)
                }
            }
            Trap::SwitchDeath { node } => {
                if subnet.is_alive(node) {
                    subnet.remove_node(node)?;
                }
                self.heavy_sweep(subnet, transport)
            }
        }
    }

    /// Time-aware trap handling with flap damping: link state-change traps
    /// are first fed to the [`crate::LinkQuarantine`]. A trap on a link
    /// already inside its hold-down window is absorbed without a re-sweep
    /// (the damper re-asserts the administrative down state); every other
    /// trap proceeds to the usual light/heavy sweep over the — possibly
    /// just-quarantined — topology.
    pub fn handle_trap_at<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        trap: Trap,
        transport: &mut SmpTransport<C>,
        now_ns: u64,
    ) -> IbResult<ResweepReport> {
        if self.trap_is_beyond_split(subnet, &trap) {
            let observer = self.ledger.observer();
            observer.incr("trap.received");
            observer.incr("sm.trap_absorbed_lost");
            return Ok(ResweepReport::empty(SweepKind::Light));
        }
        if let Trap::LinkStateChange { node, port } = trap {
            if self.config().quarantine.enabled {
                let was_held = self.quarantine.is_quarantined(subnet, node, port, now_ns);
                let refusals_before = self.quarantine.bridge_refusals();
                let absorbed = self
                    .quarantine
                    .note_link_event(subnet, node, port, now_ns)?;
                let observer = self.ledger.observer();
                observer.incr("quarantine.events");
                observer.add(
                    "quarantine.bridge_refused",
                    self.quarantine.bridge_refusals() - refusals_before,
                );
                if absorbed {
                    observer.incr("quarantine.absorbed");
                    self.ledger.observer().incr("trap.received");
                    return Ok(ResweepReport::empty(SweepKind::Light));
                }
                if !was_held && self.quarantine.is_quarantined(subnet, node, port, now_ns) {
                    observer.incr("quarantine.entered");
                }
            }
            // Trap coalescing: a link-*down* trap inside the batching
            // window joins the pending batch instead of sweeping now. Up
            // events never defer — folding a link back in is a fabric-wide
            // rebalance the batch's column splice cannot express.
            let config = self.config();
            if config.repair && config.coalesce.enabled && subnet.neighbor(node, port).is_none() {
                self.ledger.observer().incr("trap.received");
                return Ok(self.defer_trap(node, port, now_ns));
            }
        }
        self.handle_trap(subnet, trap, transport)
    }

    /// Whether the current split physically keeps `trap` from reaching the
    /// SM: its reporter sits beyond the cut and — for a link coming *up* —
    /// so does the far end. A boundary link-up is the heal signal and must
    /// get through (its MAD can cross the freshly risen link); everything
    /// else from a lost component is absorbed, exactly as a real master
    /// never sees MADs from switches it cannot route to.
    fn trap_is_beyond_split(&self, subnet: &Subnet, trap: &Trap) -> bool {
        if self.lost_nodes.is_empty() {
            return false;
        }
        match *trap {
            Trap::LinkStateChange { node, port } => {
                self.lost_nodes.contains(&node)
                    && subnet
                        .neighbor(node, port)
                        .is_none_or(|r| self.lost_nodes.contains(&r.node))
            }
            Trap::SwitchDeath { node } => self.lost_nodes.contains(&node),
        }
    }

    /// Queues one link-down trap for the pending batch (deduplicated per
    /// link) and arms the flush deadline off the *first* deferred trap.
    fn defer_trap(&mut self, node: NodeId, port: PortNum, now_ns: u64) -> ResweepReport {
        if !self.pending_traps.contains(&(node, port)) {
            self.pending_traps.push((node, port));
        }
        if self.batch_deadline_ns.is_none() {
            self.batch_deadline_ns = Some(now_ns + self.config().coalesce.window_ns);
        }
        self.ledger.observer().incr("repair.deferred");
        ResweepReport::empty(SweepKind::Deferred)
    }

    /// Runs the batched repair sweep if the coalescing window has closed by
    /// `now_ns`. `Ok(None)` means nothing was due — no traps pending, or
    /// the window is still absorbing. Drivers call this from their event
    /// loop alongside [`SubnetManager::release_quarantined`].
    pub fn flush_coalesced<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
        now_ns: u64,
    ) -> IbResult<Option<ResweepReport>> {
        let Some(deadline) = self.batch_deadline_ns else {
            return Ok(None);
        };
        if now_ns < deadline {
            return Ok(None);
        }
        let faults = std::mem::take(&mut self.pending_traps);
        self.batch_deadline_ns = None;
        if faults.is_empty() {
            return Ok(None);
        }
        self.repair_sweep_batch(subnet, &faults, transport)
            .map(Some)
    }

    /// Releases quarantined links whose hold-down expired by `now_ns` and,
    /// if any link came back up, runs a light sweep to fold them back into
    /// routing. Returns the number of links released.
    pub fn release_quarantined<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
        now_ns: u64,
    ) -> IbResult<usize> {
        let released = self.quarantine.release_expired(subnet, now_ns)?;
        if !released.is_empty() {
            self.ledger
                .observer()
                .add("quarantine.released", released.len() as u64);
            self.light_sweep(subnet, transport)?;
        }
        Ok(released.len())
    }

    /// Light sweep: recompute routes over the currently known topology and
    /// push the dirty blocks. LIDs are not touched. A fabric split is *not*
    /// an error here: the engines route each component on its own and clear
    /// the cross-component columns, the SM enters counted degraded mode
    /// (`sm.partitioned`) and keeps serving its own side. Escalation to a
    /// heavy sweep remains for genuine engine failures — topology the
    /// engine cannot even express (e.g. a LID stranded on a switchless
    /// endpoint), which only rediscovery-plus-pruning repairs.
    pub fn light_sweep<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let span = self.ledger.observer().span("resweep.light");
        let engine = self.config().engine.build();
        let routing = self.config().routing;
        match engine.compute_with(subnet, routing, self.ledger.observer()) {
            Ok(tables) => {
                self.ledger.observer().incr("resweep.light");
                self.install_full_tables(
                    subnet,
                    tables,
                    transport,
                    ResweepReport::empty(SweepKind::Light),
                )
            }
            Err(_) => {
                span.end();
                self.ledger.observer().incr("resweep.escalated");
                let mut report = self.heavy_sweep(subnet, transport)?;
                report.escalated = true;
                Ok(report)
            }
        }
    }

    /// Heavy sweep: rediscover the fabric from the SM node, drop every
    /// previously active node the sweep no longer reaches *and cannot come
    /// back on its own* (pruning and releasing its LIDs — *without*
    /// renumbering any survivor), then recompute and redistribute routes.
    ///
    /// Partition tolerance narrows the prune set: a node that is alive and
    /// still holds live cables merely sits beyond a split — its LIDs are
    /// kept so the heal sweep restores it in place. What is pruned: dead
    /// nodes' LID registrations, and live nodes whose every cable went down
    /// with a dead neighbor (nothing short of recabling reconnects those).
    pub fn heavy_sweep<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let _span = self.ledger.observer().span("resweep.heavy");
        self.ledger.observer().incr("resweep.heavy");
        let disc = discovery::sweep(subnet, self.sm_node, &mut self.ledger)?;
        let mut reached = vec![false; subnet.num_nodes()];
        for &n in &disc.nodes {
            reached[n.index()] = true;
        }

        // Prune what the sweep lost for good. Nodes that never joined —
        // e.g. dormant dynamic-mode VFs with no cable and no LID — are
        // left alone, as are nodes already processed by an earlier sweep
        // and live nodes beyond a split (they keep their LIDs for the
        // heal).
        let mut pruned_lids = Vec::new();
        let mut removed_nodes = 0;
        let lost: Vec<NodeId> = subnet
            .nodes()
            .filter(|n| !reached[n.id.index()])
            .filter(|n| {
                if n.is_alive() {
                    n.connected_ports().next().is_none()
                        && (n.lids().next().is_some() || n.cabled_ports().next().is_some())
                } else {
                    n.lids().next().is_some()
                }
            })
            .map(|n| n.id)
            .collect();
        for id in lost {
            let lids: Vec<Lid> = subnet.node(id).lids().collect();
            for lid in lids {
                subnet.clear_lid(lid)?;
                let _ = self.lid_space.release(lid);
                pruned_lids.push(lid);
            }
            if subnet.is_alive(id) {
                subnet.remove_node(id)?;
            }
            removed_nodes += 1;
        }
        if !pruned_lids.is_empty() {
            let observer = self.ledger.observer();
            observer.add("resweep.pruned_lids", pruned_lids.len() as u64);
            observer.add("resweep.removed_nodes", removed_nodes as u64);
        }

        let engine = self.config().engine.build();
        let routing = self.config().routing;
        let tables = engine.compute_with(subnet, routing, self.ledger.observer())?;
        self.install_full_tables(
            subnet,
            tables,
            transport,
            ResweepReport {
                pruned_lids,
                removed_nodes,
                ..ResweepReport::empty(SweepKind::Heavy)
            },
        )
    }

    /// The tail both full sweeps share: refresh the partition state,
    /// distribute `tables` with resume passes, verify the converged fabric,
    /// rebuild the reverse route index, prove any heal, and adopt `tables`
    /// as the next repair baseline. `report` carries the sweep's kind and
    /// pruning; the distribution outcome is filled in here.
    fn install_full_tables<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        tables: ib_routing::RoutingTables,
        transport: &mut SmpTransport<C>,
        report: ResweepReport,
    ) -> IbResult<ResweepReport> {
        let healed = self.refresh_partition_state(subnet);
        let (distribution, retry_passes, failed_blocks) =
            self.distribute_resumably(subnet, &tables, transport)?;
        self.verify_converged(subnet, &tables.vls, &failed_blocks)?;
        self.refresh_route_index(subnet, &failed_blocks);
        if failed_blocks.is_empty() {
            self.verify_healed(subnet, &healed)?;
        }
        self.last_tables = Some(tables);
        Ok(ResweepReport {
            distribution,
            retry_passes,
            failed_blocks,
            ..report
        })
    }

    /// Incremental repair sweep for a downed link at `(node, port)`: finds
    /// the destination LIDs whose installed paths crossed the link, asks
    /// the engine to re-route only those columns spliced into the last
    /// computed tables, distributes the dirty blocks, and gates the result
    /// behind the fabric verifier — black holes and forwarding loops
    /// always, the CDG deadlock check when `config.verify` asks for it.
    /// Any obstacle (link actually up, no baseline, an engine error — an
    /// unusable baseline included — or a verifier rejection) falls back to
    /// the full sweep path and counts `repair.fallback`; the repair itself
    /// emits `repair.*` counters and a `resweep.repair` span.
    pub fn repair_sweep<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        node: NodeId,
        port: PortNum,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        self.ledger.observer().incr("repair.attempts");
        self.repair_faults(subnet, &[(node, port)], "resweep.repair", transport)
    }

    /// One batched repair sweep over a burst of link-down faults: **one**
    /// dirty-block distribution and **one** verifier gate for the whole
    /// burst. Final tables are byte-identical to repairing the traps one
    /// at a time; the savings are the shared LFT blocks sent once instead
    /// of per fault and the k-1 elided verifier passes. Emits
    /// `repair.batched` / `repair.batch_size` and a `resweep.batch` span;
    /// every obstacle falls back exactly like [`Self::repair_sweep`].
    pub fn repair_sweep_batch<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        let observer = self.ledger.observer();
        observer.incr("repair.batched");
        observer.add("repair.batch_size", faults.len() as u64);
        self.repair_faults(subnet, faults, "resweep.batch", transport)
    }

    /// The repair pipeline behind both entry points, a single fault being
    /// a batch of one: skipped-up check, baseline, deduplicated dirty
    /// groups, clean no-op, cached graph, fold
    /// ([`ib_routing::repair_batch`]), partition refresh, resumable
    /// distribution, scoped gate, index splice or rebuild, heal proof and
    /// new baseline. `span_name` names the sweep's span.
    fn repair_faults<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        faults: &[(NodeId, PortNum)],
        span_name: &str,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        // A live link means an up event (or one slipped into a batch
        // without a trap, e.g. an operator re-cable): folding a link back
        // in rebalances paths fabric-wide, which is a recompute, not a
        // repair — and the full sweep also covers every other fault.
        if faults.iter().any(|&(n, p)| subnet.neighbor(n, p).is_some()) {
            self.ledger.observer().incr("repair.skipped_up");
            return self.light_sweep(subnet, transport);
        }
        let Some(prior) = self.last_tables.clone() else {
            self.count_repair_fallback("repair.no_baseline");
            return self.light_sweep(subnet, transport);
        };
        let span = self.ledger.observer().span(span_name);
        // Disjoint per-fault dirty groups off the shared baseline: a column
        // already claimed by an earlier fault will be re-routed around
        // *all* downed links in one go, so later faults must not re-route
        // it again (and serially repaired columns never re-cross a downed
        // link, which is why baseline-minus-earlier equals the serial
        // arm's per-step scan).
        let mut touched = std::collections::HashSet::new();
        let groups: Vec<Vec<Lid>> = faults
            .iter()
            .map(|&(n, p)| {
                self.dirty_destinations(subnet, n, p)
                    .into_iter()
                    .filter(|&lid| touched.insert(lid))
                    .collect()
            })
            .collect();
        self.ledger
            .observer()
            .add("repair.dirty_dests", touched.len() as u64);
        if touched.is_empty() {
            // No installed path crossed any faulted link: the tables are
            // already correct and there is nothing to distribute.
            self.ledger.observer().incr("repair.clean_noop");
            return Ok(ResweepReport::empty(SweepKind::Repair));
        }
        let engine = self.config().engine.build();
        let routing = self.config().routing;
        let result = match self.acquire_repair_graph(subnet) {
            Ok(graph) => {
                let result = ib_routing::repair_batch(
                    engine.as_ref(),
                    subnet,
                    &graph,
                    routing,
                    &prior,
                    &groups,
                    self.ledger.observer(),
                );
                self.cached_graph = Some((subnet.topology_epoch(), graph));
                result
            }
            Err(e) => Err(e),
        };
        let Ok(tables) = result else {
            // The graph is unbuildable (e.g. an HCA still carries a LID
            // over its downed uplink), a destination became unreachable,
            // or the baseline cannot seed a splice: the damage exceeds
            // what a column rewrite can absorb, so the full path
            // escalates as usual.
            span.end();
            self.count_repair_fallback("repair.engine_error");
            return self.light_sweep(subnet, transport);
        };
        let healed = self.refresh_partition_state(subnet);
        let (distribution, retry_passes, failed_blocks) =
            self.distribute_resumably(subnet, &tables, transport)?;
        if failed_blocks.is_empty() {
            let report = ib_verify::FabricVerifier::new()
                .with_deadlock(self.config().verify)
                .with_viewpoint(self.sm_node)
                .verify_observed(subnet, &tables.vls, self.ledger.observer())?;
            if self.repair_gate_rejects(&report, &touched) {
                // The splice broke an invariant on a column it touched (or
                // a fabric-global one). The full sweep recomputes from
                // scratch and overwrites whatever this repair installed.
                span.end();
                self.count_repair_fallback("repair.verify_rejected");
                return self.light_sweep(subnet, transport);
            }
            self.count_repair_success();
            if self.lost_nodes.is_empty() {
                // Every `Ok` repair is a column splice: only the dirty
                // columns moved.
                if let Some(idx) = self.route_index.as_mut() {
                    for &lid in groups.iter().flatten() {
                        idx.apply_column_update(lid, &prior, &tables);
                    }
                }
            } else {
                // A repair on a split fabric rewrote columns on switches
                // the SM no longer serves: per-column splicing cannot
                // track that, so rebuild the index from what is now
                // installed.
                self.rebuild_route_index(subnet);
            }
            self.verify_healed(subnet, &healed)?;
        } else {
            // Mirrors `verify_converged`: tables with stranded blocks are
            // expected to be inconsistent, so the gate is deferred — and
            // the index no longer mirrors what is installed.
            self.ledger.observer().incr("repair.unconverged");
            self.route_index = None;
        }
        self.last_tables = Some(tables);
        Ok(ResweepReport {
            distribution,
            retry_passes,
            failed_blocks,
            ..ResweepReport::empty(SweepKind::Repair)
        })
    }

    /// Counts one repair fallback three ways: the named reason, the
    /// aggregate `repair.fallback`, and the per-engine
    /// `repair.fallback.<engine>` tag BENCH and soak output key on — a
    /// grid run over the full engine matrix must show *which* engine
    /// degraded to the full sweep, not just that one did.
    fn count_repair_fallback(&self, reason: &str) {
        let observer = self.ledger.observer();
        observer.incr(reason);
        observer.incr("repair.fallback");
        observer.incr(&format!("repair.fallback.{}", self.config().engine.name()));
    }

    /// Counts one gated, converged repair — aggregate plus per-engine tag.
    fn count_repair_success(&self) {
        let observer = self.ledger.observer();
        observer.incr("repair.success");
        observer.incr(&format!("repair.success.{}", self.config().engine.name()));
    }

    /// Acquires the CSR switch graph for a repair sweep: reuses the build
    /// cached by an earlier repair in the same topology epoch — a quiet
    /// burst of traps between mutations pays for one construction, counted
    /// `repair.graph_reused` — and rebuilds from the subnet otherwise
    /// (`repair.graph_rebuilt`). The caller stores the graph back into
    /// `cached_graph` once the engine is done with it; an `Err` (the
    /// degraded subnet cannot even express a CSR graph, e.g. an HCA whose
    /// only uplink went down but still carries a LID) is the caller's cue
    /// to escalate exactly like an engine error.
    fn acquire_repair_graph(&mut self, subnet: &Subnet) -> IbResult<ib_routing::SwitchGraph> {
        let epoch = subnet.topology_epoch();
        if let Some((cached_epoch, graph)) = self.cached_graph.take() {
            if cached_epoch == epoch {
                self.ledger.observer().incr("repair.graph_reused");
                return Ok(graph);
            }
        }
        self.ledger.observer().incr("repair.graph_rebuilt");
        ib_routing::SwitchGraph::build(subnet)
    }

    /// The repair acceptance gate, scoped to the columns this repair
    /// touched. The verifier's forwarding check walks *every* destination
    /// column globally, so mid-burst a repair sees black holes on columns
    /// crossing other still-downed links — pre-existing damage the splice
    /// cannot have caused (it only rewrites the dirty columns) and that
    /// belongs to traps not yet handled. Those are tolerated but counted
    /// (`repair.tolerated_preexisting`). A violation on a column the
    /// repair touched, or a fabric-global one no column owns (`lid: None`
    /// — addressing clashes, deadlock cycles), still rejects the repair.
    fn repair_gate_rejects(
        &self,
        report: &ib_verify::VerifyReport,
        touched: &std::collections::HashSet<Lid>,
    ) -> bool {
        let mut tolerated = 0u64;
        let mut rejects = false;
        for v in &report.violations {
            match v.lid {
                Some(lid) if !touched.contains(&lid) => tolerated += 1,
                _ => rejects = true,
            }
        }
        if tolerated > 0 {
            self.ledger
                .observer()
                .add("repair.tolerated_preexisting", tolerated);
        }
        rejects
    }

    /// The dirty destination set of a fault at `(node, port)`: read off the
    /// reverse route index when one is live (O(dirty), counted as
    /// `repair.index_hits`), else the two-row fabric scan
    /// ([`ib_verify::affected_destinations`], `repair.index_misses`). In
    /// debug builds an index answer is always cross-checked against the
    /// scan — the index is derived state and never silently trusted.
    fn dirty_destinations(&self, subnet: &Subnet, node: NodeId, port: PortNum) -> Vec<Lid> {
        match self.route_index.as_ref() {
            Some(idx) => {
                self.ledger.observer().incr("repair.index_hits");
                let fast = idx.affected(subnet, node, port);
                debug_assert_eq!(
                    fast,
                    ib_verify::affected_destinations(subnet, node, port),
                    "reverse route index diverged from the two-row scan at ({node:?}, {port})"
                );
                fast
            }
            None => {
                self.ledger.observer().incr("repair.index_misses");
                ib_verify::affected_destinations(subnet, node, port)
            }
        }
    }

    /// After a full-table distribution: the deferred-trap queue is covered
    /// (every fault was routed around), and the reverse index either
    /// mirrors the freshly installed rows or — when blocks were stranded —
    /// nothing trustworthy, so it is dropped until the next converged
    /// sweep rebuilds it.
    fn refresh_route_index(&mut self, subnet: &Subnet, failed_blocks: &[FailedBlock]) {
        self.subsume_pending();
        if failed_blocks.is_empty() {
            self.rebuild_route_index(subnet);
        } else {
            self.route_index = None;
        }
    }

    /// Runs the fabric verifier after a re-sweep when `config.verify` is
    /// set — but only once distribution converged: tables with stranded
    /// blocks are *expected* to be inconsistent, so verification is
    /// deferred (and counted) rather than failed.
    fn verify_converged(
        &mut self,
        subnet: &Subnet,
        vls: &ib_routing::VlAssignment,
        failed_blocks: &[FailedBlock],
    ) -> IbResult<()> {
        if !self.config().verify {
            return Ok(());
        }
        if failed_blocks.is_empty() {
            self.verify_installed(subnet, vls)
        } else {
            self.ledger.observer().incr("verify.skipped_unconverged");
            Ok(())
        }
    }

    /// Distribution with bounded resume passes: failed blocks are retried
    /// until they land, progress stops, or the pass budget runs out.
    ///
    /// Accounting merges per-switch across passes ([`ResumeAccounting`]),
    /// so the returned report equals the fault-free report once every block
    /// has landed — a switch split across passes is counted once in
    /// `switches_updated` and its blocks sum in `max_blocks_per_switch`.
    ///
    /// On a split fabric, switches beyond the cut are excluded up front
    /// ([`SubnetManager::served_tables`]) instead of burning all
    /// [`MAX_RETRY_PASSES`] against links no SMP can cross.
    fn distribute_resumably<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        tables: &ib_routing::RoutingTables,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<(DistributionReport, usize, Vec<FailedBlock>)> {
        let served = self.served_tables(tables);
        let tables = served.as_ref().unwrap_or(tables);
        let mode = self.config().smp_mode;
        let sweep = self.config().sweep;
        let mut acct = ResumeAccounting::new();
        self.ledger.begin_phase("lft-distribution");
        let (first, mut failed) = distribution::push_blocks(
            subnet,
            self.sm_node,
            tables,
            mode,
            transport,
            &mut self.ledger,
            None,
            sweep,
        )?;
        acct.merge(first);
        let mut passes = 0;
        while !failed.is_empty() && passes < MAX_RETRY_PASSES {
            self.ledger.begin_phase("lft-distribution-retry");
            let (more, still_failed) = distribution::push_blocks(
                subnet,
                self.sm_node,
                tables,
                mode,
                transport,
                &mut self.ledger,
                Some(&failed),
                sweep,
            )?;
            acct.merge(more);
            passes += 1;
            failed = still_failed;
        }
        let observer = self.ledger.observer();
        if observer.is_enabled() {
            observer.record("resweep.retry_passes", passes as u64);
            observer.add("resweep.stranded_blocks", failed.len() as u64);
        }
        Ok((acct.report(), passes, failed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::SmConfig;
    use ib_subnet::topology::fattree::two_level;
    use ib_types::Lid;

    /// Bring up a 2-level fat tree (3 leaves, 2 spines) with a perfect SM.
    fn bring_up() -> (ib_subnet::topology::BuiltTopology, SubnetManager) {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn all_lids(subnet: &Subnet) -> Vec<Lid> {
        subnet.lids()
    }

    fn assert_all_pairs_connected(t: &ib_subnet::topology::BuiltTopology, skip: &[NodeId]) {
        for &a in &t.hosts {
            if skip.contains(&a) {
                continue;
            }
            for &b in &t.hosts {
                if skip.contains(&b) || a == b {
                    continue;
                }
                let lid = t.subnet.node(b).ports[1].lid.unwrap();
                let path = t.subnet.trace_route(a, lid, 32).unwrap();
                assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    #[test]
    fn link_down_trap_triggers_light_sweep_without_renumbering() {
        let (mut t, mut sm) = bring_up();
        let lids_before = all_lids(&t.subnet);

        // Down one of the two uplinks of leaf 0 (leaf -> spine 0). The
        // fat tree has a redundant spine, so a light sweep suffices.
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: leaf0, port },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(!report.escalated);
        assert!(report.pruned_lids.is_empty());
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0);
        // No LID moved.
        assert_eq!(all_lids(&t.subnet), lids_before);
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
    }

    #[test]
    fn switch_death_heavy_sweep_prunes_only_the_dead() {
        let (mut t, mut sm) = bring_up();
        let spine1 = t.switch_levels[1][1];
        let spine_lid = match &t.subnet.node(spine1).kind {
            ib_subnet::NodeKind::Switch { lid, .. } => lid.unwrap(),
            ib_subnet::NodeKind::Hca => unreachable!(),
        };
        let lids_before = all_lids(&t.subnet);

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::SwitchDeath { node: spine1 },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Heavy);
        assert_eq!(report.pruned_lids, vec![spine_lid]);
        assert_eq!(report.removed_nodes, 1);
        assert!(report.failed_blocks.is_empty());
        // Exactly one LID gone; every survivor kept its number.
        let lids_after = all_lids(&t.subnet);
        assert_eq!(
            lids_after,
            lids_before
                .iter()
                .copied()
                .filter(|&l| l != spine_lid)
                .collect::<Vec<_>>()
        );
        // The freed LID is reusable.
        assert!(!sm.lid_space.is_allocated(spine_lid));
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
    }

    /// Downs every physical uplink of leaf `idx`, returning the ports.
    fn isolate_leaf(t: &mut ib_subnet::topology::BuiltTopology, idx: usize) -> Vec<PortNum> {
        let leaf = t.switch_levels[0][idx];
        let uplinks: Vec<PortNum> = t
            .subnet
            .node(leaf)
            .connected_ports()
            .filter(|(_, r)| t.subnet.node(r.node).is_physical_switch())
            .map(|(p, _)| p)
            .collect();
        for p in &uplinks {
            t.subnet.set_link_down(leaf, *p).unwrap();
        }
        uplinks
    }

    #[test]
    fn isolating_a_leaf_enters_degraded_mode_without_pruning() {
        let (mut t, mut sm) = bring_up();
        // Kill every uplink of leaf 2 (the SM host is on leaf 0): its two
        // hosts sit beyond the split but stay alive.
        isolate_leaf(&mut t, 2);
        let lids_before = all_lids(&t.subnet);

        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        // Degraded mode, not escalation: the sweep serves the master's
        // component and leaves the lost one for the heal.
        assert_eq!(report.kind, SweepKind::Light);
        assert!(!report.escalated);
        assert!(report.pruned_lids.is_empty());
        assert_eq!(report.removed_nodes, 0);
        assert!(report.failed_blocks.is_empty());
        // No LID moved or vanished — a reconnect restores the lost side
        // in place.
        assert_eq!(all_lids(&t.subnet), lids_before);
        assert!(sm.is_degraded());
        // Leaf 2 + its 2 hosts were stranded.
        assert_eq!(sm.unreachable_lids().len(), 3);
        let survivors: Vec<NodeId> = t.hosts[4..6].to_vec();
        assert_all_pairs_connected(&t, &survivors);
        t.subnet.validate_degraded().unwrap();
    }

    #[test]
    fn heal_after_split_restores_columns_and_counts() {
        let (mut t, mut sm) = bring_up();
        sm.set_observer(ib_observe::Observer::metrics());
        let leaf2 = t.switch_levels[0][2];
        let uplinks = isolate_leaf(&mut t, 2);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        assert!(sm.is_degraded());

        // A trap from beyond the split is absorbed without a sweep: no MAD
        // from the lost component can physically reach the master.
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange {
                    node: leaf2,
                    port: uplinks[1],
                },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.distribution.lft_smps, 0);

        // One uplink comes back: the boundary link-up trap gets through
        // and the heal sweep restores every stranded column.
        t.subnet.set_link_up(leaf2, uplinks[0]).unwrap();
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange {
                    node: leaf2,
                    port: uplinks[0],
                },
                &mut transport,
            )
            .unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(report.failed_blocks.is_empty());
        assert!(!sm.is_degraded());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        t.subnet.validate_degraded().unwrap();

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("sm.partitioned"), 1);
        assert_eq!(snap.counter("sm.unreachable_lids"), 3);
        assert_eq!(snap.counter("sm.trap_absorbed_lost"), 1);
        assert_eq!(snap.counter("sm.healed"), 1);
        // The stranded leaf's rows were refreshed by the heal sweep.
        let leaf2_lft = t.subnet.lft(leaf2).unwrap();
        for lid in all_lids(&t.subnet) {
            assert!(leaf2_lft.get(lid).is_some(), "leaf2 routes LID {lid}");
        }
    }

    /// The leaf0 -> spine0 uplink, downed, plus its trap.
    fn down_first_uplink(t: &mut ib_subnet::topology::BuiltTopology) -> Trap {
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();
        Trap::LinkStateChange { node: leaf0, port }
    }

    #[test]
    fn repair_sweep_fixes_link_down_and_counts_success() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0, "dirty blocks were sent");
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.attempts"), 1);
        assert_eq!(snap.counter("repair.success"), 1);
        assert_eq!(snap.counter("repair.success.minhop"), 1);
        assert_eq!(snap.counter("repair.fallback"), 0);
        assert_eq!(snap.counter("repair.fallback.minhop"), 0);
        assert!(snap.counter("repair.dirty_dests") > 0);
        assert_eq!(snap.counter("repair.graph_rebuilt"), 1);
        assert_eq!(snap.counter("repair.graph_reused"), 0);
        assert_eq!(snap.spans_named("resweep.repair").len(), 1);
    }

    #[test]
    fn repair_sends_no_more_smps_than_a_full_sweep_on_a_twin_fabric() {
        // Same fault on two identical fabrics: the incremental repair must
        // not exceed the light sweep's LFT traffic.
        let run = |repair: bool| {
            let mut t = two_level(3, 2, 2);
            let mut sm = SubnetManager::new(
                t.hosts[0],
                SmConfig {
                    repair,
                    ..SmConfig::default()
                },
            );
            sm.bring_up(&mut t.subnet).unwrap();
            let trap = down_first_uplink(&mut t);
            let mut transport = SmpTransport::perfect(sm.sm_node);
            let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
            assert!(report.failed_blocks.is_empty());
            assert_all_pairs_connected(&t, &[]);
            report.distribution.lft_smps
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn repair_without_baseline_falls_back_to_light_sweep() {
        // An SM that never computed tables (adopted fabric) has no splice
        // baseline: the repair request must degrade to the full path.
        let (mut t, sm0) = bring_up();
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        drop(sm0);
        sm.set_observer(ib_observe::Observer::metrics());
        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert_all_pairs_connected(&t, &[]);
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.no_baseline"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
        assert_eq!(snap.counter("repair.fallback.minhop"), 1);
    }

    #[test]
    fn unusable_baseline_is_a_counted_engine_error() {
        // A baseline missing one switch's LFT cannot seed a column splice:
        // the engine refuses it, and the SM answers with a counted light
        // sweep rather than trusting a silent full recompute.
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let spine1 = t.switch_levels[1][1];
        sm.last_tables.as_mut().unwrap().lfts.remove(&spine1);
        let trap = down_first_uplink(&mut t);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(report.failed_blocks.is_empty());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.engine_error"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
        assert_eq!(snap.counter("repair.fallback.minhop"), 1);
        assert_eq!(snap.counter("repair.success"), 0);
    }

    #[test]
    fn repair_skips_link_up_events() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let trap = down_first_uplink(&mut t);
        sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        // The link comes back: folding it in is a rebalance, not a repair.
        let Trap::LinkStateChange { node, port } = trap else {
            unreachable!()
        };
        t.subnet.set_link_up(node, port).unwrap();
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert_all_pairs_connected(&t, &[]);
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.skipped_up"), 1);
        assert_eq!(snap.counter("repair.fallback"), 0);
    }

    /// A named leaf->spine uplink and its down trap.
    fn down_uplink(
        t: &mut ib_subnet::topology::BuiltTopology,
        leaf_idx: usize,
        spine_idx: usize,
    ) -> Trap {
        let leaf = t.switch_levels[0][leaf_idx];
        let spine = t.switch_levels[1][spine_idx];
        let (port, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node == spine)
            .unwrap();
        t.subnet.set_link_down(leaf, port).unwrap();
        Trap::LinkStateChange { node: leaf, port }
    }

    #[test]
    fn coalesced_traps_batch_into_one_repair_sweep() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                coalesce: crate::CoalesceOptions::enabled(),
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let window = sm.config().coalesce.window_ns;
        let mut transport = SmpTransport::perfect(sm.sm_node);

        // Two faults land inside one window: both deferred, no SMPs yet.
        let t0 = 1_000;
        for (i, trap) in [down_uplink(&mut t, 0, 0), down_uplink(&mut t, 1, 0)]
            .into_iter()
            .enumerate()
        {
            let report = sm
                .handle_trap_at(&mut t.subnet, trap, &mut transport, t0 + i as u64)
                .unwrap();
            assert_eq!(report.kind, SweepKind::Deferred);
            assert_eq!(report.distribution.lft_smps, 0);
        }
        assert_eq!(sm.pending_repairs().len(), 2);

        // Window still open: nothing flushes.
        assert!(sm
            .flush_coalesced(&mut t.subnet, &mut transport, t0 + window - 1)
            .unwrap()
            .is_none());

        // Window closed: one batched repair answers both traps.
        let report = sm
            .flush_coalesced(&mut t.subnet, &mut transport, t0 + window)
            .unwrap()
            .expect("batch was due");
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0);
        assert!(sm.pending_repairs().is_empty());
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.deferred"), 2);
        assert_eq!(snap.counter("repair.batched"), 1);
        assert_eq!(snap.counter("repair.batch_size"), 2);
        assert_eq!(snap.counter("repair.fallback"), 0);
        assert_eq!(snap.counter("repair.index_hits"), 2);
        assert_eq!(snap.spans_named("resweep.batch").len(), 1);
        // One verifier pass for the whole burst.
        assert_eq!(snap.counter("verify.runs"), 1);

        // Re-flushing with nothing pending is a no-op.
        assert!(sm
            .flush_coalesced(&mut t.subnet, &mut transport, t0 + 2 * window)
            .unwrap()
            .is_none());
    }

    #[test]
    fn serial_repairs_of_an_all_down_burst_pass_the_scoped_gate() {
        // Both links of a burst go down before any repair runs (the trap
        // queue drained late). Repairing them one at a time, the first
        // verifier pass sees the second fault's pre-existing black holes —
        // on columns the first repair never touched. The scoped gate must
        // tolerate those (counted) instead of rejecting into a full sweep.
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        let traps = [down_uplink(&mut t, 0, 0), down_uplink(&mut t, 1, 0)];
        for trap in traps {
            let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
            assert_eq!(report.kind, SweepKind::Repair);
            assert!(report.failed_blocks.is_empty());
        }
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.success"), 2);
        assert_eq!(snap.counter("repair.success.minhop"), 2);
        assert_eq!(snap.counter("repair.verify_rejected"), 0);
        assert_eq!(snap.counter("repair.fallback"), 0);
        // The first gate saw (and tolerated) fault 2's damage.
        assert!(snap.counter("repair.tolerated_preexisting") > 0);
        assert_eq!(snap.counter("verify.runs"), 2);
        // Both links were already down before the first repair, so the
        // topology epoch never moved between sweeps: one graph build,
        // reused by the second repair.
        assert_eq!(snap.counter("repair.graph_rebuilt"), 1);
        assert_eq!(snap.counter("repair.graph_reused"), 1);
    }

    #[test]
    fn full_sweeps_subsume_pending_batches() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                coalesce: crate::CoalesceOptions::enabled(),
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let trap = down_uplink(&mut t, 0, 0);
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 0)
            .unwrap();
        assert_eq!(sm.pending_repairs().len(), 1);

        // A switch death forces a heavy sweep, whose full distribution
        // also routes around the pending fault: the batch dissolves.
        // (Spine 0 already lost its leaf-0 link, so every leaf keeps an
        // uplink through spine 1.)
        let spine0 = t.switch_levels[1][0];
        sm.handle_trap_at(
            &mut t.subnet,
            Trap::SwitchDeath { node: spine0 },
            &mut transport,
            1,
        )
        .unwrap();
        assert!(sm.pending_repairs().is_empty());
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.batch_subsumed"), 1);
        assert!(sm
            .flush_coalesced(&mut t.subnet, &mut transport, u64::MAX)
            .unwrap()
            .is_none());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
    }

    /// Satellite regression: a link-up trap takes the `repair.skipped_up`
    /// light sweep, which must refresh the repair baseline — a later
    /// link-down repair has to splice against the rebalanced tables, not
    /// the pre-up ones. Pinned against a twin fabric that only ever sees
    /// the second fault: same SMP count, byte-identical tables.
    #[test]
    fn link_up_light_sweep_refreshes_the_repair_baseline() {
        let config = SmConfig {
            repair: true,
            ..SmConfig::default()
        };

        // Fabric A: down L (repair), L back up (light sweep), down M.
        let mut ta = two_level(3, 2, 2);
        let mut sma = SubnetManager::new(ta.hosts[0], config);
        sma.bring_up(&mut ta.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sma.sm_node);
        let trap_l = down_uplink(&mut ta, 0, 0);
        sma.handle_trap(&mut ta.subnet, trap_l, &mut transport)
            .unwrap();
        let Trap::LinkStateChange { node, port } = trap_l else {
            unreachable!()
        };
        ta.subnet.set_link_up(node, port).unwrap();
        let up = sma
            .handle_trap(&mut ta.subnet, trap_l, &mut transport)
            .unwrap();
        assert_eq!(up.kind, SweepKind::Light);
        let trap_m = down_uplink(&mut ta, 1, 0);
        let repair_a = sma
            .handle_trap(&mut ta.subnet, trap_m, &mut transport)
            .unwrap();
        assert_eq!(repair_a.kind, SweepKind::Repair);

        // Fabric B: only ever sees fault M.
        let mut tb = two_level(3, 2, 2);
        let mut smb = SubnetManager::new(tb.hosts[0], config);
        smb.bring_up(&mut tb.subnet).unwrap();
        let mut transport_b = SmpTransport::perfect(smb.sm_node);
        let trap_m_b = down_uplink(&mut tb, 1, 0);
        let repair_b = smb
            .handle_trap(&mut tb.subnet, trap_m_b, &mut transport_b)
            .unwrap();
        assert_eq!(repair_b.kind, SweepKind::Repair);

        // A stale baseline would splice against pre-up tables and diff
        // extra blocks; a fresh one makes the repairs indistinguishable.
        assert_eq!(
            repair_a.distribution.lft_smps,
            repair_b.distribution.lft_smps
        );
        assert_eq!(
            sma.last_tables.as_ref().unwrap().lfts,
            smb.last_tables.as_ref().unwrap().lfts
        );
        for sw in ta.subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            assert_eq!(ta.subnet.lft(sw), tb.subnet.lft(sw), "{sw:?}");
        }
        assert!(sma.verify_route_index(&ta.subnet).is_empty());
    }

    /// Satellite regression: traps absorbed inside a quarantine hold-down
    /// never reach repair accounting, so the fold-back sweep at release
    /// must rebuild the baseline and reverse index — a later fault would
    /// otherwise repair against a topology that still excludes the
    /// released link.
    #[test]
    fn quarantine_release_rebuilds_baseline_and_index() {
        let mut t = two_level(3, 2, 2);
        let opts = crate::QuarantineOptions::enabled();
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                quarantine: opts,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        // Flap L until the third event trips the quarantine.
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        let trap = Trap::LinkStateChange { node: leaf0, port };
        t.subnet.set_link_down(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 0)
            .unwrap();
        t.subnet.set_link_up(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 1)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 2)
            .unwrap();
        assert!(sm.quarantine.is_quarantined(&t.subnet, leaf0, port, 2));

        // A resurrection inside the hold-down is absorbed — dropped from
        // repair accounting entirely.
        t.subnet.set_link_up(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 3)
            .unwrap();
        assert!(!t.subnet.is_link_up(leaf0, port), "damper re-downed it");

        // Hold-down expires: the fold-back light sweep must leave the
        // baseline and index mirroring the full-topology tables.
        let release_at = 2 + opts.base_hold_down_ns + 1;
        let released = sm
            .release_quarantined(&mut t.subnet, &mut transport, release_at)
            .unwrap();
        assert_eq!(released, 1);
        assert!(t.subnet.is_link_up(leaf0, port));
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        // A fresh fault elsewhere now repairs against the folded-back
        // state, byte-identical to a twin that never flapped.
        let trap_m = down_uplink(&mut t, 1, 0);
        let report = sm
            .handle_trap_at(&mut t.subnet, trap_m, &mut transport, release_at + 1)
            .unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let mut twin = two_level(3, 2, 2);
        let mut sm2 = SubnetManager::new(
            twin.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm2.bring_up(&mut twin.subnet).unwrap();
        let mut transport2 = SmpTransport::perfect(sm2.sm_node);
        let trap_m2 = down_uplink(&mut twin, 1, 0);
        sm2.handle_trap(&mut twin.subnet, trap_m2, &mut transport2)
            .unwrap();
        assert_eq!(
            sm.last_tables.as_ref().unwrap().lfts,
            sm2.last_tables.as_ref().unwrap().lfts
        );

        let snap = sm.observer().snapshot().unwrap();
        assert!(snap.counter("quarantine.absorbed") >= 1);
        assert_eq!(snap.counter("quarantine.released"), 1);
        assert_eq!(snap.counter("repair.fallback"), 0);
    }

    #[test]
    fn lossy_transport_still_converges() {
        let (mut t, mut sm) = bring_up();
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();

        let mut transport = SmpTransport::lossy(sm.sm_node, 0x5EED, 0.2, 500);
        let baseline = sm.ledger.total();
        let report = sm
            .handle_trap(
                &mut t.subnet,
                Trap::LinkStateChange { node: leaf0, port },
                &mut transport,
            )
            .unwrap();
        assert!(report.failed_blocks.is_empty(), "did not converge");
        assert!(sm.ledger.total() > baseline);
        assert_all_pairs_connected(&t, &[]);
    }
}
