//! The subnet manager proper.

use std::time::Instant;

use ib_mad::SmpLedger;
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions};
use ib_subnet::{lft::min_blocks_for, NodeId, Subnet};
use ib_types::{IbResult, Lid, LidSpace};
use std::collections::HashSet;

use crate::discovery;
use crate::distribution;
use crate::lids;
use crate::quarantine::{LinkQuarantine, QuarantineOptions};
use crate::report::BringUpReport;

/// How the SM addresses its SMPs.
///
/// OpenSM uses directed routing for everything (necessary during discovery
/// and whenever switch routes may be stale). §VI-B's improvement: during a
/// vSwitch migration the switch LIDs are stable, so destination routing is
/// safe and removes the `r` overhead (equation 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmpMode {
    /// Source-routed, hop-pointer rewriting at every switch.
    Directed,
    /// LID-routed through the installed LFTs.
    Destination,
}

/// Parallelism knobs for the SM's heavy sweep.
///
/// The sweep's per-switch work — diffing the installed LFT against the
/// padded target and materializing dirty-block payloads — is read-only over
/// the subnet, so it fans out across scoped worker threads. The SMP
/// *stream* stays serialized in ascending switch order afterwards, so the
/// ledger and the installed tables are byte-identical whatever `workers`
/// is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// Planning worker threads. `1` (the default) plans inline on the
    /// calling thread; `0` means "use the machine's available parallelism".
    pub workers: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl SweepOptions {
    /// A sweep fanned out over `workers` planning threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// The thread count to actually spawn for `jobs` independent units:
    /// resolves `0` to the available parallelism and never exceeds the job
    /// count.
    #[must_use]
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        requested.min(jobs).max(1)
    }
}

/// Trap-coalescing policy: link-down traps arriving within `window_ns` of
/// the first pending trap are *deferred* and answered together by one
/// batched repair sweep ([`crate::SubnetManager`] unions their dirty sets,
/// runs one engine repair fold, one verifier gate, and one dirty-block
/// distribution) when the driver calls `flush_coalesced` past the deadline.
/// Requires [`SmConfig::repair`]; disabled by default so single traps keep
/// their immediate-response semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalesceOptions {
    /// Master switch. When off, every trap is swept immediately.
    pub enabled: bool,
    /// How long after the *first* deferred trap the batch keeps absorbing
    /// further traps before a flush is due.
    pub window_ns: u64,
}

impl Default for CoalesceOptions {
    fn default() -> Self {
        Self {
            enabled: false,
            window_ns: 200_000_000, // 200 ms, on the order of a damping window
        }
    }
}

impl CoalesceOptions {
    /// Coalescing on, with the default window.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Subnet manager configuration.
#[derive(Clone, Copy, Debug)]
pub struct SmConfig {
    /// Which routing engine computes paths.
    pub engine: EngineKind,
    /// How configuration SMPs are addressed.
    pub smp_mode: SmpMode,
    /// How the heavy sweep parallelizes its planning work.
    pub sweep: SweepOptions,
    /// How the routing engines parallelize their path computation.
    pub routing: RoutingOptions,
    /// Verify the fabric invariants (black holes, forwarding loops,
    /// deadlock cycles, LID addressing) against the *installed* tables
    /// after every sweep and converged re-sweep, failing the operation on
    /// any violation. The deadlock check runs with the VL layering the
    /// engine produced — enabling this with an engine that makes no
    /// deadlock guarantee (Min-Hop) on a cyclic fabric will fail by
    /// design. Off by default.
    pub verify: bool,
    /// Link flap damping policy (see [`QuarantineOptions`]). Disabled by
    /// default.
    pub quarantine: QuarantineOptions,
    /// Answer link-down traps with an *incremental repair* sweep: re-route
    /// only the destination columns whose installed paths crossed the
    /// failed link (via [`ib_verify::affected_destinations`] and the
    /// engine's `repair_with_graph`), splice them into the last computed
    /// tables, and distribute just the dirty blocks. Every repair is gated
    /// by the fabric verifier; any rejection, engine error or missing or
    /// unusable baseline falls back to the usual full sweep and counts
    /// `repair.fallback`.
    /// Off by default — the traditional full-recompute path.
    pub repair: bool,
    /// Batch link-down traps arriving within a damping window into one
    /// repair sweep (see [`CoalesceOptions`]). Only consulted when
    /// `repair` is on.
    pub coalesce: CoalesceOptions,
}

impl Default for SmConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::MinHop,
            smp_mode: SmpMode::Directed,
            sweep: SweepOptions::default(),
            routing: RoutingOptions::default(),
            verify: false,
            quarantine: QuarantineOptions::default(),
            repair: false,
            coalesce: CoalesceOptions::default(),
        }
    }
}

/// The master subnet manager: owns the LID space and the SMP ledger, runs
/// bring-ups and full reconfigurations.
#[derive(Debug)]
pub struct SubnetManager {
    config: SmConfig,
    /// Node the SM runs on.
    pub sm_node: NodeId,
    /// Allocator over the unicast LID space.
    pub lid_space: LidSpace,
    /// Every SMP this SM ever sent.
    pub ledger: SmpLedger,
    /// Per-link flap damping state (active when
    /// `config.quarantine.enabled`).
    pub quarantine: LinkQuarantine,
    /// The last full set of tables this SM computed — the splice baseline
    /// for incremental repair. `None` until the first successful sweep.
    pub(crate) last_tables: Option<ib_routing::RoutingTables>,
    /// Reverse (switch, port) -> destination-set index over `last_tables`,
    /// kept in lock-step with it: rebuilt after full sweeps, spliced
    /// per-column after repairs, invalidated whenever the installed state
    /// diverges (failed distribution blocks). `None` means "fall back to
    /// the two-row scan".
    pub(crate) route_index: Option<ib_verify::ReverseRouteIndex>,
    /// The CSR switch graph cached across consecutive repair sweeps in a
    /// quiet epoch, keyed by [`Subnet::topology_epoch`]: a repair burst
    /// between topology mutations reuses one build instead of
    /// reconstructing per trap. Invalidated by comparing epochs, never by
    /// mutation hooks — the subnet owns the epoch counter.
    pub(crate) cached_graph: Option<(u64, ib_routing::SwitchGraph)>,
    /// Link-down traps deferred by coalescing, in arrival order,
    /// deduplicated per (node, port).
    pub(crate) pending_traps: Vec<(NodeId, ib_types::PortNum)>,
    /// When the pending batch is due: first-deferred-trap time plus the
    /// coalescing window.
    pub(crate) batch_deadline_ns: Option<u64>,
    /// Degraded-mode ledger: LIDs the last sweep proved unreachable from
    /// the SM (the far side of a fabric split), in ascending order. Empty
    /// when the fabric is whole. A heal sweep must show every one of these
    /// regained a full destination column before the ledger clears.
    pub(crate) unreachable_lids: Vec<Lid>,
    /// The nodes beyond the split — switches in foreign components plus
    /// the endpoints hanging off them. Their traps are absorbed (no MAD
    /// from a lost component can physically reach the SM) and their LFTs
    /// are excluded from distribution until a heal reconnects them.
    pub(crate) lost_nodes: HashSet<NodeId>,
}

impl SubnetManager {
    /// Creates an SM hosted on `sm_node`.
    #[must_use]
    pub fn new(sm_node: NodeId, config: SmConfig) -> Self {
        Self {
            config,
            sm_node,
            lid_space: LidSpace::new(),
            ledger: SmpLedger::new(),
            quarantine: LinkQuarantine::new(config.quarantine),
            last_tables: None,
            route_index: None,
            cached_graph: None,
            pending_traps: Vec::new(),
            batch_deadline_ns: None,
            unreachable_lids: Vec::new(),
            lost_nodes: HashSet::new(),
        }
    }

    /// Toggles the incremental-repair sweep at runtime (see
    /// [`SmConfig::repair`]); chaos harnesses flip this per event to
    /// interleave repair and full sweeps on one fabric.
    pub fn set_repair(&mut self, on: bool) {
        self.config.repair = on;
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> SmConfig {
        self.config
    }

    /// The metrics sink the SM (through its ledger) reports into.
    #[must_use]
    pub fn observer(&self) -> &Observer {
        self.ledger.observer()
    }

    /// Attaches a metrics sink: every SMP the ledger records and every
    /// pipeline phase the SM runs is mirrored into it from here on.
    pub fn set_observer(&mut self, observer: Observer) {
        self.ledger.set_observer(observer);
    }

    /// Full fabric bring-up: discovery sweep, LID assignment, path
    /// computation, LFT distribution.
    ///
    /// ```
    /// use ib_sm::{SmConfig, SubnetManager};
    /// use ib_subnet::topology::fattree;
    ///
    /// let mut t = fattree::two_level(2, 3, 2);
    /// let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
    /// let report = sm.bring_up(&mut t.subnet).unwrap();
    /// assert_eq!(report.lids, 10);                       // 4 switches + 6 hosts
    /// assert_eq!(report.distribution.lft_smps, 4);       // n x m = 4 x 1
    /// assert_eq!(sm.ledger.total(), report.total_smps());
    /// ```
    pub fn bring_up(&mut self, subnet: &mut Subnet) -> IbResult<BringUpReport> {
        let disc = {
            let _span = self.ledger.observer().span("sm.discovery");
            discovery::sweep(subnet, self.sm_node, &mut self.ledger)?
        };
        let discovery_smps = self.ledger.phase_total("discovery");

        let lid_smps = {
            let _span = self.ledger.observer().span("sm.lid_assignment");
            lids::assign_all(subnet, &disc, &mut self.lid_space, &mut self.ledger)?
        };

        let report = self.reroute_and_distribute(subnet)?;
        Ok(BringUpReport {
            discovery_smps,
            lid_smps,
            ..report
        })
    }

    /// The *traditional* full reconfiguration the paper's §VI-A costs out:
    /// recompute every path (`PCt`) and redistribute dirty LFT blocks
    /// (`LFTDt`). This is what a live migration would trigger without the
    /// vSwitch reconfiguration method.
    pub fn full_reconfiguration(&mut self, subnet: &mut Subnet) -> IbResult<BringUpReport> {
        self.reroute_and_distribute(subnet)
    }

    fn reroute_and_distribute(&mut self, subnet: &mut Subnet) -> IbResult<BringUpReport> {
        let engine = self.config.engine.build();
        let started = Instant::now();
        let tables = {
            let _span = self.ledger.observer().span("sm.routing");
            engine.compute_with(subnet, self.config.routing, self.ledger.observer())?
        };
        let path_computation = started.elapsed();

        let healed = self.refresh_partition_state(subnet);
        let served = self.served_tables(&tables);
        let dist = distribution::distribute_opts(
            subnet,
            self.sm_node,
            served.as_ref().unwrap_or(&tables),
            self.config.smp_mode,
            &mut self.ledger,
            self.config.sweep,
        )?;

        if self.config.verify {
            self.verify_installed(subnet, &tables.vls)?;
        }
        self.verify_healed(subnet, &healed)?;

        let report = BringUpReport {
            discovery_smps: 0,
            lid_smps: 0,
            path_computation,
            decisions: tables.decisions,
            distribution: dist,
            lids: subnet.num_lids(),
            min_blocks_per_switch: subnet.topmost_lid().map_or(0, min_blocks_for),
            engine: engine.name().to_string(),
        };
        // A full distribution covers every fault a deferred trap reported.
        self.subsume_pending();
        // Derive the index from the *installed* rows rather than `tables`:
        // the two are equal on live switches after distribution, but dead
        // switches keep stale rows the dirty-set scan still reads, and the
        // index must agree with that scan exactly.
        self.rebuild_route_index(subnet);
        self.last_tables = Some(tables);
        Ok(report)
    }

    /// Rebuilds the reverse route index from every installed table, under
    /// the `sm.rindex_rebuild` span.
    pub(crate) fn rebuild_route_index(&mut self, subnet: &Subnet) {
        let _span = self.ledger.observer().span("sm.rindex_rebuild");
        self.route_index = Some(ib_verify::ReverseRouteIndex::from_installed(subnet));
    }

    /// Drops every deferred link-down trap because a full-table
    /// distribution just covered them, counting `repair.batch_subsumed`.
    pub(crate) fn subsume_pending(&mut self) {
        if !self.pending_traps.is_empty() {
            self.ledger
                .observer()
                .add("repair.batch_subsumed", self.pending_traps.len() as u64);
            self.pending_traps.clear();
        }
        self.batch_deadline_ns = None;
    }

    /// Tells the SM that `lids`' destination columns were rewritten on the
    /// fabric *behind its back* — an Algorithm-1 LID swap/copy or a vSwitch
    /// route update issues direct LFT SMPs without a sweep. Re-reads those
    /// columns from the installed tables into the repair baseline and the
    /// reverse index, so a later incremental repair splices against what is
    /// actually on the switches instead of silently reverting the move.
    ///
    /// The reverse index moves each LID from its old (switch, port) set to
    /// its new one, reading the old rows off the baseline before the splice
    /// overwrites them: O(switches) per column. When an old row is not
    /// where the index holds it, or there is no baseline, the column is
    /// re-derived from every installed table instead, counted as
    /// `rindex.refresh_fallback`.
    pub fn note_columns_changed(&mut self, subnet: &Subnet, lids: &[ib_types::Lid]) {
        for &lid in lids {
            let before = self.last_tables.as_mut().map(|tables| {
                let before: Vec<(NodeId, Option<ib_types::PortNum>)> = tables
                    .lfts
                    .iter()
                    .map(|(&sw, lft)| (sw, lft.get(lid)))
                    .collect();
                tables.set_column(lid, |sw| subnet.lft(sw).and_then(|l| l.get(lid)));
                before
            });
            let Some(idx) = self.route_index.as_mut() else {
                continue;
            };
            if !before.is_some_and(|before| idx.move_column(subnet, lid, &before)) {
                self.ledger.observer().incr("rindex.refresh_fallback");
                idx.refresh_column_from_installed(subnet, lid);
            }
            debug_assert!(
                idx.column_matches_installed(subnet, lid),
                "reverse route index diverged from the installed rows of LID {lid}"
            );
        }
    }

    /// Audits the reverse route index against the installed tables,
    /// returning one line per stale `(switch, port)` destination set —
    /// empty when the index is absent (nothing to audit) or exact. The
    /// soak harness calls this after every event.
    #[must_use]
    pub fn verify_route_index(&self, subnet: &Subnet) -> Vec<String> {
        self.route_index
            .as_ref()
            .map(|idx| idx.mismatches(subnet))
            .unwrap_or_default()
    }

    /// The live reverse route index, when one mirrors the installed LFTs
    /// (rebuilt by converged full sweeps, spliced per column by repairs).
    /// `None` after an unconverged distribution until the next full sweep.
    #[must_use]
    pub fn route_index(&self) -> Option<&ib_verify::ReverseRouteIndex> {
        self.route_index.as_ref()
    }

    /// The link-down traps currently deferred by coalescing, in arrival
    /// order.
    #[must_use]
    pub fn pending_repairs(&self) -> &[(NodeId, ib_types::PortNum)] {
        &self.pending_traps
    }

    /// The virtual-lane assignment of the last computed tables, for
    /// running the deadlock-aware verifier against the installed fabric
    /// ([`ib_verify::FabricVerifier::verify_with_vls`]). `None` before
    /// the first sweep.
    #[must_use]
    pub fn installed_vls(&self) -> Option<&ib_routing::VlAssignment> {
        self.last_tables.as_ref().map(|t| &t.vls)
    }

    /// Runs the [`ib_verify::FabricVerifier`] against the installed tables
    /// (with the VL layering the engine produced), turning any violation
    /// into a hard error. Emits `verify.*` counters into the observer.
    ///
    /// Verification is scoped to the SM's own connected component: after a
    /// fabric split, switches beyond the cut keep whatever rows were last
    /// installed — no SMP the master sends can reach them, so their stale
    /// state is the *lost* side's problem until a heal sweep rewrites it.
    pub(crate) fn verify_installed(
        &mut self,
        subnet: &Subnet,
        vls: &ib_routing::VlAssignment,
    ) -> IbResult<()> {
        let report = ib_verify::FabricVerifier::new()
            .with_viewpoint(self.sm_node)
            .verify_observed(subnet, vls, self.ledger.observer())?;
        if report.is_clean() {
            Ok(())
        } else {
            Err(ib_types::IbError::Management(format!(
                "fabric verification failed: {}",
                report.summary()
            )))
        }
    }

    /// Re-labels the fabric's connected components after a sweep computed
    /// fresh tables, updating the degraded-mode ledger. A split is counted
    /// (`sm.partitioned` per sweep that still sees it, `sm.unreachable_lids`
    /// with the stranded LID count); a fabric that is whole again clears
    /// the ledger. Returns the LIDs that were unreachable *before* this
    /// refresh so the caller can prove a heal restored their columns
    /// ([`Self::verify_healed`]).
    pub(crate) fn refresh_partition_state(&mut self, subnet: &Subnet) -> Vec<Lid> {
        let prior = std::mem::take(&mut self.unreachable_lids);
        self.lost_nodes.clear();
        if let Some((lost, lids)) = self.partition_scan(subnet) {
            let observer = self.ledger.observer();
            observer.incr("sm.partitioned");
            observer.add("sm.unreachable_lids", lids.len() as u64);
            self.lost_nodes = lost;
            self.unreachable_lids = lids;
        }
        prior
    }

    /// Labels the connected components of the switch graph (reusing the
    /// epoch-cached CSR build when one is current) and, on a split, returns
    /// the nodes beyond the SM's component together with the LIDs stranded
    /// there. `None` when the fabric is whole — or when no component can be
    /// labeled at all (the SM host's own uplink is down, or the degraded
    /// subnet cannot express a CSR graph), in which case the sweep proceeds
    /// exactly as before this machinery existed.
    fn partition_scan(&mut self, subnet: &Subnet) -> Option<(HashSet<NodeId>, Vec<Lid>)> {
        let epoch = subnet.topology_epoch();
        let graph = match self.cached_graph.take() {
            Some((e, g)) if e == epoch => g,
            _ => ib_routing::SwitchGraph::build(subnet).ok()?,
        };
        let scan = self.scan_lost(subnet, &graph);
        self.cached_graph = Some((epoch, graph));
        scan
    }

    /// The component walk behind [`Self::partition_scan`]: everything not
    /// in the SM's own component is lost, and every LID registered on a
    /// lost node is unreachable.
    fn scan_lost(
        &self,
        subnet: &Subnet,
        graph: &ib_routing::SwitchGraph,
    ) -> Option<(HashSet<NodeId>, Vec<Lid>)> {
        let comps = graph.components();
        if !comps.is_partitioned() {
            return None;
        }
        // Anchor the scan at the switch the SM talks through (the SM host
        // itself when it *is* a switch).
        let anchor = if subnet.node(self.sm_node).is_switch() {
            self.sm_node
        } else {
            subnet
                .node(self.sm_node)
                .connected_ports()
                .map(|(_, r)| r.node)
                .find(|&n| subnet.node(n).is_switch())?
        };
        let scope = comps.label_of(graph.index(anchor)?);
        let in_scope = |node: NodeId| {
            graph
                .index(node)
                .is_some_and(|i| comps.label_of(i) == scope)
        };
        let mut lost = HashSet::new();
        let mut lids = Vec::new();
        for n in subnet.nodes().filter(|n| n.is_alive()) {
            let reachable = if n.id == self.sm_node {
                true
            } else if n.is_switch() {
                in_scope(n.id)
            } else {
                // An endpoint follows whichever switch still links it in.
                n.connected_ports().any(|(_, r)| in_scope(r.node))
            };
            if !reachable {
                lids.extend(n.lids());
                lost.insert(n.id);
            }
        }
        lids.sort_unstable();
        Some((lost, lids))
    }

    /// The subset of `tables` the SM can still deliver: switches beyond the
    /// split are dropped — their `Set` SMPs would only burn the retry
    /// budget, and the heal sweep rewrites their rows wholesale anyway.
    /// `None` when the fabric is whole (the common case pays nothing).
    pub(crate) fn served_tables(
        &self,
        tables: &ib_routing::RoutingTables,
    ) -> Option<ib_routing::RoutingTables> {
        if self.lost_nodes.is_empty() {
            return None;
        }
        self.ledger.observer().add(
            "sm.switches_unserved",
            tables
                .lfts
                .keys()
                .filter(|id| self.lost_nodes.contains(id))
                .count() as u64,
        );
        Some(ib_routing::RoutingTables {
            lfts: tables
                .lfts
                .iter()
                .filter(|(id, _)| !self.lost_nodes.contains(id))
                .map(|(&id, lft)| (id, lft.clone()))
                .collect(),
            vls: tables.vls.clone(),
            engine: tables.engine,
            decisions: tables.decisions,
        })
    }

    /// After a sweep on a fabric that is whole again: every LID the split
    /// had stranded — and that still exists — must have regained a full
    /// destination column on every switch, or the heal is declared broken.
    /// Counts `sm.healed` once per recovery. A no-op while still degraded
    /// or when nothing was stranded.
    pub(crate) fn verify_healed(&mut self, subnet: &Subnet, stranded: &[Lid]) -> IbResult<()> {
        if stranded.is_empty() || !self.unreachable_lids.is_empty() {
            return Ok(());
        }
        self.ledger.observer().incr("sm.healed");
        for &lid in stranded {
            if subnet.endpoint_of(lid).is_none() {
                continue; // pruned while lost; nothing to restore
            }
            for sw in subnet.switches() {
                if sw.lft().is_some_and(|l| l.get(lid).is_none()) {
                    return Err(ib_types::IbError::Management(format!(
                        "heal verification failed: {} has no route toward \
                         previously-unreachable LID {lid}",
                        subnet.name_of(sw.id)
                    )));
                }
            }
        }
        Ok(())
    }

    /// The LIDs the last sweep left unreachable (ascending), empty when
    /// the fabric is whole. The soak harness and drivers read this to know
    /// whether the SM is serving a degraded fabric.
    #[must_use]
    pub fn unreachable_lids(&self) -> &[Lid] {
        &self.unreachable_lids
    }

    /// True while the SM is serving only its own component of a split
    /// fabric.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.unreachable_lids.is_empty() || !self.lost_nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn bring_up_configures_fat_tree_end_to_end() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        let report = sm.bring_up(&mut t.subnet).unwrap();

        assert_eq!(report.lids, 10);
        assert_eq!(report.lid_smps, 10);
        assert_eq!(report.min_blocks_per_switch, 1);
        assert_eq!(report.distribution.lft_smps, 4); // 4 switches x 1 block.
        assert!(report.decisions > 0);

        // Every host reaches every other host through the installed LFTs.
        for &a in &t.hosts {
            for &b in &t.hosts {
                let lid = t.subnet.node(b).ports[1].lid.unwrap();
                let path = t.subnet.trace_route(a, lid, 16).unwrap();
                assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    #[test]
    fn verified_bring_up_passes_and_counts() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("verify.runs"), 1);
        assert_eq!(snap.counter("verify.clean"), 1);
        assert_eq!(snap.counter("verify.violations"), 0);
        assert_eq!(snap.spans_named("verify.run").len(), 1);
    }

    #[test]
    fn verified_bring_up_rejects_corrupted_tables() {
        // Corrupt a row behind the SM's back *between* two sweeps: the
        // second (verifying) reconfiguration must refuse the fabric...
        // except a full reconfiguration rewrites the corrupt row. Instead
        // corrupt a LID registration, which no sweep repairs.
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.bring_up(&mut t.subnet).unwrap();
        // Duplicate LID ownership: host 5's port claims host 4's LID.
        let stolen = t.subnet.node(t.hosts[4]).ports[1].lid.unwrap();
        t.subnet.node_mut(t.hosts[5]).ports[1].lid = Some(stolen);
        let err = sm.full_reconfiguration(&mut t.subnet).unwrap_err();
        assert!(
            err.to_string().contains("fabric verification failed"),
            "{err}"
        );
    }

    #[test]
    fn full_reconfiguration_without_changes_sends_nothing() {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        let again = sm.full_reconfiguration(&mut t.subnet).unwrap();
        assert_eq!(again.distribution.lft_smps, 0);
    }

    #[test]
    fn dfsssp_brings_up_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine: EngineKind::Dfsssp,
                smp_mode: SmpMode::Directed,
                ..SmConfig::default()
            },
        );
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(report.engine, "dfsssp");
        for &b in &t.hosts {
            let lid = t.subnet.node(b).ports[1].lid.unwrap();
            let path = t.subnet.trace_route(t.hosts[0], lid, 32).unwrap();
            assert_eq!(*path.last().unwrap(), b);
        }
    }

    #[test]
    fn ledger_phases_cover_pipeline() {
        let mut t = two_level(2, 2, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(sm.ledger.phase_total("discovery"), report.discovery_smps);
        assert_eq!(sm.ledger.phase_total("lid-assignment"), report.lid_smps);
        assert_eq!(
            sm.ledger.phase_total("lft-distribution"),
            report.distribution.lft_smps
        );
        assert_eq!(sm.ledger.total(), report.total_smps());
    }

    #[test]
    fn destination_mode_after_directed_bring_up() {
        // First bring-up must be directed (no LFTs yet); once tables are in
        // place a second SM can run destination-routed.
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();

        // Nudge a LID to force redistribution: move host 5 to a new LID.
        let h5 = t.hosts[5];
        let old = t.subnet.node(h5).ports[1].lid.unwrap();
        t.subnet.clear_lid(old).unwrap();
        t.subnet
            .assign_port_lid(h5, ib_types::PortNum::new(1), ib_types::Lid::from_raw(40))
            .unwrap();

        let mut sm2 = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine: EngineKind::MinHop,
                smp_mode: SmpMode::Destination,
                ..SmConfig::default()
            },
        );
        let report = sm2.full_reconfiguration(&mut t.subnet).unwrap();
        assert!(report.distribution.lft_smps > 0);
        assert!(sm2.ledger.records().iter().all(|r| !r.directed));
    }

    /// Swaps two host LIDs' rows on every switch behind the SM's back, the
    /// way an Algorithm-1 migration does, and returns the two LIDs.
    fn swap_rows_out_of_band(t: &mut ib_subnet::topology::BuiltTopology) -> [Lid; 2] {
        let a = t.subnet.node(t.hosts[0]).ports[1].lid.unwrap();
        let b = t.subnet.node(t.hosts[5]).ports[1].lid.unwrap();
        for sw in t.all_switches() {
            t.subnet.lft_mut(sw).unwrap().swap(a, b);
        }
        [a, b]
    }

    #[test]
    fn noted_columns_move_in_the_index_without_a_refresh() {
        let mut t = two_level(3, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let lids = swap_rows_out_of_band(&mut t);
        assert!(
            !sm.verify_route_index(&t.subnet).is_empty(),
            "index is stale"
        );
        sm.note_columns_changed(&t.subnet, &lids);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("rindex.refresh_fallback"), 0);
        assert_eq!(snap.spans_named("sm.rindex_rebuild").len(), 1);
    }

    #[test]
    fn a_baseline_row_the_index_lacks_falls_back_to_a_counted_refresh() {
        let mut t = two_level(3, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let lids = swap_rows_out_of_band(&mut t);
        // Skew the baseline so its old row for the first LID names a port
        // the index does not hold that LID under.
        let leaf = t.switch_levels[0][0];
        let row = sm.last_tables.as_ref().unwrap().lfts[&leaf].get(lids[0]);
        let other = (1..t.subnet.node(leaf).ports.len() as u8)
            .map(ib_types::PortNum::new)
            .find(|&p| Some(p) != row && Some(p) != t.subnet.lft(leaf).unwrap().get(lids[0]))
            .unwrap();
        sm.last_tables
            .as_mut()
            .unwrap()
            .lfts
            .get_mut(&leaf)
            .unwrap()
            .set(lids[0], other);
        sm.note_columns_changed(&t.subnet, &lids);
        assert!(sm.verify_route_index(&t.subnet).is_empty());
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("rindex.refresh_fallback"), 1);
    }
}
