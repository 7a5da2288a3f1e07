//! The routing-engine abstraction.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult};

use crate::graph::SwitchGraph;
use crate::tables::RoutingTables;

/// Parallelism knobs for one routing computation, mirroring `ib-sm`'s
/// `SweepOptions`: `workers` bounds how many scoped threads the engine may
/// fan its embarrassingly parallel phases across (all-pairs/per-delivery
/// BFS, per-switch LFT staging). `0` means "use the machine's available
/// parallelism". The order-sensitive serial phases (port-load balancing,
/// weight updates, VL lifting) never parallelize, so the produced
/// [`RoutingTables`] are identical for every worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingOptions {
    /// Worker-thread cap for the parallel phases; `0` = auto.
    pub workers: usize,
}

impl Default for RoutingOptions {
    /// Single-threaded: the conservative default every `compute` call uses.
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl RoutingOptions {
    /// Builder-style worker override.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Resolves the configured worker count against a job count: `0` maps
    /// to the machine's available parallelism, and the result is clamped to
    /// `1..=jobs` so callers never spawn idle threads.
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

/// A routing engine: a pure function from a LID-assigned subnet to a full
/// set of LFTs (plus a VL layering when the engine provides one).
///
/// Engines never mutate the subnet; the subnet manager decides when and how
/// (and at what SMP cost) tables reach the switches. The wall-clock time of
/// [`RoutingEngine::compute`] is precisely the `PCt` term of the paper's
/// equation 1 — what Fig. 7 measures and what the vSwitch reconfiguration
/// eliminates.
pub trait RoutingEngine: Send + Sync {
    /// Engine name as it appears in reports (`"fat-tree"`, `"minhop"`, ...).
    fn name(&self) -> &'static str;

    /// Computes routing tables for every switch in the subnet:
    /// single-threaded and unobserved. Provided so the trait stays
    /// object-safe and existing callers are untouched; it delegates to
    /// [`RoutingEngine::compute_with`].
    fn compute(&self, subnet: &Subnet) -> IbResult<RoutingTables> {
        self.compute_with(subnet, RoutingOptions::default(), &Observer::disabled())
    }

    /// Computes routing tables with explicit parallelism and a metrics
    /// sink. Engines emit per-phase spans (`routing.<engine>.distances`,
    /// `routing.<engine>.assign`, and VL-partition phases where they
    /// exist) into `observer`, and fan parallel phases across at most
    /// `opts` workers. Output is invariant under the worker count.
    fn compute_with(
        &self,
        subnet: &Subnet,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<RoutingTables>;

    /// Incrementally repairs `prior` tables after a fault: re-routes only
    /// the `dirty_dests` destination columns and splices them into a copy
    /// of `prior`, leaving every clean column byte-identical. The SM can
    /// then distribute just the dirty LFT blocks instead of a full-fabric
    /// rewrite — reconfiguration cost scales with the damage, not the
    /// fabric.
    ///
    /// `graph` must be [`SwitchGraph::build`]'s output for `subnet` in its
    /// *current* fault state — the SM caches it across repair sweeps in a
    /// quiet topology epoch and rebuilds only when
    /// `Subnet::topology_epoch` moves.
    ///
    /// A `prior` that cannot seed a splice (no LFT for some live switch,
    /// or engine-specific state the repair reads back) is an `Err`, never
    /// a silent full recompute: every `Ok` is a genuine column splice, and
    /// the caller decides — and counts — what to do instead. Callers must
    /// still treat the result as *untrusted* until it passes
    /// `FabricVerifier` — the splice preserves per-column correctness, but
    /// global properties (deadlock freedom across mixed old/new columns)
    /// need the gate.
    fn repair_with_graph(
        &self,
        subnet: &Subnet,
        graph: &SwitchGraph,
        opts: RoutingOptions,
        prior: &RoutingTables,
        dirty_dests: &[ib_types::Lid],
        observer: &Observer,
    ) -> IbResult<RoutingTables>;
}

/// Repairs a *burst* of faults: folds [`RoutingEngine::repair_with_graph`]
/// over the per-fault dirty groups in order, each repair splicing into the
/// previous result and every step sharing `graph`. Groups must be disjoint
/// and every faulted link must already be down in `subnet` before the call
/// — then each fold step sees exactly the columns the corresponding serial
/// repair sweep would have re-routed, and the final tables are
/// **byte-identical** to running the k repairs one trap at a time. A
/// single fault is a fold of one group: exactly one `repair_with_graph`
/// call.
///
/// Deliberately *not* a single repair over the union: engines with
/// load-balancing state (Min-Hop's least-loaded port seeding) give
/// different — equally valid but not identical — answers when columns are
/// re-routed together versus one fault at a time, and the batched path's
/// contract is "same tables, fewer SMPs and verifier passes". Empty groups
/// (faults fully subsumed by earlier repairs) are skipped, matching the
/// serial path's clean no-op.
pub fn repair_batch(
    engine: &dyn RoutingEngine,
    subnet: &Subnet,
    graph: &SwitchGraph,
    opts: RoutingOptions,
    prior: &RoutingTables,
    dirty_groups: &[Vec<ib_types::Lid>],
    observer: &Observer,
) -> IbResult<RoutingTables> {
    let mut cur: Option<RoutingTables> = None;
    for group in dirty_groups.iter().filter(|g| !g.is_empty()) {
        let base = cur.as_ref().unwrap_or(prior);
        cur = Some(engine.repair_with_graph(subnet, graph, opts, base, group, observer)?);
    }
    Ok(cur.unwrap_or_else(|| prior.clone()))
}

/// The baseline check every engine's repair runs first: `prior` must hold
/// an LFT for each switch of `graph` (and the graph must have switches at
/// all) for a column splice to keep the clean columns. Anything else is an
/// unusable baseline, reported as an `Err` naming `engine`.
pub(crate) fn require_baseline(
    engine: &str,
    graph: &SwitchGraph,
    prior: &RoutingTables,
) -> IbResult<()> {
    if graph.is_empty() {
        return Err(unusable_baseline(engine, "no switches to route"));
    }
    match (0..graph.len()).find(|&s| !prior.lfts.contains_key(&graph.node_id(s))) {
        Some(s) => Err(unusable_baseline(
            engine,
            &format!("no LFT for switch {:?}", graph.node_id(s)),
        )),
        None => Ok(()),
    }
}

/// The `Err` a repair returns when `prior` cannot seed a column splice.
pub(crate) fn unusable_baseline(engine: &str, why: &str) -> IbError {
    IbError::Management(format!("{engine} repair: unusable baseline ({why})"))
}

/// The engines of Fig. 7 (plus Up*/Down*, used in the deadlock analysis).
///
/// ```
/// use ib_routing::EngineKind;
/// use ib_routing::testutil::assign_lids;
/// use ib_subnet::topology::fattree;
///
/// let mut t = fattree::two_level(2, 2, 2);
/// assign_lids(&mut t);
/// let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
/// assert!(tables.unreachable_pairs(&t.subnet, 16).is_empty());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// OpenSM's default Min-Hop.
    MinHop,
    /// Structured fat-tree routing.
    FatTree,
    /// Up*/Down*.
    UpDown,
    /// Deadlock-free SSSP.
    Dfsssp,
    /// LASH.
    Lash,
}

impl EngineKind {
    /// All engine kinds.
    #[must_use]
    pub fn all() -> [EngineKind; 5] {
        [
            Self::FatTree,
            Self::MinHop,
            Self::UpDown,
            Self::Dfsssp,
            Self::Lash,
        ]
    }

    /// The four engines the paper's Fig. 7 compares.
    #[must_use]
    pub fn fig7() -> [EngineKind; 4] {
        [Self::FatTree, Self::MinHop, Self::Dfsssp, Self::Lash]
    }

    /// Engine name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::MinHop => "minhop",
            Self::FatTree => "fat-tree",
            Self::UpDown => "up-down",
            Self::Dfsssp => "dfsssp",
            Self::Lash => "lash",
        }
    }

    /// Instantiates the engine with default parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn RoutingEngine> {
        match self {
            Self::MinHop => Box::new(crate::minhop::MinHop),
            Self::FatTree => Box::new(crate::ftree::FatTree),
            Self::UpDown => Box::new(crate::updn::UpDown::default()),
            Self::Dfsssp => Box::new(crate::dfsssp::Dfsssp::default()),
            Self::Lash => Box::new(crate::lash::Lash::default()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(EngineKind::MinHop.name(), "minhop");
        assert_eq!(EngineKind::FatTree.to_string(), "fat-tree");
        assert_eq!(EngineKind::all().len(), 5);
        assert_eq!(EngineKind::fig7().len(), 4);
    }

    #[test]
    fn build_matches_kind() {
        for kind in EngineKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn routing_options_resolve_workers() {
        assert_eq!(RoutingOptions::default().workers, 1);
        let opts = RoutingOptions::default().with_workers(4);
        assert_eq!(opts.effective_workers(100), 4);
        // Clamped to the job count, floored at one.
        assert_eq!(opts.effective_workers(2), 2);
        assert_eq!(opts.effective_workers(0), 1);
        // Auto resolves to at least one worker.
        assert!(
            RoutingOptions::default()
                .with_workers(0)
                .effective_workers(8)
                >= 1
        );
    }

    #[test]
    fn compute_delegates_to_compute_with() {
        use crate::testutil::assign_lids;
        use ib_subnet::topology::fattree;

        let mut t = fattree::two_level(2, 2, 2);
        assign_lids(&mut t);
        for kind in EngineKind::all() {
            let e = kind.build();
            let a = e.compute(&t.subnet).unwrap();
            let b = e
                .compute_with(
                    &t.subnet,
                    RoutingOptions::default(),
                    &ib_observe::Observer::disabled(),
                )
                .unwrap();
            assert_eq!(a.lfts, b.lfts, "{kind}");
            assert_eq!(a.vls, b.vls, "{kind}");
            assert_eq!(a.decisions, b.decisions, "{kind}");
        }
    }

    /// The scan `ib-verify` performs, inlined against a table set (this
    /// crate sits below `ib-verify` in the dependency order).
    fn affected(
        subnet: &Subnet,
        tables: &crate::tables::RoutingTables,
        node: ib_subnet::NodeId,
        port: ib_types::PortNum,
    ) -> Vec<ib_types::Lid> {
        let mut ends = vec![(node, port)];
        if let Some(r) = subnet
            .node(node)
            .ports
            .get(port.raw() as usize)
            .and_then(|p| p.remote)
        {
            ends.push((r.node, r.port));
        }
        subnet
            .lids()
            .into_iter()
            .filter(|&lid| {
                ends.iter().any(|&(n, p)| {
                    tables
                        .lfts
                        .get(&n)
                        .is_some_and(|lft| lft.get(lid) == Some(p))
                })
            })
            .collect()
    }

    /// [`repair_batch`] over baseline-derived dirty groups (earlier
    /// groups subtracted) must produce tables byte-identical to repairing
    /// the faults one trap at a time, each serial step re-scanning against
    /// the tables the previous repair produced. Valid because every faulted
    /// link is down before either arm starts — the theorem the SM's trap
    /// coalescing rests on.
    #[test]
    fn batch_fold_matches_serial_trap_at_a_time_repairs() {
        use crate::testutil::assign_lids;
        use ib_subnet::topology::fattree;

        for kind in EngineKind::all() {
            let mut t = fattree::two_level(4, 4, 2);
            assign_lids(&mut t);
            let engine = kind.build();
            let t0 = engine.compute(&t.subnet).unwrap();

            // Two switch-switch faults on distinct leaves, both downed
            // before any repair (connectivity survives: 4 uplinks/leaf).
            let faults: Vec<(ib_subnet::NodeId, ib_types::PortNum)> = {
                let mut seen = std::collections::HashSet::new();
                t.subnet
                    .switches()
                    .flat_map(|n| n.connected_ports().map(move |(p, ep)| (n.id, p, ep.node)))
                    .filter(|&(n, _, peer)| t.subnet.node(peer).is_switch() && seen.insert(n))
                    .map(|(n, p, _)| (n, p))
                    .take(2)
                    .collect()
            };
            assert_eq!(faults.len(), 2);
            for &(n, p) in &faults {
                t.subnet.set_link_down(n, p).unwrap();
            }

            // Serial arm: re-scan against the evolving tables.
            let opts = RoutingOptions::default();
            let obs = ib_observe::Observer::disabled();
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let mut serial = t0.clone();
            for &(n, p) in &faults {
                let dirty = affected(&t.subnet, &serial, n, p);
                if dirty.is_empty() {
                    continue;
                }
                serial = engine
                    .repair_with_graph(&t.subnet, &g, opts, &serial, &dirty, &obs)
                    .unwrap();
            }

            // Batch arm: groups precomputed from the T0 baseline, earlier
            // groups subtracted.
            let mut seen: std::collections::HashSet<ib_types::Lid> = Default::default();
            let groups: Vec<Vec<ib_types::Lid>> = faults
                .iter()
                .map(|&(n, p)| {
                    affected(&t.subnet, &t0, n, p)
                        .into_iter()
                        .filter(|&lid| seen.insert(lid))
                        .collect()
                })
                .collect();
            let batch =
                repair_batch(engine.as_ref(), &t.subnet, &g, opts, &t0, &groups, &obs).unwrap();

            assert_eq!(batch.lfts, serial.lfts, "{kind}");
            assert_eq!(batch.vls, serial.vls, "{kind}");
        }
    }
}
