//! The [`FabricVerifier`]: the four fabric invariants checked against
//! installed LFTs.

use ib_observe::Observer;
use ib_routing::VlAssignment;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid};
use rustc_hash::FxHashMap;

#[cfg(test)]
use crate::kernel::LaneEdges;
use crate::kernel::{Block, Fabric, LaneDeps, Link, Rows, ENDPOINT, NONE};

/// Which invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// A LID unreachable from some switch: the packet is dropped, delivered
    /// to the wrong endpoint, or dead-ends in a missing/downed row.
    BlackHole,
    /// Following LFT entries for one destination revisits a switch.
    ForwardingLoop,
    /// The channel dependency graph of the installed tables has a cycle on
    /// some virtual lane (Duato's condition violated).
    DeadlockCycle,
    /// vSwitch addressing broken: duplicate LID ownership, or a registered
    /// LID that does not resolve to a live owning endpoint.
    Addressing,
    /// A switch still holds an LFT row toward a destination it cannot
    /// reach (the fabric is split and the row points into the lost
    /// component). The legal degraded states are an *empty* row or an
    /// explicit drop — distribution pads cleared rows to the drop port,
    /// OpenSM-style — so a row toward a real port is stale routing state
    /// that was never cleared.
    StaleRoute,
}

impl InvariantClass {
    /// Stable kebab-case name, used in reports and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BlackHole => "black-hole",
            Self::ForwardingLoop => "forwarding-loop",
            Self::DeadlockCycle => "deadlock-cycle",
            Self::Addressing => "addressing",
            Self::StaleRoute => "stale-route",
        }
    }
}

impl std::fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, with a human-readable witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class.
    pub class: InvariantClass,
    /// What exactly is wrong, naming switches/LIDs involved.
    pub detail: String,
    /// The destination column this violation is attributable to, when the
    /// check walks per-destination state (forwarding walks, snapshot
    /// diffs). `None` for fabric-global findings — LID ownership clashes
    /// and deadlock cycles — which no single column owns. Repair gates use
    /// this to distinguish damage on the columns a repair touched from
    /// pre-existing damage belonging to faults not yet handled.
    pub lid: Option<Lid>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class, self.detail)
    }
}

/// The outcome of one verification pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Switches whose tables were walked.
    pub switches: usize,
    /// Destination LIDs checked.
    pub lids: usize,
    /// Every invariant violation found, in deterministic order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when every invariant holds.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one class.
    #[must_use]
    pub fn count(&self, class: InvariantClass) -> usize {
        self.violations.iter().filter(|v| v.class == class).count()
    }

    /// A deterministic one-line verdict: `clean` or the leading violations.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} lids x {} switches)", self.lids, self.switches);
        }
        let shown: Vec<String> = self
            .violations
            .iter()
            .take(3)
            .map(Violation::to_string)
            .collect();
        let suffix = if self.violations.len() > 3 {
            format!(" (+{} more)", self.violations.len() - 3)
        } else {
            String::new()
        };
        format!(
            "{} violation(s): {}{}",
            self.violations.len(),
            shown.join("; "),
            suffix
        )
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Where one switch's row sends a packet for one destination column.
enum Hop {
    /// Arrives at the destination endpoint.
    Deliver,
    /// Forwards to another switch (by dense index).
    To(usize),
    /// Terminal failure; [`Column::dead_reason`] says why.
    Dead,
}

/// One destination column of one LFT block.
struct Column<'b> {
    /// The node answering to the LID.
    target: NodeId,
    /// The target's switch index, [`NONE`] when the target is an HCA.
    target_switch: u32,
    /// Every switch's row for the LID.
    rows: Rows<'b>,
}

impl Column<'_> {
    /// Resolves switch `s`'s row into a [`Hop`].
    fn hop(&self, fabric: &Fabric<'_>, s: usize) -> Hop {
        if s as u32 == self.target_switch {
            return Hop::Deliver;
        }
        match self.rows.hops[s] {
            NONE => Hop::Dead,
            ENDPOINT => match self.rows.ports[s].map(|p| fabric.link(s, p)) {
                Some(Link::Hca(node) | Link::Other(node)) if node == self.target => Hop::Deliver,
                _ => Hop::Dead,
            },
            v if v == self.target_switch => Hop::Deliver,
            v => Hop::To(v as usize),
        }
    }

    /// Why switch `s`'s row is a [`Hop::Dead`].
    fn dead_reason(&self, fabric: &Fabric<'_>, s: usize) -> String {
        let subnet = fabric.subnet;
        match self.rows.ports[s] {
            None => "missing LFT row".into(),
            Some(port) if port.is_drop() => "row is an explicit drop".into(),
            Some(port) if port.is_management() => "row terminates at the wrong switch".into(),
            Some(port) => match fabric.link(s, port) {
                Link::Hca(node) => {
                    format!("delivered to wrong endpoint {}", subnet.name_of(node))
                }
                Link::Other(node) => format!("forwards into non-switch {}", subnet.name_of(node)),
                Link::Down | Link::Switch(_) => {
                    format!("row forwards into downed/uncabled port {port}")
                }
            },
        }
    }
}

/// Scratch of the memoized column walk, reused across columns.
struct WalkScratch {
    outcome: Vec<u8>,
    path: Vec<usize>,
    /// Switches already reported for the current column.
    reported: Vec<usize>,
}

impl WalkScratch {
    /// True the first time `s` is reported for the current column.
    fn first_report(&mut self, s: usize) -> bool {
        if self.reported.contains(&s) {
            return false;
        }
        self.reported.push(s);
        true
    }
}

/// Invariant 3's state during a pass: every column's dependencies are
/// absorbed into the CDG of the lane(s) it rides.
struct DeadlockCheck {
    deps: LaneDeps,
    lanes: ColumnLanes,
}

/// How a pass learns which lane a dependency belongs to.
enum ColumnLanes {
    /// A whole column rides one lane (`SingleVl`, `PerDestination`).
    PerColumn,
    /// Each (source switch, column) path rides its own lane
    /// (`PerSwitchPair`, `PerSourceDestination`). Paths are walked from
    /// every switch, so their chains — not just adjacent row pairs — form
    /// the dependencies.
    PerPath {
        /// Delivery switch of each registered LID, by position.
        delivery: Vec<u32>,
        max_hops: usize,
    },
}

impl DeadlockCheck {
    fn new(
        fabric: &Fabric<'_>,
        lids: &[Lid],
        vls: &VlAssignment,
        max_hops: usize,
    ) -> IbResult<Self> {
        let delivery = lids
            .iter()
            .map(|&lid| fabric.delivery_switch(lid))
            .collect::<IbResult<Vec<u32>>>()?;
        let (mut lanes, per_path): (Vec<u8>, bool) = match vls {
            VlAssignment::SingleVl => (Vec::new(), false),
            VlAssignment::PerDestination(map) => (map.values().map(|v| v.raw()).collect(), false),
            VlAssignment::PerSwitchPair(map) => (map.values().map(|v| v.raw()).collect(), true),
            VlAssignment::PerSourceDestination(map) => {
                (map.values().map(|v| v.raw()).collect(), true)
            }
        };
        lanes.push(0);
        Ok(Self {
            deps: LaneDeps::new(fabric, lanes),
            lanes: if per_path {
                ColumnLanes::PerPath { delivery, max_hops }
            } else {
                ColumnLanes::PerColumn
            },
        })
    }

    /// Absorbs column `lid`, the `i`-th registered LID.
    fn absorb(
        &mut self,
        fabric: &Fabric<'_>,
        vls: &VlAssignment,
        i: usize,
        lid: Lid,
        rows: Rows<'_>,
    ) {
        let deps = &mut self.deps;
        let ColumnLanes::PerPath { delivery, max_hops } = &self.lanes else {
            let slot = deps.slot(vls.lane_for(0, 0, lid).raw());
            deps.add_column(fabric, slot, rows);
            return;
        };
        let dest = delivery[i];
        for s in 0..fabric.len() {
            if s as u32 == dest {
                continue;
            }
            let slot = deps.slot(vls.lane_for(s as u32, dest, lid).raw());
            let mut cur = s;
            let mut prev = NONE;
            for _ in 0..*max_hops {
                let next = rows.hops[cur];
                if next >= ENDPOINT {
                    break;
                }
                if prev != NONE {
                    deps.add(slot, prev, rows.port(cur));
                }
                prev = rows.channel(fabric, cur);
                cur = next as usize;
                if cur as u32 == dest {
                    break;
                }
            }
        }
    }

    /// Renders one cycle per cyclic lane as a deadlock violation.
    fn report(&self, fabric: &Fabric<'_>, out: &mut Vec<Violation>) {
        for (lane, cycle) in self.deps.cycles(fabric) {
            let chain: Vec<String> = cycle
                .iter()
                .map(|&c| {
                    let (s, p) = fabric.channel(c);
                    format!("{}:p{}", fabric.subnet.name_of(fabric.switches[s]), p)
                })
                .collect();
            out.push(Violation {
                class: InvariantClass::DeadlockCycle,
                detail: format!("VL{lane} channel dependency cycle: {}", chain.join(" -> ")),
                lid: None,
            });
        }
    }
}

/// Checks the four fabric invariants against a subnet's *installed* LFTs.
///
/// Construction is free; every check is read-only. The verifier is
/// deliberately independent of `ib-sm` so it can audit any subnet state —
/// planned, installed, or corrupted by a chaos schedule.
#[derive(Clone, Copy, Debug)]
pub struct FabricVerifier {
    /// Hop budget per (switch, destination) walk; beyond it the walk is a
    /// loop by definition. Defaults to 64 (matches `trace_route` callers).
    pub max_hops: usize,
    /// Whether to run the CDG deadlock check (invariant 3). On by default;
    /// callers verifying a fabric whose VL layering is unknown (e.g. a
    /// torus routed by an engine that relies on lanes they cannot supply)
    /// may disable it rather than report false cycles.
    pub deadlock: bool,
    /// Restrict forwarding checks to the connected component this node
    /// belongs to. A subnet manager that lost part of the fabric can only
    /// govern (and only answer for) its own component: switches beyond the
    /// split keep whatever tables they had, and judging them would drown
    /// the report in violations no SMP can fix. `None` (the default)
    /// verifies every component.
    pub viewpoint: Option<NodeId>,
}

impl Default for FabricVerifier {
    fn default() -> Self {
        Self {
            max_hops: 64,
            deadlock: true,
            viewpoint: None,
        }
    }
}

impl FabricVerifier {
    /// A verifier with default bounds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style hop budget override.
    #[must_use]
    pub fn with_max_hops(mut self, max_hops: usize) -> Self {
        self.max_hops = max_hops;
        self
    }

    /// Builder-style deadlock-check toggle.
    #[must_use]
    pub fn with_deadlock(mut self, deadlock: bool) -> Self {
        self.deadlock = deadlock;
        self
    }

    /// Builder-style viewpoint: verify only the component `node` sits in
    /// (the component a subnet manager on that node can actually govern).
    #[must_use]
    pub fn with_viewpoint(mut self, node: NodeId) -> Self {
        self.viewpoint = Some(node);
        self
    }

    /// Verifies all invariants assuming every route rides VL0.
    ///
    /// That is only right for tables whose engine uses one lane, such as
    /// Up*/Down*. The fat-tree and Min-Hop engines put switch-LID columns
    /// on VL1, so on the 5832-node fat tree this reports a VL0 cycle that
    /// their real lanes do not have. For tables an SM installed, call
    /// [`Self::verify_with_vls`] with `SubnetManager::installed_vls()`.
    pub fn verify(&self, subnet: &Subnet) -> IbResult<VerifyReport> {
        self.verify_with_vls(subnet, &VlAssignment::SingleVl)
    }

    /// Verifies all invariants with the virtual-lane layering the routing
    /// engine produced (DFSSSP / LASH tables are only deadlock-free *per
    /// lane*).
    pub fn verify_with_vls(&self, subnet: &Subnet, vls: &VlAssignment) -> IbResult<VerifyReport> {
        self.verify_observed(subnet, vls, &Observer::disabled())
    }

    /// Like [`Self::verify_with_vls`], emitting `verify.*` counters and a
    /// `verify.run` span into `observer`.
    ///
    /// One pass resolves the fabric into dense tables once, then reads the
    /// installed LFTs one 64-LID block at a time: each block feeds the
    /// forwarding walks of its columns and, when the deadlock check is on,
    /// the per-lane channel dependency graphs.
    pub fn verify_observed(
        &self,
        subnet: &Subnet,
        vls: &VlAssignment,
        observer: &Observer,
    ) -> IbResult<VerifyReport> {
        let _span = observer.span("verify.run");
        let fabric = Fabric::new(subnet);
        let (mut violations, deadlock) = self.check(&fabric, vls)?;
        if let Some(check) = &deadlock {
            check.report(&fabric, &mut violations);
        }

        let report = VerifyReport {
            switches: fabric.len(),
            lids: subnet.num_lids(),
            violations,
        };
        if observer.is_enabled() {
            observer.incr("verify.runs");
            observer.add("verify.violations", report.violations.len() as u64);
            observer.add(
                "verify.black_holes",
                report.count(InvariantClass::BlackHole) as u64,
            );
            observer.add(
                "verify.loops",
                report.count(InvariantClass::ForwardingLoop) as u64,
            );
            observer.add(
                "verify.deadlock_cycles",
                report.count(InvariantClass::DeadlockCycle) as u64,
            );
            observer.add(
                "verify.addressing",
                report.count(InvariantClass::Addressing) as u64,
            );
            observer.add(
                "verify.stale_routes",
                report.count(InvariantClass::StaleRoute) as u64,
            );
            if report.is_clean() {
                observer.incr("verify.clean");
            }
        }
        Ok(report)
    }

    /// Runs the addressing check and every column's forwarding walk, and
    /// — when the deadlock check is on — absorbs every column into the
    /// lane dependency graphs, which are returned unsearched.
    fn check(
        &self,
        fabric: &Fabric<'_>,
        vls: &VlAssignment,
    ) -> IbResult<(Vec<Violation>, Option<DeadlockCheck>)> {
        let subnet = fabric.subnet;
        let lids = subnet.lids();
        // Reachability awareness: the live switch components, labelled
        // once, let a missing LFT row be judged legal (the destination is
        // genuinely beyond a split) or a violation (it is reachable and
        // the row should exist) — and a *present* row toward an
        // unreachable destination becomes a stale-route finding.
        let scope = self.viewpoint.and_then(|vp| fabric.component_of(vp));
        let mut deadlock = if self.deadlock {
            Some(DeadlockCheck::new(fabric, &lids, vls, self.max_hops)?)
        } else {
            None
        };

        let mut violations = Vec::new();
        self.check_addressing(subnet, &mut violations);
        let mut block = Block::new(fabric);
        let mut walk = WalkScratch {
            outcome: vec![0; fabric.len()],
            path: Vec::new(),
            reported: Vec::new(),
        };
        let mut i = 0;
        for chunk in lids.chunk_by(|a, b| a.lft_block() == b.lft_block()) {
            block.load(fabric, chunk[0].lft_block());
            for &lid in chunk {
                let k = lid.lft_offset();
                let rows = block.column(k);
                self.check_forwarding(fabric, rows, scope, lid, &mut walk, &mut violations);
                if let Some(check) = deadlock.as_mut() {
                    check.absorb(fabric, vls, i, lid, rows);
                }
                i += 1;
            }
        }
        Ok((violations, deadlock))
    }

    /// Invariant 4: LID ownership. Every LID is held by exactly one node,
    /// the registry resolves it to that node, and the owner is alive.
    fn check_addressing(&self, subnet: &Subnet, out: &mut Vec<Violation>) {
        // Ownership scan over every node (dead ones included: a dead node
        // still holding a LID is exactly the corruption we want to catch).
        let mut owners: FxHashMap<u16, Vec<NodeId>> = FxHashMap::default();
        for node in subnet.nodes() {
            for lid in node.lids() {
                owners.entry(lid.raw()).or_default().push(node.id);
            }
        }
        let mut owned: Vec<(u16, Vec<NodeId>)> = owners.into_iter().collect();
        owned.sort_unstable_by_key(|&(raw, _)| raw);
        for (raw, who) in &owned {
            if who.len() > 1 {
                let names: Vec<&str> = who.iter().map(|&n| subnet.name_of(n)).collect();
                out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} owned by {} nodes: {}",
                        who.len(),
                        names.join(", ")
                    ),
                    lid: None,
                });
            }
            // Every held LID must be registered back to its holder.
            match subnet.endpoint_of(Lid::from_raw(*raw)) {
                None => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} held by {} but absent from the registry",
                        subnet.name_of(who[0])
                    ),
                    lid: None,
                }),
                Some(ep) if who.len() == 1 && ep.node != who[0] => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} held by {} but registered to {}",
                        subnet.name_of(who[0]),
                        subnet.name_of(ep.node)
                    ),
                    lid: None,
                }),
                Some(_) => {}
            }
        }
        // Every registered LID must resolve to a live owner.
        for lid in subnet.lids() {
            match subnet.endpoint_of(lid) {
                None => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!("LID {lid} registered but unresolvable"),
                    lid: None,
                }),
                Some(ep) if !subnet.is_alive(ep.node) => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {lid} registered to dead node {}",
                        subnet.name_of(ep.node)
                    ),
                    lid: None,
                }),
                Some(_) => {}
            }
        }
    }

    /// Invariants 1 + 2 for one destination: every switch that can still
    /// reach the LID's endpoint must deliver without revisiting a switch;
    /// every switch that *cannot* (the fabric is split) must hold an
    /// **empty or drop** row — one toward a real port is a stale route
    /// into the lost component.
    fn check_forwarding(
        &self,
        fabric: &Fabric<'_>,
        rows: Rows<'_>,
        scope: Option<u32>,
        lid: Lid,
        walk: &mut WalkScratch,
        out: &mut Vec<Violation>,
    ) {
        let subnet = fabric.subnet;
        let Some(target) = subnet.endpoint_of(lid) else {
            return; // Already reported by the addressing check.
        };
        let col = Column {
            target: target.node,
            target_switch: fabric.switch_index(target.node).map_or(NONE, |s| s as u32),
            rows,
        };
        let name = |s: usize| subnet.name_of(fabric.switches[s]);
        // The component the destination is delivered in; `None` when no
        // live delivery switch exists (the endpoint itself is gone), which
        // makes the LID unreachable from everywhere.
        let dest_comp = fabric.component_of(target.node);
        // One bounded table walk per switch, memoized through `outcome` so
        // shared suffixes are walked once; terminal failures and loops are
        // reported once per destination, not once per upstream switch.
        const UNKNOWN: u8 = 0;
        const ON_PATH: u8 = 1;
        const OK: u8 = 2;
        const BAD: u8 = 3;
        walk.outcome.fill(UNKNOWN);
        walk.reported.clear();

        for start in 0..fabric.len() {
            if scope.is_some_and(|sc| fabric.comp[start] != sc) {
                // Beyond the viewpoint's split: not governable, not judged.
                continue;
            }
            if dest_comp != Some(fabric.comp[start]) {
                // The destination is unreachable from this switch: the
                // legal degraded states are an empty row or an explicit
                // drop (distribution pads cleared rows to the drop port,
                // OpenSM-style). A row toward a *port* points into the
                // lost component and is stale.
                if rows.ports[start].is_some_and(|p| !p.is_drop()) {
                    out.push(Violation {
                        class: InvariantClass::StaleRoute,
                        detail: format!(
                            "LID {lid} at {}: stale route toward an unreachable destination",
                            name(start)
                        ),
                        lid: Some(lid),
                    });
                }
                continue;
            }
            if walk.outcome[start] != UNKNOWN {
                continue;
            }
            walk.path.clear();
            walk.path.push(start);
            walk.outcome[start] = ON_PATH;
            let verdict = loop {
                let cur = walk.path[walk.path.len() - 1];
                match col.hop(fabric, cur) {
                    Hop::Deliver => break OK,
                    Hop::Dead => {
                        if walk.first_report(cur) {
                            out.push(Violation {
                                class: InvariantClass::BlackHole,
                                detail: format!(
                                    "LID {lid} at {}: {}",
                                    name(cur),
                                    col.dead_reason(fabric, cur)
                                ),
                                lid: Some(lid),
                            });
                        }
                        break BAD;
                    }
                    Hop::To(v) => match walk.outcome[v] {
                        OK => break OK,
                        BAD => break BAD,
                        ON_PATH => {
                            // The walk re-entered its own path: a cycle.
                            let from = walk.path.iter().position(|&s| s == v).unwrap_or(0);
                            if walk.first_report(v) {
                                let names: Vec<&str> =
                                    walk.path[from..].iter().map(|&s| name(s)).collect();
                                out.push(Violation {
                                    class: InvariantClass::ForwardingLoop,
                                    detail: format!(
                                        "LID {lid} loops through {}",
                                        names.join(" -> ")
                                    ),
                                    lid: Some(lid),
                                });
                            }
                            break BAD;
                        }
                        _ => {
                            if walk.path.len() > self.max_hops {
                                if walk.first_report(cur) {
                                    out.push(Violation {
                                        class: InvariantClass::ForwardingLoop,
                                        detail: format!(
                                            "LID {lid}: walk from {} exceeded {} hops",
                                            name(start),
                                            self.max_hops
                                        ),
                                        lid: Some(lid),
                                    });
                                }
                                break BAD;
                            }
                            walk.outcome[v] = ON_PATH;
                            walk.path.push(v);
                        }
                    },
                }
            };
            for &s in &walk.path {
                walk.outcome[s] = verdict;
            }
        }
    }
}

#[cfg(test)]
impl FabricVerifier {
    /// Every lane's dependency edges as the deadlock pass builds them:
    /// `(lane, [((switch, port), (switch, port))])`, ascending by lane,
    /// with switch indices in `Subnet::switches` order.
    pub(crate) fn dependency_edges(
        &self,
        subnet: &Subnet,
        vls: &VlAssignment,
    ) -> IbResult<Vec<LaneEdges>> {
        let fabric = Fabric::new(subnet);
        let (_, check) = self.with_deadlock(true).check(&fabric, vls)?;
        Ok(check.map(|c| c.deps.edges(&fabric)).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_routing::testutil::{assign_lids, host_lid};
    use ib_routing::EngineKind;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;
    use ib_types::PortNum;

    /// Bring a small fat tree to "installed tables" state without ib-sm
    /// (which would be a dependency cycle): assign LIDs densely, compute,
    /// install.
    fn installed(engine: EngineKind) -> (ib_subnet::topology::BuiltTopology, VlAssignment) {
        let mut t = two_level(3, 2, 2);
        assign_lids(&mut t);
        let tables = engine.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        (t, tables.vls)
    }

    #[test]
    fn clean_fabric_verifies_clean() {
        let (t, vls) = installed(EngineKind::MinHop);
        let report = FabricVerifier::new()
            .verify_with_vls(&t.subnet, &vls)
            .unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.lids > 0 && report.switches > 0);
        assert!(report.summary().starts_with("clean"));
    }

    #[test]
    fn missing_row_is_a_black_hole() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        let leaf = t.switch_levels[0][0];
        t.subnet.lft_mut(leaf).unwrap().clear(victim);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::BlackHole), 1, "{report}");
    }

    #[test]
    fn misroute_to_wrong_host_is_a_black_hole() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 0);
        // On the victim's own leaf, point its row at its neighbor host.
        let leaf = t.switch_levels[0][0];
        let (wrong_port, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node == t.hosts[1])
            .unwrap();
        t.subnet.lft_mut(leaf).unwrap().set(victim, wrong_port);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::BlackHole) >= 1, "{report}");
        assert!(report.summary().contains("wrong endpoint"));
    }

    #[test]
    fn cross_pointing_rows_are_a_forwarding_loop() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (to_spine, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        let (to_leaf, _) = t
            .subnet
            .node(spine0)
            .connected_ports()
            .find(|(_, r)| r.node == leaf0)
            .unwrap();
        t.subnet.lft_mut(leaf0).unwrap().set(victim, to_spine);
        t.subnet.lft_mut(spine0).unwrap().set(victim, to_leaf);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::ForwardingLoop) >= 1,
            "{report}"
        );
    }

    #[test]
    fn torus_minhop_deadlock_cycle_detected() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::DeadlockCycle) >= 1, "{report}");
        // Reachability and loop-freedom still hold: min-hop routes deliver.
        assert_eq!(report.count(InvariantClass::BlackHole), 0);
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
        // And the deadlock check can be disabled for engines that make no
        // VL guarantee on cyclic fabrics.
        let relaxed = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .unwrap();
        assert!(relaxed.is_clean(), "{relaxed}");
    }

    #[test]
    fn torus_dfsssp_clean_per_lane() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let report = FabricVerifier::new()
            .verify_with_vls(&t.subnet, &tables.vls)
            .unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn duplicate_lid_ownership_is_an_addressing_violation() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let stolen = host_lid(&t, 0);
        // Corrupt a second node's port state to claim the same LID without
        // going through the registry.
        let thief = t.hosts[1];
        t.subnet.node_mut(thief).ports[1].lid = Some(stolen);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::Addressing) >= 1, "{report}");
        assert!(report.summary().contains("owned by 2 nodes"));
    }

    /// Isolates leaf 1 (every switch-switch uplink downed) and recomputes
    /// routing on the split fabric. Returns the built topology.
    fn split_installed() -> ib_subnet::topology::BuiltTopology {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let leaf1 = t.switch_levels[0][1];
        let uplinks: Vec<PortNum> = t
            .subnet
            .node(leaf1)
            .connected_ports()
            .filter(|(_, r)| t.subnet.node(r.node).is_switch())
            .map(|(p, _)| p)
            .collect();
        for p in uplinks {
            t.subnet.set_link_down(leaf1, p).unwrap();
        }
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        t
    }

    #[test]
    fn split_fabric_with_cleared_columns_verifies_clean() {
        let t = split_installed();
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_route_toward_unreachable_destination_is_caught() {
        let mut t = split_installed();
        // Leaf 0 grows back a row toward a host beyond the split.
        let lost = host_lid(&t, 2);
        let leaf0 = t.switch_levels[0][0];
        t.subnet.lft_mut(leaf0).unwrap().set(lost, PortNum::new(1));
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::StaleRoute), 1, "{report}");
        assert_eq!(report.count(InvariantClass::BlackHole), 0, "{report}");
        assert!(report.summary().contains("stale route"));
    }

    #[test]
    fn missing_row_toward_reachable_destination_is_still_a_black_hole() {
        let mut t = split_installed();
        // Clearing a *reachable* destination's row stays a black hole even
        // on the split fabric.
        let local = host_lid(&t, 0);
        let spine0 = t.switch_levels[1][0];
        t.subnet.lft_mut(spine0).unwrap().clear(local);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::BlackHole), 1, "{report}");
    }

    #[test]
    fn viewpoint_scopes_verification_to_the_masters_component() {
        let mut t = split_installed();
        // Stale state on the *lost* side: leaf 1 keeps a row toward a
        // master-side host it can no longer reach.
        let master_host = host_lid(&t, 0);
        let leaf1 = t.switch_levels[0][1];
        t.subnet
            .lft_mut(leaf1)
            .unwrap()
            .set(master_host, PortNum::new(1));
        let unscoped = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(unscoped.count(InvariantClass::StaleRoute), 1, "{unscoped}");
        // From the master's viewpoint the lost component is dark: no SMP
        // can reach it, so it is not judged.
        let scoped = FabricVerifier::new()
            .with_viewpoint(t.switch_levels[0][0])
            .verify(&t.subnet)
            .unwrap();
        assert!(scoped.is_clean(), "{scoped}");
    }

    #[test]
    fn observer_counters_reflect_the_report() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        t.subnet
            .lft_mut(t.switch_levels[0][0])
            .unwrap()
            .set(victim, PortNum::DROP);
        let observer = Observer::metrics();
        let report = FabricVerifier::new()
            .verify_observed(&t.subnet, &VlAssignment::SingleVl, &observer)
            .unwrap();
        assert!(!report.is_clean());
        let snap = observer.snapshot().unwrap();
        assert_eq!(snap.counter("verify.runs"), 1);
        assert_eq!(
            snap.counter("verify.violations"),
            report.violations.len() as u64
        );
        assert_eq!(snap.counter("verify.clean"), 0);
        assert_eq!(
            snap.counter("verify.black_holes"),
            report.count(InvariantClass::BlackHole) as u64
        );
    }
}
