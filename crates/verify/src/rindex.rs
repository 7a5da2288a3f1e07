//! The reverse route index: per-(switch, port) destination sets.
//!
//! [`affected_destinations`](crate::affected_destinations) answers "which
//! destination columns cross this link?" with a two-row scan over every
//! registered LID — O(LIDs) per fault, re-done from scratch on every trap.
//! The scan is cheap next to the rest of a repair. On the 5832-node fat
//! tree under Up*/Down* (`perfbench`'s traced `linkchurn-updn5832`, on a
//! 2-vCPU Xeon VM), the scan averages 0.12–0.14 ms per event, the
//! column re-route (`routing.up-down.repair`) about 36 ms, and a full
//! rebuild of this index about 200 ms. The [`ReverseRouteIndex`] inverts
//! the installed tables once —
//! `(switch, out-port) -> { destination LIDs forwarded there }` — so a
//! link-down trap reads its dirty set off two hash-set lookups, O(dirty),
//! and the index is maintained incrementally as repair sweeps splice dirty
//! columns.
//!
//! The index is *derived* state and therefore distrusted by construction:
//! [`ReverseRouteIndex::affected`] is debug-asserted against the two-row
//! scan at every repair, and [`ReverseRouteIndex::mismatches`] rebuilds the
//! index from the installed tables and reports any divergence — the
//! soak harness runs that check after every event.

use ib_routing::RoutingTables;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};
use rustc_hash::{FxHashMap, FxHashSet};

/// Per-switch, per-out-port sets of destination LIDs, mirroring a set of
/// forwarding tables row-for-row. See the module docs for the contract.
#[derive(Clone, Debug, Default)]
pub struct ReverseRouteIndex {
    /// `ports[switch][port.raw()]` = destinations whose row at `switch`
    /// forwards out `port`. The vector is grown on demand; absent entries
    /// mean an empty set.
    ports: FxHashMap<NodeId, Vec<FxHashSet<Lid>>>,
}

impl ReverseRouteIndex {
    /// Builds the index from the LFTs *installed* in the subnet — every
    /// node that holds a table, alive or not, exactly the rows the two-row
    /// scan would read.
    #[must_use]
    pub fn from_installed(subnet: &Subnet) -> Self {
        let mut idx = Self::default();
        for node in subnet.nodes() {
            if let Some(lft) = node.lft() {
                for (lid, port) in lft.iter() {
                    idx.insert(node.id, port, lid);
                }
            }
        }
        idx
    }

    /// Builds the index from a routing engine's computed tables — the view
    /// the SM keeps in sync with its splice baseline (`last_tables`).
    #[must_use]
    pub fn from_tables(tables: &RoutingTables) -> Self {
        let mut idx = Self::default();
        for (&sw, lft) in &tables.lfts {
            for (lid, port) in lft.iter() {
                idx.insert(sw, port, lid);
            }
        }
        idx
    }

    fn insert(&mut self, sw: NodeId, port: PortNum, lid: Lid) {
        let sets = self.ports.entry(sw).or_default();
        let slot = port.raw() as usize;
        if sets.len() <= slot {
            sets.resize_with(slot + 1, FxHashSet::default);
        }
        sets[slot].insert(lid);
    }

    /// Removes `lid` from `(sw, port)`'s set; false when it was not there.
    fn remove(&mut self, sw: NodeId, port: PortNum, lid: Lid) -> bool {
        self.ports
            .get_mut(&sw)
            .and_then(|sets| sets.get_mut(port.raw() as usize))
            .is_some_and(|set| set.remove(&lid))
    }

    /// The destinations whose row at `sw` forwards out `port` (one side of
    /// a link only — [`ReverseRouteIndex::affected`] unions both ends).
    #[must_use]
    pub fn destinations_via(&self, sw: NodeId, port: PortNum) -> Option<&FxHashSet<Lid>> {
        self.ports.get(&sw)?.get(port.raw() as usize)
    }

    /// The dirty destination set of a link fault at `(node, port)`:
    /// registered LIDs routed across the link in either direction, sorted
    /// ascending — the O(dirty) answer to the same question
    /// [`affected_destinations`](crate::affected_destinations) scans for.
    ///
    /// Like the scan, this follows the *cabling* (`remote`), not the live
    /// link state, so it works on downed links; and it filters to LIDs
    /// still registered, so rows left behind for released LIDs never
    /// resurrect them.
    #[must_use]
    pub fn affected(&self, subnet: &Subnet, node: NodeId, port: PortNum) -> Vec<Lid> {
        let mut ends: Vec<(NodeId, PortNum)> = vec![(node, port)];
        if let Some(remote) = subnet
            .node(node)
            .ports
            .get(port.raw() as usize)
            .and_then(|p| p.remote)
        {
            ends.push((remote.node, remote.port));
        }
        let mut out: Vec<Lid> = Vec::new();
        for (n, p) in ends {
            if let Some(set) = self.destinations_via(n, p) {
                out.extend(
                    set.iter()
                        .copied()
                        .filter(|&lid| subnet.endpoint_of(lid).is_some()),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Incremental maintenance for one spliced destination column: for
    /// every switch, moves `lid` from its `before` out-port set to its
    /// `after` out-port set. Called once per dirty column when a repair
    /// splices re-routed columns into the baseline — O(switches) per
    /// column, the same order as the splice itself.
    pub fn apply_column_update(&mut self, lid: Lid, before: &RoutingTables, after: &RoutingTables) {
        for (&sw, lft) in &after.lfts {
            let old = before.lfts.get(&sw).and_then(|l| l.get(lid));
            self.move_row(sw, lid, old, lft.get(lid));
        }
    }

    /// Incremental maintenance for one column rewritten on the fabric
    /// behind the SM's back: `before` holds each switch's row for `lid` as
    /// the index last saw it, and every row that changed moves from its
    /// old out-port set to the one now installed — O(switches). Returns
    /// false when some old row is not where the index holds it; the
    /// caller then re-derives the column with
    /// [`ReverseRouteIndex::refresh_column_from_installed`].
    pub fn move_column(
        &mut self,
        subnet: &Subnet,
        lid: Lid,
        before: &[(NodeId, Option<PortNum>)],
    ) -> bool {
        before.iter().fold(true, |found, &(sw, old)| {
            let new = subnet.lft(sw).and_then(|l| l.get(lid));
            self.move_row(sw, lid, old, new) && found
        })
    }

    /// Moves `lid` at `sw` from out-port `old` to `new`; false when `old`
    /// is a port the index did not hold `lid` under.
    fn move_row(
        &mut self,
        sw: NodeId,
        lid: Lid,
        old: Option<PortNum>,
        new: Option<PortNum>,
    ) -> bool {
        if old == new {
            return true;
        }
        let found = old.is_none_or(|p| self.remove(sw, p, lid));
        if let Some(p) = new {
            self.insert(sw, p, lid);
        }
        found
    }

    /// Whether the index holds `lid` exactly where the installed rows
    /// forward it — [`ReverseRouteIndex::mismatches`] for one column.
    #[must_use]
    pub fn column_matches_installed(&self, subnet: &Subnet, lid: Lid) -> bool {
        let mut held: Vec<(NodeId, usize)> = self
            .ports
            .iter()
            .flat_map(|(&sw, sets)| {
                sets.iter()
                    .enumerate()
                    .filter(|(_, set)| set.contains(&lid))
                    .map(move |(p, _)| (sw, p))
            })
            .collect();
        let mut installed: Vec<(NodeId, usize)> = subnet
            .nodes()
            .filter_map(|n| {
                let port = n.lft()?.get(lid)?;
                Some((n.id, port.raw() as usize))
            })
            .collect();
        held.sort_unstable();
        installed.sort_unstable();
        held == installed
    }

    /// Re-derives one destination column from the *installed* tables:
    /// purges `lid` everywhere, then re-inserts it per the rows currently
    /// on the switches. The hook for mutations that bypass the SM's sweep
    /// pipeline — an Algorithm-1 LID swap/copy rewrites a couple of
    /// columns with direct SMPs, and the SM is told via
    /// `note_columns_changed` which calls this.
    pub fn refresh_column_from_installed(&mut self, subnet: &Subnet, lid: Lid) {
        for sets in self.ports.values_mut() {
            for set in sets.iter_mut() {
                set.remove(&lid);
            }
        }
        for node in subnet.nodes() {
            if let Some(p) = node.lft().and_then(|l| l.get(lid)) {
                self.insert(node.id, p, lid);
            }
        }
    }

    /// The equivalence audit: rebuilds a fresh index from the installed
    /// tables and reports every `(switch, port)` whose destination set
    /// disagrees — empty iff this index answers every possible
    /// [`ReverseRouteIndex::affected`] query exactly like the two-row scan
    /// would. The chaos soak runs this after every event.
    #[must_use]
    pub fn mismatches(&self, subnet: &Subnet) -> Vec<String> {
        let fresh = Self::from_installed(subnet);
        let mut out = Vec::new();
        let mut switches: Vec<NodeId> = self
            .ports
            .keys()
            .chain(fresh.ports.keys())
            .copied()
            .collect();
        switches.sort_unstable();
        switches.dedup();
        static EMPTY: &[FxHashSet<Lid>] = &[];
        for sw in switches {
            let a = self.ports.get(&sw).map_or(EMPTY, Vec::as_slice);
            let b = fresh.ports.get(&sw).map_or(EMPTY, Vec::as_slice);
            for p in 0..a.len().max(b.len()) {
                let empty = FxHashSet::default();
                let ia = a.get(p).unwrap_or(&empty);
                let ib = b.get(p).unwrap_or(&empty);
                if ia != ib {
                    out.push(format!(
                        "reverse index stale at ({sw:?}, port {p}): index has {} dest(s), installed rows have {}",
                        ia.len(),
                        ib.len()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affected_destinations;
    use ib_routing::testutil::assign_lids;
    use ib_routing::EngineKind;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    fn installed(engine: EngineKind) -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(3, 3, 2);
        assign_lids(&mut t);
        let tables = engine.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        (t, tables)
    }

    /// The index must answer every (switch, port) exactly like the scan.
    fn assert_agrees(idx: &ReverseRouteIndex, subnet: &Subnet) {
        for sw in subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            let ports = subnet.node(sw).ports.len();
            for p in 1..ports {
                let port = PortNum::new(p as u8);
                assert_eq!(
                    idx.affected(subnet, sw, port),
                    affected_destinations(subnet, sw, port),
                    "({sw:?}, {port})"
                );
            }
        }
    }

    #[test]
    fn fresh_index_equals_the_scan_on_a_fat_tree() {
        let (t, tables) = installed(EngineKind::MinHop);
        assert_agrees(&ReverseRouteIndex::from_installed(&t.subnet), &t.subnet);
        let from_tables = ReverseRouteIndex::from_tables(&tables);
        assert_agrees(&from_tables, &t.subnet);
        assert!(from_tables.mismatches(&t.subnet).is_empty());
    }

    #[test]
    fn fresh_index_equals_the_scan_on_a_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        assert_agrees(&ReverseRouteIndex::from_installed(&t.subnet), &t.subnet);
    }

    #[test]
    fn column_splice_keeps_the_index_in_sync() {
        let (mut t, before) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_tables(&before);
        // Re-route one destination column with a degraded recompute and
        // splice it, updating the index incrementally.
        let (node, port) = t
            .subnet
            .switches()
            .flat_map(|n| n.connected_ports().map(move |(p, ep)| (n.id, p, ep.node)))
            .find(|&(_, _, peer)| t.subnet.node(peer).is_switch())
            .map(|(n, p, _)| (n, p))
            .unwrap();
        let dirty = affected_destinations(&t.subnet, node, port);
        assert!(!dirty.is_empty());
        t.subnet.set_link_down(node, port).unwrap();
        let graph = ib_routing::SwitchGraph::build(&t.subnet).unwrap();
        let after = EngineKind::MinHop
            .build()
            .repair_with_graph(
                &t.subnet,
                &graph,
                ib_routing::RoutingOptions::default(),
                &before,
                &dirty,
                &ib_observe::Observer::disabled(),
            )
            .unwrap();
        after.install(&mut t.subnet).unwrap();
        for &lid in &dirty {
            idx.apply_column_update(lid, &before, &after);
        }
        assert!(idx.mismatches(&t.subnet).is_empty());
        assert_agrees(&idx, &t.subnet);
    }

    #[test]
    fn refresh_column_follows_out_of_band_row_edits() {
        let (mut t, tables) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_tables(&tables);
        // Mutate one row behind the index's back (what a migration's
        // direct LFT SMPs do), then refresh just that column.
        let lid = t.subnet.lids()[0];
        let sw = t.subnet.switches().next().unwrap().id;
        let old = t.subnet.lft(sw).unwrap().get(lid).unwrap();
        let other = (1..t.subnet.node(sw).ports.len() as u8)
            .map(PortNum::new)
            .find(|&p| p != old)
            .unwrap();
        t.subnet.lft_mut(sw).unwrap().set(lid, other);
        assert!(!idx.mismatches(&t.subnet).is_empty(), "index is now stale");
        idx.refresh_column_from_installed(&t.subnet, lid);
        assert!(idx.mismatches(&t.subnet).is_empty());
        assert_agrees(&idx, &t.subnet);
    }

    #[test]
    fn released_lids_never_resurface_in_affected_sets() {
        let (mut t, tables) = installed(EngineKind::MinHop);
        let idx = ReverseRouteIndex::from_tables(&tables);
        // Deregister a LID while its rows are still installed: the scan
        // skips it (it only walks registered LIDs), so the index must too.
        let lid = t.subnet.lids()[0];
        t.subnet.clear_lid(lid).unwrap();
        assert_agrees(&idx, &t.subnet);
    }
}
