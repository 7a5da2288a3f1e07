//! Structured fat-tree routing.
//!
//! Exploits the layered structure of a fat tree: one BFS per *leaf switch*
//! (instead of per switch, as Min-Hop needs) and deterministic d-mod-k
//! spreading of destinations across uplinks (instead of sequential load
//! accounting). That structural shortcut is why OpenSM's `ftree` is the
//! fastest engine in the paper's Fig. 7 — a property this implementation
//! reproduces by construction. Both phases — the per-delivery-switch BFS
//! sweep and the per-switch LFT fill — are independent per unit of work
//! and fan across the configured workers.
//!
//! Like OpenSM's engine, it refuses topologies that are not layered
//! fat trees (edges must connect adjacent ranks, endpoints must live on
//! leaves); callers fall back to Min-Hop in that case.
//!
//! Switch-destined LIDs are routed up*/down*-legally on a dedicated
//! lane (see `swcols`) — d-mod-k valleys between sibling
//! spines would otherwise close credit loops, the caveat OpenSM's own
//! ftree documents for switch-to-switch paths.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::engine::{require_baseline, RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Destination, DistanceMatrix, SwitchGraph};
use crate::swcols::{switch_dest_vls, SwitchColumns};
use crate::tables::{stages_to_lfts, RoutingTables, VlAssignment};

/// The fat-tree engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct FatTree;

impl RoutingEngine for FatTree {
    fn name(&self) -> &'static str {
        "fat-tree"
    }

    fn compute_with(
        &self,
        subnet: &Subnet,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<RoutingTables> {
        let g = SwitchGraph::build(subnet)?;
        if g.is_empty() {
            return Ok(RoutingTables {
                lfts: FxHashMap::default(),
                vls: VlAssignment::SingleVl,
                engine: self.name(),
                decisions: 0,
            });
        }
        let ranks = g.ranks();
        validate_fat_tree(&g, &ranks)?;

        // Delivery switches of HCA-destined LIDs, deduplicated and
        // ordered (switch-destined columns use the legal sweep below and
        // need no distance row here).
        let mut delivery: Vec<usize> = g
            .destinations()
            .iter()
            .filter(|d| d.port != PortNum::MANAGEMENT)
            .map(|d| d.switch)
            .collect();
        delivery.sort_unstable();
        delivery.dedup();
        let dist_index: FxHashMap<usize, usize> =
            delivery.iter().enumerate().map(|(i, &s)| (s, i)).collect();

        // Phase 1: one BFS per *delivery* switch (typically only the
        // leaves), fanned across workers — far fewer sweeps than Min-Hop's
        // all-switches matrix, which is the structural shortcut that makes
        // fat-tree routing the cheapest engine in Fig. 7.
        let workers = opts.effective_workers(g.len());
        let dist = {
            let _span = observer.span("routing.fat-tree.distances");
            DistanceMatrix::for_sources(&g, &delivery, workers)
        };

        // Switch-destined columns are valley-routed via the hub on
        // their own lane instead of d-mod-k: a spine-to-spine route
        // must dip through a leaf, and two such valleys through
        // different leaves close a credit loop (see `swcols`).
        let swcols = SwitchColumns::new(&g, workers);

        // Per-switch neighbor lists sorted by port, so d-mod-k picks are
        // deterministic without per-destination allocation.
        let sorted_adj: Vec<Vec<(u32, PortNum)>> = (0..g.len())
            .map(|s| {
                let mut v = g.neighbors(s).to_vec();
                v.sort_unstable_by_key(|&(_, p)| p);
                v
            })
            .collect();

        // Phase 2: every switch fills its own staging row independently —
        // no sequential load-balancing state, so this parallelizes
        // perfectly (each worker writes only its own rows).
        let _span = observer.span("routing.fat-tree.assign");
        let mut stages: Vec<Vec<Option<PortNum>>> = vec![vec![None; g.lid_bound()]; g.len()];
        parallel_for_each(
            &mut stages,
            workers,
            || (),
            |(), s, stage| {
                for dest in g.destinations() {
                    if s == dest.switch {
                        stage[dest.lid.raw() as usize] = Some(dest.port);
                        continue;
                    }
                    if dest.port == PortNum::MANAGEMENT {
                        // Switch LID: legal pick (None across a split).
                        stage[dest.lid.raw() as usize] = swcols.pick(dest.switch, dest.lid, s);
                        continue;
                    }
                    let drow = dist.row(dist_index[&dest.switch]);
                    if drow[s] == u32::MAX {
                        // Split fabric: the destination lives in another
                        // component. The stage entry stays `None`.
                        continue;
                    }
                    // Two passes over the (small) neighbor list: count the
                    // minimal candidates, then take the (lid + switch mod
                    // count)-th. The switch stagger keeps the spread but
                    // breaks the fabric-wide symmetry of pure d-mod-k:
                    // without it, uniformly-cabled switches all point the
                    // same destination at the same spine, so one lost
                    // cable breaks that column at every switch at once
                    // and an incremental repair can never beat a full
                    // sweep's block diff.
                    let minimal =
                        |&&(v, _): &&(u32, PortNum)| drow[v as usize].wrapping_add(1) == drow[s];
                    let count = sorted_adj[s].iter().filter(minimal).count();
                    if count == 0 {
                        // Caught by layering validation for real fat
                        // trees; be defensive anyway.
                        continue;
                    }
                    let want = (dest.lid.raw() as usize + s) % count;
                    let pick = sorted_adj[s]
                        .iter()
                        .filter(minimal)
                        .nth(want)
                        .map(|&(_, p)| p);
                    stage[dest.lid.raw() as usize] = pick;
                }
            },
        );
        let decisions = (g.len() * g.destinations().len()) as u64;

        Ok(RoutingTables {
            lfts: stages_to_lfts(&g, stages),
            vls: switch_dest_vls(&g),
            engine: self.name(),
            decisions,
        })
    }

    /// Incremental repair: re-rank the degraded graph (one BFS — the tree
    /// structure is what the engine exploits, so it must be revalidated),
    /// then rerun the per-delivery-switch sweep for the dirty destination
    /// columns only and splice them into `prior`.
    ///
    /// The pick is *sticky*: the installed port is kept wherever it is
    /// still a minimal candidate on the degraded graph, and the d-mod-k
    /// spread decides only the entries the fault actually invalidated. A
    /// plain re-run of the d-mod-k formula would rotate every pick whose
    /// candidate *count* shrank — churning entries whose installed path
    /// never crossed the failed link and inflating the dirty-block diff
    /// past the full sweep's. The result approximates (it is not
    /// byte-equal to) a full recompute, which is why the SM gates every
    /// repair behind the fabric verifier.
    fn repair_with_graph(
        &self,
        _subnet: &Subnet,
        g: &SwitchGraph,
        opts: RoutingOptions,
        prior: &RoutingTables,
        dirty_dests: &[ib_types::Lid],
        observer: &Observer,
    ) -> IbResult<RoutingTables> {
        require_baseline(self.name(), g, prior)?;
        let _span = observer.span("routing.fat-tree.repair");
        // A fault cannot un-layer a fat tree, but it can disconnect a
        // switch — revalidate so a broken tree errors out to the SM's
        // fallback instead of producing silent holes.
        let ranks = g.ranks();
        validate_fat_tree(g, &ranks)?;

        let dirty: FxHashSet<u16> = dirty_dests.iter().map(|l| l.raw()).collect();
        let dirty_dests: Vec<Destination> = g
            .destinations()
            .iter()
            .copied()
            .filter(|d| dirty.contains(&d.lid.raw()))
            .collect();
        let mut out = prior.clone();
        out.engine = self.name();
        out.vls = switch_dest_vls(g);
        out.decisions = 0;
        if dirty_dests.is_empty() {
            return Ok(out);
        }

        // Switch-destined dirty columns rebuild their valley routes on
        // the degraded graph; hub BFS is fault-stable, so the sticky
        // splice below churns only near the lost link.
        let swcols = dirty_dests
            .iter()
            .any(|d| d.port == PortNum::MANAGEMENT)
            .then(|| SwitchColumns::new(g, opts.effective_workers(g.len())));

        // One BFS per dirty HCA-destined delivery switch — the
        // repair-sized slice of the full compute's per-delivery sweep.
        let mut dirty_switches: Vec<usize> = dirty_dests
            .iter()
            .filter(|d| d.port != PortNum::MANAGEMENT)
            .map(|d| d.switch)
            .collect();
        dirty_switches.sort_unstable();
        dirty_switches.dedup();
        let row_of: FxHashMap<usize, usize> = dirty_switches
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let dist = DistanceMatrix::for_sources(
            g,
            &dirty_switches,
            opts.effective_workers(dirty_switches.len()),
        );

        let sorted_adj: Vec<Vec<(u32, PortNum)>> = (0..g.len())
            .map(|s| {
                let mut v = g.neighbors(s).to_vec();
                v.sort_unstable_by_key(|&(_, p)| p);
                v
            })
            .collect();

        let mut decisions = 0u64;
        let mut column: Vec<Option<PortNum>> = vec![None; g.len()];
        for dest in &dirty_dests {
            if dest.port == PortNum::MANAGEMENT {
                for (s, slot) in column.iter_mut().enumerate() {
                    decisions += 1;
                    *slot = if s == dest.switch {
                        Some(dest.port)
                    } else {
                        // Sticky: keep the installed port while it is
                        // still valley-legal on the degraded graph, so
                        // the splice rewrites only what the fault broke.
                        let installed = prior.lfts[&g.node_id(s)].get(dest.lid);
                        swcols
                            .as_ref()
                            .and_then(|sw| sw.sticky_pick(dest.switch, dest.lid, s, installed))
                    };
                }
                out.set_column(dest.lid, |sw| g.index(sw).and_then(|s| column[s]));
                continue;
            }
            let drow = dist.row(row_of[&dest.switch]);
            for (s, slot) in column.iter_mut().enumerate() {
                decisions += 1;
                if s == dest.switch {
                    *slot = Some(dest.port);
                    continue;
                }
                if drow[s] == u32::MAX {
                    // The fault split the fabric: this switch can no
                    // longer reach the destination. Clear the row rather
                    // than leave it pointing into the lost component.
                    *slot = None;
                    continue;
                }
                let minimal =
                    |&&(v, _): &&(u32, PortNum)| drow[v as usize].wrapping_add(1) == drow[s];
                // Sticky selection: keep the installed port whenever it is
                // still minimal (a port into the failed link never is —
                // the link is gone from the graph), so the splice touches
                // only the entries the fault invalidated. Fall back to the
                // d-mod-k spread over the degraded candidate set.
                let installed = prior.lfts[&g.node_id(s)].get(dest.lid);
                if let Some(p) = installed {
                    if sorted_adj[s]
                        .iter()
                        .any(|&(v, q)| q == p && drow[v as usize].wrapping_add(1) == drow[s])
                    {
                        *slot = Some(p);
                        continue;
                    }
                }
                let count = sorted_adj[s].iter().filter(minimal).count();
                if count == 0 {
                    *slot = None;
                    continue;
                }
                let want = (dest.lid.raw() as usize + s) % count;
                *slot = sorted_adj[s]
                    .iter()
                    .filter(minimal)
                    .nth(want)
                    .map(|&(_, p)| p);
            }
            out.set_column(dest.lid, |sw| g.index(sw).and_then(|s| column[s]));
        }
        out.decisions = decisions;
        Ok(out)
    }
}

/// A fat tree must be layered: every switch-switch edge joins adjacent
/// ranks. (Endpoints may sit on any rank-0 switch; `SwitchGraph::ranks`
/// already guarantees endpoint-bearing switches are rank 0.)
fn validate_fat_tree(g: &SwitchGraph, ranks: &[u32]) -> IbResult<()> {
    for s in 0..g.len() {
        if ranks[s] == u32::MAX {
            // A split fabric: `s` sits in a component with no ranked
            // seed. Its edges all stay inside that component (a BFS
            // would have crossed any cable to a ranked switch), so
            // there is nothing to validate — the reachable part of the
            // tree is still layered and still routable.
            continue;
        }
        for &(v, _) in g.neighbors(s) {
            let (a, b) = (ranks[s], ranks[v as usize]);
            if a.abs_diff(b) != 1 {
                return Err(IbError::Topology(format!(
                    "not a layered fat tree: edge joins ranks {a} and {b}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids, host_lid};
    use ib_subnet::topology::fattree::{three_level, two_level};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_two_level() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_three_level() {
        let mut t = three_level(2, 2, 2, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn rejects_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        assert!(FatTree.compute(&t.subnet).is_err());
    }

    #[test]
    fn spreads_destinations_over_uplinks() {
        let mut t = two_level(2, 6, 3);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let mut ports: Vec<u8> = (6..12)
            .map(|i| lft.get(host_lid(&t, i)).unwrap().raw())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert!(
            ports.len() == 3,
            "six cross-leaf destinations over three uplinks, got {ports:?}"
        );
    }

    #[test]
    fn different_vms_on_same_leaf_can_take_different_spines() {
        // §V-A: prepopulated LIDs imitate LMC — distinct paths to different
        // LIDs on the same hypervisor/leaf. With d-mod-k spreading, two
        // consecutive LIDs on the same destination leaf use different
        // uplinks from a remote leaf.
        let mut t = two_level(2, 4, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let p_a = lft.get(host_lid(&t, 4)).unwrap();
        let p_b = lft.get(host_lid(&t, 5)).unwrap();
        assert_ne!(p_a, p_b);
    }

    #[test]
    fn fewer_bfs_than_minhop_decisions_equal() {
        // Both engines make |switches| x |LIDs| decisions; the fat-tree
        // engine just reaches them with fewer BFS sweeps.
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let ft = FatTree.compute(&t.subnet).unwrap();
        let mh = crate::minhop::MinHop.compute(&t.subnet).unwrap();
        assert_eq!(ft.decisions, mh.decisions);
    }
}
