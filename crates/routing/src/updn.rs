//! Up*/Down* routing.
//!
//! Links are oriented toward a root switch; a legal path climbs zero or
//! more *up* links, then descends zero or more *down* links, and never
//! turns upward again. The up/down restriction breaks every cycle in the
//! channel dependency graph, making Up*/Down* deadlock-free on a single
//! virtual lane on any topology — the baseline deadlock argument the
//! paper's §VI-C discussion builds on.
//!
//! Both hot phases fan across the configured workers: the per-delivery-
//! switch legal-distance sweeps (each group's rows depend only on the
//! labels) and the per-switch LFT fill (each switch's row is independent).

use std::collections::VecDeque;

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::engine::{require_baseline, RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Components, SwitchGraph};
use crate::tables::{stages_to_lfts, RoutingTables, VlAssignment};

/// The Up*/Down* engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpDown {
    /// Root switch index override; by default the highest-rank switch.
    pub root: Option<usize>,
}

/// Per-switch (level, id) label; "up" is lexicographically decreasing.
pub(crate) fn labels(g: &SwitchGraph, root: usize) -> Vec<(u32, usize)> {
    let mut level = vec![u32::MAX; g.len()];
    let mut queue = VecDeque::new();
    level[root] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in g.neighbors(u) {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u] + 1;
                queue.push_back(v as usize);
            }
        }
    }
    level.into_iter().enumerate().map(|(i, l)| (l, i)).collect()
}

/// Per-component labels: every component gets its own root and its own
/// BFS levels, so a split fabric still carries a complete up*/down*
/// orientation. Labels are only ever compared across an edge, and edges
/// never cross components, so independent level ranges are safe.
pub(crate) fn component_labels(
    g: &SwitchGraph,
    comps: &Components,
    explicit_root: Option<usize>,
) -> Vec<(u32, usize)> {
    let ranks = g.ranks();
    let mut level = vec![u32::MAX; g.len()];
    let mut queue = VecDeque::new();
    for c in 0..comps.count() as u32 {
        // The component's root: the explicit override if it lives here,
        // else the maximal-rank switch (lowest index on ties), else —
        // for a component with no ranked switch — the lowest index.
        let root = explicit_root
            .filter(|&r| r < g.len() && comps.label_of(r) == c)
            .or_else(|| {
                (0..g.len())
                    .filter(|&s| comps.label_of(s) == c && ranks[s] != u32::MAX)
                    .max_by_key(|&s| (ranks[s], std::cmp::Reverse(s)))
            })
            .or_else(|| (0..g.len()).find(|&s| comps.label_of(s) == c));
        let Some(root) = root else { continue };
        level[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = level[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
    }
    level.into_iter().enumerate().map(|(i, l)| (l, i)).collect()
}

/// Whether the move `from -> to` is an *up* move under the labels.
pub(crate) fn is_up(labels: &[(u32, usize)], from: usize, to: usize) -> bool {
    labels[to] < labels[from]
}

impl UpDown {
    /// Picks the default root: a switch of maximal rank (a core switch in a
    /// fat tree), tie-broken by lowest index.
    fn pick_root(&self, g: &SwitchGraph) -> usize {
        if let Some(r) = self.root {
            return r;
        }
        let ranks = g.ranks();
        // `max_by_key` keeps the *last* maximal element, so make the key
        // unique: prefer higher rank, then *lower* index.
        (0..g.len())
            .filter(|&s| ranks[s] != u32::MAX)
            .max_by_key(|&s| (ranks[s], std::cmp::Reverse(s)))
            .unwrap_or(0)
    }
}

impl RoutingEngine for UpDown {
    fn name(&self) -> &'static str {
        "up-down"
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
        let n = g.len();
        // A split fabric gets one root (and one label range) per
        // component; the connected fast path is byte-identical to the
        // single-root labeling it always used.
        let comps = g.components();
        let lab = if comps.is_partitioned() {
            component_labels(&g, &comps, self.root)
        } else {
            labels(&g, self.pick_root(&g))
        };
        // Relaxation order for the up-phase: increasing label, so every
        // up-move goes to an already-finalized switch. Identical for every
        // delivery switch, so it is computed once, outside the fan-out.
        let order = {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&s| lab[s]);
            order
        };

        // Group destinations by delivery switch; legal distances are
        // computed once per delivery switch.
        let mut by_switch: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (i, d) in g.destinations().iter().enumerate() {
            by_switch.entry(d.switch).or_default().push(i);
        }
        let mut groups: Vec<(usize, Vec<usize>)> = by_switch.into_iter().collect();
        groups.sort_unstable_by_key(|(s, _)| *s);

        let workers = opts.effective_workers(n);

        // Phase 1, fanned per delivery switch: row gi of `down_data` holds
        // the shortest all-down distances to groups[gi]'s switch, row gi of
        // `full_data` the shortest legal up*/down* distances. Rows depend
        // only on the shared labels, never on other rows.
        let mut down_data = vec![u32::MAX; groups.len() * n];
        let mut full_data = vec![u32::MAX; groups.len() * n];
        {
            let _span = observer.span("routing.up-down.distances");
            let mut rows: Vec<(&mut [u32], &mut [u32])> = down_data
                .chunks_mut(n)
                .zip(full_data.chunks_mut(n))
                .collect();
            parallel_for_each(
                &mut rows,
                workers,
                || Vec::<u32>::with_capacity(n),
                |queue, gi, (down, full)| {
                    let dsw = groups[gi].0;
                    down[dsw] = 0;
                    // Reverse BFS along down edges: expand y where y->x is
                    // down, so the path y..dsw stays all-down.
                    queue.clear();
                    queue.push(dsw as u32);
                    let mut head = 0;
                    while head < queue.len() {
                        let x = queue[head] as usize;
                        head += 1;
                        for &(y, _) in g.neighbors(x) {
                            let y = y as usize;
                            if !is_up(&lab, y, x) && down[y] == u32::MAX {
                                down[y] = down[x] + 1;
                                queue.push(y as u32);
                            }
                        }
                    }
                    full.copy_from_slice(down);
                    for &s in &order {
                        for &(v, _) in g.neighbors(s) {
                            let v = v as usize;
                            if is_up(&lab, s, v) && full[v] != u32::MAX {
                                full[s] = full[s].min(full[v].saturating_add(1));
                            }
                        }
                    }
                },
            );
        }
        for (gi, (dsw, _)) in groups.iter().enumerate() {
            let full = &full_data[gi * n..(gi + 1) * n];
            // Legality is required only within the delivery switch's
            // component: a cross-component MAX is an honest hole (the
            // column entry stays `None`), not a broken orientation.
            if (0..n).any(|s| comps.same(s, *dsw) && full[s] == u32::MAX) {
                return Err(IbError::Topology(format!(
                    "no legal up*/down* path to switch {dsw}"
                )));
            }
        }

        // Phase 2, fanned per switch: each switch fills its own staging row
        // from the read-only distance matrices. The candidate set for a
        // (switch, delivery switch) pair is shared by every LID the group
        // delivers, so it is built once per pair.
        let _span = observer.span("routing.up-down.assign");
        let mut stages: Vec<Vec<Option<PortNum>>> = vec![vec![None; g.lid_bound()]; n];
        parallel_for_each(
            &mut stages,
            workers,
            Vec::<PortNum>::new,
            |candidates, s, stage| {
                for (gi, (dsw, dest_indices)) in groups.iter().enumerate() {
                    if s == *dsw {
                        for &di in dest_indices {
                            let dest = g.destinations()[di];
                            stage[dest.lid.raw() as usize] = Some(dest.port);
                        }
                        continue;
                    }
                    let down = &down_data[gi * n..(gi + 1) * n];
                    let full = &full_data[gi * n..(gi + 1) * n];
                    if full[s] == u32::MAX {
                        // Split fabric: the group's delivery switch lives
                        // in another component. The stage entries stay
                        // `None` — explicit holes, not stale routes.
                        continue;
                    }
                    // The rule must compose: a packet that descended into
                    // `s` follows the same LFT row as one that just
                    // arrived climbing, so the row itself must never turn
                    // a descent back upward. Hence: **descend whenever the
                    // destination is down-reachable** (every switch on the
                    // down chain is then also down-reachable and keeps
                    // descending), and climb toward the root otherwise
                    // (the root down-reaches everything, so the climb
                    // terminates).
                    candidates.clear();
                    if down[s] != u32::MAX {
                        for &(v, p) in g.neighbors(s) {
                            let v = v as usize;
                            if !is_up(&lab, s, v) && down[v] != u32::MAX && down[v] + 1 == down[s] {
                                candidates.push(p);
                            }
                        }
                    } else {
                        for &(v, p) in g.neighbors(s) {
                            let v = v as usize;
                            if is_up(&lab, s, v) && full[v] != u32::MAX && full[v] + 1 == full[s] {
                                candidates.push(p);
                            }
                        }
                    }
                    candidates.sort_unstable();
                    for &di in dest_indices {
                        let dest = g.destinations()[di];
                        let pick = candidates[dest.lid.raw() as usize % candidates.len()];
                        stage[dest.lid.raw() as usize] = Some(pick);
                    }
                }
            },
        );
        let decisions = (g.destinations().len() * n) as u64;

        Ok(RoutingTables {
            lfts: stages_to_lfts(&g, stages),
            vls: VlAssignment::SingleVl,
            engine: self.name(),
            decisions,
        })
    }

    /// Incremental repair: recompute the root, labels, and relaxation
    /// order on the degraded graph (cheap — one ranks pass plus one BFS),
    /// then run the legal-distance sweep for the dirty delivery-switch
    /// groups only, splicing the columns into `prior`.
    ///
    /// The pick is *sticky*: the installed port is kept wherever it is
    /// still a legal minimal candidate, and the modular spread decides
    /// only the entries the fault invalidated — re-running the formula
    /// outright would rotate every pick whose candidate set shrank and
    /// inflate the dirty-block diff past the full sweep's. The result
    /// approximates (it is not byte-equal to) a full recompute, which is
    /// why the SM gates every repair behind the fabric verifier.
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
        let _span = observer.span("routing.up-down.repair");
        let n = g.len();
        // The orientation state is recomputed from scratch on the degraded
        // graph: it is one ranks pass plus one BFS, and reusing a stale
        // root or label set would silently diverge from what a full sweep
        // would install.
        let comps = g.components();
        let lab = if comps.is_partitioned() {
            component_labels(g, &comps, self.root)
        } else {
            labels(g, self.pick_root(g))
        };
        let order = {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&s| lab[s]);
            order
        };

        let dirty: FxHashSet<u16> = dirty_dests.iter().map(|l| l.raw()).collect();
        let mut out = prior.clone();
        out.engine = self.name();
        out.vls = VlAssignment::SingleVl;
        out.decisions = 0;

        // Dirty destinations grouped by delivery switch, in switch order —
        // legal distances are computed once per dirty group instead of
        // once per delivery switch of the whole fabric.
        let mut by_switch: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (i, d) in g.destinations().iter().enumerate() {
            if dirty.contains(&d.lid.raw()) {
                by_switch.entry(d.switch).or_default().push(i);
            }
        }
        let mut groups: Vec<(usize, Vec<usize>)> = by_switch.into_iter().collect();
        groups.sort_unstable_by_key(|(s, _)| *s);
        if groups.is_empty() {
            return Ok(out);
        }

        let workers = opts.effective_workers(groups.len());
        let mut down_data = vec![u32::MAX; groups.len() * n];
        let mut full_data = vec![u32::MAX; groups.len() * n];
        {
            let _span = observer.span("routing.up-down.distances");
            let mut rows: Vec<(&mut [u32], &mut [u32])> = down_data
                .chunks_mut(n)
                .zip(full_data.chunks_mut(n))
                .collect();
            parallel_for_each(
                &mut rows,
                workers,
                || Vec::<u32>::with_capacity(n),
                |queue, gi, (down, full)| {
                    let dsw = groups[gi].0;
                    down[dsw] = 0;
                    queue.clear();
                    queue.push(dsw as u32);
                    let mut head = 0;
                    while head < queue.len() {
                        let x = queue[head] as usize;
                        head += 1;
                        for &(y, _) in g.neighbors(x) {
                            let y = y as usize;
                            if !is_up(&lab, y, x) && down[y] == u32::MAX {
                                down[y] = down[x] + 1;
                                queue.push(y as u32);
                            }
                        }
                    }
                    full.copy_from_slice(down);
                    for &s in &order {
                        for &(v, _) in g.neighbors(s) {
                            let v = v as usize;
                            if is_up(&lab, s, v) && full[v] != u32::MAX {
                                full[s] = full[s].min(full[v].saturating_add(1));
                            }
                        }
                    }
                },
            );
        }
        for (gi, (dsw, _)) in groups.iter().enumerate() {
            let full = &full_data[gi * n..(gi + 1) * n];
            // As in the full compute: legality is only required within
            // the delivery switch's component.
            if (0..n).any(|s| comps.same(s, *dsw) && full[s] == u32::MAX) {
                return Err(IbError::Topology(format!(
                    "no legal up*/down* path to switch {dsw}"
                )));
            }
        }

        let mut decisions = 0u64;
        let mut column: Vec<Option<PortNum>> = vec![None; n];
        let mut cand: Vec<Vec<PortNum>> = vec![Vec::new(); n];
        for (gi, (dsw, dest_indices)) in groups.iter().enumerate() {
            let down = &down_data[gi * n..(gi + 1) * n];
            let full = &full_data[gi * n..(gi + 1) * n];
            // Candidate sets are shared by every LID the group delivers —
            // built once per (switch, group) pair, as in the full compute.
            for (s, c) in cand.iter_mut().enumerate() {
                c.clear();
                if s == *dsw || full[s] == u32::MAX {
                    // Delivery rows need no candidates; cross-component
                    // rows legitimately have none (the fault cut them off
                    // and their columns are cleared below).
                    continue;
                }
                if down[s] != u32::MAX {
                    for &(v, p) in g.neighbors(s) {
                        let v = v as usize;
                        if !is_up(&lab, s, v) && down[v] != u32::MAX && down[v] + 1 == down[s] {
                            c.push(p);
                        }
                    }
                } else {
                    for &(v, p) in g.neighbors(s) {
                        let v = v as usize;
                        if is_up(&lab, s, v) && full[v] != u32::MAX && full[v] + 1 == full[s] {
                            c.push(p);
                        }
                    }
                }
                c.sort_unstable();
                if c.is_empty() {
                    // Unreachable once the full-row MAX check passed; be
                    // defensive rather than panic on the modular pick.
                    return Err(IbError::Topology(format!(
                        "no legal up*/down* candidate at switch {s} toward switch {dsw}"
                    )));
                }
            }
            for &di in dest_indices {
                let dest = g.destinations()[di];
                for (s, slot) in column.iter_mut().enumerate() {
                    decisions += 1;
                    *slot = if s == *dsw {
                        Some(dest.port)
                    } else if full[s] == u32::MAX {
                        // The fault split the fabric: this switch can no
                        // longer reach the destination, so its row is
                        // cleared rather than left pointing into the lost
                        // component.
                        None
                    } else {
                        // Sticky selection: keep the installed port while
                        // it is still a legal up*/down* minimal candidate
                        // (a port into the failed link never is), so only
                        // the entries the fault invalidated move; the
                        // modular spread decides the rest.
                        let installed = prior.lfts[&g.node_id(s)].get(dest.lid);
                        match installed.filter(|p| cand[s].binary_search(p).is_ok()) {
                            Some(p) => Some(p),
                            None => Some(cand[s][dest.lid.raw() as usize % cand[s].len()]),
                        }
                    };
                }
                out.set_column(dest.lid, |sw| g.index(sw).and_then(|s| column[s]));
            }
        }
        out.decisions = decisions;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::irregular::{irregular, IrregularSpec};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_fat_tree() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = UpDown::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_torus_without_deadlock() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        let tables = UpDown::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        // The defining property: the CDG of the whole routing on one VL is
        // acyclic.
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let cdg = Cdg::from_tables(&g, &tables, |_| true);
        assert!(
            cdg.find_cycle().is_none(),
            "up*/down* produced a cyclic CDG"
        );
    }

    #[test]
    fn routes_irregular_without_deadlock() {
        for seed in 0..5 {
            let mut t = irregular(IrregularSpec {
                num_switches: 10,
                num_hosts: 20,
                extra_links: 7,
                seed,
            });
            assign_lids(&mut t);
            let tables = UpDown::default().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let cdg = Cdg::from_tables(&g, &tables, |_| true);
            assert!(cdg.find_cycle().is_none(), "seed {seed} deadlocks");
        }
    }

    #[test]
    fn default_root_tie_breaks_to_lowest_index_core() {
        // Multi-core fat tree: every spine has the same (maximal) rank, so
        // the documented tie-break must pick the lowest-index one — not the
        // last maximal element `max_by_key` would keep on its own.
        let mut t = two_level(3, 2, 3);
        assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let ranks = g.ranks();
        let max_rank = *ranks.iter().max().unwrap();
        let lowest_core = ranks.iter().position(|&r| r == max_rank).unwrap();
        let spine_indices: Vec<usize> = t.switch_levels[1]
            .iter()
            .map(|&s| g.index(s).unwrap())
            .collect();
        assert!(
            spine_indices
                .iter()
                .filter(|&&s| ranks[s] == max_rank)
                .count()
                > 1,
            "test needs a real tie among core switches"
        );
        assert_eq!(UpDown::default().pick_root(&g), lowest_core);
    }

    #[test]
    fn explicit_root_respected() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let engine = UpDown { root: Some(0) };
        let tables = engine.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }
}
