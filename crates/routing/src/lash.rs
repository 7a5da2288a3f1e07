//! LASH: LAyered SHortest-path routing.
//!
//! Every ordered pair of switches gets a shortest path (drawn from one BFS
//! in-tree per destination switch, so the result is expressible as
//! destination-based LFTs), and each pair is packed into the first virtual
//! lane whose channel dependency graph stays acyclic with the path's
//! dependencies added; a new lane is opened when no existing one fits.
//!
//! The per-destination in-tree extraction and the LFT fill fan across the
//! configured workers (each tree and each switch row is independent); the
//! pair packing cannot — each placement depends on every earlier one. That
//! per-pair packing with cycle checks is why LASH is by far the most
//! expensive engine in the paper's Fig. 7 (39145 s at 11664 nodes) — the
//! same quadratic-in-switches, cycle-check-per-pair structure is faithfully
//! reproduced here, and its cost lands in the `routing.lash.vl_partition`
//! span.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum, VirtualLane};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::cdg::{Cdg, Channel};
use crate::engine::{require_baseline, unusable_baseline, RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Destination, SwitchGraph};
use crate::tables::{stages_to_lfts, RoutingTables, VlAssignment};

/// The LASH engine.
#[derive(Clone, Copy, Debug)]
pub struct Lash {
    /// Number of data VLs available for layering.
    pub max_vls: u8,
}

impl Default for Lash {
    fn default() -> Self {
        Self { max_vls: 8 }
    }
}

impl RoutingEngine for Lash {
    fn name(&self) -> &'static str {
        "lash"
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
        let workers = opts.effective_workers(n);

        // One deterministic BFS in-tree per switch: tree[dsw][s] = the port
        // s uses toward dsw (lowest-index parent wins ties). Trees are
        // independent, so the extraction fans across workers; each worker
        // reuses one distance buffer and one queue for all its trees.
        let mut trees: Vec<Vec<Option<PortNum>>> = vec![vec![None; n]; n];
        {
            let _span = observer.span("routing.lash.distances");
            parallel_for_each(
                &mut trees,
                workers,
                || (vec![u32::MAX; n], Vec::<u32>::with_capacity(n)),
                |(dist, queue), dsw, port_toward| {
                    dist.fill(u32::MAX);
                    dist[dsw] = 0;
                    queue.clear();
                    queue.push(dsw as u32);
                    let mut head = 0;
                    while head < queue.len() {
                        let v = queue[head] as usize;
                        head += 1;
                        // Deterministic order: neighbors as stored
                        // (builder order).
                        for &(s, _) in g.neighbors(v) {
                            let s = s as usize;
                            if dist[s] == u32::MAX {
                                dist[s] = dist[v] + 1;
                                // The port s uses toward v (first matching
                                // entry).
                                let p = g
                                    .neighbors(s)
                                    .iter()
                                    .find(|&&(x, _)| x as usize == v)
                                    .map(|&(_, p)| p)
                                    .expect("symmetric adjacency");
                                port_toward[s] = Some(p);
                                queue.push(s as u32);
                            }
                        }
                    }
                },
            );
        }
        // A `None` tree entry for s != dsw means the fabric is split and s
        // cannot reach dsw: the stage fill below leaves that LFT row empty
        // (an explicit hole) and the pair packing skips the pair — every
        // reachable pair still gets a path and a lane.

        // LFTs straight from the trees: each switch's staging row is
        // independent, so the fill fans across workers too.
        let mut stages: Vec<Vec<Option<PortNum>>> = vec![vec![None; g.lid_bound()]; n];
        parallel_for_each(
            &mut stages,
            workers,
            || (),
            |(), s, stage| {
                for dest in g.destinations() {
                    stage[dest.lid.raw() as usize] = if s == dest.switch {
                        Some(dest.port)
                    } else {
                        trees[dest.switch][s]
                    };
                }
            },
        );
        let mut decisions = (g.destinations().len() * n) as u64;

        // Pack each ordered switch pair into the first lane that stays
        // acyclic. Strictly serial: whether a pair fits lane l depends on
        // every pair placed before it. (The `dsw` index doubles as the
        // tree id, so a range loop reads clearer than enumerate here.)
        // Layers use the classic dense-matrix CDG representation
        // (see [`MatrixCdg`]) so the per-pair cycle check carries LASH's
        // characteristic quadratic-in-channels cost.
        let _span = observer.span("routing.lash.vl_partition");
        let mut channel_ids: FxHashMap<Channel, usize> = FxHashMap::default();
        for s in 0..n {
            for &(_, p) in g.neighbors(s) {
                let next = channel_ids.len();
                channel_ids.entry((s as u32, p.raw())).or_insert(next);
            }
        }
        let num_channels = channel_ids.len();
        let mut layers: Vec<MatrixCdg> = vec![MatrixCdg::new(num_channels)];
        let mut pair_lane: FxHashMap<(u32, u32), VirtualLane> = FxHashMap::default();
        let mut ids: Vec<usize> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for dsw in 0..n {
            for src in 0..n {
                if src == dsw {
                    continue;
                }
                if trees[dsw][src].is_none() {
                    // Split fabric: src cannot reach dsw, so the pair has
                    // no path and needs no lane.
                    continue;
                }
                // Materialize the channel-id path src -> dsw along the tree.
                // (Every switch on the walk is reachable once src is: the
                // in-tree is connected toward dsw.)
                ids.clear();
                let mut cur = src;
                while cur != dsw {
                    let p = trees[dsw][cur].expect("on the in-tree toward dsw");
                    ids.push(channel_ids[&(cur as u32, p.raw())]);
                    decisions += 1;
                    cur = g
                        .neighbors(cur)
                        .iter()
                        .find(|&&(_, q)| q == p)
                        .map(|&(v, _)| v as usize)
                        .expect("port leads somewhere");
                }
                let mut placed = None;
                for (l, layer) in layers.iter_mut().enumerate() {
                    if layer.try_add_path(&ids) {
                        placed = Some(l as u8);
                        break;
                    }
                }
                let lane = match placed {
                    Some(l) => l,
                    None => {
                        if layers.len() >= self.max_vls as usize {
                            return Err(IbError::Topology(format!(
                                "lash: virtual lanes exhausted ({})",
                                self.max_vls
                            )));
                        }
                        let mut fresh = MatrixCdg::new(num_channels);
                        let ok = fresh.try_add_path(&ids);
                        debug_assert!(ok, "single path cannot be cyclic");
                        layers.push(fresh);
                        (layers.len() - 1) as u8
                    }
                };
                if lane != 0 {
                    pair_lane.insert(
                        (src as u32, dsw as u32),
                        VirtualLane::new(lane).expect("lane < 15"),
                    );
                }
            }
        }

        let vls = if pair_lane.is_empty() {
            VlAssignment::SingleVl
        } else {
            VlAssignment::PerSwitchPair(pair_lane)
        };
        Ok(RoutingTables {
            lfts: stages_to_lfts(&g, stages),
            vls,
            engine: self.name(),
            decisions,
        })
    }

    /// Incremental repair: recompute BFS in-trees only for the dirty
    /// delivery switches and splice their columns into `prior`, then
    /// re-place just the re-routed switch pairs into the lane structure.
    /// Each layer's CDG is re-seeded from the clean pairs' installed
    /// paths — they coexisted acyclically under `prior`, so no cycle
    /// check is run (or wanted: the O(channels²) check is LASH's cost).
    /// A dirty pair first tries its prior lane, escalates to the
    /// CDG-checked first-fit search on conflict, opens a new lane within
    /// the budget, and only errors out (a *counted* fallback at the SM)
    /// when the budget is exhausted — the whole fabric is never
    /// re-layered.
    fn repair_with_graph(
        &self,
        _subnet: &Subnet,
        g: &SwitchGraph,
        opts: RoutingOptions,
        prior: &RoutingTables,
        dirty_dests: &[ib_types::Lid],
        observer: &Observer,
    ) -> IbResult<RoutingTables> {
        // A usable baseline needs every switch's LFT *and* a per-pair (or
        // single-lane) assignment to re-seed the layers from.
        require_baseline(self.name(), g, prior)?;
        if !matches!(
            prior.vls,
            VlAssignment::SingleVl | VlAssignment::PerSwitchPair(_)
        ) {
            return Err(unusable_baseline(
                self.name(),
                "VLs neither single-lane nor per switch pair",
            ));
        }
        let _span = observer.span("routing.lash.repair");
        let n = g.len();
        let dirty: FxHashSet<u16> = dirty_dests.iter().map(|l| l.raw()).collect();
        let dirty_cols: Vec<Destination> = g
            .destinations()
            .iter()
            .copied()
            .filter(|d| dirty.contains(&d.lid.raw()))
            .collect();
        let mut out = prior.clone();
        out.engine = self.name();
        out.decisions = 0;
        if dirty_cols.is_empty() {
            return Ok(out);
        }

        // Per-switch witness destination: the installed column each clean
        // pair's path is read back from (all pairs toward one delivery
        // switch ride the same in-tree, so one column per switch
        // suffices). A switch with no LID leaves its pairs' paths
        // unreconstructable — an unusable baseline (never the case once
        // the SM has assigned switch LIDs).
        let first_dest: Vec<Destination> = {
            let mut fd: Vec<Option<Destination>> = vec![None; n];
            for d in g.destinations() {
                if fd[d.switch].is_none() {
                    fd[d.switch] = Some(*d);
                }
            }
            if fd.iter().any(Option::is_none) {
                return Err(unusable_baseline(self.name(), "a switch has no LID"));
            }
            fd.into_iter().flatten().collect()
        };

        let mut dirty_switches: Vec<usize> = dirty_cols.iter().map(|d| d.switch).collect();
        dirty_switches.sort_unstable();
        dirty_switches.dedup();
        let tree_of: FxHashMap<usize, usize> = dirty_switches
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();

        // Fresh BFS in-trees for the dirty delivery switches only — the
        // repair-sized slice of the full compute's per-switch sweep.
        let mut trees: Vec<Vec<Option<PortNum>>> = vec![vec![None; n]; dirty_switches.len()];
        {
            let _span = observer.span("routing.lash.distances");
            parallel_for_each(
                &mut trees,
                opts.effective_workers(dirty_switches.len()),
                || (vec![u32::MAX; n], Vec::<u32>::with_capacity(n)),
                |(dist, queue), ti, port_toward| {
                    let dsw = dirty_switches[ti];
                    dist.fill(u32::MAX);
                    dist[dsw] = 0;
                    queue.clear();
                    queue.push(dsw as u32);
                    let mut head = 0;
                    while head < queue.len() {
                        let v = queue[head] as usize;
                        head += 1;
                        for &(s, _) in g.neighbors(v) {
                            let s = s as usize;
                            if dist[s] == u32::MAX {
                                dist[s] = dist[v] + 1;
                                let p = g
                                    .neighbors(s)
                                    .iter()
                                    .find(|&&(x, _)| x as usize == v)
                                    .map(|&(_, p)| p)
                                    .expect("symmetric adjacency");
                                port_toward[s] = Some(p);
                                queue.push(s as u32);
                            }
                        }
                    }
                },
            );
        }
        // A `None` tree entry means the fault split the fabric: the splice
        // below *clears* that row (no stale route into the lost component)
        // and the lane re-placement drops the pair.

        // Splice the dirty columns: identical to what the full compute's
        // stage fill would produce from the same trees.
        let mut decisions = (dirty_cols.len() * n) as u64;
        for dest in &dirty_cols {
            let tree = &trees[tree_of[&dest.switch]];
            out.set_column(dest.lid, |sw| {
                g.index(sw).and_then(|s| {
                    if s == dest.switch {
                        Some(dest.port)
                    } else {
                        tree[s]
                    }
                })
            });
        }

        // Incremental lane re-assignment.
        let _span2 = observer.span("routing.lash.vl_partition");
        let mut channel_ids: FxHashMap<Channel, usize> = FxHashMap::default();
        for s in 0..n {
            for &(_, p) in g.neighbors(s) {
                let next = channel_ids.len();
                channel_ids.entry((s as u32, p.raw())).or_insert(next);
            }
        }
        let num_channels = channel_ids.len();
        let max_lane = match &prior.vls {
            VlAssignment::PerSwitchPair(map) => map.values().map(|l| l.raw()).max().unwrap_or(0),
            _ => 0,
        };
        let mut layers: Vec<MatrixCdg> = (0..=max_lane)
            .map(|_| MatrixCdg::new(num_channels))
            .collect();
        let port_to_switch: Vec<FxHashMap<u8, usize>> = (0..n)
            .map(|s| {
                g.neighbors(s)
                    .iter()
                    .map(|&(v, p)| (p.raw(), v as usize))
                    .collect()
            })
            .collect();
        let dirty_set: FxHashSet<usize> = dirty_switches.iter().copied().collect();

        // Re-seed the layers from the clean pairs' installed paths. A walk
        // that dead-ends — the entry is cleared, or the port leads into a
        // link the degraded graph no longer has — is *pre-existing damage*
        // on a pair whose own trap has not been answered yet (mid-burst,
        // serial repairs see later faults' black holes, exactly like the
        // SM's scoped verifier gate does). The surviving prefix still
        // carries in-flight traffic, so its channel dependencies are
        // seeded and the pair is otherwise left to the trap that owns it.
        // A forwarding *loop*, by contrast, means the baseline itself is
        // corrupt: error out so the SM takes its counted fallback and
        // rebuilds from scratch (keeping the reverse route index honest —
        // a silent internal recompute here would be misread as a splice).
        let mut ids: Vec<usize> = Vec::new();
        for (dsw, &dest) in first_dest.iter().enumerate() {
            if dirty_set.contains(&dsw) {
                continue;
            }
            for src in 0..n {
                if src == dsw {
                    continue;
                }
                ids.clear();
                let mut cur = src;
                let mut hops = 0;
                while cur != dsw {
                    let Some(p) = out.lfts.get(&g.node_id(cur)).and_then(|l| l.get(dest.lid))
                    else {
                        break;
                    };
                    let Some(&cid) = channel_ids.get(&(cur as u32, p.raw())) else {
                        break;
                    };
                    let Some(&next_sw) = port_to_switch[cur].get(&p.raw()) else {
                        break;
                    };
                    ids.push(cid);
                    cur = next_sw;
                    hops += 1;
                    if hops > n {
                        return Err(IbError::Topology(
                            "forwarding loop in the lash repair baseline".into(),
                        ));
                    }
                }
                let lane = prior.vls.lane_for(src as u32, dsw as u32, dest.lid).raw() as usize;
                layers[lane].add_path(&ids);
            }
        }

        // Place the dirty pairs: prior lane first (most repaired paths
        // still fit where they lived), then first-fit, then a new lane.
        let mut pair_lane: FxHashMap<(u32, u32), VirtualLane> = match &prior.vls {
            VlAssignment::PerSwitchPair(map) => map.clone(),
            _ => FxHashMap::default(),
        };
        for &dsw in &dirty_switches {
            let tree = &trees[tree_of[&dsw]];
            for src in 0..n {
                if src == dsw {
                    continue;
                }
                if tree[src].is_none() {
                    // The fault cut src off from dsw: the pair no longer
                    // has a path, so it holds no lane either.
                    pair_lane.remove(&(src as u32, dsw as u32));
                    continue;
                }
                ids.clear();
                let mut cur = src;
                while cur != dsw {
                    let p = tree[cur].expect("on the in-tree toward dsw");
                    ids.push(channel_ids[&(cur as u32, p.raw())]);
                    decisions += 1;
                    cur = g
                        .neighbors(cur)
                        .iter()
                        .find(|&&(_, q)| q == p)
                        .map(|&(v, _)| v as usize)
                        .expect("port leads somewhere");
                }
                let prior_lane = prior
                    .vls
                    .lane_for(src as u32, dsw as u32, first_dest[dsw].lid)
                    .raw() as usize;
                let mut placed = None;
                if layers[prior_lane].try_add_path(&ids) {
                    placed = Some(prior_lane as u8);
                } else {
                    for (l, layer) in layers.iter_mut().enumerate() {
                        if l != prior_lane && layer.try_add_path(&ids) {
                            placed = Some(l as u8);
                            break;
                        }
                    }
                }
                let lane = match placed {
                    Some(l) => l,
                    None => {
                        if layers.len() >= self.max_vls as usize {
                            return Err(IbError::Topology(format!(
                                "lash: virtual lanes exhausted ({}) during repair",
                                self.max_vls
                            )));
                        }
                        let mut fresh = MatrixCdg::new(num_channels);
                        let ok = fresh.try_add_path(&ids);
                        debug_assert!(ok, "single path cannot be cyclic");
                        layers.push(fresh);
                        (layers.len() - 1) as u8
                    }
                };
                if lane != 0 {
                    pair_lane.insert(
                        (src as u32, dsw as u32),
                        VirtualLane::new(lane).expect("lane < 15"),
                    );
                } else {
                    pair_lane.remove(&(src as u32, dsw as u32));
                }
            }
        }

        out.vls = if pair_lane.is_empty() {
            VlAssignment::SingleVl
        } else {
            VlAssignment::PerSwitchPair(pair_lane)
        };
        out.decisions = decisions;
        Ok(out)
    }
}

/// A channel dependency graph stored as a dense adjacency matrix, the
/// representation classic LASH implementations use: the cycle check after
/// each tentative pair placement walks matrix rows, costing
/// O(channels²) per pair. That quadratic check, run for every ordered
/// switch pair, is precisely what makes LASH the most expensive engine in
/// the paper's Fig. 7 (39145 s at 11664 nodes) — the incremental
/// reachability test of [`Cdg::try_add_path`] would be algorithmically
/// equivalent but would not reproduce that cost profile.
struct MatrixCdg {
    n: usize,
    adj: Vec<bool>,
}

impl MatrixCdg {
    fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![false; n * n],
        }
    }

    #[inline]
    fn has(&self, a: usize, b: usize) -> bool {
        self.adj[a * self.n + b]
    }

    /// Full-matrix DFS cycle search (three-color, iterative).
    fn has_cycle(&self) -> bool {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..self.n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, 0));
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                // Scan the row for the next successor.
                let mut advanced = false;
                while *next < self.n {
                    let v = *next;
                    *next += 1;
                    if !self.has(u, v) {
                        continue;
                    }
                    match color[v] {
                        WHITE => {
                            color[v] = GRAY;
                            stack.push((v, 0));
                            advanced = true;
                            break;
                        }
                        GRAY => return true,
                        _ => {}
                    }
                }
                if !advanced && stack.last().map(|&(u2, n2)| (u2, n2 >= self.n)) == Some((u, true))
                {
                    color[u] = BLACK;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Adds the consecutive dependencies of a channel-id path with **no**
    /// cycle check — for re-seeding a layer from paths that already
    /// coexisted acyclically in an installed assignment, where re-running
    /// the quadratic check would defeat the point of incremental repair.
    fn add_path(&mut self, ids: &[usize]) {
        for w in ids.windows(2) {
            self.adj[w[0] * self.n + w[1]] = true;
        }
    }

    /// Adds the consecutive dependencies of a channel-id path, runs the
    /// full cycle check, and rolls back if a cycle appeared.
    fn try_add_path(&mut self, ids: &[usize]) -> bool {
        let mut new_edges = Vec::new();
        for w in ids.windows(2) {
            let (a, b) = (w[0], w[1]);
            if !self.has(a, b) {
                self.adj[a * self.n + b] = true;
                new_edges.push((a, b));
            }
        }
        if self.has_cycle() {
            for (a, b) in new_edges {
                self.adj[a * self.n + b] = false;
            }
            false
        } else {
            true
        }
    }
}

/// Verifies deadlock freedom of a LASH result: for every lane, re-derive
/// the CDG from the per-pair assignment and check acyclicity.
pub fn verify_pair_layers_acyclic(subnet: &Subnet, tables: &RoutingTables) -> IbResult<()> {
    let g = SwitchGraph::build(subnet)?;
    let lanes_in_use: Vec<u8> = match &tables.vls {
        VlAssignment::SingleVl => vec![0],
        VlAssignment::PerSwitchPair(map) => {
            let mut v: Vec<u8> = map.values().map(|l| l.raw()).collect();
            v.push(0);
            v.sort_unstable();
            v.dedup();
            v
        }
        VlAssignment::PerDestination(_) | VlAssignment::PerSourceDestination(_) => {
            return Err(IbError::Topology(
                "expected a per-pair assignment from LASH".into(),
            ))
        }
    };

    for lane in lanes_in_use {
        let mut cdg = Cdg::new();
        // Walk every pair on this lane and absorb its path dependencies.
        for dsw in 0..g.len() {
            let Some(dest) = g.destinations().iter().find(|d| d.switch == dsw) else {
                continue;
            };
            for src in 0..g.len() {
                if src == dsw {
                    continue;
                }
                if tables.vls.lane_for(src as u32, dsw as u32, dest.lid).raw() != lane {
                    continue;
                }
                let mut cur = src;
                let mut prev: Option<usize> = None;
                let mut hops = 0;
                while cur != dsw {
                    // A missing row means the pair is unrouted (a split
                    // fabric): no path, no dependencies to absorb.
                    let Some(p) = tables.lfts[&g.node_id(cur)].get(dest.lid) else {
                        break;
                    };
                    let ch = cdg.intern((cur as u32, p.raw()));
                    if let Some(pr) = prev {
                        cdg.add_edge(pr, ch, dest.lid.raw());
                    }
                    prev = Some(ch);
                    cur = g
                        .neighbors(cur)
                        .iter()
                        .find(|&&(_, q)| q == p)
                        .map(|&(v, _)| v as usize)
                        .expect("port leads to a switch");
                    hops += 1;
                    if hops > g.len() {
                        return Err(IbError::Topology("routing loop".into()));
                    }
                }
            }
        }
        if let Some(cycle) = cdg.find_cycle() {
            return Err(IbError::Topology(format!(
                "LASH lane {lane} has a {}-channel cycle",
                cycle.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::irregular::{irregular, IrregularSpec};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn fat_tree_routes_on_one_lane() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = Lash::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        assert_eq!(tables.vls, VlAssignment::SingleVl);
    }

    #[test]
    fn torus_needs_multiple_lanes_and_stays_acyclic() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = Lash::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        assert!(
            matches!(tables.vls, VlAssignment::PerSwitchPair(_)),
            "a 4x4 torus cannot fit one lane under shortest-path routing"
        );
        verify_pair_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn irregular_layers_acyclic() {
        for seed in 0..3 {
            let mut t = irregular(IrregularSpec {
                num_switches: 8,
                num_hosts: 16,
                extra_links: 6,
                seed,
            });
            assign_lids(&mut t);
            let tables = Lash::default().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            verify_pair_layers_acyclic(&t.subnet, &tables).unwrap();
        }
    }

    #[test]
    fn single_vl_budget_fails_on_torus() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let engine = Lash { max_vls: 1 };
        assert!(engine.compute(&t.subnet).is_err());
    }

    /// A baseline whose lanes are not per switch pair cannot re-seed the
    /// layers: the repair refuses it instead of recomputing the fabric.
    #[test]
    fn repair_refuses_a_per_destination_baseline() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let mut prior = Lash::default().compute(&t.subnet).unwrap();
        prior.vls = VlAssignment::PerDestination(FxHashMap::default());
        let result = Lash::default().repair_with_graph(
            &t.subnet,
            &g,
            RoutingOptions::default(),
            &prior,
            &t.subnet.lids(),
            &Observer::disabled(),
        );
        assert!(result.is_err());
    }
}
