//! DFSSSP: deadlock-free single-source-shortest-path routing.
//!
//! Two phases, mirroring Domke et al. (reference \[28\] of the paper, the
//! same work the paper cites for multi-minute path computation times):
//!
//! 1. **SSSP routing** — one weighted Dijkstra per delivery switch, with
//!    link weights incremented as destinations are routed so later
//!    destinations avoid loaded links.
//! 2. **VL partitioning** — destinations start on VL0; while a lane's
//!    channel dependency graph contains a cycle, one witness destination of
//!    a cycle edge is lifted to the next lane. Each lane ends up acyclic,
//!    hence deadlock-free.
//!
//! Both phases cost markedly more than Min-Hop's BFS — the reason DFSSSP
//! sits an order of magnitude above Min-Hop in Fig. 7. Phase timings land
//! in the `routing.dfsssp.distances` / `routing.dfsssp.vl_partition`
//! observe spans. The weight-feedback loop makes phase 1 inherently
//! serial (each group's Dijkstra reads the weights every earlier group
//! wrote), so only the next-hop precompute of phase 2 fans across
//! workers; the tables are identical for every worker count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::cdg::{Cdg, Channel};
use crate::engine::{require_baseline, RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, SwitchGraph};
use crate::tables::{stages_to_lfts, RoutingTables, VlAssignment};

/// The DFSSSP engine.
#[derive(Clone, Copy, Debug)]
pub struct Dfsssp {
    /// Number of data VLs available for layering.
    pub max_vls: u8,
}

impl Default for Dfsssp {
    fn default() -> Self {
        // The full IBA data-VL range. OpenSM defaults to 8 data VLs but
        // the lane budget is configurable; 3-level fat trees with
        // switch-LID destinations need more than 8 under this layer-
        // assignment heuristic (see EXPERIMENTS.md).
        Self { max_vls: 15 }
    }
}

impl RoutingEngine for Dfsssp {
    fn name(&self) -> &'static str {
        "dfsssp"
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

        // Incoming adjacency: in_edges[v] = (source switch s, s's port to v).
        let mut in_edges: Vec<Vec<(usize, PortNum)>> = vec![Vec::new(); n];
        for s in 0..n {
            for &(v, p) in g.neighbors(s) {
                in_edges[v as usize].push((s, p));
            }
        }

        // Directed link weights in a flat array keyed (switch, out-port):
        // every slot starts at the implicit weight 1, so `weight[idx] += 1`
        // is the `or_insert(1) += 1` of a map without the hashing.
        let stride = 1 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let widx = move |s: usize, p: PortNum| s * stride + p.raw() as usize;
        let mut weight: Vec<u64> = vec![1; stride * n];

        // Destinations grouped by delivery switch, in switch order.
        let mut by_switch: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (i, d) in g.destinations().iter().enumerate() {
            by_switch.entry(d.switch).or_default().push(i);
        }
        let mut groups: Vec<(usize, Vec<usize>)> = by_switch.into_iter().collect();
        groups.sort_unstable_by_key(|(s, _)| *s);

        let mut stages: Vec<Vec<Option<PortNum>>> = vec![vec![None; g.lid_bound()]; n];
        let mut decisions = 0u64;

        // Phase 1 is the order-sensitive serial spine of DFSSSP: each
        // group's snapshot must reflect exactly the weight increments of
        // every earlier group, in group order.
        let phase1 = observer.span("routing.dfsssp.distances");
        let mut dist: Vec<(u32, u64)> = vec![(u32::MAX, u64::MAX); n];
        let mut heap = BinaryHeap::new();
        let mut candidates: Vec<PortNum> = Vec::new();
        for (dsw, dest_indices) in &groups {
            let dsw = *dsw;
            // Distances are computed against a snapshot of the weights;
            // updates made while routing this group's destinations only
            // influence later groups (OpenSM's dfsssp updates weights per
            // routed node the same way).
            let snapshot = weight.clone();
            // Dijkstra from the delivery switch over reversed edges with
            // lexicographic (hops, accumulated weight) cost: paths stay
            // minimal-hop (so the per-destination trees remain cycle-lean)
            // and the weights only arbitrate among equal-hop options —
            // DFSSSP's balancing without sacrificing minimality.
            dist.fill((u32::MAX, u64::MAX));
            dist[dsw] = (0, 0);
            heap.clear();
            heap.push(Reverse(((0u32, 0u64), dsw)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for &(s, p) in &in_edges[v] {
                    let nd = (d.0 + 1, d.1 + snapshot[widx(s, p)]);
                    if nd < dist[s] {
                        dist[s] = nd;
                        heap.push(Reverse((nd, s)));
                    }
                }
            }
            for &di in dest_indices {
                let dest = g.destinations()[di];
                let lid_idx = dest.lid.raw() as usize;
                for s in 0..n {
                    decisions += 1;
                    if s == dsw {
                        stages[s][lid_idx] = Some(dest.port);
                        continue;
                    }
                    if dist[s].0 == u32::MAX {
                        // Split fabric: `s` sits in another component. Its
                        // column entry stays `None` — an explicit hole —
                        // and every reachable pair still gets routed.
                        continue;
                    }
                    candidates.clear();
                    candidates.extend(
                        g.neighbors(s)
                            .iter()
                            .filter(|&&(v, p)| {
                                dist[v as usize].0 + 1 == dist[s].0
                                    && dist[v as usize].1 + snapshot[widx(s, p)] == dist[s].1
                            })
                            .map(|&(_, p)| p),
                    );
                    candidates.sort_unstable();
                    if candidates.is_empty() {
                        return Err(IbError::Topology("distance inversion in dfsssp".into()));
                    }
                    let pick = candidates[lid_idx % candidates.len()];
                    stages[s][lid_idx] = Some(pick);
                    weight[widx(s, pick)] += 1;
                }
            }
        }
        phase1.end();

        // Phase 2: Domke et al.'s layer assignment. Paths live in
        // virtual layers; while a layer's channel dependency graph has a
        // cycle, pick one edge per (edge-disjoint) cycle and move EVERY
        // path crossing that edge to the next layer — the edge vanishes
        // from this layer, so each pass makes guaranteed progress and the
        // moved sets stay small (one channel-pair's worth of paths, not
        // whole destination trees).
        //
        // Two deviations from a literal transcription, both conservative:
        // switch-LID paths (the only source of down-up turns on up*-down*
        // fabrics) start on lane 1 so the compute lane is clean from the
        // outset, and within a cycle the dissolved edge is the one with
        // the fewest contributing paths (Domke's edge weight), preferring
        // edges carrying switch-LID paths.
        let _phase2 = observer.span("routing.dfsssp.vl_partition");
        let nexts = build_nexts(
            &g,
            opts.effective_workers(g.destinations().len()),
            |s, lid| stages[s][lid.raw() as usize],
        );

        // Per-lane worklists of (source switch, destination index).
        let mut lane_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.max_vls as usize];
        for (di, dest) in g.destinations().iter().enumerate() {
            let start_lane = usize::from(self.max_vls > 1 && dest.port.is_management());
            for (src, row) in stages.iter().enumerate().take(n) {
                // Unroutable cross-component pairs have no path and hence
                // no channel dependencies: they never enter the layering.
                if src != dest.switch && row[dest.lid.raw() as usize].is_some() {
                    lane_pairs[start_lane].push((src as u32, di as u32));
                }
            }
        }
        let lane_of = lift_lanes(&g, &nexts, &mut lane_pairs, self.max_vls)?;

        let vls = lanes_to_assignment(lane_of);
        Ok(RoutingTables {
            lfts: stages_to_lfts(&g, stages),
            vls,
            engine: self.name(),
            decisions,
        })
    }

    /// Incremental repair: Dijkstra only from the dirty destinations'
    /// delivery switches (weights seeded from the clean columns kept from
    /// `prior`), splice the dirty columns into `prior`, then re-run the
    /// layer assignment over the spliced tables — clean paths start on
    /// their prior lanes, repaired paths start on the base lane, and the
    /// usual cycle-lifting restores per-lane acyclicity or errors out when
    /// lanes are exhausted (the SM then falls back to a full sweep).
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
        let _span = observer.span("routing.dfsssp.repair");
        let n = g.len();
        let dirty: rustc_hash::FxHashSet<u16> = dirty_dests.iter().map(|l| l.raw()).collect();
        let mut out = prior.clone();
        out.engine = self.name();
        out.decisions = 0;
        if !g
            .destinations()
            .iter()
            .any(|d| dirty.contains(&d.lid.raw()))
        {
            return Ok(out);
        }

        let mut in_edges: Vec<Vec<(usize, PortNum)>> = vec![Vec::new(); n];
        for s in 0..n {
            for &(v, p) in g.neighbors(s) {
                in_edges[v as usize].push((s, p));
            }
        }
        let stride = 1 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let widx = move |s: usize, p: PortNum| s * stride + p.raw() as usize;
        // Seed the link weights with the clean columns' picks, so the
        // repaired destinations balance against the traffic that stays
        // put — the same feedback a full recompute would have applied.
        let mut weight: Vec<u64> = vec![1; stride * n];
        for dest in g.destinations() {
            if dirty.contains(&dest.lid.raw()) {
                continue;
            }
            for s in 0..n {
                if s == dest.switch {
                    continue;
                }
                if let Some(p) = prior.lfts[&g.node_id(s)].get(dest.lid) {
                    let idx = widx(s, p);
                    if idx < weight.len() {
                        weight[idx] += 1;
                    }
                }
            }
        }

        // Dirty destinations grouped by delivery switch, in switch order —
        // the same serial weight-feedback discipline as the full compute.
        let mut by_switch: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (i, d) in g.destinations().iter().enumerate() {
            if dirty.contains(&d.lid.raw()) {
                by_switch.entry(d.switch).or_default().push(i);
            }
        }
        let mut groups: Vec<(usize, Vec<usize>)> = by_switch.into_iter().collect();
        groups.sort_unstable_by_key(|(s, _)| *s);

        let mut decisions = 0u64;
        let mut dist: Vec<(u32, u64)> = vec![(u32::MAX, u64::MAX); n];
        let mut heap = BinaryHeap::new();
        let mut candidates: Vec<PortNum> = Vec::new();
        let mut column: Vec<Option<PortNum>> = vec![None; n];
        for (dsw, dest_indices) in &groups {
            let dsw = *dsw;
            let snapshot = weight.clone();
            dist.fill((u32::MAX, u64::MAX));
            dist[dsw] = (0, 0);
            heap.clear();
            heap.push(Reverse(((0u32, 0u64), dsw)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for &(s, p) in &in_edges[v] {
                    let nd = (d.0 + 1, d.1 + snapshot[widx(s, p)]);
                    if nd < dist[s] {
                        dist[s] = nd;
                        heap.push(Reverse((nd, s)));
                    }
                }
            }
            for &di in dest_indices {
                let dest = g.destinations()[di];
                let lid_idx = dest.lid.raw() as usize;
                for (s, slot) in column.iter_mut().enumerate() {
                    decisions += 1;
                    if s == dsw {
                        *slot = Some(dest.port);
                        continue;
                    }
                    if dist[s].0 == u32::MAX {
                        // The fault split the fabric: clear this row
                        // instead of leaving it pointing at the lost
                        // component.
                        *slot = None;
                        continue;
                    }
                    candidates.clear();
                    candidates.extend(
                        g.neighbors(s)
                            .iter()
                            .filter(|&&(v, p)| {
                                dist[v as usize].0 + 1 == dist[s].0
                                    && dist[v as usize].1 + snapshot[widx(s, p)] == dist[s].1
                            })
                            .map(|&(_, p)| p),
                    );
                    candidates.sort_unstable();
                    if candidates.is_empty() {
                        return Err(IbError::Topology(
                            "distance inversion in dfsssp repair".into(),
                        ));
                    }
                    // Sticky: keep the installed port when it is still on
                    // a lexicographically-shortest path — the repair's
                    // diff stays minimal and only rows the fault actually
                    // invalidated get rewritten.
                    let installed = prior.lfts[&g.node_id(s)].get(dest.lid);
                    let pick = installed
                        .filter(|p| candidates.contains(p))
                        .unwrap_or_else(|| candidates[lid_idx % candidates.len()]);
                    weight[widx(s, pick)] += 1;
                    *slot = Some(pick);
                }
                out.set_column(dest.lid, |sw| g.index(sw).and_then(|s| column[s]));
            }
        }

        // Re-layer the spliced tables: clean pairs keep their prior lane,
        // repaired pairs restart on the base lane; lifting then repairs any
        // cycle the splice introduced.
        let nexts = build_nexts(
            g,
            opts.effective_workers(g.destinations().len()),
            |s, lid| out.lfts.get(&g.node_id(s)).and_then(|lft| lft.get(lid)),
        );
        let mut lane_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.max_vls as usize];
        for (di, dest) in g.destinations().iter().enumerate() {
            let start_lane = usize::from(self.max_vls > 1 && dest.port.is_management());
            for src in 0..n {
                if src == dest.switch {
                    continue;
                }
                // Cross-component pairs were cleared by the splice: no
                // path, no dependencies, no lane.
                if out
                    .lfts
                    .get(&g.node_id(src))
                    .and_then(|lft| lft.get(dest.lid))
                    .is_none()
                {
                    continue;
                }
                let lane = if dirty.contains(&dest.lid.raw()) {
                    start_lane
                } else {
                    (prior
                        .vls
                        .lane_for(src as u32, dest.switch as u32, dest.lid)
                        .raw() as usize)
                        .min(self.max_vls as usize - 1)
                };
                lane_pairs[lane].push((src as u32, di as u32));
            }
        }
        let lane_of = lift_lanes(g, &nexts, &mut lane_pairs, self.max_vls)?;
        out.vls = lanes_to_assignment(lane_of);
        out.decisions = decisions;
        Ok(out)
    }
}

/// Precomputes per-destination next-hop tables (`nexts[di][s]` = (out port,
/// neighbor switch) for destination `di` at switch `s`), fanned across
/// workers; `row` supplies the LFT row to read (staging or spliced tables).
fn build_nexts<F>(g: &SwitchGraph, workers: usize, row: F) -> Vec<Vec<Option<(u8, usize)>>>
where
    F: Fn(usize, ib_types::Lid) -> Option<PortNum> + Sync,
{
    let port_to_switch: Vec<FxHashMap<u8, usize>> = (0..g.len())
        .map(|s| {
            g.neighbors(s)
                .iter()
                .map(|&(v, p)| (p.raw(), v as usize))
                .collect()
        })
        .collect();
    let mut nexts: Vec<Vec<Option<(u8, usize)>>> =
        vec![vec![None; g.len()]; g.destinations().len()];
    parallel_for_each(
        &mut nexts,
        workers,
        || (),
        |(), di, next| {
            let dest = &g.destinations()[di];
            for (s, slot) in next.iter_mut().enumerate() {
                if let Some(p) = row(s, dest.lid) {
                    if !p.is_management() {
                        if let Some(&v) = port_to_switch[s].get(&p.raw()) {
                            *slot = Some((p.raw(), v));
                        }
                    }
                }
            }
        },
    );
    nexts
}

/// Domke et al.'s layer assignment over precomputed next-hop tables: while
/// a lane's CDG has a cycle, dissolve one edge per cycle and move every
/// path crossing it up a lane. Mutates `lane_pairs` in place and returns
/// the final `(source switch, destination LID) -> lane` map (lane 0
/// implicit). Errors when the lane budget is exhausted.
fn lift_lanes(
    g: &SwitchGraph,
    nexts: &[Vec<Option<(u8, usize)>>],
    lane_pairs: &mut [Vec<(u32, u32)>],
    max_vls: u8,
) -> IbResult<FxHashMap<(u32, u16), u8>> {
    let n = g.len();
    let debug = std::env::var_os("IB_DFSSSP_DEBUG").is_some();

    // Walks a pair's channel path, feeding each consecutive channel
    // pair to `visit`; stops early when `visit` returns false.
    let walk = |src: u32, di: u32, visit: &mut dyn FnMut(Channel, Channel) -> bool| {
        let dest = &g.destinations()[di as usize];
        let next = &nexts[di as usize];
        let mut cur = src as usize;
        let mut prev: Option<Channel> = None;
        let mut hops = 0;
        while let Some((p, v)) = next[cur] {
            let ch: Channel = (cur as u32, p);
            if let Some(pr) = prev {
                if !visit(pr, ch) {
                    return;
                }
            }
            prev = Some(ch);
            cur = v;
            hops += 1;
            if cur == dest.switch || hops > n {
                return;
            }
        }
    };

    for lane in 0..max_vls as usize {
        loop {
            // Build this lane's CDG from its worklist.
            let mut cdg = Cdg::new();
            for &(src, di) in &lane_pairs[lane] {
                let dest = &g.destinations()[di as usize];
                let pair = (src, dest.lid.raw());
                let is_switch_lid = dest.port.is_management();
                walk(src, di, &mut |a, b| {
                    let ia = cdg.intern(a);
                    let ib = cdg.intern(b);
                    cdg.add_pair_edge(ia, ib, pair);
                    if is_switch_lid {
                        cdg.add_switch_witness(ia, ib, pair);
                    }
                    true
                });
            }
            let cycles = cdg.find_cycles();
            if debug {
                eprintln!(
                    "dfsssp: lane {lane}: {} pairs, {} channels, {} edges, {} cycles",
                    lane_pairs[lane].len(),
                    cdg.num_channels(),
                    cdg.num_edges(),
                    cycles.len(),
                );
            }
            if cycles.is_empty() {
                break;
            }
            if lane + 1 >= max_vls as usize {
                return Err(IbError::Topology(format!(
                    "dfsssp: virtual lanes exhausted ({max_vls}) breaking cycles"
                )));
            }
            // Dissolve the cheapest edge of every cycle not already
            // broken by an earlier dissolution this pass; prefer edges
            // carrying switch-LID paths.
            let mut dissolved_ids: FxHashMap<(usize, usize), ()> = FxHashMap::default();
            let mut dissolve: FxHashMap<(Channel, Channel), ()> = FxHashMap::default();
            for cycle in &cycles {
                if cycle.iter().any(|e| dissolved_ids.contains_key(e)) {
                    continue; // already broken this pass
                }
                let best = cycle
                    .iter()
                    .min_by_key(|&&(a, b)| {
                        (
                            cdg.switch_pair_witness_of(a, b).is_none(),
                            cdg.edge_count_of(a, b),
                        )
                    })
                    .copied()
                    .expect("cycle is non-empty");
                dissolved_ids.insert(best, ());
                dissolve.insert((cdg.channel(best.0), cdg.channel(best.1)), ());
            }
            // Move every path crossing a dissolved edge up one lane.
            let pairs = std::mem::take(&mut lane_pairs[lane]);
            for (src, di) in pairs {
                let mut moved = false;
                walk(src, di, &mut |a, b| {
                    if dissolve.contains_key(&(a, b)) {
                        moved = true;
                        false
                    } else {
                        true
                    }
                });
                if moved {
                    lane_pairs[lane + 1].push((src, di));
                } else {
                    lane_pairs[lane].push((src, di));
                }
            }
        }
    }

    // Assemble the final assignment (lane 0 stays implicit).
    let mut lane_of: FxHashMap<(u32, u16), u8> = FxHashMap::default();
    for (lane, pairs) in lane_pairs.iter().enumerate().skip(1) {
        for &(src, di) in pairs {
            lane_of.insert((src, g.destinations()[di as usize].lid.raw()), lane as u8);
        }
    }
    Ok(lane_of)
}

/// Wraps a lane map into the [`VlAssignment`] DFSSSP reports.
fn lanes_to_assignment(lane_of: FxHashMap<(u32, u16), u8>) -> VlAssignment {
    if lane_of.is_empty() {
        VlAssignment::SingleVl
    } else {
        VlAssignment::PerSourceDestination(
            lane_of
                .into_iter()
                .map(|(k, l)| (k, VirtualLane::new(l).expect("lane < 15")))
                .collect(),
        )
    }
}

/// Builds the CDG of one lane from per-path walks: for every destination
/// riding `lane` and every source switch, the consecutive channel
/// dependencies along the LFT walk are absorbed, witnessed by the
/// `(source switch, destination LID)` pair.
fn build_lane_cdg(
    g: &SwitchGraph,
    tables: &RoutingTables,
    lane_of: &FxHashMap<(u32, u16), u8>,
    lane: u8,
) -> IbResult<Cdg> {
    // Per-switch port -> neighbor-switch map.
    let port_to_switch: Vec<FxHashMap<u8, usize>> = (0..g.len())
        .map(|s| {
            g.neighbors(s)
                .iter()
                .map(|&(v, p)| (p.raw(), v as usize))
                .collect()
        })
        .collect();
    let mut cdg = Cdg::new();
    for dest in g.destinations() {
        // next[s] = (port, neighbor switch) for this LID, if it stays in
        // the switch fabric.
        let mut next: Vec<Option<(u8, usize)>> = vec![None; g.len()];
        for (s, n) in next.iter_mut().enumerate() {
            let Some(lft) = tables.lfts.get(&g.node_id(s)) else {
                continue;
            };
            if let Some(p) = lft.get(dest.lid) {
                if !p.is_management() {
                    if let Some(&v) = port_to_switch[s].get(&p.raw()) {
                        *n = Some((p.raw(), v));
                    }
                }
            }
        }
        for src in 0..g.len() {
            if src == dest.switch {
                continue;
            }
            let pair = (src as u32, dest.lid.raw());
            if lane_of.get(&pair).copied().unwrap_or(0) != lane {
                continue;
            }
            // Walk the path, absorbing consecutive dependencies. Witness
            // preference: switch-LID destinations. Host in-trees are
            // jointly acyclic wherever shortest paths are up*-down*
            // (fat trees), so cycles necessarily involve switch-LID
            // paths; lifting those first converges instead of dragging
            // thousands of innocent host paths up the lanes.
            let is_switch_lid = dest.port.is_management();
            let mut cur = src;
            let mut prev: Option<usize> = None;
            let mut hops = 0;
            while let Some((p, v)) = next[cur] {
                let ch = cdg.intern((cur as u32, p));
                if let Some(pr) = prev {
                    cdg.add_pair_edge(pr, ch, pair);
                    if is_switch_lid {
                        cdg.add_switch_witness(pr, ch, pair);
                    }
                }
                prev = Some(ch);
                cur = v;
                hops += 1;
                if cur == dest.switch {
                    break;
                }
                if hops > g.len() {
                    return Err(IbError::Topology(format!(
                        "routing loop for LID {}",
                        dest.lid
                    )));
                }
            }
        }
    }
    Ok(cdg)
}

/// Verifies that every VL layer of a DFSSSP result has an acyclic CDG by
/// re-deriving each lane's dependencies from the tables.
pub fn verify_layers_acyclic(subnet: &Subnet, tables: &RoutingTables) -> IbResult<()> {
    let g = SwitchGraph::build(subnet)?;
    match &tables.vls {
        VlAssignment::SingleVl => {
            let cdg = Cdg::from_tables(&g, tables, |_| true);
            if let Some(cycle) = cdg.find_cycle() {
                return Err(IbError::Topology(format!(
                    "single-VL CDG has a {}-channel cycle",
                    cycle.len()
                )));
            }
            Ok(())
        }
        VlAssignment::PerSourceDestination(map) => {
            let lane_of: FxHashMap<(u32, u16), u8> =
                map.iter().map(|(&k, &l)| (k, l.raw())).collect();
            let mut lanes: Vec<u8> = lane_of.values().copied().collect();
            lanes.push(0);
            lanes.sort_unstable();
            lanes.dedup();
            for lane in lanes {
                let cdg = build_lane_cdg(&g, tables, &lane_of, lane)?;
                if let Some(cycle) = cdg.find_cycle() {
                    return Err(IbError::Topology(format!(
                        "VL{lane} CDG has a {}-channel cycle",
                        cycle.len()
                    )));
                }
            }
            Ok(())
        }
        VlAssignment::PerDestination(map) => {
            let mut lanes: Vec<u8> = map.values().map(|l| l.raw()).collect();
            lanes.push(0);
            lanes.sort_unstable();
            lanes.dedup();
            for lane in lanes {
                let cdg = Cdg::from_tables(&g, tables, |d| {
                    map.get(&d.lid.raw()).map_or(0, |l| l.raw()) == lane
                });
                if let Some(cycle) = cdg.find_cycle() {
                    return Err(IbError::Topology(format!(
                        "VL{lane} CDG has a {}-channel cycle",
                        cycle.len()
                    )));
                }
            }
            Ok(())
        }
        VlAssignment::PerSwitchPair(_) => Err(IbError::Topology(
            "per-switch-pair assignments are verified by the LASH module".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::irregular::{irregular, IrregularSpec};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn fat_tree_keeps_host_traffic_on_vl0() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = Dfsssp::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        // Host destinations never leave VL0 on a fat tree; only the
        // switch-LID management paths ride the separated lane 1.
        match &tables.vls {
            VlAssignment::PerSourceDestination(map) => {
                // Switch LIDs are 1..=6 under assign_lids (6 switches).
                assert!(
                    map.keys().all(|&(_, lid)| lid <= 6),
                    "a host pair left VL0: {map:?}"
                );
                assert!(map.values().all(|l| l.raw() == 1));
            }
            other => panic!("unexpected assignment {other:?}"),
        }
        verify_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn torus_gets_layered_and_each_layer_acyclic() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = Dfsssp::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        match &tables.vls {
            VlAssignment::PerSourceDestination(map) => {
                assert!(map.values().any(|l| l.raw() > 0), "no lifting happened");
            }
            VlAssignment::SingleVl => {
                // Acceptable only if the single layer is truly acyclic.
            }
            other => panic!("unexpected VL assignment {other:?}"),
        }
        verify_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn irregular_layers_acyclic() {
        for seed in 0..3 {
            let mut t = irregular(IrregularSpec {
                num_switches: 9,
                num_hosts: 18,
                extra_links: 6,
                seed,
            });
            assign_lids(&mut t);
            let tables = Dfsssp::default().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            verify_layers_acyclic(&t.subnet, &tables).unwrap();
        }
    }

    #[test]
    fn exhausting_vls_is_an_error_not_a_panic() {
        // With a single VL, a torus cannot be made deadlock-free by
        // lifting; the engine must report failure.
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let engine = Dfsssp { max_vls: 1 };
        let err = engine.compute(&t.subnet);
        assert!(err.is_err());
    }

    #[test]
    fn emits_phase_spans() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let observer = Observer::metrics();
        Dfsssp::default()
            .compute_with(&t.subnet, RoutingOptions::default(), &observer)
            .unwrap();
        let snap = observer.snapshot().expect("metrics enabled");
        for span in ["routing.dfsssp.distances", "routing.dfsssp.vl_partition"] {
            assert!(
                snap.spans.iter().any(|s| s.name == span),
                "missing span {span}: {:?}",
                snap.spans
            );
        }
    }
}
