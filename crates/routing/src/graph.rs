//! The switch-level view of a subnet that routing engines compute over,
//! plus the flat-array compute substrate every engine's hot path runs on:
//! a CSR adjacency, a reusable zero-allocation BFS workspace
//! ([`BfsScratch`]), a row-major [`DistanceMatrix`], and a deterministic
//! scoped-thread fan-out (`parallel_for_each`).

use std::collections::VecDeque;

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum};
use rustc_hash::FxHashMap;

/// A routing destination: one LID, the switch it is reached through, and the
/// port on that switch that delivers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Destination {
    /// The destination LID.
    pub lid: Lid,
    /// The switch the LID terminates at or hangs off.
    pub switch: usize,
    /// Delivery port on that switch: `PortNum::MANAGEMENT` if the LID is the
    /// switch's own, otherwise the port cabled to the HCA.
    pub port: PortNum,
}

/// Dense adjacency view over the switches of a subnet, in CSR form.
///
/// Engines work in switch-index space (`0..num_switches`) for cache-friendly
/// BFS; [`SwitchGraph::node_id`] maps back to subnet handles. Both physical
/// switches and vSwitches participate: a vSwitch routes packets between its
/// VFs and its uplink like any other switch.
///
/// The adjacency is one flat edge array plus per-switch offsets — the whole
/// graph is two contiguous allocations, so an all-pairs BFS streams the edge
/// array instead of chasing one heap `Vec` per switch.
#[derive(Clone, Debug)]
pub struct SwitchGraph {
    switches: Vec<NodeId>,
    index_of: FxHashMap<NodeId, usize>,
    /// CSR edge array: `edges[offsets[s]..offsets[s + 1]]` holds the
    /// (neighbor switch index, output port on `s`) pairs of switch `s`.
    edges: Vec<(u32, PortNum)>,
    offsets: Vec<u32>,
    destinations: Vec<Destination>,
}

impl SwitchGraph {
    /// Extracts the switch graph and the destination list from a subnet.
    ///
    /// Fails if an HCA carries a LID but is not cabled to a switch, or if a
    /// registered LID has no endpoint behind it.
    pub fn build(subnet: &Subnet) -> IbResult<Self> {
        let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
        let index_of: FxHashMap<NodeId, usize> = switches
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();

        // Two passes build the CSR arrays without intermediate per-switch
        // vectors: count degrees, prefix-sum into offsets, then fill.
        let mut offsets = vec![0u32; switches.len() + 1];
        for (i, &sw) in switches.iter().enumerate() {
            let degree = subnet
                .node(sw)
                .connected_ports()
                .filter(|(_, remote)| index_of.contains_key(&remote.node))
                .count();
            offsets[i + 1] = offsets[i] + degree as u32;
        }
        let mut edges = vec![(0u32, PortNum::MANAGEMENT); offsets[switches.len()] as usize];
        for (i, &sw) in switches.iter().enumerate() {
            let mut at = offsets[i] as usize;
            for (port, remote) in subnet.node(sw).connected_ports() {
                if let Some(&j) = index_of.get(&remote.node) {
                    edges[at] = (j as u32, port);
                    at += 1;
                }
            }
        }

        let mut destinations = Vec::with_capacity(subnet.num_lids());
        for lid in subnet.lids() {
            destinations.push(resolve_destination(subnet, &index_of, lid)?);
        }

        Ok(Self {
            switches,
            index_of,
            edges,
            offsets,
            destinations,
        })
    }

    /// Number of switches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether there are no switches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Subnet handle of switch index `s`.
    #[must_use]
    pub fn node_id(&self, s: usize) -> NodeId {
        self.switches[s]
    }

    /// Switch index of a subnet node, if it is a switch.
    #[must_use]
    pub fn index(&self, id: NodeId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// Adjacency of switch `s`: (neighbor switch index, output port) pairs.
    #[must_use]
    pub fn neighbors(&self, s: usize) -> &[(u32, PortNum)] {
        &self.edges[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Highest port number used by any switch-switch link (sizes the flat
    /// per-port load and weight arrays engines keep).
    #[must_use]
    pub fn neighbors_max_port(&self) -> Option<PortNum> {
        self.edges.iter().map(|&(_, p)| p).max()
    }

    /// One past the highest destination LID (`0` when there are none):
    /// the row length of the flat per-switch LFT staging engines fill.
    #[must_use]
    pub fn lid_bound(&self) -> usize {
        self.destinations
            .iter()
            .map(|d| d.lid.raw() as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// All destinations (every registered LID).
    #[must_use]
    pub fn destinations(&self) -> &[Destination] {
        &self.destinations
    }

    /// BFS hop distances from switch `from` to every switch
    /// (`u32::MAX` = unreachable). Allocates; hot paths use [`BfsScratch`]
    /// or [`DistanceMatrix`] instead.
    #[must_use]
    pub fn bfs_distances(&self, from: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        BfsScratch::for_graph(self).fill_into(self, from, &mut dist);
        dist
    }

    /// Connected-component labeling of the switch graph: deterministic
    /// (components are numbered by their lowest switch index, in index
    /// order), computed with one BFS pass over the CSR arrays. Engines use
    /// this to route per component on a split fabric; the SM uses it to
    /// detect the split and count the unreachable side.
    #[must_use]
    pub fn components(&self) -> Components {
        let mut label = vec![u32::MAX; self.len()];
        let mut queue: Vec<u32> = Vec::with_capacity(self.len());
        let mut count = 0u32;
        for root in 0..self.len() {
            if label[root] != u32::MAX {
                continue;
            }
            label[root] = count;
            queue.clear();
            queue.push(root as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &(v, _) in self.neighbors(u) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = count;
                        queue.push(v);
                    }
                }
            }
            count += 1;
        }
        Components {
            label,
            count: count as usize,
        }
    }

    /// The bridge (cut) edges of the switch graph: unordered switch-index
    /// pairs `(a, b)` with `a < b`, sorted, whose removal would disconnect
    /// the component containing them. Parallel cables between the same two
    /// switches are never bridges — cutting one leaves the twin. Computed
    /// with an iterative Tarjan low-link pass, so deep fabrics cannot
    /// overflow the call stack.
    #[must_use]
    pub fn bridges(&self) -> Vec<(usize, usize)> {
        let n = self.len();
        // Collapse parallel cables: unique neighbor + multiplicity.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (u, row) in adj.iter_mut().enumerate() {
            let mut nbrs: Vec<u32> = self.neighbors(u).iter().map(|&(v, _)| v).collect();
            nbrs.sort_unstable();
            let mut i = 0;
            while i < nbrs.len() {
                let v = nbrs[i];
                let mut m = 0u32;
                while i < nbrs.len() && nbrs[i] == v {
                    m += 1;
                    i += 1;
                }
                row.push((v, m));
            }
        }
        let mut disc = vec![u32::MAX; n];
        let mut low = vec![u32::MAX; n];
        let mut timer = 0u32;
        let mut out = Vec::new();
        // One explicit DFS frame per switch: (node, parent, next edge).
        let mut stack: Vec<(u32, u32, usize)> = Vec::new();
        for root in 0..n {
            if disc[root] != u32::MAX {
                continue;
            }
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            stack.push((root as u32, u32::MAX, 0));
            while let Some(frame) = stack.last_mut() {
                let (u, parent) = (frame.0 as usize, frame.1);
                if frame.2 < adj[u].len() {
                    let (v, mult) = adj[u][frame.2];
                    frame.2 += 1;
                    let v = v as usize;
                    if disc[v] == u32::MAX {
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        stack.push((v as u32, u as u32, 0));
                    } else if v as u32 != parent || mult > 1 {
                        // Back edge — or a parallel cable to the parent,
                        // which counts as one (the tree edge used one of
                        // the cables; its twin is a genuine cycle).
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        let p = p as usize;
                        low[p] = low[p].min(low[u]);
                        if low[u] > disc[p] {
                            out.push((p.min(u), p.max(u)));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Rank of each switch as hop distance to the nearest endpoint-bearing
    /// (leaf) switch: leaves are rank 0, their neighbors rank 1, and so on.
    /// This is the rank structure fat-tree routing keys off.
    #[must_use]
    pub fn ranks(&self) -> Vec<u32> {
        let mut rank = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        for d in &self.destinations {
            if d.port != PortNum::MANAGEMENT && rank[d.switch] != 0 {
                rank[d.switch] = 0;
                queue.push_back(d.switch);
            }
        }
        // No endpoints at all: treat switch 0 as the single leaf.
        if queue.is_empty() && !self.is_empty() {
            rank[0] = 0;
            queue.push_back(0);
        }
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if rank[v as usize] == u32::MAX {
                    rank[v as usize] = rank[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
        rank
    }
}

/// Connected-component labels over a [`SwitchGraph`], as produced by
/// [`SwitchGraph::components`]. Labels are dense (`0..count`) and
/// deterministic: component `k` is the one whose lowest switch index is the
/// `k`-th lowest among component representatives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    label: Vec<u32>,
    count: usize,
}

impl Components {
    /// Number of connected components (`1` on a healthy fabric).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the graph is split into more than one component.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.count > 1
    }

    /// Component label of switch index `s`.
    #[must_use]
    pub fn label_of(&self, s: usize) -> u32 {
        self.label[s]
    }

    /// Whether switches `a` and `b` share a component.
    #[must_use]
    pub fn same(&self, a: usize, b: usize) -> bool {
        self.label[a] == self.label[b]
    }

    /// The full label array, indexed by switch index.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.label
    }
}

/// Resolves one LID to its delivery switch and port.
fn resolve_destination(
    subnet: &Subnet,
    index_of: &FxHashMap<NodeId, usize>,
    lid: Lid,
) -> IbResult<Destination> {
    let ep = subnet
        .endpoint_of(lid)
        .ok_or_else(|| IbError::Topology(format!("LID {lid} is registered but has no endpoint")))?;
    if let Some(&s) = index_of.get(&ep.node) {
        // The LID belongs to a switch itself.
        return Ok(Destination {
            lid,
            switch: s,
            port: PortNum::MANAGEMENT,
        });
    }
    // The LID belongs to an HCA port; find the switch it hangs off (the
    // far end of its cable).
    let hca = subnet.node(ep.node);
    // A down uplink counts as uncabled: the routing engine must not
    // compute paths that end on a dead link.
    let remote = hca
        .ports
        .get(ep.port.raw() as usize)
        .and_then(|p| if p.down { None } else { p.remote })
        .ok_or_else(|| {
            IbError::Topology(format!("{} carries LID {lid} but is not cabled", hca.name))
        })?;
    let &s = index_of.get(&remote.node).ok_or_else(|| {
        IbError::Topology(format!(
            "{} (LID {lid}) is cabled to a non-switch",
            hca.name
        ))
    })?;
    Ok(Destination {
        lid,
        switch: s,
        port: remote.port,
    })
}

/// Reusable BFS workspace: a distance buffer plus a flat FIFO queue (each
/// switch enters once, so a `Vec` with a head cursor is the ring). One
/// scratch serves every source a worker sweeps — per-source BFS allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl BfsScratch {
    /// A scratch sized for `g`.
    #[must_use]
    pub fn for_graph(g: &SwitchGraph) -> Self {
        Self {
            dist: vec![u32::MAX; g.len()],
            queue: Vec::with_capacity(g.len()),
        }
    }

    /// Hop distances from `from`, valid until the next call.
    pub fn distances(&mut self, g: &SwitchGraph, from: usize) -> &[u32] {
        let mut dist = std::mem::take(&mut self.dist);
        self.fill_into(g, from, &mut dist);
        self.dist = dist;
        &self.dist
    }

    /// Computes hop distances from `from` directly into `dist`
    /// (`u32::MAX` = unreachable), using only the scratch queue.
    pub fn fill_into(&mut self, g: &SwitchGraph, from: usize, dist: &mut [u32]) {
        dist.fill(u32::MAX);
        self.queue.clear();
        dist[from] = 0;
        self.queue.push(from as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let du = dist[u];
            for &(v, _) in g.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    self.queue.push(v);
                }
            }
        }
    }
}

/// A flat row-major distance matrix: row `i` holds the hop distances from
/// the `i`-th requested source to every switch. One contiguous allocation
/// replaces the `Vec<Vec<u32>>` the engines used to build per sweep.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    cols: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// All-pairs distances: row `s` = distances from switch `s`, fanned
    /// across up to `workers` scoped threads. Row contents depend only on
    /// the source, so the matrix is identical for every worker count.
    #[must_use]
    pub fn all_pairs(g: &SwitchGraph, workers: usize) -> Self {
        let sources: Vec<usize> = (0..g.len()).collect();
        Self::for_sources(g, &sources, workers)
    }

    /// Distances from an arbitrary source list: row `i` = distances from
    /// `sources[i]` (the per-delivery-switch form fat-tree and Up*/Down*
    /// sweeps use).
    #[must_use]
    pub fn for_sources(g: &SwitchGraph, sources: &[usize], workers: usize) -> Self {
        let cols = g.len();
        let mut data = vec![u32::MAX; sources.len() * cols];
        let mut rows: Vec<&mut [u32]> = data.chunks_mut(cols.max(1)).collect();
        parallel_for_each(
            &mut rows,
            workers,
            || BfsScratch::for_graph(g),
            |scratch, i, row| scratch.fill_into(g, sources[i], row),
        );
        Self { cols, data }
    }

    /// Number of rows (sources).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Row `i`: distances from the `i`-th source to every switch.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// Runs `f(state, index, item)` over every item, fanned across up to
/// `workers` scoped threads in contiguous chunks; `init` builds one
/// per-worker scratch state. `workers == 0` resolves to the machine's
/// available parallelism. Deterministic by construction: `f` sees only its
/// own item and index, never the partition, so outputs are identical for
/// every worker count.
pub(crate) fn parallel_for_each<T, S, I, F>(items: &mut [T], workers: usize, init: I, f: F)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let jobs = items.len();
    if jobs == 0 {
        return;
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        workers
    }
    .min(jobs)
    .max(1);
    if workers <= 1 {
        let mut state = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(&mut state, i, item);
        }
        return;
    }
    let chunk = jobs.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, block) in items.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                for (j, item) in block.iter_mut().enumerate() {
                    f(&mut state, ci * chunk + j, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::basic::linear;
    use ib_subnet::topology::fattree::two_level;

    fn lid(raw: u16) -> Lid {
        Lid::from_raw(raw)
    }

    fn managed_linear() -> (ib_subnet::topology::BuiltTopology, SwitchGraph) {
        let mut t = linear(3, 1);
        // Switch LIDs 1..=3, host LIDs 4..=6.
        for (i, &sw) in t.switch_levels[0].clone().iter().enumerate() {
            t.subnet.assign_switch_lid(sw, lid(i as u16 + 1)).unwrap();
        }
        for (i, &h) in t.hosts.clone().iter().enumerate() {
            t.subnet
                .assign_port_lid(h, PortNum::new(1), lid(i as u16 + 4))
                .unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        (t, g)
    }

    #[test]
    fn graph_shape() {
        let (t, g) = managed_linear();
        assert_eq!(g.len(), 3);
        assert_eq!(g.destinations().len(), 6);
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.index(t.switch_levels[0][2]), Some(2));
        assert_eq!(g.lid_bound(), 7);
    }

    #[test]
    fn destination_ports_resolved() {
        let (_, g) = managed_linear();
        // Switch LIDs terminate at port 0; host LIDs at the cable port.
        let d1 = g.destinations().iter().find(|d| d.lid == lid(1)).unwrap();
        assert_eq!(d1.port, PortNum::MANAGEMENT);
        let d4 = g.destinations().iter().find(|d| d.lid == lid(4)).unwrap();
        assert_eq!(d4.switch, 0);
        assert_eq!(d4.port, PortNum::new(3));
    }

    #[test]
    fn bfs_distances_linear() {
        let (_, g) = managed_linear();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_bfs() {
        let mut t = two_level(4, 3, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let mut scratch = BfsScratch::for_graph(&g);
        for s in 0..g.len() {
            assert_eq!(scratch.distances(&g, s), g.bfs_distances(s).as_slice());
        }
    }

    #[test]
    fn distance_matrix_rows_match_bfs_for_any_worker_count() {
        let mut t = two_level(4, 3, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        for workers in [1, 2, 0] {
            let m = DistanceMatrix::all_pairs(&g, workers);
            assert_eq!(m.rows(), g.len());
            for s in 0..g.len() {
                assert_eq!(m.row(s), g.bfs_distances(s).as_slice(), "row {s}");
            }
        }
        // Subset form: one row per requested source, in request order.
        let m = DistanceMatrix::for_sources(&g, &[3, 1], 2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), g.bfs_distances(3).as_slice());
        assert_eq!(m.row(1), g.bfs_distances(1).as_slice());
    }

    #[test]
    fn ranks_on_fat_tree() {
        let mut t = two_level(4, 2, 2);
        for (i, &h) in t.hosts.clone().iter().enumerate() {
            t.subnet
                .assign_port_lid(h, PortNum::new(1), lid(i as u16 + 1))
                .unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let ranks = g.ranks();
        for &leaf in &t.switch_levels[0] {
            assert_eq!(ranks[g.index(leaf).unwrap()], 0);
        }
        for &spine in &t.switch_levels[1] {
            assert_eq!(ranks[g.index(spine).unwrap()], 1);
        }
    }

    #[test]
    fn uncabled_lid_bearing_hca_rejected() {
        let mut s = Subnet::new();
        let _sw = s.add_switch("sw", 2);
        let h = s.add_hca("h");
        s.assign_port_lid(h, PortNum::new(1), lid(1)).unwrap();
        assert!(SwitchGraph::build(&s).is_err());
    }

    #[test]
    fn unregistered_lid_resolves_to_error_not_panic() {
        // The LID-to-endpoint lookup is an `IbError`, not an `expect`:
        // a registered-but-endpointless LID must degrade the result.
        let s = Subnet::new();
        let err = resolve_destination(&s, &FxHashMap::default(), lid(7)).unwrap_err();
        assert!(
            err.to_string().contains("no endpoint"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn components_on_connected_and_split_graphs() {
        let (mut t, g) = managed_linear();
        let c = g.components();
        assert_eq!(c.count(), 1);
        assert!(!c.is_partitioned());
        assert!(c.same(0, 2));

        // Cut the middle link: two components, labeled in index order.
        let s0 = t.switch_levels[0][0];
        let s1 = t.switch_levels[0][1];
        let (port, _) = t
            .subnet
            .node(s0)
            .connected_ports()
            .find(|(_, r)| r.node == s1)
            .unwrap();
        t.subnet.set_link_down(s0, port).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let c = g.components();
        assert_eq!(c.count(), 2);
        assert!(c.is_partitioned());
        assert_eq!(c.label_of(0), 0);
        assert_eq!(c.label_of(1), 1);
        assert_eq!(c.label_of(2), 1);
        assert!(!c.same(0, 1));
        assert!(c.same(1, 2));
    }

    #[test]
    fn bridges_on_a_linear_chain() {
        // Every link of a chain is a bridge.
        let (_, g) = managed_linear();
        assert_eq!(g.bridges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn fat_tree_with_redundant_spines_has_no_bridges() {
        let mut t = two_level(3, 2, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        assert!(g.bridges().is_empty());
    }

    #[test]
    fn losing_spine_redundancy_creates_bridges() {
        // Cut every leaf->spine1 uplink: the remaining leaf->spine0 links
        // are each the only path out of their leaf.
        let mut t = two_level(3, 2, 2);
        crate::testutil::assign_lids(&mut t);
        let spine1 = t.switch_levels[1][1];
        for &leaf in &t.switch_levels[0] {
            let (port, _) = t
                .subnet
                .node(leaf)
                .connected_ports()
                .find(|(_, r)| r.node == spine1)
                .unwrap();
            t.subnet.set_link_down(leaf, port).unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        assert_eq!(g.bridges().len(), 3, "each surviving uplink is a bridge");
        assert_eq!(g.components().count(), 2, "spine1 is its own component");
    }

    #[test]
    fn parallel_cables_are_never_bridges() {
        let mut s = Subnet::new();
        let a = s.add_switch("a", 4);
        let b = s.add_switch("b", 4);
        s.connect(a, PortNum::new(1), b, PortNum::new(1)).unwrap();
        s.connect(a, PortNum::new(2), b, PortNum::new(2)).unwrap();
        let g = SwitchGraph::build(&s).unwrap();
        assert!(g.bridges().is_empty());
        // Cut one of the twins: the survivor becomes a bridge.
        s.set_link_down(a, PortNum::new(1)).unwrap();
        let g = SwitchGraph::build(&s).unwrap();
        assert_eq!(g.bridges(), vec![(0, 1)]);
    }

    #[test]
    fn parallel_for_each_is_partition_independent() {
        let n = 23;
        let mut reference: Vec<u64> = vec![0; n];
        parallel_for_each(&mut reference, 1, || (), |(), i, out| *out = (i * i) as u64);
        for workers in [2, 4, 0] {
            let mut items: Vec<u64> = vec![0; n];
            parallel_for_each(
                &mut items,
                workers,
                || (),
                |(), i, out| {
                    *out = (i * i) as u64;
                },
            );
            assert_eq!(items, reference, "workers={workers}");
        }
    }
}
