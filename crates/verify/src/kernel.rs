//! The flat tables one verification pass runs on.
//!
//! [`Fabric`] resolves the subnet once per pass: a dense switch index per
//! node, and a *channel* per (switch, port) — `port_base[switch] + port` —
//! recording where that port's live cable leads. [`Block`] then reads the
//! installed LFTs one 64-LID block at a time, each switch's block once, and
//! resolves every entry to the switch it forwards to. The column walks and
//! the channel dependency graphs ([`LaneDeps`]) read those arrays, so the
//! per-(column, switch) work is indexing rather than neighbour lookups,
//! node-kind checks and hash probes.

#[cfg(test)]
use ib_routing::cdg::Channel;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum, LFT_BLOCK_SIZE};

/// "No switch" / "no channel" in the dense index tables; as a hop, a row
/// that leaves no live link.
pub(crate) const NONE: u32 = u32::MAX;

/// As a hop: a row toward an endpoint or a dead switch, which delivers
/// only if that node is the destination.
pub(crate) const ENDPOINT: u32 = u32::MAX - 1;

/// One lane's dependency edges as `((switch, port), (switch, port))`
/// channel pairs.
#[cfg(test)]
pub(crate) type LaneEdges = (u8, Vec<(Channel, Channel)>);

/// Where the cable at one (switch, port) leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Link {
    /// Uncabled, or the link is down.
    Down,
    /// A live switch, by dense index.
    Switch(u32),
    /// An HCA.
    Hca(NodeId),
    /// Any other node: a switch that is no longer alive.
    Other(NodeId),
}

/// The dense, per-pass view of a subnet's live switches and their ports.
pub(crate) struct Fabric<'a> {
    pub(crate) subnet: &'a Subnet,
    /// Live switches, in `Subnet::switches` order.
    pub(crate) switches: Vec<NodeId>,
    /// Switch index of every node (by arena index), [`NONE`] for the rest.
    switch_of: Vec<u32>,
    /// `port_base[s]` is switch `s`'s first channel; `port_base[n]` is the
    /// channel count.
    port_base: Vec<u32>,
    /// Where each channel's cable leads.
    links: Vec<Link>,
    /// Each channel's hop: the switch it leads to, [`ENDPOINT`] or
    /// [`NONE`].
    hops: Vec<u32>,
    /// Connected-component label of each switch over live switch links.
    pub(crate) comp: Vec<u32>,
}

impl<'a> Fabric<'a> {
    /// Resolves every live switch port of `subnet`.
    pub(crate) fn new(subnet: &'a Subnet) -> Self {
        let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
        let mut switch_of = vec![NONE; subnet.num_nodes()];
        for (i, &id) in switches.iter().enumerate() {
            switch_of[id.index()] = i as u32;
        }
        let mut port_base = Vec::with_capacity(switches.len() + 1);
        let mut links = Vec::new();
        for &sw in &switches {
            port_base.push(links.len() as u32);
            for (i, port) in subnet.node(sw).ports.iter().enumerate() {
                let remote = port.remote.filter(|_| i != 0 && !port.down);
                links.push(match remote {
                    None => Link::Down,
                    Some(r) if switch_of[r.node.index()] != NONE => {
                        Link::Switch(switch_of[r.node.index()])
                    }
                    Some(r) if subnet.node(r.node).is_hca() => Link::Hca(r.node),
                    Some(r) => Link::Other(r.node),
                });
            }
        }
        port_base.push(links.len() as u32);
        let hops = links
            .iter()
            .map(|link| match *link {
                Link::Switch(v) => v,
                Link::Hca(_) | Link::Other(_) => ENDPOINT,
                Link::Down => NONE,
            })
            .collect();
        let mut fabric = Self {
            subnet,
            switches,
            switch_of,
            port_base,
            links,
            hops,
            comp: Vec::new(),
        };
        fabric.comp = fabric.label_components();
        fabric
    }

    /// Number of live switches.
    pub(crate) fn len(&self) -> usize {
        self.switches.len()
    }

    /// Number of channels (every port of every live switch).
    pub(crate) fn num_channels(&self) -> usize {
        self.links.len()
    }

    /// The dense index of a live switch.
    pub(crate) fn switch_index(&self, node: NodeId) -> Option<usize> {
        match self.switch_of.get(node.index()) {
            Some(&s) if s != NONE => Some(s as usize),
            _ => None,
        }
    }

    /// Switch `s`'s first channel.
    pub(crate) fn port_base(&self, s: usize) -> u32 {
        self.port_base[s]
    }

    /// The most ports any live switch has (management port included).
    pub(crate) fn max_ports(&self) -> usize {
        self.port_base
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Where `port` of switch `s` leads; out-of-range ports are uncabled.
    pub(crate) fn link(&self, s: usize, port: PortNum) -> Link {
        let c = self.port_base[s] as usize + port.raw() as usize;
        if c < self.port_base[s + 1] as usize {
            self.links[c]
        } else {
            Link::Down
        }
    }

    /// The switch at the far end of channel `c`, which must lead to one.
    pub(crate) fn peer(&self, c: usize) -> usize {
        debug_assert!(self.hops[c] < ENDPOINT, "channel {c} leads to no switch");
        self.hops[c] as usize
    }

    /// The (switch, port) behind channel `c`.
    pub(crate) fn channel(&self, c: usize) -> (usize, u8) {
        let s = self.port_base.partition_point(|&b| b as usize <= c) - 1;
        (s, (c - self.port_base[s] as usize) as u8)
    }

    /// Labels the live switch components: BFS over live switch links, in
    /// switch order (deterministic labels).
    fn label_components(&self) -> Vec<u32> {
        let n = self.len();
        let mut label = vec![NONE; n];
        let mut queue: Vec<usize> = Vec::with_capacity(n);
        let mut count = 0u32;
        for root in 0..n {
            if label[root] != NONE {
                continue;
            }
            label[root] = count;
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let ports = self.port_base[u] as usize..self.port_base[u + 1] as usize;
                for &v in &self.hops[ports] {
                    if v < ENDPOINT && label[v as usize] == NONE {
                        label[v as usize] = count;
                        queue.push(v as usize);
                    }
                }
            }
            count += 1;
        }
        label
    }

    /// The component a node's traffic is delivered in: a switch's own
    /// label, or — for an HCA — the label of its live attached switch.
    /// `None` when the node is dead or has no live switch uplink
    /// (unreachable from everywhere).
    pub(crate) fn component_of(&self, node: NodeId) -> Option<u32> {
        if !self.subnet.is_alive(node) {
            return None;
        }
        if let Some(s) = self.switch_index(node) {
            return Some(self.comp[s]);
        }
        self.subnet
            .node(node)
            .connected_ports()
            .find_map(|(_, remote)| self.switch_index(remote.node).map(|s| self.comp[s]))
    }

    /// The switch a LID is delivered at: its own switch, or the switch its
    /// HCA port is cabled to. Fails exactly where routing engines refuse
    /// the subnet (`SwitchGraph::build`): a registered LID with no
    /// endpoint, or an HCA port that is down, uncabled or cabled to a
    /// non-switch.
    pub(crate) fn delivery_switch(&self, lid: Lid) -> IbResult<u32> {
        let subnet = self.subnet;
        let ep = subnet.endpoint_of(lid).ok_or_else(|| {
            IbError::Topology(format!("LID {lid} is registered but has no endpoint"))
        })?;
        if let Some(s) = self.switch_index(ep.node) {
            return Ok(s as u32);
        }
        let hca = subnet.node(ep.node);
        let remote = hca
            .ports
            .get(ep.port.raw() as usize)
            .and_then(|p| if p.down { None } else { p.remote })
            .ok_or_else(|| {
                IbError::Topology(format!("{} carries LID {lid} but is not cabled", hca.name))
            })?;
        self.switch_index(remote.node)
            .map(|s| s as u32)
            .ok_or_else(|| {
                IbError::Topology(format!(
                    "{} (LID {lid}) is cabled to a non-switch",
                    hca.name
                ))
            })
    }
}

/// One 64-LID LFT block of every live switch, stored column by column:
/// entry `k * n + s` is switch `s`'s row for the block's `k`-th LID.
pub(crate) struct Block {
    n: usize,
    /// The installed rows.
    ports: Vec<Option<PortNum>>,
    /// Each row's hop: the live switch it forwards to, [`ENDPOINT`], or
    /// [`NONE`] when it leaves on no live link — missing, the drop port,
    /// the management port, or a downed or uncabled port.
    hops: Vec<u32>,
}

impl Block {
    /// Scratch for a fabric's blocks.
    pub(crate) fn new(fabric: &Fabric<'_>) -> Self {
        let n = fabric.len();
        Self {
            n,
            ports: vec![None; n * LFT_BLOCK_SIZE],
            hops: vec![NONE; n * LFT_BLOCK_SIZE],
        }
    }

    /// Reads LFT block `block` of every switch.
    pub(crate) fn load(&mut self, fabric: &Fabric<'_>, block: usize) {
        let n = self.n;
        for (s, &sw) in fabric.switches.iter().enumerate() {
            let entries = fabric.subnet.lft(sw).and_then(|lft| lft.block(block));
            let hops = &fabric.hops[fabric.port_base[s] as usize..fabric.port_base[s + 1] as usize];
            for k in 0..LFT_BLOCK_SIZE {
                let port = entries.and_then(|e| e[k]);
                self.ports[k * n + s] = port;
                self.hops[k * n + s] = match port {
                    Some(p) if !p.is_drop() => hops.get(p.raw() as usize).copied().unwrap_or(NONE),
                    _ => NONE,
                };
            }
        }
    }

    /// Every switch's row for the block's `k`-th LID.
    pub(crate) fn column(&self, k: usize) -> Rows<'_> {
        let at = k * self.n..(k + 1) * self.n;
        Rows {
            ports: &self.ports[at.clone()],
            hops: &self.hops[at],
        }
    }
}

/// Every switch's row for one LID, as loaded by [`Block`].
#[derive(Clone, Copy)]
pub(crate) struct Rows<'b> {
    /// The installed rows.
    pub(crate) ports: &'b [Option<PortNum>],
    /// Their hops (see [`Block`]).
    pub(crate) hops: &'b [u32],
}

impl Rows<'_> {
    /// The channel switch `s`'s row leaves on.
    pub(crate) fn channel(&self, fabric: &Fabric<'_>, s: usize) -> u32 {
        fabric.port_base(s) + self.port(s)
    }

    /// Switch `s`'s out-port (0 when it has no row).
    pub(crate) fn port(&self, s: usize) -> u32 {
        self.ports[s].map_or(0, |p| u32::from(p.raw()))
    }
}

/// The channel dependency graphs of several virtual lanes, on dense
/// channel ids. A dependency `(s, p) → (v, p2)` always lands on a port of
/// `v`, the switch behind `(s, p)`, so each channel keeps one bitmask over
/// `v`'s ports per lane: setting a bit is the whole edge insertion, and
/// duplicates cost nothing.
pub(crate) struct LaneDeps {
    /// Raw lane number of each slot, ascending.
    lanes: Vec<u8>,
    /// Slot of each raw lane number.
    slot_of: [u8; 256],
    /// Mask words per channel.
    words: usize,
    /// `masks[slot][c * words + w]`: word `w` of channel `c`'s out-port
    /// mask on that lane.
    masks: Vec<Vec<u64>>,
}

impl LaneDeps {
    /// Empty graphs for `lanes` (deduplicated and sorted here).
    pub(crate) fn new(fabric: &Fabric<'_>, mut lanes: Vec<u8>) -> Self {
        lanes.sort_unstable();
        lanes.dedup();
        let mut slot_of = [0u8; 256];
        for (i, &lane) in lanes.iter().enumerate() {
            slot_of[lane as usize] = i as u8;
        }
        let words = fabric.max_ports().div_ceil(64).max(1);
        let masks = vec![vec![0u64; fabric.num_channels() * words]; lanes.len()];
        Self {
            lanes,
            slot_of,
            words,
            masks,
        }
    }

    /// The slot of a raw lane, which must be one of the graph's lanes.
    pub(crate) fn slot(&self, lane: u8) -> usize {
        self.slot_of[lane as usize] as usize
    }

    /// Records the dependency `from → to` on lane slot `slot`, where `to`
    /// is channel `port` of the switch `from` leads to.
    pub(crate) fn add(&mut self, slot: usize, from: u32, port: u32) {
        let word = from as usize * self.words + port as usize / 64;
        self.masks[slot][word] |= 1u64 << (port % 64);
    }

    /// Records every dependency one column's rows induce on lane slot
    /// `slot`: a packet holding `(s, p)` toward switch `v` requests `v`'s
    /// own out-channel for the column.
    pub(crate) fn add_column(&mut self, fabric: &Fabric<'_>, slot: usize, rows: Rows<'_>) {
        for (s, &v) in rows.hops.iter().enumerate() {
            if v < ENDPOINT && rows.hops[v as usize] < ENDPOINT {
                self.add(slot, rows.channel(fabric, s), rows.port(v as usize));
            }
        }
    }

    /// Every lane's edges as `((switch, port), (switch, port))` channel
    /// pairs, ascending by lane.
    #[cfg(test)]
    pub(crate) fn edges(&self, fabric: &Fabric<'_>) -> Vec<LaneEdges> {
        let pair = |c: usize| {
            let (s, p) = fabric.channel(c);
            (s as u32, p)
        };
        self.lanes
            .iter()
            .zip(&self.masks)
            .map(|(&lane, mask)| {
                let mut edges = Vec::new();
                for (i, &bits) in mask.iter().enumerate() {
                    let c = i / self.words;
                    let mut bits = bits;
                    while bits != 0 {
                        let port = (i % self.words) * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let next = fabric.port_base(fabric.peer(c)) as usize + port;
                        edges.push((pair(c), pair(next)));
                    }
                }
                (lane, edges)
            })
            .collect()
    }

    /// One dependency cycle per cyclic lane, ascending by lane: the cycle
    /// as a channel sequence where each channel depends on the next and
    /// the last on the first.
    pub(crate) fn cycles(&self, fabric: &Fabric<'_>) -> Vec<(u8, Vec<usize>)> {
        self.lanes
            .iter()
            .zip(&self.masks)
            .filter_map(|(&lane, mask)| self.find_cycle(fabric, mask).map(|c| (lane, c)))
            .collect()
    }

    /// Iterative depth-first search for a cycle in one lane's graph.
    fn find_cycle(&self, fabric: &Fabric<'_>, mask: &[u64]) -> Option<Vec<usize>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let words = self.words;
        let channels = fabric.num_channels();
        let mut color = vec![WHITE; channels];
        let mut parent = vec![NONE; channels];
        // (channel, mask word, bits of that word not yet followed)
        let mut stack: Vec<(usize, usize, u64)> = Vec::new();
        for start in 0..channels {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, 0, mask[start * words]));
            while let Some(top) = stack.last_mut() {
                let (c, word, bits) = *top;
                if bits == 0 {
                    if word + 1 < words {
                        *top = (c, word + 1, mask[c * words + word + 1]);
                    } else {
                        color[c] = BLACK;
                        stack.pop();
                    }
                    continue;
                }
                top.2 = bits & (bits - 1);
                let port = word * 64 + bits.trailing_zeros() as usize;
                let v = fabric.peer(c);
                let next = fabric.port_base(v) as usize + port;
                match color[next] {
                    WHITE => {
                        color[next] = GRAY;
                        parent[next] = c as u32;
                        stack.push((next, 0, mask[next * words]));
                    }
                    GRAY => {
                        // Back edge c -> next closes next ..-> c -> next.
                        let mut cycle = vec![c];
                        let mut cur = c;
                        while cur != next {
                            cur = parent[cur] as usize;
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        None
    }
}
