//! The hash-based verifier the flat kernel replaced, kept as its test
//! oracle: per-column next-hop resolution through `Subnet::neighbor` and a
//! `NodeId` map, and deadlock graphs built by [`Cdg::from_tables`] over a
//! [`SwitchGraph`] and a copy of every installed LFT.

use ib_routing::cdg::Cdg;
use ib_routing::{RoutingTables, SwitchGraph, VlAssignment};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::{FabricVerifier, InvariantClass, Violation};

/// Where one switch's LFT sends a packet for one destination.
enum NextHop {
    /// Arrives at the destination endpoint.
    Deliver,
    /// Forwards to another switch (by dense index).
    To(usize),
    /// Terminal failure, with the reason.
    Dead(String),
}

/// The black-hole, forwarding-loop and stale-route violations of every
/// registered LID, in the order the verifier reports them.
pub(crate) fn walk_violations(v: &FabricVerifier, subnet: &Subnet) -> Vec<Violation> {
    let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
    let index_of: FxHashMap<NodeId, usize> = switches
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let comp = switch_components(subnet, &switches, &index_of);
    let scope = v
        .viewpoint
        .and_then(|vp| component_of(subnet, vp, &index_of, &comp));
    let mut out = Vec::new();
    for lid in subnet.lids() {
        check_forwarding(v, subnet, &switches, &index_of, &comp, scope, lid, &mut out);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn check_forwarding(
    v: &FabricVerifier,
    subnet: &Subnet,
    switches: &[NodeId],
    index_of: &FxHashMap<NodeId, usize>,
    comp: &[u32],
    scope: Option<u32>,
    lid: Lid,
    out: &mut Vec<Violation>,
) {
    let Some(target) = subnet.endpoint_of(lid) else {
        return;
    };
    let dest_comp = component_of(subnet, target.node, index_of, comp);
    let next: Vec<NextHop> = switches
        .iter()
        .map(|&sw| next_hop(subnet, index_of, sw, lid, target.node))
        .collect();

    const UNKNOWN: u8 = 0;
    const ON_PATH: u8 = 1;
    const OK: u8 = 2;
    const BAD: u8 = 3;
    let mut outcome = vec![UNKNOWN; switches.len()];
    let mut reported: FxHashSet<usize> = FxHashSet::default();

    for start in 0..switches.len() {
        if scope.is_some_and(|sc| comp[start] != sc) {
            continue;
        }
        if dest_comp != Some(comp[start]) {
            if subnet
                .lft(switches[start])
                .and_then(|lft| lft.get(lid))
                .is_some_and(|p| !p.is_drop())
            {
                out.push(Violation {
                    class: InvariantClass::StaleRoute,
                    detail: format!(
                        "LID {lid} at {}: stale route toward an unreachable destination",
                        subnet.name_of(switches[start])
                    ),
                    lid: Some(lid),
                });
            }
            continue;
        }
        if outcome[start] != UNKNOWN {
            continue;
        }
        let mut path = vec![start];
        outcome[start] = ON_PATH;
        let verdict = loop {
            let cur = *path.last().unwrap();
            match &next[cur] {
                NextHop::Deliver => break OK,
                NextHop::Dead(reason) => {
                    if reported.insert(cur) {
                        out.push(Violation {
                            class: InvariantClass::BlackHole,
                            detail: format!(
                                "LID {lid} at {}: {reason}",
                                subnet.name_of(switches[cur])
                            ),
                            lid: Some(lid),
                        });
                    }
                    break BAD;
                }
                &NextHop::To(w) => match outcome[w] {
                    OK => break OK,
                    BAD => break BAD,
                    ON_PATH => {
                        let from = path.iter().position(|&s| s == w).unwrap();
                        if reported.insert(w) {
                            let names: Vec<&str> = path[from..]
                                .iter()
                                .map(|&s| subnet.name_of(switches[s]))
                                .collect();
                            out.push(Violation {
                                class: InvariantClass::ForwardingLoop,
                                detail: format!("LID {lid} loops through {}", names.join(" -> ")),
                                lid: Some(lid),
                            });
                        }
                        break BAD;
                    }
                    _ => {
                        if path.len() > v.max_hops {
                            if reported.insert(cur) {
                                out.push(Violation {
                                    class: InvariantClass::ForwardingLoop,
                                    detail: format!(
                                        "LID {lid}: walk from {} exceeded {} hops",
                                        subnet.name_of(switches[start]),
                                        v.max_hops
                                    ),
                                    lid: Some(lid),
                                });
                            }
                            break BAD;
                        }
                        outcome[w] = ON_PATH;
                        path.push(w);
                    }
                },
            }
        };
        for s in path {
            outcome[s] = verdict;
        }
    }
}

fn next_hop(
    subnet: &Subnet,
    index_of: &FxHashMap<NodeId, usize>,
    sw: NodeId,
    lid: Lid,
    target: NodeId,
) -> NextHop {
    if sw == target {
        return NextHop::Deliver;
    }
    let Some(lft) = subnet.lft(sw) else {
        return NextHop::Dead("no LFT installed".into());
    };
    let Some(port) = lft.get(lid) else {
        return NextHop::Dead("missing LFT row".into());
    };
    if port.is_drop() {
        return NextHop::Dead("row is an explicit drop".into());
    }
    if port.is_management() {
        return NextHop::Dead("row terminates at the wrong switch".into());
    }
    let Some(remote) = subnet.neighbor(sw, port) else {
        return NextHop::Dead(format!("row forwards into downed/uncabled port {port}"));
    };
    if remote.node == target {
        return NextHop::Deliver;
    }
    if subnet.node(remote.node).is_hca() {
        return NextHop::Dead(format!(
            "delivered to wrong endpoint {}",
            subnet.name_of(remote.node)
        ));
    }
    match index_of.get(&remote.node) {
        Some(&j) => NextHop::To(j),
        None => NextHop::Dead(format!(
            "forwards into non-switch {}",
            subnet.name_of(remote.node)
        )),
    }
}

/// The channel dependency graph of every lane the assignment can use,
/// ascending by lane, over the graph whose switch indices the channels use.
pub(crate) fn lane_cdgs(
    v: &FabricVerifier,
    subnet: &Subnet,
    vls: &VlAssignment,
) -> IbResult<(SwitchGraph, Vec<(u8, Cdg)>)> {
    let g = SwitchGraph::build(subnet)?;
    let tables = RoutingTables {
        lfts: subnet
            .switches()
            .filter_map(|n| subnet.lft(n.id).map(|lft| (n.id, lft.clone())))
            .collect(),
        vls: VlAssignment::SingleVl,
        engine: "installed",
        decisions: 0,
    };
    let lanes = match vls {
        VlAssignment::SingleVl => vec![(0, Cdg::from_tables(&g, &tables, |_| true))],
        VlAssignment::PerDestination(map) => {
            let mut lanes: Vec<u8> = map.values().map(|v| v.raw()).collect();
            lanes.push(0);
            lanes.sort_unstable();
            lanes.dedup();
            lanes
                .into_iter()
                .map(|lane| {
                    let cdg =
                        Cdg::from_tables(&g, &tables, |d| vls.lane_for(0, 0, d.lid).raw() == lane);
                    (lane, cdg)
                })
                .collect()
        }
        VlAssignment::PerSwitchPair(_) | VlAssignment::PerSourceDestination(_) => {
            per_path_cdgs(v, &g, &tables, vls)
        }
    };
    Ok((g, lanes))
}

fn per_path_cdgs(
    v: &FabricVerifier,
    g: &SwitchGraph,
    tables: &RoutingTables,
    vls: &VlAssignment,
) -> Vec<(u8, Cdg)> {
    let port_to_switch: Vec<FxHashMap<u8, usize>> = (0..g.len())
        .map(|s| {
            g.neighbors(s)
                .iter()
                .map(|&(v, p)| (p.raw(), v as usize))
                .collect()
        })
        .collect();
    let mut lanes: FxHashMap<u8, Cdg> = FxHashMap::default();
    for dest in g.destinations() {
        let mut next: Vec<Option<(u8, usize)>> = vec![None; g.len()];
        for (s, n) in next.iter_mut().enumerate() {
            let Some(lft) = tables.lfts.get(&g.node_id(s)) else {
                continue;
            };
            if let Some(p) = lft.get(dest.lid) {
                if !p.is_management() {
                    if let Some(&w) = port_to_switch[s].get(&p.raw()) {
                        *n = Some((p.raw(), w));
                    }
                }
            }
        }
        for s in 0..g.len() {
            if s == dest.switch {
                continue;
            }
            let lane = vls.lane_for(s as u32, dest.switch as u32, dest.lid).raw();
            let cdg = lanes.entry(lane).or_default();
            let mut cur = s;
            let mut prev: Option<usize> = None;
            for _ in 0..v.max_hops {
                let Some((p, w)) = next[cur] else { break };
                let ch = cdg.intern((cur as u32, p));
                if let Some(pc) = prev {
                    cdg.add_edge(pc, ch, dest.lid.raw());
                }
                prev = Some(ch);
                cur = w;
                if cur == dest.switch {
                    break;
                }
            }
        }
    }
    let mut ordered: Vec<(u8, Cdg)> = lanes.into_iter().collect();
    ordered.sort_unstable_by_key(|&(lane, _)| lane);
    ordered
}

fn switch_components(
    subnet: &Subnet,
    switches: &[NodeId],
    index_of: &FxHashMap<NodeId, usize>,
) -> Vec<u32> {
    let mut label = vec![u32::MAX; switches.len()];
    let mut queue: Vec<usize> = Vec::new();
    let mut count = 0u32;
    for root in 0..switches.len() {
        if label[root] != u32::MAX {
            continue;
        }
        label[root] = count;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for (_, remote) in subnet.node(switches[u]).connected_ports() {
                let Some(&w) = index_of.get(&remote.node) else {
                    continue;
                };
                if label[w] == u32::MAX {
                    label[w] = count;
                    queue.push(w);
                }
            }
        }
        count += 1;
    }
    label
}

fn component_of(
    subnet: &Subnet,
    node: NodeId,
    index_of: &FxHashMap<NodeId, usize>,
    comp: &[u32],
) -> Option<u32> {
    if !subnet.is_alive(node) {
        return None;
    }
    if let Some(&i) = index_of.get(&node) {
        return Some(comp[i]);
    }
    subnet
        .node(node)
        .connected_ports()
        .find_map(|(_, remote)| index_of.get(&remote.node).map(|&i| comp[i]))
}
