//! Seeded input generators. Every input a workload feeds the subnet manager
//! is drawn here, before timing starts, from the workload seed and the
//! pristine fabric's cable or VM list only. The SM sees the resulting
//! events and nothing else.

use ib_subnet::topology::BuiltTopology;
use ib_subnet::NodeId;
use ib_types::PortNum;

/// SplitMix64: a tiny, well-mixed 64-bit generator. Hand-rolled so the
/// inputs depend on nothing but the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One switch-to-switch cable of the pristine fabric, named by both ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cable {
    /// The end whose port reports the trap.
    pub a: NodeId,
    /// Port on `a`.
    pub port: PortNum,
    /// The far switch.
    pub b: NodeId,
    /// The lower of the two ends' switch levels: cables of one tier cost
    /// a repair about the same, cables of different tiers do not.
    pub tier: usize,
}

/// Every switch-to-switch cable of `t`, each listed once, in node and port
/// order. Host cables are left out: downing one strands its host.
#[must_use]
pub fn switch_cables(t: &BuiltTopology) -> Vec<Cable> {
    let mut level = vec![0; t.subnet.num_nodes()];
    for (l, switches) in t.switch_levels.iter().enumerate() {
        for sw in switches {
            level[sw.index()] = l;
        }
    }
    let subnet = &t.subnet;
    let mut out = Vec::new();
    for sw in subnet.physical_switches() {
        for (port, remote) in sw.connected_ports() {
            let far_is_switch = subnet.node(remote.node).is_physical_switch();
            if far_is_switch && sw.id.index() < remote.node.index() {
                out.push(Cable {
                    a: sw.id,
                    port,
                    b: remote.node,
                    tier: level[sw.id.index()].min(level[remote.node.index()]),
                });
            }
        }
    }
    out
}

/// One event of a link-churn walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// These cables go down together, then the SM answers the burst.
    Down(Vec<usize>),
    /// This cable comes back up, then the SM answers its trap.
    Up(usize),
}

/// A seeded link-churn walk of `passes` passes over `cables`. A pass runs
/// one failure burst of each size in `bursts`, in a seeded order; after a
/// burst, its cables come back up one at a time in a seeded order, so a
/// pass starts and ends with every cable up and at most the largest burst
/// is down at once. The cables of a pass are drawn from the tiers in
/// turn, so every pass fails the same number of cables of each tier. A
/// cable is only taken down when the switch graph (`num_nodes` node
/// slots) stays connected, which the generator asserts for every burst.
#[must_use]
pub fn churn_walk(
    seed: u64,
    cables: &[Cable],
    num_nodes: usize,
    bursts: &[usize],
    passes: usize,
) -> Vec<Vec<Event>> {
    let tiers = cables.iter().map(|c| c.tier).max().map_or(0, |t| t + 1);
    let by_tier: Vec<Vec<usize>> = (0..tiers)
        .map(|t| (0..cables.len()).filter(|&c| cables[c].tier == t).collect())
        .collect();
    let mut rng = Rng::new(seed);
    let mut walk = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pass = Vec::new();
        let mut sizes = bursts.to_vec();
        rng.shuffle(&mut sizes);
        let mut drawn = 0;
        for size in sizes {
            let mut burst = Vec::with_capacity(size);
            while burst.len() < size {
                let pool = &by_tier[drawn % tiers];
                let c = pool[rng.below(pool.len())];
                if burst.contains(&c) {
                    continue;
                }
                burst.push(c);
                if connected_without(cables, num_nodes, &burst) {
                    drawn += 1;
                } else {
                    burst.pop();
                }
            }
            assert!(
                connected_without(cables, num_nodes, &burst),
                "walk generator disconnected the fabric"
            );
            pass.push(Event::Down(burst.clone()));
            rng.shuffle(&mut burst);
            pass.extend(burst.into_iter().map(Event::Up));
        }
        walk.push(pass);
    }
    walk
}

/// Whether the switches touched by `cables` stay one connected component
/// with the cables at indices `removed` taken out (union-find).
fn connected_without(cables: &[Cable], num_nodes: usize, removed: &[usize]) -> bool {
    let mut parent: Vec<usize> = (0..num_nodes).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut touched = vec![false; num_nodes];
    for (i, c) in cables.iter().enumerate() {
        let (a, b) = (c.a.index(), c.b.index());
        touched[a] = true;
        touched[b] = true;
        if removed.contains(&i) {
            continue;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
    }
    let mut roots = (0..num_nodes)
        .filter(|&n| touched[n])
        .map(|n| find(&mut parent, n));
    let first = roots.next();
    roots.all(|r| Some(r) == first)
}

/// Seeded round-trip migrations: `trips` pairs of a VM (an index into the
/// VM list) and a destination hypervisor other than its own. Each trip is
/// run out and back, so every trip starts from the initial placement and
/// any destination has a free VF.
#[must_use]
pub fn round_trips(
    seed: u64,
    vm_hosts: &[usize],
    hypervisors: usize,
    trips: usize,
) -> Vec<(usize, usize)> {
    assert!(hypervisors >= 2, "a migration needs two hypervisors");
    let mut rng = Rng::new(seed);
    (0..trips)
        .map(|_| {
            let vm = rng.below(vm_hosts.len());
            let mut dest = rng.below(hypervisors - 1);
            if dest >= vm_hosts[vm] {
                dest += 1;
            }
            (vm, dest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::fattree;

    #[test]
    fn walk_passes_restore_every_cable_and_balance_the_tiers() {
        let t = fattree::paper_5832();
        let cables = switch_cables(&t);
        assert_eq!(cables.len(), 2 * 5832);
        let walk = churn_walk(7, &cables, t.subnet.num_nodes(), &[1, 2, 3], 4);
        for pass in &walk {
            let mut down = 0usize;
            let mut tiers = [0usize; 2];
            let mut sizes = Vec::new();
            for ev in pass {
                match ev {
                    Event::Down(b) => {
                        sizes.push(b.len());
                        down += b.len();
                        for &c in b {
                            tiers[cables[c].tier] += 1;
                        }
                    }
                    Event::Up(_) => down -= 1,
                }
                assert!(down <= 3);
            }
            assert_eq!(down, 0);
            sizes.sort_unstable();
            assert_eq!(sizes, [1, 2, 3]);
            assert_eq!(tiers, [3, 3]);
        }
        assert_eq!(
            walk,
            churn_walk(7, &cables, t.subnet.num_nodes(), &[1, 2, 3], 4)
        );
        assert_ne!(
            walk,
            churn_walk(8, &cables, t.subnet.num_nodes(), &[1, 2, 3], 4)
        );
    }

    #[test]
    fn round_trips_never_stay_put() {
        let hosts: Vec<usize> = (0..10).map(|i| i / 2).collect();
        for (vm, dest) in round_trips(3, &hosts, 5, 200) {
            assert_ne!(hosts[vm], dest);
            assert!(dest < 5);
        }
    }
}
