//! The topology-agnostic dynamic reconfiguration method (§V-C, Algorithm 1).
//!
//! Both variants share the same structure:
//!
//! * **(a)** one SMP to each participating hypervisor to set/unset the LID
//!   on the VF (plus one to install the vGUID at the destination), and
//! * **(b)** at most one or two `SubnSet(LinearForwardingTable)` SMPs per
//!   physical switch that actually needs its LFT changed:
//!   * *LID swapping* (prepopulated LIDs, §V-C1): exchange the rows of the
//!     VM's LID and the destination VF's LID — one SMP if the two LIDs
//!     share a 64-entry block, two otherwise (`m' ∈ {1, 2}`);
//!   * *LID copying* (dynamic assignment, §V-C2): overwrite the VM LID's
//!     row with the destination PF's row — always one SMP (`m' = 1`).
//!
//! No path is ever recomputed: `PCt` is eliminated outright, which is the
//! entire point of the paper.
//!
//! Step (b) runs as a transaction over an [`SmpTransport`]: rows are
//! journaled and applied switch by switch, every SMP is retried, and the
//! first persistent delivery failure rolls the whole pass back. A caller
//! with no fault model passes [`SmpTransport::perfect`].

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{Smp, SmpLedger};
use ib_sm::distribution::{hops_of, routing_for};
use ib_sm::SmpMode;
use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum};

use crate::vm::VmId;

/// Tunables of one reconfiguration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationOptions {
    /// How the LFT-update SMPs are addressed. §VI-B: switch LIDs are
    /// untouched by a VM migration, so destination routing is safe and
    /// removes the per-SMP directed-route overhead `r` (equation 5).
    pub smp_mode: SmpMode,
    /// §VI-C's partially-static variant: first forward the migrating LID
    /// to port 255 (drop) on every switch about to be updated — one extra
    /// SMP per such switch — so in-flight traffic towards the mover is
    /// discarded instead of risking a transition deadlock.
    pub invalidate_first: bool,
    /// §VI-D: when source and destination hypervisors share a leaf switch,
    /// update only that leaf (a leaf is non-blocking, so the rest of the
    /// fabric keeps routing both LIDs toward it correctly).
    pub intra_leaf_shortcut: bool,
}

impl Default for MigrationOptions {
    fn default() -> Self {
        Self {
            smp_mode: SmpMode::Destination,
            invalidate_first: false,
            intra_leaf_shortcut: false,
        }
    }
}

/// SMP accounting of one LFT-update pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LftUpdateStats {
    /// `SubnSet(LinearForwardingTable)` SMPs for the update itself.
    pub lft_smps: usize,
    /// Extra SMPs spent on port-255 invalidation, if enabled.
    pub invalidation_smps: usize,
    /// Switches that actually changed — the paper's `n'`.
    pub switches_updated: usize,
    /// Largest per-switch block count — the paper's `m'` (1 or 2).
    pub max_blocks_per_switch: usize,
}

/// Transactional accounting of one LFT-update pass or migration.
///
/// The attempts-versus-retries convention, pinned by regression tests and
/// reconciled against the [`SmpLedger`]'s per-attempt records: for every
/// *delivered* SMP, `attempts` counts all of its sends (first try
/// included) and `retries` counts `attempts − 1` — the sends beyond the
/// first. A fault-free pass therefore reports `retries == 0` and
/// `attempts` equal to its delivered-SMP count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Whether every LFT SMP was (eventually) delivered. `false` means the
    /// pass was rolled back and the installed LFTs match the pre-pass
    /// state.
    pub committed: bool,
    /// Retry attempts beyond each first try, summed over the delivered
    /// SMPs. Zero for a fault-free run.
    pub retries: usize,
    /// Total send attempts (first tries included) of the delivered SMPs.
    /// Always `retries` plus the number of delivered SMPs.
    pub attempts: usize,
    /// Switches whose rows were restored during rollback.
    pub rolled_back_switches: usize,
    /// Compensating SMPs attempted (best effort) during rollback.
    pub rollback_smps: usize,
}

impl TxStats {
    /// Absorbs the 0-based successful-attempt number the transport returned
    /// for one delivered SMP: `attempt` prior sends failed, so `attempt`
    /// retries and `attempt + 1` total attempts.
    pub(crate) fn count_delivery(&mut self, attempt: u32) {
        self.retries += attempt as usize;
        self.attempts += attempt as usize + 1;
    }
}

/// Everything one live migration did, committed or rolled back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// Whether the migration committed. `false` means every touched LFT
    /// row was rolled back and the VM still runs at the source.
    pub committed: bool,
    /// The migrated VM.
    pub vm: VmId,
    /// Source hypervisor index.
    pub from_hypervisor: usize,
    /// Destination hypervisor index.
    pub to_hypervisor: usize,
    /// The VM's LID. A migration never changes it: under both vSwitch
    /// architectures the LID moves with the VM, under the Shared Port
    /// baseline the two hypervisors trade PF LIDs so the value survives,
    /// and a rollback leaves it where it was.
    pub lid: Lid,
    /// Step (a) SMPs delivered to hypervisors: set/unset LID on the
    /// participating hypervisors plus the vGUID install.
    pub hypervisor_smps: usize,
    /// Step (b) accounting for whatever was applied before commit or
    /// rollback.
    pub lft: LftUpdateStats,
    /// Transactional accounting (retries, rollback cost).
    pub tx: TxStats,
    /// Whether source and destination share a leaf switch.
    pub intra_leaf: bool,
    /// Whether the intra-leaf shortcut actually restricted the update.
    pub used_leaf_shortcut: bool,
}

impl MigrationReport {
    /// Total SMPs the migration delivered.
    #[must_use]
    pub fn total_smps(&self) -> usize {
        self.hypervisor_smps + self.lft.lft_smps + self.lft.invalidation_smps
    }
}

/// The switches Algorithm 1 iterates for one update pass: every physical
/// switch, or an explicit restriction (the §VI-D leaf-only case).
fn targets(subnet: &Subnet, restrict: Option<&[NodeId]>) -> Vec<NodeId> {
    match restrict {
        Some(r) => r.to_vec(),
        None => {
            let mut v: Vec<NodeId> = subnet.physical_switches().map(|n| n.id).collect();
            v.sort_unstable_by_key(|n| n.index());
            v
        }
    }
}

/// The installed LFT of `sw`, or an error naming the switch.
fn lft_of(subnet: &Subnet, sw: NodeId) -> IbResult<&Lft> {
    subnet
        .lft(sw)
        .ok_or_else(|| IbError::Management(format!("{} has no LFT", subnet.name_of(sw))))
}

/// Sets (`Some`) or clears (`None`) one LFT row.
fn write_row(lft: &mut Lft, lid: Lid, port: Option<PortNum>) {
    match port {
        Some(p) => lft.set(lid, p),
        None => lft.clear(lid),
    }
}

/// §V-C1 step (b): swap the LFT rows of `a` and `b` on every switch whose
/// rows differ. Exactly the paper's cost: `m' = 1` SMP per switch when the
/// LIDs share an LFT block, `m' = 2` otherwise, and `n'` = the number of
/// switches whose two rows are not already equal. With
/// [`MigrationOptions::invalidate_first`], `a`'s row first goes to the drop
/// port on each such switch, one SMP more.
///
/// Runs as a transaction over `transport`: on the first persistent
/// delivery failure every already-applied row is rolled back (locally
/// unconditionally, remotely via best-effort compensating SMPs) and the
/// pass reports `committed = false` instead of leaving the fabric
/// half-swapped.
#[allow(clippy::too_many_arguments)]
pub fn swap_on_fabric<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    a: Lid,
    b: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, TxStats)> {
    if a == b {
        return Err(IbError::Virtualization(
            "cannot swap a LID with itself".into(),
        ));
    }
    let pass = RowUpdate {
        sm_node,
        opts,
        restrict,
    };
    pass.run(subnet, transport, ledger, |subnet, sw| {
        let lft = lft_of(subnet, sw)?;
        let (pa, pb) = (lft.get(a), lft.get(b));
        // §VI-B: where the initial routing already forwards both LIDs the
        // same way there is nothing to update.
        Ok((pa != pb).then(|| vec![(a, pb), (b, pa)]))
    })
}

/// §V-C2 step (b): make `vm_lid`'s row a copy of `pf_lid`'s row on every
/// switch where they differ. One SMP per updated switch, always — plus the
/// drop-port SMP under [`MigrationOptions::invalidate_first`]. The same
/// transaction discipline as [`swap_on_fabric`].
#[allow(clippy::too_many_arguments)]
pub fn copy_on_fabric<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    pf_lid: Lid,
    vm_lid: Lid,
    opts: &MigrationOptions,
    restrict: Option<&[NodeId]>,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<(LftUpdateStats, TxStats)> {
    if pf_lid == vm_lid {
        return Err(IbError::Virtualization(
            "VM LID cannot equal the PF LID it copies".into(),
        ));
    }
    let pass = RowUpdate {
        sm_node,
        opts,
        restrict,
    };
    pass.run(subnet, transport, ledger, |subnet, sw| {
        let lft = lft_of(subnet, sw)?;
        let target = lft.get(pf_lid).ok_or_else(|| {
            IbError::Management(format!(
                "{} has no row for PF LID {pf_lid}",
                subnet.name_of(sw)
            ))
        })?;
        Ok((lft.get(vm_lid) != Some(target)).then(|| vec![(vm_lid, Some(target))]))
    })
}

/// One journaled LFT row: enough to undo a swap/copy on one switch.
#[derive(Clone, Copy, Debug)]
struct JournalRow {
    sw: NodeId,
    lid: Lid,
    old: Option<PortNum>,
}

/// Rows one switch must rewrite, the moving LID's row first.
type Rows = Vec<(Lid, Option<PortNum>)>;

/// The transactional pass behind [`swap_on_fabric`] and [`copy_on_fabric`].
struct RowUpdate<'a> {
    sm_node: NodeId,
    opts: &'a MigrationOptions,
    restrict: Option<&'a [NodeId]>,
}

impl RowUpdate<'_> {
    /// Walks the target switches; `plan` names the rows a switch needs
    /// (`None`: already right). Per switch: journal the old rows, optionally
    /// send the first row to the drop port, write the rows and send their
    /// blocks. A delivery failure or an unroutable switch rolls the pass
    /// back and returns `committed = false`; a structural error from `plan`
    /// rolls it back and is returned.
    fn run<C: SmpChannel>(
        &self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
        ledger: &mut SmpLedger,
        plan: impl Fn(&Subnet, NodeId) -> IbResult<Option<Rows>>,
    ) -> IbResult<(LftUpdateStats, TxStats)> {
        let mut stats = LftUpdateStats::default();
        let mut tx = TxStats {
            committed: true,
            ..TxStats::default()
        };
        let mut journal: Vec<JournalRow> = Vec::new();
        for sw in targets(subnet, self.restrict) {
            let rows = match plan(subnet, sw) {
                Ok(Some(rows)) => rows,
                Ok(None) => continue,
                Err(e) => {
                    self.rollback(subnet, &journal, transport, ledger, &mut tx);
                    return Err(e);
                }
            };
            // An unroutable switch (e.g. cut off by a mid-migration link
            // failure) is a delivery failure, not a programming error.
            let Ok(routing) = routing_for(subnet, self.sm_node, sw, self.opts.smp_mode) else {
                self.rollback(subnet, &journal, transport, ledger, &mut tx);
                return Ok((stats, tx));
            };
            let hops = hops_of(subnet, self.sm_node, sw, &routing).unwrap_or(0);
            let installed = lft_of(subnet, sw)?;
            journal.extend(rows.iter().map(|&(lid, _)| JournalRow {
                sw,
                lid,
                old: installed.get(lid),
            }));
            let mut blocks: Vec<usize> = rows.iter().map(|(lid, _)| lid.lft_block()).collect();
            blocks.dedup();
            // §VI-C: the drop-port write goes out before the real one.
            let invalidation = self
                .opts
                .invalidate_first
                .then(|| vec![(rows[0].0, Some(PortNum::DROP))]);
            for (writes, invalidating) in invalidation
                .into_iter()
                .map(|w| (w, true))
                .chain(std::iter::once((rows, false)))
            {
                let Some(lft) = subnet.lft_mut(sw) else {
                    // The switch degraded between the read and the write:
                    // treat it as a delivery failure.
                    self.rollback(subnet, &journal, transport, ledger, &mut tx);
                    return Ok((stats, tx));
                };
                for &(lid, port) in &writes {
                    write_row(lft, lid, port);
                }
                let sends = if invalidating {
                    &blocks[..1]
                } else {
                    &blocks[..]
                };
                for &block in sends {
                    match send_block_smp(subnet, sw, block, &routing, hops, transport, ledger) {
                        Ok(attempt) => tx.count_delivery(attempt),
                        Err(IbError::Transport(_)) => {
                            self.rollback(subnet, &journal, transport, ledger, &mut tx);
                            return Ok((stats, tx));
                        }
                        Err(e) => return Err(e),
                    }
                    if invalidating {
                        stats.invalidation_smps += 1;
                    } else {
                        stats.lft_smps += 1;
                    }
                }
            }
            stats.switches_updated += 1;
            stats.max_blocks_per_switch = stats.max_blocks_per_switch.max(blocks.len());
        }
        Ok((stats, tx))
    }

    /// Restores every journaled row (newest first) and pushes best-effort
    /// compensating SMPs for the touched blocks.
    ///
    /// The local restore is unconditional: the installed LFT models the
    /// state the SM *intends*, and a compensating SMP that is itself lost
    /// leaves a divergent physical switch that the next trap-driven
    /// re-sweep repairs — exactly OpenSM's safety net, so the simulation
    /// does not block rollback on it.
    fn rollback<C: SmpChannel>(
        &self,
        subnet: &mut Subnet,
        journal: &[JournalRow],
        transport: &mut SmpTransport<C>,
        ledger: &mut SmpLedger,
        tx: &mut TxStats,
    ) {
        tx.committed = false;
        let mut switches: Vec<NodeId> = Vec::new();
        let mut blocks: Vec<(NodeId, usize)> = Vec::new();
        for row in journal.iter().rev() {
            if let Some(lft) = subnet.lft_mut(row.sw) {
                write_row(lft, row.lid, row.old);
            }
            if !switches.contains(&row.sw) {
                switches.push(row.sw);
            }
            let key = (row.sw, row.lid.lft_block());
            if !blocks.contains(&key) {
                blocks.push(key);
            }
        }
        tx.rolled_back_switches = switches.len();
        for (sw, block) in blocks {
            let Ok(routing) = routing_for(subnet, self.sm_node, sw, self.opts.smp_mode) else {
                continue; // unreachable switch: the re-sweep will repair it
            };
            let hops = hops_of(subnet, self.sm_node, sw, &routing).unwrap_or(0);
            tx.rollback_smps += 1;
            let _ = send_block_smp(subnet, sw, block, &routing, hops, transport, ledger);
        }
    }
}

/// Builds the `SubnSet(LinearForwardingTable)` SMP for `block` from the
/// currently-installed LFT and pushes it through the retrying transport.
fn send_block_smp<C: SmpChannel>(
    subnet: &Subnet,
    sw: NodeId,
    block: usize,
    routing: &ib_mad::SmpRouting,
    hops: usize,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<u32> {
    let empty = vec![None; ib_types::LFT_BLOCK_SIZE];
    let payload = subnet
        .lft(sw)
        .and_then(|l| l.block(block))
        .map_or(empty, <[_]>::to_vec);
    let smp = Smp::set_lft_block(sw, routing.clone(), block, &payload);
    transport.send(subnet, &smp, hops, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mad::LossyChannel;
    use ib_sm::{SmConfig, SubnetManager};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::BuiltTopology;

    /// Bring up a 2-level fat tree with the default SM.
    fn fabric() -> (BuiltTopology, SubnetManager) {
        let mut t = two_level(2, 3, 2);
        let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
        sm.bring_up(&mut t.subnet).unwrap();
        (t, sm)
    }

    fn host_lid(t: &BuiltTopology, i: usize) -> Lid {
        t.subnet.node(t.hosts[i]).ports[1].lid.unwrap()
    }

    fn lfts(t: &BuiltTopology) -> Vec<(NodeId, Lft)> {
        t.subnet
            .physical_switches()
            .map(|n| (n.id, n.lft().unwrap().clone()))
            .collect()
    }

    /// A swap over a perfect transport, asserting it committed.
    fn swap(
        t: &mut BuiltTopology,
        sm: &mut SubnetManager,
        a: Lid,
        b: Lid,
        opts: &MigrationOptions,
        restrict: Option<&[NodeId]>,
    ) -> LftUpdateStats {
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let (stats, tx) = swap_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            a,
            b,
            opts,
            restrict,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(tx.committed);
        assert_eq!(tx.retries, 0);
        stats
    }

    /// A copy over `transport`.
    fn copy<C: SmpChannel>(
        t: &mut BuiltTopology,
        sm: &mut SubnetManager,
        pf: Lid,
        vm: Lid,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<(LftUpdateStats, TxStats)> {
        copy_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            pf,
            vm,
            &MigrationOptions::default(),
            None,
            transport,
            &mut sm.ledger,
        )
    }

    #[test]
    fn swap_costs_one_smp_per_switch_same_block() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1); // on leaf 0
        let b = host_lid(&t, 4); // on leaf 1
        let stats = swap(&mut t, &mut sm, a, b, &MigrationOptions::default(), None);
        // All LIDs < 64: every updated switch takes exactly one SMP.
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert!(stats.switches_updated >= 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        assert_eq!(stats.invalidation_smps, 0);
    }

    #[test]
    fn swap_across_blocks_costs_two() {
        let (mut t, mut sm) = fabric();
        // Re-home host 5 onto LID 70 (block 1) to force the 2-SMP case.
        let h5 = t.hosts[5];
        let old = host_lid(&t, 5);
        t.subnet.clear_lid(old).unwrap();
        t.subnet
            .assign_port_lid(h5, PortNum::new(1), Lid::from_raw(70))
            .unwrap();
        sm.full_reconfiguration(&mut t.subnet).unwrap();

        let a = host_lid(&t, 1);
        let b = Lid::from_raw(70);
        let stats = swap(&mut t, &mut sm, a, b, &MigrationOptions::default(), None);
        assert_eq!(stats.max_blocks_per_switch, 2);
        assert_eq!(stats.lft_smps, stats.switches_updated * 2);
    }

    #[test]
    fn swap_skips_switches_already_aligned() {
        let (mut t, mut sm) = fabric();
        // Hosts 1 and 2 share leaf 0: from leaf 1's perspective both are
        // reached over (possibly) the same uplink; from leaf 0 they differ.
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 2);
        let total_switches = t.subnet.num_physical_switches();
        let stats = swap(&mut t, &mut sm, a, b, &MigrationOptions::default(), None);
        assert!(
            stats.switches_updated < total_switches,
            "n' must be < n when some switches already route both LIDs alike"
        );
        // Their shared leaf must be among the updated (different ports).
        assert!(stats.switches_updated >= 1);
    }

    #[test]
    fn swap_is_involution_on_the_fabric() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let snapshot = lfts(&t);
        let opts = MigrationOptions::default();
        swap(&mut t, &mut sm, a, b, &opts, None);
        swap(&mut t, &mut sm, a, b, &opts, None);
        assert_eq!(lfts(&t), snapshot);
    }

    #[test]
    fn copy_costs_at_most_one_smp_per_switch() {
        let (mut t, mut sm) = fabric();
        // Copy host 4's path onto a fresh VM LID.
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let (stats, tx) = copy(&mut t, &mut sm, pf, vm_lid, &mut transport).unwrap();
        assert!(tx.committed);
        assert_eq!(stats.max_blocks_per_switch, 1);
        assert_eq!(stats.lft_smps, stats.switches_updated);
        // Every physical switch now forwards the VM LID like the PF LID.
        for sw in t.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(vm_lid), lft.get(pf));
        }
    }

    #[test]
    fn copy_is_idempotent() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        let mut transport = SmpTransport::perfect(sm.sm_node);
        copy(&mut t, &mut sm, pf, vm_lid, &mut transport).unwrap();
        let (again, _) = copy(&mut t, &mut sm, pf, vm_lid, &mut transport).unwrap();
        assert_eq!(again.lft_smps, 0);
        assert_eq!(again.switches_updated, 0);
    }

    #[test]
    fn invalidate_first_adds_n_prime_smps() {
        let (mut plain, mut sm_plain) = fabric();
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let expected = swap(
            &mut plain,
            &mut sm_plain,
            a,
            b,
            &MigrationOptions::default(),
            None,
        );
        let before = sm.ledger.total();
        let opts = MigrationOptions {
            invalidate_first: true,
            ..MigrationOptions::default()
        };
        let stats = swap(&mut t, &mut sm, a, b, &opts, None);
        assert!(stats.switches_updated > 0);
        assert_eq!(stats.invalidation_smps, stats.switches_updated);
        assert_eq!(
            stats,
            LftUpdateStats {
                invalidation_smps: expected.switches_updated,
                ..expected
            }
        );
        // Every SMP went through the ledger, and the drop-port detour
        // leaves the same tables as the direct swap.
        assert_eq!(
            sm.ledger.total() - before,
            stats.lft_smps + stats.invalidation_smps
        );
        assert_eq!(lfts(&t), lfts(&plain));
    }

    #[test]
    fn invalidate_first_rolls_back_the_dropped_row() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let snapshot = lfts(&t);
        let opts = MigrationOptions {
            invalidate_first: true,
            ..MigrationOptions::default()
        };
        let mut transport = SmpTransport::with_channel(sm.sm_node, LossyChannel::black_hole());
        let (stats, tx) = swap_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            a,
            b,
            &opts,
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(!tx.committed);
        assert_eq!(stats.invalidation_smps, 0);
        // The row already sent to port 255 is restored with the rest.
        assert_eq!(lfts(&t), snapshot);
    }

    #[test]
    fn restriction_limits_the_update() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 2); // same leaf
        let leaf0 = t.switch_levels[0][0];
        let stats = swap(
            &mut t,
            &mut sm,
            a,
            b,
            &MigrationOptions::default(),
            Some(&[leaf0]),
        );
        assert!(stats.switches_updated <= 1);
        // The LFT swap moves the LIDs between the two hosts; move the
        // endpoint registrations accordingly (the caller's step (a)).
        t.subnet.clear_lid(a).unwrap();
        t.subnet.clear_lid(b).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[2], PortNum::new(1), a)
            .unwrap();
        t.subnet
            .assign_port_lid(t.hosts[1], PortNum::new(1), b)
            .unwrap();
        // Traffic to both LIDs still delivers from everywhere.
        for &h in &t.hosts {
            for lid in [a, b] {
                let path = t.subnet.trace_route(h, lid, 16).unwrap();
                let end = *path.last().unwrap();
                let ep = t.subnet.endpoint_of(lid).unwrap();
                assert_eq!(end, ep.node);
            }
        }
    }

    #[test]
    fn self_swap_and_self_copy_rejected() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let opts = MigrationOptions::default();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        assert!(swap_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            a,
            a,
            &opts,
            None,
            &mut transport,
            &mut sm.ledger
        )
        .is_err());
        assert!(copy(&mut t, &mut sm, a, a, &mut transport).is_err());
    }

    /// The ledger and the moved rows of a perfect-transport swap, pinned to
    /// the values the record-only swap logged on this fabric before it was
    /// folded into the transactional pass.
    #[test]
    fn perfect_swap_matches_recorded_classic_swap() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        assert_eq!((a.raw(), b.raw()), (6, 9));
        let before = lfts(&t);
        let first = sm.ledger.total();
        let stats = swap(&mut t, &mut sm, a, b, &MigrationOptions::default(), None);
        assert_eq!(
            stats,
            LftUpdateStats {
                lft_smps: 4,
                invalidation_smps: 0,
                switches_updated: 4,
                max_blocks_per_switch: 1,
            }
        );
        // One destination-routed, first-try, delivered LFT `Set` per
        // switch, in switch order, at the recorded hop counts.
        let records: Vec<(usize, usize)> = sm.ledger.records()[first..]
            .iter()
            .map(|r| {
                assert_eq!(r.attribute, ib_mad::AttributeKind::LftBlock);
                assert!(!r.directed);
                assert_eq!(r.attempt, 0);
                assert_eq!(r.status, ib_mad::SmpStatus::Delivered);
                (r.target.index(), r.hops)
            })
            .collect();
        assert_eq!(records, [(0, 1), (1, 3), (2, 2), (3, 2)]);
        // The two swapped columns, per switch 0..4; every other row as
        // before.
        let column = |lid: Lid| -> Vec<Option<u8>> {
            lfts(&t)
                .iter()
                .map(|(_, lft)| lft.get(lid).map(PortNum::raw))
                .collect()
        };
        assert_eq!(column(a), [Some(5), Some(2), Some(2), Some(2)]);
        assert_eq!(column(b), [Some(2), Some(5), Some(1), Some(1)]);
        for ((_, now), (_, was)) in lfts(&t).iter_mut().zip(before) {
            now.swap(a, b);
            assert_eq!(now, &was);
        }
    }

    #[test]
    fn swap_rolls_back_on_black_hole() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let snapshot = lfts(&t);
        let mut transport = SmpTransport::with_channel(sm.sm_node, LossyChannel::black_hole());
        let (_, tx) = swap_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            a,
            b,
            &MigrationOptions::default(),
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(!tx.committed);
        // The very first switch fails, so exactly its rows were journaled.
        assert_eq!(tx.rolled_back_switches, 1);
        assert!(tx.rollback_smps >= 1);
        assert_eq!(lfts(&t), snapshot, "rows must be restored");
        assert!(sm.ledger.dropped() > 0);
    }

    #[test]
    fn copy_rolls_back_on_black_hole() {
        let (mut t, mut sm) = fabric();
        let pf = host_lid(&t, 4);
        let vm_lid = Lid::from_raw(40);
        let snapshot = lfts(&t);
        let mut transport = SmpTransport::with_channel(sm.sm_node, LossyChannel::black_hole());
        let (_, tx) = copy(&mut t, &mut sm, pf, vm_lid, &mut transport).unwrap();
        assert!(!tx.committed);
        assert_eq!(lfts(&t), snapshot);
    }

    #[test]
    fn swap_survives_moderate_loss() {
        let (mut t, mut sm) = fabric();
        let (mut base, mut sm_base) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        let opts = MigrationOptions::default();
        swap(&mut base, &mut sm_base, a, b, &opts, None);
        let mut transport = SmpTransport::lossy(sm.sm_node, 7, 0.10, 0);
        transport.retry.max_attempts = 8;
        let (_, tx) = swap_on_fabric(
            &mut t.subnet,
            sm.sm_node,
            a,
            b,
            &opts,
            None,
            &mut transport,
            &mut sm.ledger,
        )
        .unwrap();
        assert!(tx.committed, "8 attempts at 10% per-hop loss must converge");
        assert_eq!(
            lfts(&t),
            lfts(&base),
            "lossy commit must equal the fault-free result"
        );
    }

    #[test]
    fn destination_mode_smps_avoid_directed_overhead() {
        let (mut t, mut sm) = fabric();
        let a = host_lid(&t, 1);
        let b = host_lid(&t, 4);
        sm.ledger.reset();
        let opts = MigrationOptions {
            smp_mode: SmpMode::Destination,
            ..MigrationOptions::default()
        };
        swap(&mut t, &mut sm, a, b, &opts, None);
        assert!(sm.ledger.records().iter().all(|r| !r.directed));

        let opts = MigrationOptions {
            smp_mode: SmpMode::Directed,
            ..MigrationOptions::default()
        };
        sm.ledger.reset();
        swap(&mut t, &mut sm, b, a, &opts, None);
        assert!(sm.ledger.records().iter().all(|r| r.directed));
    }
}
