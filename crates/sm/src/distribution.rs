//! LFT distribution: pushing computed tables to switches, block by block.
//!
//! Per switch, the dirty 64-entry blocks between the installed LFT and the
//! target LFT each cost one `SubnSet(LinearForwardingTable)` SMP. On a
//! virgin fabric *every* covered block is dirty, giving the
//! `n · m` SMP total of the paper's equation 2 and Table I's "Min SMPs Full
//! RC" column.
//!
//! Distribution runs in two phases. **Planning** is read-only over the
//! subnet: per switch, compute SMP addressing and diff the installed LFT
//! against a borrowed padded view of the target ([`ib_subnet::PaddedLftView`]),
//! materializing one payload per dirty block. Planning fans out across
//! scoped worker threads when [`SweepOptions::workers`] asks for it and the
//! per-chunk results are merged back in ascending switch order.
//! **Applying** is serial and deterministic: the merged plans emit the SMP
//! stream (ledger records, transport sends, installed-LFT writes) in
//! exactly the order the sequential implementation used, so ledgers and
//! installed tables are byte-identical for any worker count.

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_mad::{DirectedRoute, Smp, SmpAttribute, SmpLedger, SmpMethod, SmpRouting};
use ib_observe::Observer;
use ib_routing::RoutingTables;
use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum, LFT_BLOCK_SIZE};
use rustc_hash::FxHashMap;

use crate::report::DistributionReport;
use crate::sm::{SmpMode, SweepOptions};

/// A dirty LFT block whose `Set` SMP could not be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedBlock {
    /// The switch the block was destined for.
    pub switch: NodeId,
    /// The 64-entry block index.
    pub block: usize,
}

/// One switch's fully computed update: SMP addressing plus every dirty
/// block's payload. Produced read-only, applied serially.
struct SwitchPlan {
    switch: NodeId,
    routing: SmpRouting,
    hops: usize,
    blocks: Vec<(usize, [Option<PortNum>; LFT_BLOCK_SIZE])>,
}

/// What planning decided for one switch.
enum PlanOutcome {
    /// Nothing dirty (or nothing dirty within the restrict set).
    Clean,
    /// Dirty blocks with a live route to the switch.
    Update(SwitchPlan),
    /// Dirty blocks, but no SMP addressing reaches the switch right now;
    /// they all fail without consuming transport attempts.
    Unreachable {
        /// The unreachable switch.
        switch: NodeId,
        /// Its dirty block indices.
        blocks: Vec<usize>,
    },
}

/// Plans one switch: diff, filter by `restrict`, resolve addressing.
///
/// Returns `Err` only for a structural problem (the node is not a switch);
/// unreachable switches come back as [`PlanOutcome::Unreachable`].
fn plan_switch(
    subnet: &Subnet,
    sm_node: NodeId,
    sw: NodeId,
    target: &Lft,
    topmost: Option<Lid>,
    mode: SmpMode,
    restrict: Option<&[FailedBlock]>,
) -> IbResult<PlanOutcome> {
    let current = subnet
        .lft(sw)
        .ok_or_else(|| IbError::Management(format!("{} is not a switch", subnet.name_of(sw))))?;
    let view = target.padded_view(topmost);
    let mut dirty = view.dirty_blocks_against(current);
    if let Some(only) = restrict {
        dirty.retain(|&block| only.contains(&FailedBlock { switch: sw, block }));
    }
    if dirty.is_empty() {
        return Ok(PlanOutcome::Clean);
    }
    let Ok(routing) = routing_for(subnet, sm_node, sw, mode) else {
        return Ok(PlanOutcome::Unreachable {
            switch: sw,
            blocks: dirty,
        });
    };
    let Ok(hops) = hops_of(subnet, sm_node, sw, &routing) else {
        return Ok(PlanOutcome::Unreachable {
            switch: sw,
            blocks: dirty,
        });
    };
    let blocks = dirty
        .into_iter()
        .map(|block| {
            let mut payload = [None; LFT_BLOCK_SIZE];
            view.copy_block_into(block, &mut payload);
            (block, payload)
        })
        .collect();
    Ok(PlanOutcome::Update(SwitchPlan {
        switch: sw,
        routing,
        hops,
        blocks,
    }))
}

/// Plans every switch of `tables`, in ascending switch order, fanning the
/// work across `opts` worker threads. The returned vector is ordered and
/// complete regardless of the worker count.
fn plan_all(
    subnet: &Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    restrict: Option<&[FailedBlock]>,
    opts: SweepOptions,
    observer: &Observer,
) -> IbResult<Vec<PlanOutcome>> {
    let _span = observer.span("sweep.plan");
    let mut targets: Vec<(&NodeId, &Lft)> = tables.lfts.iter().collect();
    targets.sort_unstable_by_key(|(id, _)| id.index());

    // OpenSM populates every LFT entry up to the topmost assigned LID
    // (unreachable ones to the drop port) and pushes all covered blocks —
    // the `m` of equation 2 is set by the topmost LID, not by how many
    // entries actually route anywhere.
    let topmost = subnet.topmost_lid();

    let workers = opts.effective_workers(targets.len());
    if observer.is_enabled() {
        observer.add("planner.jobs", targets.len() as u64);
        observer.record("planner.workers", workers as u64);
    }
    if workers <= 1 {
        return targets
            .iter()
            .map(|&(&sw, target)| plan_switch(subnet, sm_node, sw, target, topmost, mode, restrict))
            .collect();
    }

    // Contiguous chunks keep the merge a plain concatenation: chunk `i`
    // holds the plans for the `i`-th slice of the sorted switch list.
    let chunk_len = targets.len().div_ceil(workers);
    let chunks: Vec<&[(&NodeId, &Lft)]> = targets.chunks(chunk_len).collect();
    let per_chunk: Vec<IbResult<Vec<PlanOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let worker_obs = observer.clone();
                scope.spawn(move || {
                    let started_ns = worker_obs.now_ns();
                    let plans: IbResult<Vec<PlanOutcome>> = chunk
                        .iter()
                        .map(|&(&sw, target)| {
                            plan_switch(subnet, sm_node, sw, target, topmost, mode, restrict)
                        })
                        .collect();
                    if worker_obs.is_enabled() {
                        worker_obs.record("planner.chunk_switches", chunk.len() as u64);
                        worker_obs.record(
                            "planner.worker_busy_ns",
                            worker_obs.now_ns().saturating_sub(started_ns),
                        );
                    }
                    plans
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(plans) => plans,
                // A worker panic is a bug in the planner itself, not a
                // degraded-fabric condition; surface it on this thread.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut plans = Vec::with_capacity(targets.len());
    for chunk in per_chunk {
        plans.extend(chunk?);
    }
    Ok(plans)
}

/// A reusable `SubnSet(LinearForwardingTable)` SMP: the routing is cloned
/// once per switch and the payload buffer is recycled across blocks, so the
/// per-block inner loop allocates nothing new.
fn lft_smp_for(plan: &SwitchPlan) -> Smp {
    Smp {
        method: SmpMethod::Set,
        attribute: SmpAttribute::LftBlock {
            block: 0,
            payload: vec![None; LFT_BLOCK_SIZE],
        },
        routing: plan.routing.clone(),
        target: plan.switch,
    }
}

/// Points the reusable SMP at one dirty block.
fn retarget_lft_smp(smp: &mut Smp, block: usize, data: &[Option<PortNum>; LFT_BLOCK_SIZE]) {
    match &mut smp.attribute {
        SmpAttribute::LftBlock {
            block: b, payload, ..
        } => {
            *b = block;
            payload.copy_from_slice(data);
        }
        _ => unreachable!("reusable distribution SMP is always an LFT block"),
    }
}

/// Distributes `tables` into the subnet, sending one SMP per dirty block
/// per switch, and applying each block to the switch's installed LFT.
pub fn distribute(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    ledger: &mut SmpLedger,
) -> IbResult<DistributionReport> {
    distribute_opts(
        subnet,
        sm_node,
        tables,
        mode,
        ledger,
        SweepOptions::default(),
    )
}

/// [`distribute`] with explicit [`SweepOptions`]: planning fans out across
/// worker threads, the SMP stream stays byte-identical to the sequential
/// path.
pub fn distribute_opts(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    ledger: &mut SmpLedger,
    opts: SweepOptions,
) -> IbResult<DistributionReport> {
    ledger.begin_phase("lft-distribution");
    let observer = ledger.observer().clone();
    let plans = plan_all(subnet, sm_node, tables, mode, None, opts, &observer)?;
    let _apply_span = observer.span("sweep.apply");
    let mut report = DistributionReport::default();
    for outcome in plans {
        let plan = match outcome {
            PlanOutcome::Clean => continue,
            PlanOutcome::Unreachable { switch, .. } => {
                // The classic path has no resume story: an unaddressable
                // switch is an error, exactly as before the plan/apply split.
                let routing = routing_for(subnet, sm_node, switch, mode)?;
                hops_of(subnet, sm_node, switch, &routing)?;
                return Err(IbError::Topology(format!(
                    "{} unreachable from SM",
                    subnet.name_of(switch)
                )));
            }
            PlanOutcome::Update(plan) => plan,
        };
        let mut smp = lft_smp_for(&plan);
        for (block, payload) in &plan.blocks {
            retarget_lft_smp(&mut smp, *block, payload);
            ledger.record(&smp, plan.hops);
            // Apply the block to the installed LFT (the "switch firmware"
            // side of the Set).
            lft_mut_checked(subnet, plan.switch)?.write_block(*block, payload);
        }
        if observer.is_enabled() {
            observer.add("sweep.dirty_blocks", plan.blocks.len() as u64);
            observer.incr("sweep.switches_updated");
        }
        report.lft_smps += plan.blocks.len();
        report.switches_updated += 1;
        report.max_blocks_per_switch = report.max_blocks_per_switch.max(plan.blocks.len());
    }
    Ok(report)
}

/// The installed LFT of a planned switch. Planning only emits updates for
/// nodes that had an LFT, so a miss here means the fabric degraded between
/// plan and apply — an error, not a panic.
fn lft_mut_checked(subnet: &mut Subnet, switch: NodeId) -> IbResult<&mut Lft> {
    let name = subnet.name_of(switch).to_string();
    subnet.lft_mut(switch).ok_or(IbError::Management(format!(
        "{name} lost its LFT mid-sweep"
    )))
}

/// Like [`distribute`], but every `Set` goes through a fault-aware
/// [`SmpTransport`]. Blocks whose SMP exhausts its retries are *not*
/// applied to the installed LFT; they are returned as [`FailedBlock`]s so
/// the caller can resume with [`retry_failed_blocks`] instead of resending
/// everything. A switch that is currently unreachable (no directed route,
/// no LID route) fails all of its dirty blocks without consuming attempts.
pub fn distribute_with<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
) -> IbResult<(DistributionReport, Vec<FailedBlock>)> {
    distribute_with_opts(
        subnet,
        sm_node,
        tables,
        mode,
        transport,
        ledger,
        SweepOptions::default(),
    )
}

/// [`distribute_with`] with explicit [`SweepOptions`].
pub fn distribute_with_opts<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
    opts: SweepOptions,
) -> IbResult<(DistributionReport, Vec<FailedBlock>)> {
    ledger.begin_phase("lft-distribution");
    let (acct, failed) = push_blocks(subnet, sm_node, tables, mode, transport, ledger, None, opts)?;
    Ok((acct.report(), failed))
}

/// Resumes an interrupted distribution: only the listed failed blocks are
/// re-derived from `tables` and resent. Blocks that became clean in the
/// meantime (installed LFT already matches the target) cost nothing. The
/// returned report counts exactly the blocks this call applied, so summing
/// it into the original report via [`ResumeAccounting`] reproduces the
/// fault-free totals once everything has landed.
pub fn retry_failed_blocks<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
    failed: &[FailedBlock],
) -> IbResult<(DistributionReport, Vec<FailedBlock>)> {
    ledger.begin_phase("lft-distribution-retry");
    let (acct, still_failed) = push_blocks(
        subnet,
        sm_node,
        tables,
        mode,
        transport,
        ledger,
        Some(failed),
        SweepOptions::default(),
    )?;
    Ok((acct.report(), still_failed))
}

/// Exact cross-pass accounting for a resumable distribution.
///
/// Per-call [`DistributionReport`]s cannot be summed field-wise: a switch
/// that needed a retry pass would be counted in `switches_updated` once per
/// pass, and `max_blocks_per_switch` would see only each pass's fragment.
/// This accumulator tracks applied blocks *per switch* across the initial
/// [`distribute_with`] and every [`retry_failed_blocks`] pass, so the final
/// report is identical to what a fault-free run would have produced once
/// every block has landed.
#[derive(Clone, Debug, Default)]
pub struct ResumeAccounting {
    applied: FxHashMap<NodeId, usize>,
}

impl ResumeAccounting {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the blocks applied to `switch` in one pass.
    pub fn add_applied(&mut self, switch: NodeId, blocks: usize) {
        if blocks > 0 {
            *self.applied.entry(switch).or_insert(0) += blocks;
        }
    }

    /// Absorbs another pass's accounting wholesale.
    pub fn merge(&mut self, pass: ResumeAccounting) {
        for (switch, blocks) in pass.applied {
            self.add_applied(switch, blocks);
        }
    }

    /// The exact aggregate over everything absorbed so far.
    #[must_use]
    pub fn report(&self) -> DistributionReport {
        DistributionReport {
            lft_smps: self.applied.values().sum(),
            switches_updated: self.applied.len(),
            max_blocks_per_switch: self.applied.values().copied().max().unwrap_or(0),
        }
    }
}

/// Shared engine behind [`distribute_with`] and [`retry_failed_blocks`]:
/// plans (possibly in parallel), then applies serially through the
/// transport. Returns per-switch accounting for this call only — blocks
/// actually attempted and applied here, never blocks from earlier passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_blocks<C: SmpChannel>(
    subnet: &mut Subnet,
    sm_node: NodeId,
    tables: &RoutingTables,
    mode: SmpMode,
    transport: &mut SmpTransport<C>,
    ledger: &mut SmpLedger,
    restrict: Option<&[FailedBlock]>,
    opts: SweepOptions,
) -> IbResult<(ResumeAccounting, Vec<FailedBlock>)> {
    let observer = ledger.observer().clone();
    let plans = plan_all(subnet, sm_node, tables, mode, restrict, opts, &observer)?;
    let _apply_span = observer.span("sweep.apply");
    let mut acct = ResumeAccounting::new();
    let mut failed = Vec::new();

    for outcome in plans {
        let plan = match outcome {
            PlanOutcome::Clean => continue,
            PlanOutcome::Unreachable { switch, blocks } => {
                if observer.is_enabled() {
                    observer.add("sweep.unreachable_blocks", blocks.len() as u64);
                }
                failed.extend(
                    blocks
                        .into_iter()
                        .map(|block| FailedBlock { switch, block }),
                );
                continue;
            }
            PlanOutcome::Update(plan) => plan,
        };
        let mut smp = lft_smp_for(&plan);
        let mut sent = 0;
        if observer.is_enabled() {
            observer.add("sweep.dirty_blocks", plan.blocks.len() as u64);
        }
        for (block, payload) in &plan.blocks {
            retarget_lft_smp(&mut smp, *block, payload);
            match transport.send(subnet, &smp, plan.hops, ledger) {
                Ok(_) => {
                    lft_mut_checked(subnet, plan.switch)?.write_block(*block, payload);
                    sent += 1;
                }
                Err(IbError::Transport(_)) => {
                    failed.push(FailedBlock {
                        switch: plan.switch,
                        block: *block,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        if sent > 0 && observer.is_enabled() {
            observer.incr("sweep.switches_updated");
        }
        acct.add_applied(plan.switch, sent);
    }
    Ok((acct, failed))
}

/// Chooses SMP addressing for a switch under the given mode.
pub fn routing_for(
    subnet: &Subnet,
    sm_node: NodeId,
    switch: NodeId,
    mode: SmpMode,
) -> IbResult<SmpRouting> {
    match mode {
        SmpMode::Directed => {
            let route = DirectedRoute::compute(subnet, sm_node, switch).ok_or_else(|| {
                IbError::Topology(format!("{} unreachable from SM", subnet.name_of(switch)))
            })?;
            Ok(SmpRouting::Directed(route))
        }
        SmpMode::Destination => {
            let lid = subnet.node(switch).lids().next().ok_or_else(|| {
                IbError::Management(format!(
                    "{} has no LID for destination-routed SMPs",
                    subnet.name_of(switch)
                ))
            })?;
            Ok(SmpRouting::Destination(lid))
        }
    }
}

/// Link traversals an SMP takes from the SM to the switch.
pub fn hops_of(
    subnet: &Subnet,
    sm_node: NodeId,
    switch: NodeId,
    routing: &SmpRouting,
) -> IbResult<usize> {
    match routing {
        SmpRouting::Directed(r) => Ok(r.hop_count()),
        SmpRouting::Destination(_) => DirectedRoute::compute(subnet, sm_node, switch)
            .map(|r| r.hop_count())
            .ok_or_else(|| IbError::Topology("switch unreachable".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_routing::testutil::assign_lids;
    use ib_routing::EngineKind;
    use ib_subnet::topology::fattree::two_level;
    use ib_types::Lid;

    fn setup() -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(2, 3, 2);
        assign_lids(&mut t);
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        (t, tables)
    }

    #[test]
    fn virgin_fabric_pays_n_times_m() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        // 10 LIDs -> topmost 10 -> 1 block; 4 switches -> 4 SMPs.
        assert_eq!(report.lft_smps, 4);
        assert_eq!(report.switches_updated, 4);
        assert_eq!(report.max_blocks_per_switch, 1);
        assert_eq!(ledger.lft_updates(), 4);
    }

    #[test]
    fn redistribution_is_free_when_nothing_changed() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        let again = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(again.lft_smps, 0);
        assert_eq!(again.switches_updated, 0);
    }

    #[test]
    fn installed_lfts_route_traffic() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        // After distribution the *subnet* LFTs (not just the tables) must
        // deliver packets between the first and last hosts.
        let last = t.hosts[5];
        let lid = t.subnet.node(last).ports[1].lid.unwrap();
        let path = t.subnet.trace_route(t.hosts[0], lid, 16).unwrap();
        assert_eq!(*path.last().unwrap(), last);
    }

    #[test]
    fn destination_mode_needs_switch_lids() {
        let (mut t, tables) = setup();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Destination,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(report.lft_smps, 4);
        // None of the recorded SMPs paid the directed-route overhead.
        assert!(ledger.records().iter().all(|r| !r.directed));
    }

    #[test]
    fn distribute_with_perfect_transport_matches_classic() {
        let (mut t, tables) = setup();
        let mut classic = t.subnet.clone();
        let mut ledger_a = SmpLedger::new();
        let report_a = distribute(
            &mut classic,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger_a,
        )
        .unwrap();

        let mut transport = SmpTransport::perfect(t.hosts[0]);
        let mut ledger_b = SmpLedger::new();
        let (report_b, failed) = distribute_with(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut transport,
            &mut ledger_b,
        )
        .unwrap();
        assert!(failed.is_empty());
        assert_eq!(report_a, report_b);
        // Byte-identical ledgers: the fault-free transport is invisible.
        assert_eq!(ledger_a.records(), ledger_b.records());
        for sw in classic.physical_switches() {
            assert_eq!(sw.lft(), t.subnet.lft(sw.id), "{}", sw.name);
        }
    }

    #[test]
    fn black_hole_transport_fails_every_block_and_applies_none() {
        let (mut t, tables) = setup();
        let before: Vec<_> = t
            .subnet
            .physical_switches()
            .map(|s| (s.id, s.lft().unwrap().clone()))
            .collect();
        let mut transport =
            SmpTransport::with_channel(t.hosts[0], ib_mad::LossyChannel::black_hole());
        let mut ledger = SmpLedger::new();
        let (report, failed) = distribute_with(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut transport,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(report.lft_smps, 0);
        assert_eq!(report.switches_updated, 0);
        assert_eq!(failed.len(), 4); // 4 switches x 1 block
        assert_eq!(ledger.delivered(), 0);
        for (sw, lft) in before {
            assert_eq!(t.subnet.lft(sw), Some(&lft));
        }
    }

    #[test]
    fn retry_resumes_only_failed_blocks() {
        let (mut t, tables) = setup();
        // ~40% per-hop drop: some blocks fail even with 4 attempts.
        let mut transport = SmpTransport::lossy(t.hosts[0], 0xBAD, 0.4, 0);
        transport.retry.max_attempts = 2;
        let mut ledger = SmpLedger::new();
        let (mut report, mut failed) = distribute_with(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut transport,
            &mut ledger,
        )
        .unwrap();
        // Keep retrying failed blocks until done (the channel is lossy but
        // fair, so this terminates with overwhelming probability).
        let mut passes = 0;
        while !failed.is_empty() && passes < 64 {
            let (r2, f2) = retry_failed_blocks(
                &mut t.subnet,
                t.hosts[0],
                &tables,
                SmpMode::Directed,
                &mut transport,
                &mut ledger,
                &failed,
            )
            .unwrap();
            report.lft_smps += r2.lft_smps;
            failed = f2;
            passes += 1;
        }
        assert!(failed.is_empty(), "did not converge");
        // Exactly the 4 blocks were eventually applied, once each.
        assert_eq!(report.lft_smps, 4);
        assert_eq!(ledger.lft_updates(), 4);
        assert!(ledger.retries() > 0 || ledger.dropped() > 0);
        // The fabric ends up fully routed.
        let last = t.hosts[5];
        let lid = t.subnet.node(last).ports[1].lid.unwrap();
        let path = t.subnet.trace_route(t.hosts[0], lid, 16).unwrap();
        assert_eq!(*path.last().unwrap(), last);
    }

    #[test]
    fn topmost_lid_rules_block_count() {
        // §VII-C: a single node holding the topmost unicast LID forces the
        // full 768-block LFT onto every switch.
        let (mut t, _) = setup();
        t.subnet.clear_lid(Lid::from_raw(10)).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[5], ib_types::PortNum::new(1), Lid::from_raw(0xBFFF))
            .unwrap();
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        let mut ledger = SmpLedger::new();
        let report = distribute(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(report.max_blocks_per_switch, 768);
    }

    /// Widens the fabric's LID footprint so every switch has several dirty
    /// blocks — enough for drops to split a switch's blocks across passes.
    fn multi_block_setup() -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(2, 3, 2);
        assign_lids(&mut t);
        t.subnet.clear_lid(Lid::from_raw(10)).unwrap();
        t.subnet
            .assign_port_lid(t.hosts[5], ib_types::PortNum::new(1), Lid::from_raw(300))
            .unwrap();
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        (t, tables)
    }

    #[test]
    fn parallel_planning_is_byte_identical() {
        let (t0, tables) = multi_block_setup();
        let mut reference: Option<(SmpLedger, Vec<(NodeId, Lft)>)> = None;
        for workers in [1usize, 2, 8] {
            let mut subnet = t0.subnet.clone();
            let mut ledger = SmpLedger::new();
            let report = distribute_opts(
                &mut subnet,
                t0.hosts[0],
                &tables,
                SmpMode::Directed,
                &mut ledger,
                SweepOptions::with_workers(workers),
            )
            .unwrap();
            assert!(report.lft_smps > 0);
            let lfts: Vec<(NodeId, Lft)> = subnet
                .physical_switches()
                .map(|s| (s.id, s.lft().unwrap().clone()))
                .collect();
            match &reference {
                None => reference = Some((ledger, lfts)),
                Some((ref_ledger, ref_lfts)) => {
                    assert_eq!(ref_ledger.records(), ledger.records(), "workers={workers}");
                    assert_eq!(ref_lfts, &lfts, "workers={workers}");
                }
            }
        }
    }

    /// Regression: a `distribute_with` + `retry_failed_blocks` sequence,
    /// merged through [`ResumeAccounting`], reproduces the fault-free
    /// report exactly — per-call reports count only blocks applied in that
    /// call, and switches split across passes are neither double-counted in
    /// `switches_updated` nor undercounted in `max_blocks_per_switch`.
    #[test]
    fn resumable_accounting_sums_to_fault_free() {
        // Fault-free baseline.
        let (mut clean, tables) = multi_block_setup();
        let mut ledger0 = SmpLedger::new();
        let mut perfect = SmpTransport::perfect(clean.hosts[0]);
        let (fault_free, none_failed) = distribute_with(
            &mut clean.subnet,
            clean.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut perfect,
            &mut ledger0,
        )
        .unwrap();
        assert!(none_failed.is_empty());
        assert!(
            fault_free.max_blocks_per_switch >= 4,
            "setup must give each switch several blocks"
        );

        // Injected drops: 2 attempts per SMP, 35% per-hop loss.
        let (mut t, tables) = multi_block_setup();
        let mut transport = SmpTransport::lossy(t.hosts[0], 0xD1CE, 0.35, 0);
        transport.retry.max_attempts = 2;
        let mut ledger = SmpLedger::new();
        let mut acct = ResumeAccounting::new();
        let (acct0, mut failed) = push_blocks(
            &mut t.subnet,
            t.hosts[0],
            &tables,
            SmpMode::Directed,
            &mut transport,
            &mut ledger,
            None,
            SweepOptions::default(),
        )
        .unwrap();
        acct.merge(acct0);
        assert!(!failed.is_empty(), "seed must inject at least one drop");
        let mut passes = 0;
        while !failed.is_empty() && passes < 64 {
            let (more, still) = push_blocks(
                &mut t.subnet,
                t.hosts[0],
                &tables,
                SmpMode::Directed,
                &mut transport,
                &mut ledger,
                Some(&failed),
                SweepOptions::default(),
            )
            .unwrap();
            acct.merge(more);
            failed = still;
            passes += 1;
        }
        assert!(failed.is_empty(), "did not converge");
        assert!(passes > 0, "seed must force at least one retry pass");
        // Exact equality on all three fields — the regression this guards.
        assert_eq!(acct.report(), fault_free);
        // And the ledger agrees block for block.
        assert_eq!(ledger.lft_updates(), fault_free.lft_smps);
    }
}
