//! Metrics from a run, and the result line.

use crate::run::RunResult;
use crate::trace::OP;
use crate::{OpKind, OpRecord};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The end-to-end metrics of an untraced run: `(name, unit, better)`.
/// Exact counts such as `smps_per_op` are per-layer metrics instead: they
/// repeat exactly for one seed but, on the churn workloads, differ from
/// seed to seed by more than any timing bound.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("op_ms.p50", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// In-operation self times: metric name and the program spans it sums.
const IN_OP: [(&str, &[&str]); 20] = [
    ("sm.discovery_ms", &["sm.discovery"]),
    ("sm.lid_assignment_ms", &["sm.lid_assignment"]),
    ("sm.routing_ms", &["sm.routing"]),
    ("sweep.plan_ms", &["sweep.plan"]),
    ("sweep.apply_ms", &["sweep.apply"]),
    ("resweep.batch_ms", &["resweep.batch"]),
    ("resweep.repair_ms", &["resweep.repair"]),
    ("resweep.light_ms", &["resweep.light"]),
    ("resweep.heavy_ms", &["resweep.heavy"]),
    (
        "routing.fat-tree.distances_ms",
        &["routing.fat-tree.distances"],
    ),
    ("routing.fat-tree.assign_ms", &["routing.fat-tree.assign"]),
    (
        "routing.up-down.distances_ms",
        &["routing.up-down.distances"],
    ),
    ("routing.up-down.assign_ms", &["routing.up-down.assign"]),
    ("routing.up-down.repair_ms", &["routing.up-down.repair"]),
    ("routing.dfsssp.distances_ms", &["routing.dfsssp.distances"]),
    (
        "routing.dfsssp.vl_partition_ms",
        &["routing.dfsssp.vl_partition"],
    ),
    ("routing.dfsssp.repair_ms", &["routing.dfsssp.repair"]),
    ("verify.run_ms", &["verify.run"]),
    (
        "migration.step_b_ms",
        &["migration.step_b.swap", "migration.step_b.copy"],
    ),
    // Time in the operation that no program span covers.
    ("unattributed_ms", &[OP]),
];

/// Benchmark spans outside the operations: metric name and span name.
const OUTSIDE: [(&str, &str); 5] = [
    ("subnet.build_ms", "subnet.build"),
    ("rindex.build_ms", "rindex.build"),
    ("rindex.affected_ms", "rindex.affected"),
    ("affected.scan_ms", "affected.scan"),
    ("verify.walk_ms", "verify.walk"),
];

/// Per-operation means of `ib-observe` counters: metric and counter name.
const COUNTERS: [(&str, &str); 8] = [
    ("sweep.dirty_blocks", "sweep.dirty_blocks"),
    ("sweep.switches_updated", "sweep.switches_updated"),
    ("repair.dirty_dests", "repair.dirty_dests"),
    ("repair.fallbacks", "repair.fallback"),
    ("repair.skipped_up", "repair.skipped_up"),
    ("verify.runs_per_op", "verify.runs"),
    ("smp.attempts", "smp.attempts"),
    ("smp.retries", "smp.retries"),
];

/// Per-operation means of sums the workloads read from the SM's reports.
const REPORTED: [&str; 8] = [
    "routing.decisions",
    "sm.discovery_smps",
    "sm.lid_smps",
    "sweep.lft_smps",
    "migration.hypervisor_smps",
    "migration.lft_smps",
    "migration.switches_updated",
    "migration.max_blocks_per_switch",
];

/// The per-layer metrics of a traced run: `(name, unit, better)`.
#[must_use]
pub fn per_layer_names() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = vec![
        ("ops", "count", "higher"),
        ("run.op_ms.p50", "ms", "lower"),
        ("run.ops_per_s", "1/s", "higher"),
        ("smps_per_op", "count", "lower"),
        ("op_ms.p90", "ms", "lower"),
        ("down_ms.p50", "ms", "lower"),
        ("up_ms.p50", "ms", "lower"),
        ("down_smps_per_op", "count", "lower"),
        ("up_smps_per_op", "count", "lower"),
        ("failed_op_frac", "frac", "lower"),
    ];
    out.extend(IN_OP.iter().map(|&(n, _)| (n, "ms", "lower")));
    out.push(("trace.other_ms", "ms", "lower"));
    out.extend(OUTSIDE.iter().map(|&(n, _)| (n, "ms", "lower")));
    out.push(("verify.cdg_ms", "ms", "lower"));
    out.extend(COUNTERS.iter().map(|&(n, _)| (n, "count", "lower")));
    out.extend(REPORTED.iter().map(|&n| (n, "count", "lower")));
    out.extend([
        ("repair.dirty_frac", "frac", "lower"),
        ("repair.index_hit_ratio", "frac", "higher"),
        ("repair.success_ratio", "frac", "higher"),
        ("repair.graph_reuse_ratio", "frac", "higher"),
        ("repair.batch_size", "count", "higher"),
        ("migration.commit_ratio", "frac", "higher"),
        ("trace.op_ms", "ms", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]);
    out
}

/// The `p`-quantile (0 < p ≤ 1) by nearest rank.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median, averaging the two middle values of an even count.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ms(ops: &[OpRecord], kind: Option<OpKind>) -> Vec<f64> {
    ops.iter()
        .filter(|o| kind.is_none_or(|k| o.kind == k))
        .map(|o| o.ns as f64 / 1e6)
        .collect()
}

fn mean_smps(ops: &[OpRecord], kind: Option<OpKind>) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .filter(|o| kind.is_none_or(|k| o.kind == k))
        .map(|o| o.smps as f64)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (MB), from `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Consecutive untraced passes per timing window.
pub const WINDOW_PASSES: usize = 50;

/// One timing window: the op times (ms) and the throughput (1/s) of a run
/// of consecutive untraced passes.
struct Window {
    op_ms: Vec<f64>,
    ops_per_s: f64,
}

/// The untraced passes cut into windows of `WINDOW_PASSES` passes, the
/// last one taking the remainder. A run of fewer than two windows' worth
/// of passes is a single window, so the windowed metrics are the plain
/// whole-run ones there.
fn windows(r: &RunResult) -> Vec<Window> {
    let count = (r.passes.len() / WINDOW_PASSES).max(1);
    let mut out = Vec::with_capacity(count);
    let (mut pass, mut op) = (0, 0);
    for w in 0..count {
        let end = if w + 1 == count {
            r.passes.len()
        } else {
            pass + WINDOW_PASSES
        };
        let passes = &r.passes[pass..end];
        let ops: usize = passes.iter().map(|p| p.ops).sum();
        let ns: u64 = passes.iter().map(|p| p.ns).sum();
        out.push(Window {
            op_ms: ms(&r.ops[op..op + ops], None),
            ops_per_s: ratio(ops as f64, ns as f64 / 1e9),
        });
        (pass, op) = (end, op + ops);
    }
    out
}

/// The whole-run throughput of the untraced passes (1/s).
fn run_ops_per_s(r: &RunResult) -> f64 {
    let ns: u64 = r.passes.iter().map(|p| p.ns).sum();
    ratio(r.ops.len() as f64, ns as f64 / 1e9)
}

/// The end-to-end metrics, from the untraced passes. The timings are
/// those of the quietest window: `op_ms.p50` is the lowest window median
/// and `ops_per_s` the highest window throughput.
#[must_use]
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let windows = windows(r);
    let values = [
        windows
            .iter()
            .map(|w| median(&w.op_ms))
            .fold(f64::INFINITY, f64::min),
        windows.iter().map(|w| w.ops_per_s).fold(0.0, f64::max),
        peak_rss_mb(),
        median(&r.setup_s),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect()
}

/// The per-layer metrics, from the traced passes (the end-to-end extras at
/// the top from the untraced passes of the same run).
#[must_use]
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let n = r.traced_ops.len() as f64;
    let per_op = |v: f64| ratio(v, n);
    let total = |k: &str| r.totals.get(k).copied().unwrap_or(0.0);
    let ns_ms = |ns: u64| per_op(ns as f64) / 1e6;
    let all = ms(&r.ops, None);
    let mut values: Vec<(&str, f64)> = vec![
        ("ops", r.ops.len() as f64),
        ("run.op_ms.p50", median(&all)),
        ("run.ops_per_s", run_ops_per_s(r)),
        ("smps_per_op", mean_smps(&r.ops, None)),
        (
            "op_ms.p90",
            if all.len() >= 100 {
                quantile(&all, 0.9)
            } else {
                0.0
            },
        ),
        ("down_ms.p50", median(&ms(&r.ops, Some(OpKind::Down)))),
        ("up_ms.p50", median(&ms(&r.ops, Some(OpKind::Up)))),
        ("down_smps_per_op", mean_smps(&r.ops, Some(OpKind::Down))),
        ("up_smps_per_op", mean_smps(&r.ops, Some(OpKind::Up))),
        (
            "failed_op_frac",
            ratio(r.failed() as f64, r.attempted() as f64),
        ),
    ];
    let mut named_ns = 0;
    for (name, spans) in IN_OP {
        let ns = r.layers.in_op_ns(spans);
        named_ns += ns;
        values.push((name, ns_ms(ns)));
    }
    // In-op spans no metric above names.
    values.push((
        "trace.other_ms",
        ns_ms(r.layers.op_total.saturating_sub(named_ns)),
    ));
    for (name, span) in OUTSIDE {
        values.push((name, ns_ms(r.layers.outside_ns(span))));
    }
    let full = r.layers.outside_ns("verify.full");
    values.push((
        "verify.cdg_ms",
        ns_ms(full.saturating_sub(r.layers.outside_ns("verify.walk"))),
    ));
    for (name, counter) in COUNTERS {
        values.push((name, per_op(total(counter))));
    }
    for name in REPORTED {
        values.push((name, per_op(total(name))));
    }
    let dirty_sets = total("repair.lid_columns");
    values.extend([
        (
            "repair.dirty_frac",
            ratio(total("repair.dirty_dests"), dirty_sets),
        ),
        (
            "repair.index_hit_ratio",
            ratio(
                total("repair.index_hits"),
                total("repair.index_hits") + total("repair.index_misses"),
            ),
        ),
        (
            "repair.success_ratio",
            ratio(
                total("repair.success"),
                total("repair.success") + total("repair.fallback"),
            ),
        ),
        (
            "repair.graph_reuse_ratio",
            ratio(
                total("repair.graph_reused"),
                total("repair.graph_reused") + total("repair.graph_rebuilt"),
            ),
        ),
        (
            "repair.batch_size",
            ratio(total("repair.batch_size"), total("repair.batched")),
        ),
        (
            "migration.commit_ratio",
            per_op(total("migration.committed")),
        ),
        ("trace.op_ms", ns_ms(r.layers.op_total)),
        (
            "trace.overhead_frac",
            ratio(median(&ms(&r.traced_ops, None)), median(&all)) - 1.0,
        ),
    ]);
    per_layer_names()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric { name, unit, value }
        })
        .collect()
}

/// The result line: one JSON object.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn run_of(passes: usize, ops_per_pass: usize) -> RunResult {
        let mut r = RunResult::default();
        for p in 0..passes {
            r.passes.push(crate::run::PassTime {
                ops: ops_per_pass,
                ns: 1_000_000 * ops_per_pass as u64,
            });
            // Pass `p` runs its ops in `p + 1` ms each.
            r.ops.extend((0..ops_per_pass).map(|_| OpRecord {
                kind: OpKind::Op,
                ns: 1_000_000 * (p as u64 + 1),
                smps: 0,
                failed: false,
            }));
        }
        r
    }

    #[test]
    fn windows_cover_every_pass_once() {
        let short = windows(&run_of(2 * WINDOW_PASSES - 1, 2));
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].op_ms.len(), 2 * (2 * WINDOW_PASSES - 1));

        let long = windows(&run_of(2 * WINDOW_PASSES + 7, 2));
        assert_eq!(long.len(), 2);
        assert_eq!(long[0].op_ms.len(), 2 * WINDOW_PASSES);
        assert_eq!(long[1].op_ms.len(), 2 * (WINDOW_PASSES + 7));
        assert_eq!(long[1].op_ms[0], (WINDOW_PASSES + 1) as f64);
        assert_eq!(long[0].ops_per_s, 1000.0);
    }

    #[test]
    fn end_to_end_timings_come_from_the_quietest_window() {
        let r = run_of(3 * WINDOW_PASSES, 2);
        let m = end_to_end(&r);
        // The first window holds passes 0..WINDOW_PASSES: ops of 1..=50 ms.
        let first = median(&(1..=WINDOW_PASSES).map(|p| p as f64).collect::<Vec<_>>());
        assert_eq!(m[0].value, first);
        assert_eq!(m[1].value, 1000.0);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_names();
        let mut sorted: Vec<_> = names.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
