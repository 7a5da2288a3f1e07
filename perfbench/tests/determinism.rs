//! The benchmark's exact counts repeat: two runs of one seed agree, and one
//! routing/sweep worker agrees with two. Runs are cut to one or a few
//! passes. The paper-scale workloads only run in optimised builds:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::{per_layer, END_TO_END};
use perfbench::run::{run, RunConfig};
use perfbench::Workload;

/// The per-layer metrics that are exact counts.
const EXACT: [&str; 7] = [
    "smps_per_op",
    "down_smps_per_op",
    "up_smps_per_op",
    "sweep.dirty_blocks",
    "repair.dirty_dests",
    "verify.runs_per_op",
    "migration.lft_smps",
];

fn exact_counts(workload: Workload, passes: usize, workers: usize) -> Vec<(&'static str, f64)> {
    let result = run(RunConfig {
        workload,
        seed: 7,
        passes,
        trace: true,
        workers,
        setups: 1,
    });
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    assert_eq!(result.failed(), 0);
    let metrics = per_layer(&result);
    EXACT
        .iter()
        .map(|&name| {
            let m = metrics.iter().find(|m| m.name == name).expect("metric");
            (name, m.value)
        })
        .collect()
}

/// Two runs with 2 workers and one with 1 agree on every exact count.
fn assert_repeats(workload: Workload, passes: usize) {
    let first = exact_counts(workload, passes, 2);
    assert_eq!(first, exact_counts(workload, passes, 2), "second run");
    assert_eq!(first, exact_counts(workload, passes, 1), "one worker");
    assert!(first[0].1 > 0.0, "no SMPs were counted");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale fabric: run with --release")]
fn bringup_counts_repeat() {
    assert_repeats(Workload::BringupFt5832, 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale fabric: run with --release")]
fn updn_churn_counts_repeat() {
    assert_repeats(Workload::LinkchurnUpdn5832, 1);
}

#[test]
fn dragonfly_churn_counts_repeat() {
    assert_repeats(Workload::LinkchurnDf, 2);
}

#[test]
fn migration_counts_repeat() {
    assert_repeats(Workload::MigrateFt648, 20);
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark reports, in order, with the same units and directions.
#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let field = |entry: &str, key: &str| {
        entry
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .map(|rest| rest.split('"').next().expect("closing quote").to_string())
    };
    let declared: Vec<(String, Option<String>, Option<String>)> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("closing quote").to_string();
            (name, field(entry, "unit"), field(entry, "better"))
        })
        .collect();
    let owned =
        |(n, u, b): (&str, &str, &str)| (n.to_string(), Some(u.to_string()), Some(b.to_string()));
    let reported: Vec<(String, Option<String>, Option<String>)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), None, None))
        .chain(END_TO_END.iter().map(|&m| owned(m)))
        .chain(perfbench::report::per_layer_names().into_iter().map(owned))
        .collect();
    assert_eq!(declared, reported);
}
