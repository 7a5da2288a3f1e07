//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A readable summary goes to standard error, and a traced run
//! also writes its per-layer export under `out/` in the package directory.
//! Exits 1 when any correctness check fails, 2 on a usage error.

use std::process::ExitCode;

use perfbench::report::{end_to_end, per_layer, result_line, Metric};
use perfbench::run::{run, RunConfig, RunResult};
use perfbench::{Workload, WORKERS};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads: bringup-ft5832 linkchurn-updn5832 linkchurn-df migrate-ft648";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The traced run's export: per-layer metrics and self time per span name.
fn export(args: &Args, result: &RunResult, metrics: &[Metric]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names = |m: &std::collections::BTreeMap<String, u64>| {
        m.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"workers\": {WORKERS}, \"cpus\": {}, \"traced_ops\": {},",
        args.workload.name(),
        args.seed,
        cpus(),
        result.traced_ops.len()
    )?;
    writeln!(
        f,
        " \"self_ns_in_op\": {{{}}},",
        names(&result.layers.in_op)
    )?;
    writeln!(
        f,
        " \"ns_outside_op\": {{{}}},",
        names(&result.layers.outside)
    )?;
    let line = result_line(
        result.failures.is_empty(),
        result.attempted(),
        result.failed(),
        metrics,
    );
    writeln!(f, " \"result\": {line}}}")?;
    f.flush()
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A traced run runs every pass twice, so it makes half the passes.
    let passes = args.workload.passes_for(args.seconds);
    let passes = if args.trace {
        passes.div_ceil(2)
    } else {
        passes
    };
    let result = run(RunConfig {
        workload: args.workload,
        seed: args.seed,
        passes,
        trace: args.trace,
        workers: WORKERS,
        setups: args.workload.setups(),
    });
    let metrics = if args.trace {
        per_layer(&result)
    } else {
        end_to_end(&result)
    };
    eprintln!(
        "{} seed {} passes {passes} ops {} traced ops {} workers {WORKERS} cpus {}",
        args.workload.name(),
        args.seed,
        result.ops.len(),
        result.traced_ops.len(),
        cpus()
    );
    let summary = if args.trace {
        [end_to_end(&result), metrics.clone()].concat()
    } else {
        metrics.clone()
    };
    for m in &summary {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &result.failures {
        eprintln!("FAILED: {f}");
    }
    if args.trace {
        if let Err(e) = export(&args, &result, &metrics) {
            eprintln!("could not write the trace export: {e}");
        }
    }
    let correct = result.failures.is_empty();
    println!(
        "{}",
        result_line(correct, result.attempted(), result.failed(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
