//! The closed-loop runner: set-up, then the passes; in a traced run every
//! pass also runs with tracing on.

use std::time::Instant;

use ib_observe::Observer;

use crate::trace::{layer_times, LayerTimes};
use crate::{add, setup, Bench, OpRecord, PassOut, Setup, Totals, Workload};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Passes to run.
    pub passes: usize,
    /// Replay every pass with tracing on.
    pub trace: bool,
    /// Routing and sweep worker threads.
    pub workers: usize,
    /// Set-ups; `setup_s` is their median.
    pub setups: usize,
}

/// Everything a run measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Wall time of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Operations of the untraced passes.
    pub ops: Vec<OpRecord>,
    /// Ops and wall time of each untraced pass, in order.
    pub passes: Vec<PassTime>,
    /// Operations of the traced passes.
    pub traced_ops: Vec<OpRecord>,
    /// Self times of the traced passes.
    pub layers: LayerTimes,
    /// Report sums and `ib-observe` counters of the traced passes.
    pub totals: Totals,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Failures no single operation owns: end-of-run checks and trace
    /// accounting. Each counts as one failed operation.
    pub run_failures: usize,
}

/// One untraced pass, for the windowed end-to-end metrics.
#[derive(Clone, Copy, Debug)]
pub struct PassTime {
    /// Operations it ran.
    pub ops: usize,
    /// Its wall time (ns), generator work included.
    pub ns: u64,
}

/// Sets the workload up `cfg.setups` times, keeps the last, and runs its
/// passes.
#[must_use]
pub fn run(cfg: RunConfig) -> RunResult {
    let mut result = RunResult::default();
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(setup(
            cfg.workload,
            Setup {
                seed: cfg.seed,
                passes: cfg.passes,
                workers: cfg.workers,
            },
        ));
        result.setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    for pass in 0..cfg.passes {
        result.run_pass(bench.as_mut(), pass, cfg.trace);
    }
    for failure in bench.finish() {
        result.fail(failure);
    }
    result
}

impl RunResult {
    /// Runs pass `pass` untraced and, when `trace` is set, traced too. The
    /// traced copy goes second on even passes and first on odd ones, so
    /// caches warmed by the first copy favour neither side of
    /// `trace.overhead_frac`.
    fn run_pass(&mut self, bench: &mut dyn Bench, pass: usize, trace: bool) {
        let traced_first = trace && pass % 2 == 1;
        let traced = traced_first.then(|| Self::traced_pass(bench, pass));
        let started = Instant::now();
        let out = bench.run_pass(pass, &Observer::disabled());
        self.passes.push(PassTime {
            ops: out.ops.len(),
            ns: started.elapsed().as_nanos() as u64,
        });
        self.failures.extend(out.failures);
        let smps: Vec<u64> = out.ops.iter().map(|o| o.smps).collect();
        self.ops.extend(out.ops);
        if !trace {
            return;
        }

        let (traced, obs) = traced.unwrap_or_else(|| Self::traced_pass(bench, pass));
        if traced.ops.iter().map(|o| o.smps).ne(smps) {
            self.fail(format!(
                "pass {pass}: SMP counts differ between the untraced and traced run"
            ));
        }
        let snapshot = obs.snapshot().expect("an enabled observer");
        let layers = layer_times(&snapshot.spans);
        if layers.in_op.values().sum::<u64>() != layers.op_total {
            self.fail(format!(
                "pass {pass}: self times do not add up to the operation time"
            ));
        }
        self.layers.merge(layers);
        for (name, value) in snapshot.counters {
            add(&mut self.totals, &name, value as f64);
        }
        for (name, value) in traced.totals {
            add(&mut self.totals, &name, value);
        }
        self.failures.extend(traced.failures);
        self.traced_ops.extend(traced.ops);
    }

    /// Runs pass `pass` with a fresh observer attached.
    fn traced_pass(bench: &mut dyn Bench, pass: usize) -> (PassOut, Observer) {
        let obs = Observer::metrics();
        (bench.run_pass(pass, &obs), obs)
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
        self.run_failures += 1;
    }

    /// Operations attempted, traced replays included.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.ops.len() + self.traced_ops.len()
    }

    /// Failed operations, traced replays included, plus failures no single
    /// operation owns.
    #[must_use]
    pub fn failed(&self) -> usize {
        let ops = self.ops.iter().chain(&self.traced_ops);
        (ops.filter(|o| o.failed).count() + self.run_failures).min(self.attempted())
    }
}
