//! The per-layer trace: parents from interval containment, self times, and
//! per-layer sums.
//!
//! The program's spans (`ib-observe`) and the benchmark's own spans share
//! one observer and therefore one clock. Spans carry no parent link, so a
//! span's parent is the innermost span whose interval contains it. Every
//! span the program records runs on the calling thread, so children of one
//! parent never overlap and a span's self time is its duration minus the
//! sum of its children's durations.

use std::collections::BTreeMap;

use ib_observe::SpanRecord;

/// Name of the benchmark span around one timed operation.
pub const OP: &str = "op";

/// Self time per layer, summed over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Self time (ns) of spans inside an operation, by span name. The
    /// operation span's own self time is filed under [`OP`]: time in the
    /// operation that no program span covers.
    pub in_op: BTreeMap<String, u64>,
    /// Duration (ns) of root spans outside any operation, by span name.
    pub outside: BTreeMap<String, u64>,
    /// Summed duration (ns) of the operation spans.
    pub op_total: u64,
}

/// Builds the containment tree of `spans` and sums self times per name.
#[must_use]
pub fn layer_times(spans: &[SpanRecord]) -> LayerTimes {
    // Outer spans first: earlier start, then later end, then later
    // completion (a child closes before a parent with the same interval).
    let mut order: Vec<usize> = (0..spans.len()).collect();
    let end = |i: usize| spans[i].start_ns + spans[i].duration_ns;
    order.sort_by(|&x, &y| {
        spans[x]
            .start_ns
            .cmp(&spans[y].start_ns)
            .then(end(y).cmp(&end(x)))
            .then(y.cmp(&x))
    });
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if end(top) >= end(i) {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }

    let mut child_ns = vec![0u64; spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            child_ns[p] += spans[i].duration_ns;
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = parent[i] {
            i = p;
        }
        i
    };

    let mut out = LayerTimes::default();
    for &i in &order {
        let s = &spans[i];
        let root = root_of(i);
        if spans[root].name == OP {
            let self_ns = s.duration_ns.saturating_sub(child_ns[i]);
            *out.in_op.entry(s.name.clone()).or_default() += self_ns;
            if i == root {
                out.op_total += s.duration_ns;
            }
        } else if i == root {
            *out.outside.entry(s.name.clone()).or_default() += s.duration_ns;
        }
    }
    out
}

impl LayerTimes {
    /// Adds another pass's times into this one.
    pub fn merge(&mut self, other: LayerTimes) {
        for (k, v) in other.in_op {
            *self.in_op.entry(k).or_default() += v;
        }
        for (k, v) in other.outside {
            *self.outside.entry(k).or_default() += v;
        }
        self.op_total += other.op_total;
    }

    /// Summed in-operation self time of the spans named `names` (ns).
    #[must_use]
    pub fn in_op_ns(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.in_op.get(*n)).sum()
    }

    /// Summed outside-operation time of the span named `name` (ns).
    #[must_use]
    pub fn outside_ns(&self, name: &str) -> u64 {
        self.outside.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn self_times_add_up_to_the_operation() {
        // Completion order: children before parents.
        let spans = vec![
            span("build", 0, 5),
            span("routing.assign", 12, 30),
            span("sm.routing", 10, 40),
            span("sweep.apply", 55, 20),
            span(OP, 10, 80),
            span("rindex.build", 95, 3),
        ];
        let t = layer_times(&spans);
        assert_eq!(t.op_total, 80);
        assert_eq!(t.in_op["routing.assign"], 30);
        assert_eq!(t.in_op["sm.routing"], 10);
        assert_eq!(t.in_op["sweep.apply"], 20);
        assert_eq!(t.in_op[OP], 80 - 40 - 20);
        assert_eq!(t.in_op.values().sum::<u64>(), t.op_total);
        assert_eq!(t.outside_ns("build"), 5);
        assert_eq!(t.outside_ns("rindex.build"), 3);
    }

    #[test]
    fn identical_intervals_nest_by_completion_order() {
        let spans = vec![span("inner", 4, 6), span(OP, 4, 6)];
        let t = layer_times(&spans);
        assert_eq!(t.in_op["inner"], 6);
        assert_eq!(t.in_op[OP], 0);
    }
}
