//! Metric definitions and their values.
//!
//! Every metric the benchmark prints is defined once here, with its unit
//! and direction; `BENCHMARK.json` must list the gated end-to-end
//! metrics and every per-layer metric with the same names and units (a
//! test holds the two together).

use crate::runner::{OpStats, WorkloadRun};
use Better::{Higher, Lower};

/// Event kinds by layer, as indices into `rperf_fabric::prof::KIND_NAMES`
/// (that module only exists in the traced build). Switch: packet, wake,
/// credit.
const SWITCH_KINDS: [usize; 3] = [0, 1, 4];
/// RNIC kinds: packet arrival, wake, credit return.
const RNIC_KINDS: [usize; 3] = [2, 3, 5];
/// App callback kinds: CQE and timer.
const APP_KINDS: [usize; 2] = [6, 7];
/// Kind index of RNIC wakes.
const RNIC_WAKE: usize = 3;
/// Kind index of switch egress wakes.
const SWITCH_WAKE: usize = 1;
/// Kind index of CQE deliveries to apps.
const APP_CQE: usize = 6;
/// Kind index of app timers.
const APP_TIMER: usize = 7;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the metric is in the machine-readable result line (and so
    /// in `BENCHMARK.json`). Ungated metrics are printed in the report
    /// only: they can be 0 or undefined on some workloads.
    pub gated: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gated: true,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower),
    def("setup_s", "s", Lower),
    def("wall_ns_per_pkt", "ns", Lower),
    def("peak_rss_mib", "MiB", Lower),
    MetricDef {
        gated: false,
        ..def("paper_err_pct", "%", Lower)
    },
    MetricDef {
        gated: false,
        ..def("error_rate", "ratio", Lower)
    },
];

/// Per-layer metrics, from the traced build.
pub const PER_LAYER: &[MetricDef] = &[
    def("spec.parse_us", "us", Lower),
    def("subnet.plan_ms", "ms", Lower),
    def("fabric.build_ms", "ms", Lower),
    def("fabric.run_s", "s", Lower),
    def("fabric.slab_high_water", "count", Lower),
    def("sim.events", "count", Lower),
    def("sim.events_per_pkt", "ratio", Lower),
    def("sim.ns_per_event", "ns", Lower),
    def("sim.self_ns_per_event", "ns", Lower),
    def("rnic.tx_pkts", "count", Higher),
    def("rnic.wakes", "count", Lower),
    def("rnic.wakes_per_tx_pkt", "ratio", Lower),
    def("rnic.useful_wake_ratio", "ratio", Higher),
    def("rnic.self_s", "s", Lower),
    def("rnic.ns_per_tx_pkt", "ns", Lower),
    def("switch.fwd_pkts", "count", Higher),
    def("switch.wakes", "count", Lower),
    def("switch.wakes_per_fwd_pkt", "ratio", Lower),
    def("switch.useful_wake_ratio", "ratio", Higher),
    def("switch.credit_stalls", "count", Lower),
    def("switch.self_s", "s", Lower),
    def("switch.ns_per_fwd_pkt", "ns", Lower),
    def("apps.cqes", "count", Higher),
    def("apps.timers", "count", Lower),
    def("apps.self_s", "s", Lower),
    def("apps.ns_per_cqe", "ns", Lower),
    def("trace.overhead_pct", "%", Lower),
];

/// The smallest sample (0 for no samples).
///
/// Every timing is reported as the fastest pass: on a shared host a
/// co-tenant can slow the core by ~1.5× for seconds at a time, which
/// moves a median with how long each phase lasted, while the fastest
/// pass only moves with the code.
pub fn fastest(xs: &[u64]) -> f64 {
    xs.iter().min().map_or(0.0, |&x| x as f64)
}

/// Σ over operations of the fastest sample of one per-operation series.
fn sum_of_fastest(run: &WorkloadRun, series: impl Fn(&OpStats) -> Vec<u64>) -> f64 {
    run.ops.iter().map(|op| fastest(&series(op))).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean absolute relative error of the simulated headline numbers
/// against the paper's, in percent (`None` without references).
pub fn paper_err_pct(run: &WorkloadRun) -> Option<f64> {
    let errs: Vec<f64> = run
        .ops
        .iter()
        .flat_map(|op| op.paper.iter())
        .map(|(r, sim)| (sim - r.reference).abs() / r.reference * 100.0)
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// The value of an end-to-end metric. `paper_err_pct` is `None` on a
/// workload without published references.
pub fn end_to_end(name: &str, run: &WorkloadRun, peak_rss_mib: f64) -> Option<f64> {
    let delivered: u64 = run.ops.iter().map(|op| op.counters.delivered).sum();
    Some(match name {
        "wall_s" => sum_of_fastest(run, |op| op.exec_ns.clone()) / 1e9,
        "setup_s" => sum_of_fastest(run, |op| op.setup_ns.clone()) / 1e9,
        "wall_ns_per_pkt" => ratio(
            sum_of_fastest(run, |op| op.run_ns.clone()),
            delivered as f64,
        ),
        "peak_rss_mib" => peak_rss_mib,
        "paper_err_pct" => return paper_err_pct(run),
        "error_rate" => ratio(run.failed as f64, run.attempted as f64),
        other => unreachable!("no end-to-end metric named {other}"),
    })
}

/// Σ over operations of the fastest handler time of `kinds`, in ns.
fn handler_ns(run: &WorkloadRun, kinds: &[usize]) -> f64 {
    sum_of_fastest(run, |op| {
        op.handler_ns
            .iter()
            .map(|per_kind| kinds.iter().map(|&k| per_kind[k]).sum())
            .collect()
    })
}

/// The value of a per-layer metric. `untraced_wall_s` is the untraced
/// build's `wall_s` on the same workload and seed, for
/// `trace.overhead_pct`.
pub fn per_layer(name: &str, run: &WorkloadRun, untraced_wall_s: f64) -> f64 {
    let total = |f: &dyn Fn(&OpStats) -> u64| -> f64 { run.ops.iter().map(f).sum::<u64>() as f64 };
    let events = total(&|op| op.counters.events);
    let delivered = total(&|op| op.counters.delivered);
    let tx = total(&|op| op.counters.tx_pkts);
    let fwd = total(&|op| op.counters.fwd_pkts);
    let rnic_wakes = total(&|op| op.kind_counts[RNIC_WAKE]);
    let switch_wakes = total(&|op| op.kind_counts[SWITCH_WAKE]);
    let cqes = total(&|op| op.kind_counts[APP_CQE]);
    let run_ns = sum_of_fastest(run, |op| op.run_ns.clone());
    match name {
        "spec.parse_us" => sum_of_fastest(run, |op| op.parse_ns.clone()) / 1e3,
        "subnet.plan_ms" => sum_of_fastest(run, |op| op.plan_ns.clone()) / 1e6,
        "fabric.build_ms" => sum_of_fastest(run, |op| op.build_ns.clone()) / 1e6,
        "fabric.run_s" => run_ns / 1e9,
        "fabric.slab_high_water" => run
            .ops
            .iter()
            .map(|op| op.counters.slab_high_water)
            .max()
            .unwrap_or(0) as f64,
        "sim.events" => events,
        "sim.events_per_pkt" => ratio(events, delivered),
        "sim.ns_per_event" => ratio(run_ns, events),
        "sim.self_ns_per_event" => {
            // Run-phase time outside every event handler: the scheduler,
            // the dispatch loop and the profiler's own clock reads.
            let self_ns = sum_of_fastest(run, |op| {
                op.run_ns
                    .iter()
                    .zip(&op.handler_ns)
                    .map(|(r, h)| r.saturating_sub(h.iter().sum()))
                    .collect()
            });
            ratio(self_ns, events)
        }
        "rnic.tx_pkts" => tx,
        "rnic.wakes" => rnic_wakes,
        "rnic.wakes_per_tx_pkt" => ratio(rnic_wakes, tx),
        // A wake transmits at most one packet, so min(wakes, tx) bounds
        // the wakes that transmitted from above (posts and credit returns
        // transmit too).
        "rnic.useful_wake_ratio" => ratio(
            total(&|op| op.kind_counts[RNIC_WAKE].min(op.counters.tx_pkts)),
            rnic_wakes,
        ),
        "rnic.self_s" => handler_ns(run, &RNIC_KINDS) / 1e9,
        "rnic.ns_per_tx_pkt" => ratio(handler_ns(run, &RNIC_KINDS), tx),
        "switch.fwd_pkts" => fwd,
        "switch.wakes" => switch_wakes,
        "switch.wakes_per_fwd_pkt" => ratio(switch_wakes, fwd),
        "switch.useful_wake_ratio" => ratio(
            total(&|op| op.kind_counts[SWITCH_WAKE].min(op.counters.fwd_pkts)),
            switch_wakes,
        ),
        "switch.credit_stalls" => total(&|op| op.counters.credit_stalls),
        "switch.self_s" => handler_ns(run, &SWITCH_KINDS) / 1e9,
        "switch.ns_per_fwd_pkt" => ratio(handler_ns(run, &SWITCH_KINDS), fwd),
        "apps.cqes" => cqes,
        "apps.timers" => total(&|op| op.kind_counts[APP_TIMER]),
        "apps.self_s" => handler_ns(run, &APP_KINDS) / 1e9,
        "apps.ns_per_cqe" => ratio(handler_ns(run, &APP_KINDS), cqes),
        "trace.overhead_pct" => {
            let traced = end_to_end("wall_s", run, 0.0).unwrap_or(0.0);
            ratio(traced - untraced_wall_s, untraced_wall_s) * 100.0
        }
        other => unreachable!("no per-layer metric named {other}"),
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_the_profiler() {
        let names = rperf_fabric::prof::KIND_NAMES;
        assert_eq!(
            SWITCH_KINDS.map(|k| names[k]),
            ["switch_packet", "switch_wake", "switch_credit"]
        );
        assert_eq!(
            RNIC_KINDS.map(|k| names[k]),
            ["rnic_packet", "rnic_wake", "rnic_credit"]
        );
        assert_eq!(APP_KINDS.map(|k| names[k]), ["app_cqe", "app_timer"]);
        assert_eq!(names[RNIC_WAKE], "rnic_wake");
        assert_eq!(names[SWITCH_WAKE], "switch_wake");
        assert_eq!(names[APP_CQE], "app_cqe");
        assert_eq!(names[APP_TIMER], "app_timer");
    }
}
