//! Runs a workload's operations for a fixed host-time budget and keeps
//! every sample, checking each operation on every pass.

use std::time::{Duration, Instant};

use rperf::{RoleReport, ScenarioOutcome};

use crate::harness::{check_conservation, check_outcome, execute_op, staged_op, Counters, Staged};
use crate::workloads::{Measure, Op, PaperRef};

/// Timed passes made even when the budget is spent.
pub const MIN_PASSES: usize = 3;

/// How long and how a workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Host time the timed passes run for (checked between passes).
    pub budget: Duration,
    /// Time `rperf_subnet::plan` on its own (traced runs).
    pub time_plan: bool,
}

/// Samples and deterministic results of one operation.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// The operation's label.
    pub name: String,
    /// `parse` + `rperf::execute`, ns (one per timed pass).
    pub exec_ns: Vec<u64>,
    /// Spec text to started simulation, ns (`SETUP_REPS` per timed pass).
    pub setup_ns: Vec<u64>,
    /// Parse + validate, ns.
    pub parse_ns: Vec<u64>,
    /// Stand-alone subnet plan, ns.
    pub plan_ns: Vec<u64>,
    /// `FabricBuilder::build`, ns.
    pub build_ns: Vec<u64>,
    /// Run phase, ns.
    pub run_ns: Vec<u64>,
    /// Handler nanoseconds per event kind, one array per timed pass.
    pub handler_ns: Vec<[u64; 8]>,
    /// Counters of the first successful execution.
    pub counters: Counters,
    /// Handler event counts of the first successful execution.
    pub kind_counts: [u64; 8],
    /// Outcome JSON of the first successful execution.
    pub outcome: Option<String>,
    /// Each paper reference with the simulated value it is compared to.
    pub paper: Vec<(PaperRef, f64)>,
}

/// A workload run: per-operation samples plus the failure tally.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// One entry per operation, in generator order.
    pub ops: Vec<OpStats>,
    /// Timed passes made (the warm-up pass is not counted).
    pub passes: usize,
    /// Operation executions attempted, warm-up pass included.
    pub attempted: u64,
    /// Executions that failed a check.
    pub failed: u64,
    /// The first failure message of each failing operation.
    pub failures: Vec<String>,
}

/// The simulated value a paper reference is compared with.
pub fn simulated(out: &ScenarioOutcome, measure: Measure) -> Option<f64> {
    match measure {
        Measure::RperfP50Ns(node) => out.rperf(node).map(|r| r.summary.p50_ns()),
        Measure::RperfP50Us(node) => out.rperf(node).map(|r| r.summary.p50_us()),
        Measure::LatencyP50Us(node) => out.latency(node).map(|s| s.p50_us()),
        Measure::QperfAvgUs(node) => out.qperf(node).map(|q| q.avg_us),
        Measure::Gbps(node) => out.gbps(node),
        Measure::TotalGbps => Some(
            out.reports
                .iter()
                .filter_map(|(_, r)| match r {
                    RoleReport::BsgGbps(g) | RoleReport::PretendGbps(g) => Some(*g),
                    _ => None,
                })
                .sum(),
        ),
    }
}

/// One execution of `op` both ways, with every check. On success the
/// staged result and the user path's host time are returned for sampling.
fn attempt(op: &Op, stats: &mut OpStats, cfg: &RunConfig) -> Result<(Staged, u64), String> {
    let (out, exec_ns) = execute_op(&op.text, op.seed)?;
    let staged = staged_op(&op.text, op.seed, cfg.time_plan)?;
    let json = out.to_json();
    if staged.outcome.to_json() != json {
        return Err("the staged run's outcome JSON differs from rperf::execute's".into());
    }
    check_conservation(&staged.counters)?;
    if staged.counters.buffer_violations > 0 {
        return Err(format!(
            "{} switch buffer violation(s)",
            staged.counters.buffer_violations
        ));
    }
    check_outcome(&op.text, &out)?;
    let kind_counts = staged.prof.map(|(count, _)| count);
    match &stats.outcome {
        Some(first) => {
            if *first != json {
                return Err(
                    "outcome JSON differs from an earlier run of the same (spec, seed)".into(),
                );
            }
            if stats.counters != staged.counters || stats.kind_counts != kind_counts {
                return Err(
                    "simulator counters differ from an earlier run of the same (spec, seed)".into(),
                );
            }
        }
        None => {
            stats.paper = op
                .refs
                .iter()
                .map(|r| {
                    simulated(&out, r.measure)
                        .map(|v| (r.clone(), v))
                        .ok_or_else(|| format!("no simulated value for `{}`", r.label))
                })
                .collect::<Result<_, _>>()?;
            stats.outcome = Some(json);
            stats.counters = staged.counters;
            stats.kind_counts = kind_counts;
        }
    }
    Ok((staged, exec_ns))
}

fn record(stats: &mut OpStats, staged: &Staged, exec_ns: u64) {
    stats.exec_ns.push(exec_ns);
    for s in &staged.setup {
        stats.setup_ns.push(s.setup_ns);
        stats.parse_ns.push(s.parse_ns);
        stats.plan_ns.push(s.plan_ns);
        stats.build_ns.push(s.build_ns);
    }
    stats.run_ns.push(staged.run_ns);
    stats.handler_ns.push(staged.prof.map(|(_, nanos)| nanos));
}

/// Runs one warm-up pass and then timed passes over `ops` until the
/// budget is spent (at least [`MIN_PASSES`]). Every execution is checked;
/// only successful executions of timed passes contribute samples.
pub fn run_workload(ops: &[Op], cfg: &RunConfig) -> WorkloadRun {
    let mut run = WorkloadRun {
        ops: ops
            .iter()
            .map(|op| OpStats {
                name: op.name.clone(),
                ..OpStats::default()
            })
            .collect(),
        ..WorkloadRun::default()
    };
    let pass = |run: &mut WorkloadRun, timed: bool| {
        for (op, stats) in ops.iter().zip(run.ops.iter_mut()) {
            run.attempted += 1;
            match attempt(op, stats, cfg) {
                Ok((staged, exec_ns)) => {
                    // Warm-up samples are discarded.
                    if timed {
                        record(stats, &staged, exec_ns);
                    }
                }
                Err(msg) => {
                    run.failed += 1;
                    if !run.failures.iter().any(|f| f.starts_with(&op.name)) {
                        run.failures.push(format!("{}: {msg}", op.name));
                    }
                }
            }
        }
    };
    pass(&mut run, false);
    let start = Instant::now();
    while run.passes < MIN_PASSES || start.elapsed() < cfg.budget {
        pass(&mut run, true);
        run.passes += 1;
    }
    run
}

/// FNV-1a over every operation's first outcome JSON, in generator order:
/// equal digests mean identical simulated statistics.
pub fn outcome_digest(run: &WorkloadRun) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for op in &run.ops {
        let text = op.outcome.as_deref().unwrap_or("<failed>");
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}
