//! `perfbench` — runs one workload (or `all`) for a seed and prints every
//! metric by name and unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s>
//!           [--trace --untraced-wall-s <s> [--expect-digest <hex>]]
//! ```
//!
//! Without `--trace` the result line carries the gated end-to-end
//! metrics; with it (only in a build with the `trace` feature) every
//! per-layer metric. `run.py` next to this crate builds the binaries and
//! is the benchmark's entry point.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::runner::{outcome_digest, run_workload, RunConfig, WorkloadRun};
use perfbench::workloads::{generate, Workload};
use rperf_stats::json;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    untraced_wall_s: Option<f64>,
    expect_digest: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        untraced_wall_s: None,
        expect_digest: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?]
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--untraced-wall-s" => {
                args.untraced_wall_s = Some(value.parse().map_err(|_| bad("a number"))?)
            }
            "--expect-digest" => args.expect_digest = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.trace && !cfg!(feature = "trace") {
        return Err("--trace needs the build with the `trace` feature".into());
    }
    if args.trace && args.untraced_wall_s.is_none() {
        return Err("--trace needs --untraced-wall-s (the untraced build's wall_s)".into());
    }
    if args.trace && args.workloads.len() > 1 {
        return Err("--trace runs one workload at a time".into());
    }
    Ok(args)
}

/// Resets `VmHWM`, so each workload of `--workload all` reports its own
/// peak (best effort: the figure stays process-wide where it fails).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

struct Report {
    metrics: Vec<(String, &'static str, f64)>,
    digest: String,
    digest_ok: bool,
}

fn report(w: Workload, args: &Args, run: &WorkloadRun) -> Report {
    let digest = format!("{:016x}", outcome_digest(run));
    let digest_ok = args.expect_digest.as_ref().is_none_or(|d| *d == digest);
    println!(
        "workload {}  seed {}  ops {}  timed passes {} (+1 warm-up)  {}",
        w.name(),
        args.seed,
        run.ops.len(),
        run.passes,
        if args.trace { "traced" } else { "untraced" }
    );
    for op in &run.ops {
        println!(
            "  op {:<22} exec {:>10.3} ms  setup {:>8.3} ms  run {:>10.3} ms  events {:>10}  delivered pkts {:>8}",
            op.name,
            metrics::fastest(&op.exec_ns) / 1e6,
            metrics::fastest(&op.setup_ns) / 1e6,
            metrics::fastest(&op.run_ns) / 1e6,
            op.counters.events,
            op.counters.delivered,
        );
    }
    let rss = metrics::peak_rss_mib();
    let mut out = Vec::new();
    if args.trace {
        let base = args.untraced_wall_s.unwrap_or(0.0);
        for d in PER_LAYER {
            out.push((
                d.name.to_string(),
                d.unit,
                metrics::per_layer(d.name, run, base),
            ));
        }
    } else {
        for d in END_TO_END {
            match metrics::end_to_end(d.name, run, rss) {
                Some(v) if d.gated => out.push((d.name.to_string(), d.unit, v)),
                Some(v) => println!("  {:<26} {v:<14.6} {}  (report only)", d.name, d.unit),
                None => println!("  {:<26} n/a            (no published reference)", d.name),
            }
        }
    }
    for (name, unit, v) in &out {
        println!("  {name:<26} {v:<14.6} {unit}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        run.attempted, run.failed
    );
    for f in &run.failures {
        println!("  FAILED {f}");
    }
    println!("  outcome digest {digest}");
    if !digest_ok {
        println!(
            "  FAILED outcome digest differs from the untraced run's {}",
            args.expect_digest.as_deref().unwrap_or("")
        );
    }
    Report {
        metrics: out,
        digest,
        digest_ok,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: operation panicked: {info}");
    }));
    let cfg = RunConfig {
        budget: Duration::from_secs_f64(args.seconds / args.workloads.len() as f64),
        time_plan: args.trace,
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut digests = Vec::new();
    for &w in &args.workloads {
        if !single {
            reset_peak_rss();
        }
        let ops = generate(w, args.seed);
        let run = run_workload(&ops, &cfg);
        let rep = report(w, &args, &run);
        // The digest comparison is one more checked operation.
        attempted += run.attempted + u64::from(args.expect_digest.is_some());
        failed += run.failed + u64::from(!rep.digest_ok);
        for (name, unit, v) in rep.metrics {
            let key = if single {
                name
            } else {
                format!("{}.{name}", w.name())
            };
            metrics.push((key, unit, v));
        }
        digests.push((w.name(), json::string(&rep.digest)));
    }
    let metrics_json = json::object(metrics.iter().map(|(k, unit, v)| {
        (
            k.as_str(),
            json::object([("value", json::num(*v)), ("unit", json::string(unit))]),
        )
    }));
    println!(
        "{}",
        json::object([
            ("correct", (failed == 0).to_string()),
            ("attempted", json::uint(attempted)),
            ("failed", json::uint(failed)),
            ("metrics", metrics_json),
            ("digests", json::object(digests)),
        ])
    );
    ExitCode::SUCCESS
}
