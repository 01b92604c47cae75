//! Tests of the benchmark itself: the generator, the checks, and the
//! agreement between what it prints and what `BENCHMARK.json` declares.

use std::process::Command;
use std::time::Duration;

use perfbench::harness::{check_conservation, check_outcome, Counters, LINK_GBPS};
use perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use perfbench::runner::{run_workload, RunConfig, MIN_PASSES};
use perfbench::workloads::{generate, Op, Workload};
use rperf::{RPerfReport, RoleReport, ScenarioOutcome};
use rperf_sim::SimTime;
use rperf_stats::json::{self, Value};
use rperf_stats::LatencySummary;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("`{key}` entry without `{f}`"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .filter(|d| d.gated)
        .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
        .collect()
}

#[test]
fn generator_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(generate(w, seed), generate(w, seed), "{}", w.name());
        }
    }
}

#[test]
fn only_clos_scale_placement_varies_with_the_seed() {
    for w in Workload::ALL {
        let a = generate(w, 3);
        let b = generate(w, 4);
        assert!(a.iter().all(|op| op.seed == 3) && b.iter().all(|op| op.seed == 4));
        let texts = |ops: &[Op]| ops.iter().map(|op| op.text.clone()).collect::<Vec<_>>();
        if w == Workload::ClosScale {
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(x.text, y.text, "clos_scale placement ignores the seed");
            }
        } else {
            assert_eq!(texts(&a), texts(&b), "{} depends on the seed", w.name());
        }
    }
}

#[test]
fn every_generated_spec_parses_and_validates() {
    for w in Workload::ALL {
        let ops = generate(w, 9);
        assert!(!ops.is_empty());
        for op in &ops {
            let spec = rperf::ScenarioSpec::parse(&op.text)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name(), op.name));
            spec.validate()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name(), op.name));
        }
        // Every workload but clos_scale reproduces published points.
        assert_eq!(
            ops.iter().any(|op| !op.refs.is_empty()),
            w != Workload::ClosScale,
            "{}",
            w.name()
        );
    }
}

#[test]
fn declared_metrics_match_the_definitions() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), defined(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), defined(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert!(PER_LAYER.iter().all(|d| d.gated));
    assert_eq!(
        END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .map(|d| d.better),
        Some(Better::Lower)
    );
}

/// Runs the benchmark binary briefly and returns the metrics of its last
/// line as `(name, unit)` pairs.
fn printed_metrics(extra: &[&str]) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "zero_load_latency",
            "--seed",
            "5",
            "--seconds",
            "0.01",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(
        last.get("failed").and_then(Value::as_u64),
        Some(0),
        "{stdout}"
    );
    last.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn names_units(list: Vec<(String, String, String)>) -> Vec<(String, String)> {
    list.into_iter().map(|(n, u, _)| (n, u)).collect()
}

#[test]
fn printed_end_to_end_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(
        printed_metrics(&[]),
        names_units(declared(&doc, "end_to_end"))
    );
}

#[cfg(feature = "trace")]
#[test]
fn printed_per_layer_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let printed = printed_metrics(&["--trace", "--untraced-wall-s", "0.1"]);
    assert_eq!(printed, names_units(declared(&doc, "per_layer")));
}

const TINY: &str = "name = \"tiny\"\nwarmup_us = 10\nduration_us = 100\n\n\
    [topology]\nkind = \"single_switch\"\nhosts = 2\n\n\
    [[role]]\nnode = 0\nkind = \"rperf\"\ntarget = 1\n\n\
    [[role]]\nnode = 1\nkind = \"sink\"\n";

fn tiny_op(name: &str, text: &str) -> Op {
    Op {
        name: name.into(),
        text: text.into(),
        seed: 1,
        refs: Vec::new(),
    }
}

#[test]
fn invalid_specs_count_as_failed_operations() {
    let ops = [
        tiny_op("good", TINY),
        tiny_op("unparsable", "this is not a spec"),
        tiny_op("invalid", &TINY.replace("target = 1", "target = 9")),
    ];
    let cfg = RunConfig {
        budget: Duration::ZERO,
        time_plan: false,
    };
    let run = run_workload(&ops, &cfg);
    // One warm-up and MIN_PASSES timed passes over three operations.
    let passes = 1 + MIN_PASSES as u64;
    assert_eq!(run.attempted, 3 * passes);
    assert_eq!(run.failed, 2 * passes);
    assert_eq!(run.failures.len(), 2, "{:?}", run.failures);
    assert!(run.ops[0].outcome.is_some());
    assert_eq!(run.ops[0].exec_ns.len(), MIN_PASSES);
    assert!(run.ops[1].exec_ns.is_empty() && run.ops[2].exec_ns.is_empty());
}

fn outcome(reports: Vec<(usize, RoleReport)>) -> ScenarioOutcome {
    ScenarioOutcome {
        name: "t".into(),
        seed: 1,
        end: SimTime::ZERO,
        reports,
    }
}

const INCAST: &str = "name = \"t\"\n\n[topology]\nkind = \"single_switch\"\nhosts = 3\n\n\
    [[role]]\nnode = 0\nkind = \"bsg\"\ntarget = 2\n\n\
    [[role]]\nnode = 1\nkind = \"rperf\"\ntarget = 2\n\n\
    [[role]]\nnode = 2\nkind = \"sink\"\n";

fn rperf_with(count: u64) -> RoleReport {
    let summary = LatencySummary {
        count,
        min_ps: 1,
        mean_ps: 1.0,
        p50_ps: 1,
        p90_ps: 1,
        p99_ps: 1,
        p999_ps: 1,
        max_ps: 1,
    };
    RoleReport::RPerf(RPerfReport {
        summary,
        iterations: count,
        inversions: 0,
    })
}

#[test]
fn outcome_checks_catch_empty_rtt_roles_and_impossible_goodput() {
    let ok = outcome(vec![(0, RoleReport::BsgGbps(50.0)), (1, rperf_with(10))]);
    assert!(check_outcome(INCAST, &ok).is_ok());
    let empty = outcome(vec![(0, RoleReport::BsgGbps(50.0)), (1, rperf_with(0))]);
    assert!(check_outcome(INCAST, &empty).is_err());
    let too_fast = outcome(vec![
        (0, RoleReport::BsgGbps(LINK_GBPS + 1.0)),
        (1, rperf_with(10)),
    ]);
    assert!(check_outcome(INCAST, &too_fast).is_err());
}

#[test]
fn conservation_check_catches_lost_and_duplicated_packets() {
    // 10 packets allocated, 8 sent, 5 received: 3 in flight and 2 queued
    // at the horizon.
    let ok = Counters {
        tx_pkts: 8,
        rx_pkts: 5,
        slab_allocated: 10,
        slab_live: 5,
        ..Counters::default()
    };
    assert!(check_conservation(&ok).is_ok());
    // A packet freed without reaching an RNIC (dropped in the network).
    let dropped = Counters { slab_live: 4, ..ok };
    assert!(check_conservation(&dropped).is_err());
    // A packet received twice.
    let duplicated = Counters {
        rx_pkts: 9,
        slab_live: 1,
        ..ok
    };
    assert!(check_conservation(&duplicated).is_err());
    // A packet transmitted that never came out of the slab.
    let phantom = Counters { tx_pkts: 11, ..ok };
    assert!(check_conservation(&phantom).is_err());
}
