//! The workload generator: a pure function from (workload, seed) to the
//! list of operations a run executes.
//!
//! An operation is one scenario execution, from spec text to outcome. The
//! generator emits spec *text* — the same input a user hands to
//! `rperf-cli scenario` — so parsing is part of what is measured. The
//! scenario composition of every workload is fixed; the seed only picks
//! the simulation seed and, on `clos_scale`, where the flows sit.

use rperf_bench::paper;

/// The four traffic regimes the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 4 and 6: closed-loop probes on an idle fabric.
    ZeroLoadLatency,
    /// Fig. 5: one uncontended BSG at line rate.
    LineRateBulk,
    /// Figs. 7–9, 12–13: five sources converging on one switch port.
    ConvergedIncast,
    /// A 128-host k = 8 3-tier fat-tree with seeded incast groups.
    ClosScale,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ZeroLoadLatency,
        Workload::LineRateBulk,
        Workload::ConvergedIncast,
        Workload::ClosScale,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZeroLoadLatency => "zero_load_latency",
            Workload::LineRateBulk => "line_rate_bulk",
            Workload::ConvergedIncast => "converged_incast",
            Workload::ClosScale => "clos_scale",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which simulated number of an outcome a paper reference is compared to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Median RPerf switch RTT on `node`, in ns.
    RperfP50Ns(usize),
    /// Median RPerf switch RTT on `node`, in µs.
    RperfP50Us(usize),
    /// Median application RTT (perftest) on `node`, in µs.
    LatencyP50Us(usize),
    /// qperf's average RTT on `node`, in µs.
    QperfAvgUs(usize),
    /// Goodput of the generator on `node`, in Gbps.
    Gbps(usize),
    /// Summed goodput of every BSG and pretend LSG, in Gbps.
    TotalGbps,
}

/// One published data point an operation reproduces.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRef {
    /// Where the number is published.
    pub label: &'static str,
    /// The simulated number it is compared with.
    pub measure: Measure,
    /// The published value, in the unit of `measure`.
    pub reference: f64,
}

/// One operation: a scenario spec in text form plus its simulation seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Short label, unique within the workload.
    pub name: String,
    /// The spec text handed to `ScenarioSpec::parse`.
    pub text: String,
    /// The simulation seed handed to `rperf::execute`.
    pub seed: u64,
    /// Published points this operation reproduces.
    pub refs: Vec<PaperRef>,
}

/// Builds the operations of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<Op> {
    match workload {
        Workload::ZeroLoadLatency => zero_load_latency(seed),
        Workload::LineRateBulk => line_rate_bulk(seed),
        Workload::ConvergedIncast => converged_incast(seed),
        Workload::ClosScale => clos_scale(seed),
    }
}

/// Incremental spec-text writer for the subset of the format used here.
struct Spec(String);

impl Spec {
    fn new(name: &str, warmup_us: u64, duration_us: u64) -> Spec {
        Spec(format!(
            "name = \"{name}\"\nwarmup_us = {warmup_us}\nduration_us = {duration_us}\n"
        ))
    }

    fn line(mut self, line: &str) -> Spec {
        self.0.push_str(line);
        self.0.push('\n');
        self
    }

    fn topology(self, lines: &str) -> Spec {
        self.line("\n[topology]").line(lines)
    }

    fn role(self, node: usize, kind: &str, fields: &[(&str, u64)]) -> Spec {
        let mut s = self.line(&format!("\n[[role]]\nnode = {node}\nkind = \"{kind}\""));
        for (key, value) in fields {
            s = s.line(&format!("{key} = {value}"));
        }
        s
    }
}

fn op(name: String, spec: Spec, seed: u64, refs: Vec<PaperRef>) -> Op {
    Op {
        name,
        text: spec.0,
        seed,
        refs,
    }
}

/// The published p50 at `x` in a `(x, p50, p99.9)` table.
fn p50_at(table: &[paper::LatPoint], x: f64) -> f64 {
    table
        .iter()
        .find(|p| p.0 == x)
        .map(|p| p.1)
        .expect("reference table has the point")
}

fn pair_topology(through_switch: bool) -> &'static str {
    if through_switch {
        "kind = \"single_switch\"\nhosts = 2"
    } else {
        "kind = \"direct_pair\""
    }
}

/// RPerf with and without the switch, perftest and qperf through it, at
/// 64 and 4096 B; closed loop, one outstanding message per probe.
fn zero_load_latency(seed: u64) -> Vec<Op> {
    const WARMUP_US: u64 = 200;
    const DURATION_US: u64 = 8_000;
    let mut ops = Vec::new();
    for payload in [64u64, 4096] {
        for through_switch in [false, true] {
            let (table, label) = if through_switch {
                (paper::FIG4_WITH_SWITCH_NS, "fig4 w/ switch p50")
            } else {
                (paper::FIG4_NO_SWITCH_NS, "fig4 w/o switch p50")
            };
            let spec = Spec::new("zl-rperf", WARMUP_US, DURATION_US)
                .topology(pair_topology(through_switch))
                .role(
                    0,
                    "rperf",
                    &[("target", 1), ("payload", payload), ("seed_salt", 0xA5A5)],
                )
                .role(1, "sink", &[]);
            let refs = vec![PaperRef {
                label,
                measure: Measure::RperfP50Ns(0),
                reference: p50_at(table, payload as f64),
            }];
            let via = if through_switch { "switch" } else { "direct" };
            ops.push(op(format!("rperf_{via}_{payload}"), spec, seed, refs));
        }
    }
    for payload in [64u64, 4096] {
        let spec = Spec::new("zl-perftest", WARMUP_US, DURATION_US)
            .topology(pair_topology(true))
            .role(0, "perftest", &[("peer", 1), ("payload", payload)])
            .role(1, "perftest_server", &[("peer", 0), ("payload", payload)]);
        let refs = vec![PaperRef {
            label: "fig6 perftest p50",
            measure: Measure::LatencyP50Us(0),
            reference: p50_at(paper::FIG6_PERFTEST_US, payload as f64),
        }];
        ops.push(op(format!("perftest_{payload}"), spec, seed, refs));

        let spec = Spec::new("zl-qperf", WARMUP_US, DURATION_US)
            .topology(pair_topology(true))
            .role(0, "qperf", &[("peer", 1), ("payload", payload)])
            .role(1, "sink", &[]);
        let reference = paper::FIG6_QPERF_US
            .iter()
            .find(|p| p.0 == payload as f64)
            .map(|p| p.1)
            .expect("fig6 qperf has the point");
        let refs = vec![PaperRef {
            label: "fig6 qperf avg",
            measure: Measure::QperfAvgUs(0),
            reference,
        }];
        ops.push(op(format!("qperf_{payload}"), spec, seed, refs));
    }
    ops
}

/// One BSG (window 128, batch 1) at 64, 1024 and 4096 B, with and
/// without the switch.
fn line_rate_bulk(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for &(payload, no_switch, with_switch) in paper::FIG5_GBPS {
        for through_switch in [false, true] {
            let spec = Spec::new("bulk", 20, 50)
                .topology(pair_topology(through_switch))
                .role(
                    0,
                    "bsg",
                    &[
                        ("target", 1),
                        ("payload", payload as u64),
                        ("window", 128),
                        ("batch", 1),
                    ],
                )
                .role(1, "sink", &[]);
            let (reference, via) = if through_switch {
                (with_switch, "switch")
            } else {
                (no_switch, "direct")
            };
            let refs = vec![PaperRef {
                label: "fig5 goodput",
                measure: Measure::Gbps(0),
                reference,
            }];
            ops.push(op(format!("bsg_{via}_{payload}"), spec, seed, refs));
        }
    }
    ops
}

/// Five sources plus an RPerf victim converging on one switch port:
/// 4096 B BSGs under FCFS on a shared SL, 64 B and 256 B BSGs batched
/// ×16, and the dedicated-SL setup gamed by a pretend LSG.
fn converged_incast(seed: u64) -> Vec<Op> {
    const DEST: usize = 6;
    const VICTIM: usize = 5;
    let victim = |s: Spec| {
        s.role(
            VICTIM,
            "rperf",
            &[("target", DEST as u64), ("seed_salt", 0x15C)],
        )
        .role(DEST, "sink", &[])
    };
    let bsgs = |mut s: Spec, n: usize, payload: u64, batch: u64| {
        for node in 0..n {
            s = s.role(
                node,
                "bsg",
                &[
                    ("target", DEST as u64),
                    ("payload", payload),
                    ("window", 128),
                    ("batch", batch),
                ],
            );
        }
        s
    };
    let topo = "kind = \"single_switch\"\nhosts = 7";
    let mut ops = Vec::new();

    let spec = bsgs(
        Spec::new("incast-fcfs", 150, 1_500).topology(topo),
        5,
        4096,
        1,
    );
    let victim_us = Measure::RperfP50Us(VICTIM);
    let fig9_4096 = paper::FIG9_GBPS
        .iter()
        .find(|p| p.0 == 4096.0)
        .map(|p| p.1)
        .expect("fig9 has 4096 B");
    let refs = vec![
        PaperRef {
            label: "fig7a 5 BSGs p50",
            measure: victim_us,
            reference: p50_at(paper::FIG7A_US, 5.0),
        },
        PaperRef {
            label: "fig7b 5 BSGs total",
            measure: Measure::TotalGbps,
            reference: paper::FIG7B_GBPS
                .iter()
                .find(|p| p.0 == 5.0)
                .map(|p| p.1)
                .expect("fig7b has 5 BSGs"),
        },
        PaperRef {
            label: "fig8 4096 B p50",
            measure: victim_us,
            reference: p50_at(paper::FIG8_US, 4096.0),
        },
        PaperRef {
            label: "fig9 4096 B total",
            measure: Measure::TotalGbps,
            reference: fig9_4096,
        },
        PaperRef {
            label: "fig12 shared SL p50",
            measure: victim_us,
            reference: paper::FIG12_US[1].1,
        },
    ];
    ops.push(op("fcfs_4096".into(), victim(spec), seed, refs));

    for payload in [64u64, 256] {
        let spec = bsgs(
            Spec::new("incast-batched", 20, 80).topology(topo),
            5,
            payload,
            16,
        );
        let refs = if payload == 64 {
            vec![
                PaperRef {
                    label: "fig8 64 B p50",
                    measure: victim_us,
                    reference: p50_at(paper::FIG8_US, 64.0),
                },
                PaperRef {
                    label: "fig9 64 B total",
                    measure: Measure::TotalGbps,
                    reference: paper::FIG9_GBPS[0].1,
                },
            ]
        } else {
            Vec::new()
        };
        ops.push(op(format!("batched_{payload}"), victim(spec), seed, refs));
    }

    let spec = bsgs(
        Spec::new("incast-gamed", 50, 200)
            .line("qos = \"gamed\"")
            .topology(topo),
        4,
        4096,
        1,
    )
    .role(4, "pretend_lsg", &[("target", DEST as u64), ("chunk", 256)]);
    let refs = vec![
        PaperRef {
            label: "fig12 dedicated SL + pretend LSG p50",
            measure: victim_us,
            reference: paper::FIG12_US[3].1,
        },
        PaperRef {
            label: "fig13 pretend LSG goodput",
            measure: Measure::Gbps(4),
            reference: paper::FIG13_PRETEND_GBPS,
        },
        PaperRef {
            label: "fig13 gamed total",
            measure: Measure::TotalGbps,
            reference: paper::FIG13_TOTALS_GBPS.0,
        },
    ];
    ops.push(op("gamed".into(), victim(spec), seed, refs));
    ops
}

/// SplitMix64: the benchmark's own placement stream, independent of the
/// simulator's RNG so a change there cannot move the inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Fat-tree shape of `clos_scale`: k = 8, three tiers, 128 hosts in 8
/// pods of 4 edge switches with 4 hosts each, 80 switches. (The
/// 1024-host k = 16 tree is memory-bound: on a shared 2-vCPU host its
/// run-to-run spread exceeded 30%, past every bound the benchmark sets.)
const CLOS_K: usize = 8;
const CLOS_PODS: usize = CLOS_K;
const CLOS_EDGES_PER_POD: usize = CLOS_K / 2;
const CLOS_HOSTS_PER_EDGE: usize = CLOS_K / 2;
/// Operations per run, one incast group each.
const CLOS_OPS: usize = 4;

/// A host slot of the `clos_scale` template: (pod slot, edge slot within
/// the pod, host within the edge).
type Slot = (usize, usize, usize);
/// An incast group: destination, RPerf victim and four BSG sources.
type IncastGroup = (Slot, Slot, [Slot; 4]);

/// The `clos_scale` traffic of operation `g`: an RPerf victim with four
/// BSGs converging on its destination from two other pods, and two
/// background bulk flows between pods four apart. Every flow crosses the
/// core (five switches).
fn clos_template(g: usize) -> (IncastGroup, [(Slot, Slot); 2]) {
    let dst = (2 * g, 0, g);
    let victim = (2 * g + 1, 0, g);
    let bsgs = [0, 1, 2, 3].map(|b| ((2 * g + 2 + b / 2) % CLOS_PODS, 1 + b % 2, g));
    let background = [2 * g, 2 * g + 1].map(|i| ((i, 3, 0), ((i + 4) % CLOS_PODS, 3, 1)));
    ((dst, victim, bsgs), background)
}

/// Seeded placements of the `clos_scale` template on a 128-host k = 8
/// 3-tier fat-tree, one per operation.
///
/// The seed relabels pods and, within each pod, edge switches. Both are
/// automorphisms of the tree and of its destination-LID routing (a host's
/// LID modulo the k/2 equal-cost uplinks only depends on its slot within
/// the edge), so every placement loads the fabric the same way through
/// different switches and ports, and the work per run does not depend on
/// the seed.
fn clos_scale(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix(seed ^ 0xC105_5CA1_E000_0000);
    (0..CLOS_OPS)
        .map(|g| {
            let pods = rng.permutation(CLOS_PODS);
            let edges: Vec<Vec<usize>> = (0..CLOS_PODS)
                .map(|_| rng.permutation(CLOS_EDGES_PER_POD))
                .collect();
            let host = |(pod, edge, h): Slot| {
                (pods[pod] * CLOS_EDGES_PER_POD + edges[pod][edge]) * CLOS_HOSTS_PER_EDGE + h
            };
            let ((dst, victim, bsgs), background) = clos_template(g);
            let dst = host(dst) as u64;
            let mut spec = Spec::new("clos-scale", 20, 100)
                .topology(&format!(
                    "kind = \"fattree\"\nk = {CLOS_K}\ntiers = 3\noversubscription = 1"
                ))
                .role(
                    host(victim),
                    "rperf",
                    &[("target", dst), ("seed_salt", 0xC105 + g as u64)],
                )
                .role(dst as usize, "sink", &[]);
            for b in bsgs {
                spec = spec.role(host(b), "bsg", &[("target", dst), ("payload", 4096)]);
            }
            for (src, dst) in background {
                let dst = host(dst);
                spec = spec
                    .role(
                        host(src),
                        "bsg",
                        &[("target", dst as u64), ("payload", 4096)],
                    )
                    .role(dst, "sink", &[]);
            }
            op(format!("group_{g}"), spec, seed, Vec::new())
        })
        .collect()
}
