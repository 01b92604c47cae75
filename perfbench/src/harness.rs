//! Runs one operation two ways and checks they agree.
//!
//! * [`execute_op`] is what a user waits for: `ScenarioSpec::parse`
//!   followed by `rperf::execute`.
//! * [`staged_op`] drives the same pipeline through the simulator's
//!   public layer entry points — `ScenarioSpec::parse`/`validate`,
//!   `FabricBuilder::build`, `Sim::new`/`start`/`run_until_budgeted` — so
//!   each stage can be timed from outside and the devices' counters read
//!   after the run. It must reproduce `rperf::execute`'s outcome JSON byte
//!   for byte; the caller checks that on every pass.
//!
//! Nothing here adds instrumentation to the simulator: stages are timed
//! around public calls, and the per-event-kind handler counters are the
//! simulator's own `sim-prof` layer, compiled in only by the `trace`
//! feature.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rperf::{
    PerftestClient, PerftestConfig, PingPongServer, QosMode, QperfClient, QperfConfig, RPerf,
    RPerfConfig, Role, RoleReport, RoleSpec, ScenarioOutcome, ScenarioSpec,
};
use rperf_fabric::{App, FabricBuilder, Sim, Topology};
use rperf_sim::{SimDuration, SimTime};
use rperf_stats::LatencySummary;
use rperf_subnet::TopologySpec;
use rperf_workloads::{build_workload, Bsg, ClosedLoopPing, PretendLsg, Sink, WorkloadRole};

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The user path: parse the text and execute it. Returns the outcome and
/// the host nanoseconds from text to outcome.
pub fn execute_op(text: &str, seed: u64) -> Result<(ScenarioOutcome, u64), String> {
    guarded(|| {
        let t = Instant::now();
        let spec = ScenarioSpec::parse(text).map_err(|e| format!("spec parse: {e}"))?;
        let out = rperf::execute(&spec, seed);
        Ok((out, nanos_since(t)))
    })
}

/// Host time of each set-up stage of one staged execution, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `ScenarioSpec::parse` + `validate`.
    pub parse_ns: u64,
    /// `rperf_subnet::plan` over the topology's switch graph, timed on
    /// its own (only when `time_plan` is set; 0 for switchless fabrics).
    pub plan_ns: u64,
    /// `FabricBuilder::build`.
    pub build_ns: u64,
    /// Spec text to started simulation: parse, validate, build,
    /// `Sim::new`, app construction and `Sim::start` (excludes `plan_ns`).
    pub setup_ns: u64,
}

/// Device and engine counters read after the run phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `Sim::events_processed`.
    pub events: u64,
    /// Data packets delivered to a destination RNIC
    /// (Σ `rx_packets − acks_received`).
    pub delivered: u64,
    /// Σ `RnicStats::tx_packets`.
    pub tx_pkts: u64,
    /// Σ `RnicStats::rx_packets`.
    pub rx_pkts: u64,
    /// Σ `SwitchStats::forwarded_packets`.
    pub fwd_pkts: u64,
    /// Σ `SwitchStats::credit_stalls`.
    pub credit_stalls: u64,
    /// Σ `SwitchStats::buffer_violations`.
    pub buffer_violations: u64,
    /// The packet slab's high-water mark.
    pub slab_high_water: u64,
    /// Packets ever allocated in the slab.
    pub slab_allocated: u64,
    /// Packets still in the slab when the run stopped.
    pub slab_live: u64,
}

/// Packet conservation at a horizon. RNICs are the only devices that
/// allocate packets (on post and for ACKs) and the only ones that free
/// them (on arrival), and the fabric is lossless. So every packet put on
/// a wire came out of the slab, every packet received was sent, and the
/// slab's frees are exactly the receptions. Packets stranded in flight at
/// the horizon are legitimate; a packet dropped, duplicated or freed
/// anywhere but at its destination is not.
pub fn check_conservation(c: &Counters) -> Result<(), String> {
    let freed = c.slab_allocated - c.slab_live;
    if c.tx_pkts > c.slab_allocated {
        return Err(format!(
            "{} packets transmitted but only {} ever allocated",
            c.tx_pkts, c.slab_allocated
        ));
    }
    if c.rx_pkts > c.tx_pkts {
        return Err(format!(
            "{} packets received but only {} transmitted",
            c.rx_pkts, c.tx_pkts
        ));
    }
    if freed != c.rx_pkts {
        return Err(format!(
            "{freed} packets left the slab but {} reached an RNIC",
            c.rx_pkts
        ));
    }
    Ok(())
}

/// Per-event-kind handler counts and nanoseconds of the run phase, in
/// `rperf_fabric::prof::KIND_NAMES` order (all zero in untraced builds).
pub type Prof = [(u64, u64); 8];

/// Everything one staged execution produced.
#[derive(Debug, Clone)]
pub struct Staged {
    /// The outcome, serialized exactly as `ScenarioOutcome::to_json`.
    pub outcome: ScenarioOutcome,
    /// Set-up stage timings, one entry per set-up repetition.
    pub setup: Vec<SetupTimes>,
    /// Host nanoseconds inside `Sim::run_until_budgeted`.
    pub run_ns: u64,
    /// Counters read after the run.
    pub counters: Counters,
    /// Handler attribution of the run phase.
    pub prof: Prof,
}

/// The configuration `rperf::execute` derives from a spec.
fn cluster_config(spec: &ScenarioSpec) -> rperf_model::ClusterConfig {
    let cfg = spec.profile.cluster_config().with_policy(spec.policy);
    if spec.qos == QosMode::SharedSl {
        cfg
    } else {
        cfg.with_dedicated_sl()
    }
}

/// The switch graph the subnet planner sees for `topo`, with the port
/// budget it plans against. The dedicated one- and two-switch
/// constructors program their routes without the planner; for them this
/// is the equivalent graph, so the figure is what planning it costs.
fn planned_graph(topo: &Topology, ports: u8) -> Option<(TopologySpec, u8)> {
    match topo {
        Topology::DirectPair => None,
        Topology::SingleSwitch { hosts } => Some((TopologySpec::single_switch(*hosts), ports)),
        Topology::TwoSwitch {
            upstream,
            downstream,
        } => Some((TopologySpec::chain(2, &[*upstream, *downstream]), ports)),
        Topology::Spec(s) => Some((s.clone(), ports)),
        Topology::FatTree(ft) => Some((ft.spec(), ports.max(ft.radix() as u8))),
    }
}

/// Builds the application of one role exactly as `rperf::execute` does.
fn build_app(spec: &ScenarioSpec, r: &RoleSpec, seed: u64) -> Box<dyn App> {
    let sl = r.role.resolved_sl(spec.qos);
    let warmup = spec.warmup;
    match &r.role {
        Role::RPerf {
            target,
            payload,
            seed_salt,
            ..
        } => Box::new(RPerf::new(
            RPerfConfig::new(*target)
                .with_payload(*payload)
                .with_sl(sl)
                .with_warmup(warmup)
                .with_seed(seed ^ *seed_salt),
        )),
        Role::Lsg {
            target, payload, ..
        } => build_workload(
            &WorkloadRole::Lsg {
                target: *target,
                payload: *payload,
                sl,
            },
            warmup,
        ),
        Role::Bsg {
            target,
            payload,
            window,
            batch,
            ..
        } => build_workload(
            &WorkloadRole::Bsg {
                target: *target,
                payload: *payload,
                window: *window,
                batch: *batch,
                sl,
            },
            warmup,
        ),
        Role::PretendLsg { target, chunk, .. } => build_workload(
            &WorkloadRole::PretendLsg {
                target: *target,
                chunk: *chunk,
                sl,
            },
            warmup,
        ),
        Role::Perftest { peer, payload } => Box::new(PerftestClient::new(
            PerftestConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(warmup),
        )),
        Role::PerftestServer { peer, payload } => Box::new(PingPongServer::new(
            PerftestConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(warmup),
        )),
        Role::Qperf { peer, payload } => Box::new(QperfClient::new(
            QperfConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(warmup),
        )),
        Role::Sink => build_workload(&WorkloadRole::Sink, warmup),
    }
}

/// Reads one role's report back out of the finished simulation, exactly
/// as `rperf::execute` does.
fn collect(sim: &Sim, r: &RoleSpec, end: SimTime) -> RoleReport {
    match &r.role {
        Role::RPerf { .. } => RoleReport::RPerf(sim.app_as::<RPerf>(r.node).report()),
        Role::Lsg { .. } => RoleReport::Latency(LatencySummary::from_histogram(
            sim.app_as::<ClosedLoopPing>(r.node).histogram(),
        )),
        Role::Bsg { .. } => RoleReport::BsgGbps(sim.app_as::<Bsg>(r.node).gbps_until(end.as_ps())),
        Role::PretendLsg { .. } => RoleReport::PretendGbps(
            sim.app_as::<PretendLsg>(r.node)
                .bsg()
                .gbps_until(end.as_ps()),
        ),
        Role::Perftest { .. } => {
            RoleReport::Latency(sim.app_as::<PerftestClient>(r.node).summary())
        }
        Role::PerftestServer { .. } => RoleReport::Server,
        Role::Qperf { .. } => RoleReport::Qperf(sim.app_as::<QperfClient>(r.node).report()),
        Role::Sink => RoleReport::Sink {
            recvs: sim.app_as::<Sink>(r.node).recvs(),
        },
    }
}

/// Spec text to started simulation, one stage at a time.
fn set_up(
    text: &str,
    seed: u64,
    time_plan: bool,
) -> Result<(ScenarioSpec, Sim, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let spec = ScenarioSpec::parse(text).map_err(|e| format!("spec parse: {e}"))?;
    spec.validate().map_err(|e| format!("spec validate: {e}"))?;
    times.parse_ns = nanos_since(t);
    if spec.shards != 1 {
        return Err("the benchmark runs the sequential engine only".into());
    }
    let cfg = cluster_config(&spec);
    let before_plan = nanos_since(t);
    if time_plan {
        // Timed apart from the set-up total: the build below plans again.
        if let Some((graph, ports)) = planned_graph(&spec.topology, cfg.switch.ports) {
            let tp = Instant::now();
            let plan = rperf_subnet::plan(&graph, ports);
            times.plan_ns = nanos_since(tp);
            plan.map_err(|e| format!("subnet plan: {e}"))?;
        }
    }
    let t = Instant::now();
    let mut builder = FabricBuilder::new(cfg.clone(), seed);
    for r in &spec.roles {
        if matches!(r.role, Role::PretendLsg { .. }) {
            // The adversary's hot posting engine, as `rperf::execute`
            // models it.
            let mut hot = cfg.rnic.clone();
            hot.wqe_engine = SimDuration::from_ns(65);
            builder = builder.with_rnic_override(r.node, hot);
        }
    }
    let tb = Instant::now();
    let fabric = builder.build(&spec.topology);
    times.build_ns = nanos_since(tb);
    let mut sim = Sim::new(fabric);
    for r in &spec.roles {
        sim.add_app(r.node, build_app(&spec, r, seed));
    }
    sim.start();
    times.setup_ns = before_plan + nanos_since(t);
    Ok((spec, sim, times))
}

#[cfg(feature = "trace")]
fn prof_reset() {
    rperf_fabric::prof::reset();
}

#[cfg(not(feature = "trace"))]
fn prof_reset() {}

#[cfg(feature = "trace")]
fn prof_read() -> Prof {
    let mut out = [(0, 0); 8];
    for (slot, e) in out.iter_mut().zip(rperf_fabric::prof::snapshot()) {
        *slot = (e.count, e.nanos);
    }
    out
}

#[cfg(not(feature = "trace"))]
fn prof_read() -> Prof {
    [(0, 0); 8]
}

/// Set-up repetitions per staged execution; each one is a `setup_s`
/// sample.
pub const SETUP_REPS: usize = 3;

/// The staged path: [`SETUP_REPS`] timed set-ups (the last one is run),
/// the run phase, then the report collection of `rperf::execute`.
pub fn staged_op(text: &str, seed: u64, time_plan: bool) -> Result<Staged, String> {
    guarded(|| {
        let mut setup = Vec::with_capacity(SETUP_REPS);
        let mut last: Option<(ScenarioSpec, Sim)> = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous repetition before timing the next, so
            // its deallocation is not charged to set-up.
            drop(last.take());
            let (spec, sim, times) = set_up(text, seed, time_plan)?;
            setup.push(times);
            last = Some((spec, sim));
        }
        let (spec, mut sim) = last.expect("at least one set-up repetition");
        let end = SimTime::ZERO + spec.warmup + spec.duration;
        prof_reset();
        let t = Instant::now();
        // The same entry point and budget `rperf::execute` uses, so the
        // dispatch path (unbatched, budget-checked) is the one measured.
        let mut never = || false;
        let _ = sim.run_until_budgeted(end, u64::MAX, 8192, &mut never);
        let run_ns = nanos_since(t);
        let prof = prof_read();

        let reports = spec
            .roles
            .iter()
            .map(|r| (r.node, collect(&sim, r, end)))
            .collect();
        let outcome = ScenarioOutcome {
            name: spec.name.clone(),
            seed,
            end,
            reports,
        };

        let fabric = sim.fabric();
        let mut counters = Counters {
            events: sim.events_processed(),
            slab_high_water: fabric.slab().high_water() as u64,
            slab_allocated: fabric.slab().allocated(),
            slab_live: fabric.slab().live() as u64,
            ..Counters::default()
        };
        for node in 0..fabric.nodes() {
            let s = fabric.rnic(node).stats();
            counters.delivered += s.rx_packets - s.acks_received;
            counters.tx_pkts += s.tx_packets;
            counters.rx_pkts += s.rx_packets;
        }
        for idx in 0..fabric.switches_len() {
            let s = fabric.switch(idx).stats();
            counters.fwd_pkts += s.forwarded_packets;
            counters.credit_stalls += s.credit_stalls;
            counters.buffer_violations += s.buffer_violations;
        }
        Ok(Staged {
            outcome,
            setup,
            run_ns,
            counters,
            prof,
        })
    })
}

/// The destination link's capacity: summed goodput into one node above
/// it means the simulator delivered more than the wire can carry.
pub const LINK_GBPS: f64 = 56.0;

/// The outcome-level checks of one operation: every RTT role measured at
/// least one sample, and no destination received more goodput than its
/// link carries. Returns the first violation.
pub fn check_outcome(spec_text: &str, out: &ScenarioOutcome) -> Result<(), String> {
    let spec = ScenarioSpec::parse(spec_text).map_err(|e| format!("spec parse: {e}"))?;
    let mut into: Vec<(usize, f64)> = Vec::new();
    for (node, report) in &out.reports {
        let samples = match report {
            RoleReport::RPerf(r) => Some(r.summary.count),
            RoleReport::Latency(s) => Some(s.count),
            RoleReport::Qperf(q) => Some(q.iterations),
            _ => None,
        };
        if samples == Some(0) {
            return Err(format!("RTT role on node {node} recorded no samples"));
        }
        if let RoleReport::BsgGbps(g) | RoleReport::PretendGbps(g) = report {
            let target = spec
                .roles
                .iter()
                .find(|r| r.node == *node)
                .and_then(|r| match r.role {
                    Role::Bsg { target, .. } | Role::PretendLsg { target, .. } => Some(target),
                    _ => None,
                })
                .ok_or_else(|| format!("generator on node {node} has no target in the spec"))?;
            match into.iter_mut().find(|(t, _)| *t == target) {
                Some((_, sum)) => *sum += g,
                None => into.push((target, *g)),
            }
        }
    }
    for (target, gbps) in into {
        if gbps > LINK_GBPS {
            return Err(format!(
                "{gbps:.3} Gbps of generator goodput into node {target} exceeds the {LINK_GBPS} Gbps link"
            ));
        }
    }
    Ok(())
}
