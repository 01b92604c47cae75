//! Host cost of the bandwidth regime (Fig. 5): one bulk flow streaming at
//! line rate must cost a bounded number of events per delivered packet,
//! so simulating twice the time costs about twice the work.

use rperf_fabric::{Fabric, Sim};
use rperf_model::ClusterConfig;
use rperf_sim::{SimDuration, SimTime};
use rperf_workloads::{Bsg, BsgConfig, Sink};

/// Events processed and data packets delivered after `horizon` of one
/// 1024 B BSG (window 128) between two directly attached hosts.
fn line_rate_bsg(horizon: SimTime) -> (u64, u64) {
    let cfg = ClusterConfig::omnet_simulator();
    let mut sim = Sim::new(Fabric::direct_pair(cfg, 7));
    sim.add_app(
        0,
        Box::new(Bsg::new(
            BsgConfig::new(1, 1024)
                .with_window(128)
                .with_warmup(SimDuration::ZERO),
        )),
    );
    sim.add_app(1, Box::new(Sink::new()));
    sim.start();
    sim.run_until(horizon);
    (
        sim.events_processed(),
        sim.fabric().rnic(1).stats().rx_packets,
    )
}

#[test]
fn line_rate_bulk_events_grow_linearly_with_time() {
    let t = SimTime::from_us(200);
    let (events_t, delivered_t) = line_rate_bsg(t);
    let (events_2t, delivered_2t) = line_rate_bsg(SimTime::from_us(400));
    assert!(
        delivered_t > 1000,
        "{delivered_t} packets: not at line rate"
    );
    assert!(delivered_2t > delivered_t);
    assert!(
        events_2t as f64 <= 2.2 * events_t as f64,
        "twice the simulated time cost {events_2t} events against {events_t}"
    );
    let per_pkt = events_2t as f64 / delivered_2t as f64;
    assert!(
        per_pkt < 20.0,
        "{per_pkt:.1} events per delivered packet: an RNIC wake storm"
    );
}
