//! Every `Sim::run_*` method goes through one driver loop and one
//! accounting site. This file holds a single test, so it runs alone in its
//! process and no concurrent simulation moves the process-wide counters.

use std::any::Any;

use rperf_fabric::{events_processed_total, packets_leaked_total, App, Ctx, Fabric, Sim};
use rperf_model::{ClusterConfig, QpNum, Transport, Verb};
use rperf_sim::{RunOutcome, SimTime};
use rperf_verbs::{Cqe, CqeOpcode, SendWr, WrId};
use rperf_workloads::Sink;

const SOURCES: usize = 4;
const MESSAGES: u64 = 40;
const WINDOW: u64 = 8;
const PAYLOAD: u64 = 2048;

/// Sends `MESSAGES` RC SENDs to `target`, `WINDOW` in flight, then stops.
struct Burst {
    target: usize,
    posted: u64,
    qp: Option<QpNum>,
}

impl Burst {
    fn post(&mut self, ctx: &mut Ctx<'_>, qp: QpNum) {
        let wr = SendWr::new(WrId(self.posted), Verb::Send, PAYLOAD)
            .to(ctx.lid_of(self.target), QpNum::new(1));
        ctx.post_send(qp, wr).expect("send queue has room");
        self.posted += 1;
    }
}

impl App for Burst {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        self.qp = Some(qp);
        for _ in 0..WINDOW {
            self.post(ctx, qp);
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode == CqeOpcode::Send && self.posted < MESSAGES {
            let qp = self.qp.expect("CQE after start");
            self.post(ctx, qp);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `SOURCES` finite bursts incast through one switch into a [`Sink`].
fn incast() -> Sim {
    let cfg = ClusterConfig::omnet_simulator();
    let mut sim = Sim::new(Fabric::single_switch(cfg, SOURCES + 1, 5));
    for node in 0..SOURCES {
        sim.add_app(
            node,
            Box::new(Burst {
                target: SOURCES,
                posted: 0,
                qp: None,
            }),
        );
    }
    sim.add_app(SOURCES, Box::new(Sink::new()));
    sim.start();
    sim
}

fn recvs(sim: &Sim) -> u64 {
    sim.app_as::<Sink>(SOURCES).recvs()
}

#[test]
fn chained_runs_account_like_one_uninterrupted_run() {
    let mut whole = incast();
    whole.run_to_quiescence();
    assert_eq!(recvs(&whole), SOURCES as u64 * MESSAGES);

    let before = events_processed_total();
    let mut sim = incast();
    sim.run_until(SimTime::from_us(5));
    let at_t1 = sim.events_processed();
    assert!(at_t1 > 0);
    assert!(
        recvs(&sim) < recvs(&whole),
        "the horizon must cut the incast"
    );

    // Cancelled on the third poll: exactly two chunks of 64 events run.
    let mut polls = 0;
    let out = sim.run_until_budgeted(SimTime::from_us(500), u64::MAX, 64, &mut || {
        polls += 1;
        polls > 2
    });
    assert_eq!(out, RunOutcome::Cancelled);
    assert_eq!(sim.events_processed(), at_t1 + 128);

    sim.run_to_quiescence();
    assert_eq!(events_processed_total() - before, sim.events_processed());
    assert_eq!(sim.events_processed(), whole.events_processed());
    assert_eq!(packets_leaked_total(), 0);
    assert_eq!(recvs(&sim), recvs(&whole));
}
