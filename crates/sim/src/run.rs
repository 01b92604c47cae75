//! The simulation driver loop.

use crate::{EventQueue, SimTime};

/// A simulated system: everything that reacts to events.
///
/// The driver ([`run_budgeted`]) pops events in time order and hands each
/// one to [`World::handle`], which may schedule further events on the
/// queue.
pub trait World {
    /// The event type flowing through the system.
    type Event;

    /// Reacts to one event at time `now`, scheduling follow-ups on `q`.
    fn handle(&mut self, now: SimTime, event: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// Why the driver loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    QueueDrained,
    /// The time horizon was reached; the horizon event is left unprocessed.
    HorizonReached,
    /// The event budget was exhausted.
    BudgetExhausted,
    /// The cancellation hook asked the loop to stop.
    Cancelled,
}

/// Runs `world` toward the `horizon` under a hard event budget and a
/// cooperative cancellation hook. This is the simulator's only driver loop.
///
/// The horizon is exclusive: events scheduled exactly at `horizon` are
/// *not* processed, so a run to `t` followed by a run to `t'` > `t` is
/// identical to a single run to `t'`. With `horizon = SimTime::MAX` the run
/// goes on until the queue drains ([`RunOutcome::QueueDrained`]), leaving
/// only events at `SimTime::MAX` itself unprocessed.
///
/// The loop processes events in chunks of `check_every` (clamped to at
/// least 1) and calls `cancelled` between chunks; a `true` return stops the
/// run with [`RunOutcome::Cancelled`] before the next chunk starts. This is
/// the mechanism long-running services use to enforce wall-clock deadlines
/// on simulations without threading `Instant` (banned in this crate — lint
/// rule D2) through the engine: the clock check lives in the caller's
/// closure. `max_events` bounds the total events processed across the call
/// ([`RunOutcome::BudgetExhausted`] when it runs out).
///
/// Chunking does not affect simulation results: events pop in `(time, seq)`
/// order whatever `check_every` is, so an uninterrupted budgeted run is
/// bit-identical to an unbudgeted one (`max_events = check_every =
/// u64::MAX`).
///
/// # Examples
///
/// ```
/// use rperf_sim::{run_budgeted, EventQueue, RunOutcome, SimTime, World};
///
/// struct Counter(u64);
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
///         self.0 += 1;
///         q.schedule(now + rperf_sim::SimDuration::from_ns(1), ());
///     }
/// }
///
/// let mut world = Counter(0);
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::ZERO, ());
/// // Cancel on the second poll: exactly one chunk of 8 events runs.
/// let mut polls = 0;
/// let out = run_budgeted(
///     &mut world,
///     &mut q,
///     SimTime::from_ns(1_000_000),
///     u64::MAX,
///     8,
///     &mut || {
///         polls += 1;
///         polls > 1
///     },
/// );
/// assert_eq!(out, RunOutcome::Cancelled);
/// assert_eq!(world.0, 8);
/// ```
pub fn run_budgeted<W: World>(
    world: &mut W,
    q: &mut EventQueue<W::Event>,
    horizon: SimTime,
    max_events: u64,
    check_every: u64,
    cancelled: &mut dyn FnMut() -> bool,
) -> RunOutcome {
    let check_every = check_every.max(1);
    let mut remaining = max_events;
    loop {
        if cancelled() {
            return RunOutcome::Cancelled;
        }
        if remaining == 0 {
            return RunOutcome::BudgetExhausted;
        }
        let chunk = check_every.min(remaining);
        remaining -= chunk;
        for _ in 0..chunk {
            match q.peek_time() {
                Some(t) if t >= horizon => return RunOutcome::HorizonReached,
                None => return RunOutcome::QueueDrained,
                _ => {}
            }
            // peek_time just returned Some, so pop always yields here.
            if let Some((now, ev)) = q.pop() {
                world.handle(now, ev, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    struct Ticker {
        ticks: Vec<SimTime>,
        period: SimDuration,
    }

    impl World for Ticker {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.ticks.push(now);
            q.schedule(now + self.period, ev + 1);
        }
    }

    fn ticker() -> (Ticker, EventQueue<u32>) {
        let w = Ticker {
            ticks: Vec::new(),
            period: SimDuration::from_ns(10),
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        (w, q)
    }

    /// One unchunked, unbudgeted call: the configuration `Sim::run_until`
    /// drives.
    fn run_plain<W: World>(
        w: &mut W,
        q: &mut EventQueue<W::Event>,
        horizon: SimTime,
    ) -> RunOutcome {
        run_budgeted(w, q, horizon, u64::MAX, u64::MAX, &mut || false)
    }

    #[test]
    fn horizon_is_exclusive_and_resumable() {
        let (mut w, mut q) = ticker();
        let out = run_plain(&mut w, &mut q, SimTime::from_ns(35));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.len(), 4); // t = 0, 10, 20, 30

        // Resuming to a later horizon continues seamlessly.
        let out = run_plain(&mut w, &mut q, SimTime::from_ns(55));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.len(), 6); // + t = 40, 50
    }

    #[test]
    fn event_at_horizon_not_processed() {
        let (mut w, mut q) = ticker();
        run_plain(&mut w, &mut q, SimTime::from_ns(30));
        assert_eq!(w.ticks.last(), Some(&SimTime::from_ns(20)));
    }

    #[test]
    fn budget_stops_runaway() {
        let (mut w, mut q) = ticker();
        let out = run_budgeted(&mut w, &mut q, SimTime::MAX, 100, u64::MAX, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w.ticks.len(), 100);
    }

    #[test]
    fn budgeted_matches_plain_run_when_uninterrupted() {
        let (mut a, mut qa) = ticker();
        let (mut b, mut qb) = ticker();
        let horizon = SimTime::from_ns(95);
        let plain = run_plain(&mut a, &mut qa, horizon);
        let budgeted = run_budgeted(&mut b, &mut qb, horizon, u64::MAX, 3, &mut || false);
        assert_eq!(plain, budgeted);
        assert_eq!(a.ticks, b.ticks);
    }

    #[test]
    fn budgeted_cancellation_stops_between_chunks() {
        let (mut w, mut q) = ticker();
        let mut checks = 0u64;
        let out = run_budgeted(
            &mut w,
            &mut q,
            SimTime::from_ns(1_000_000_000),
            u64::MAX,
            7,
            &mut || {
                checks += 1;
                checks > 3
            },
        );
        assert_eq!(out, RunOutcome::Cancelled);
        assert_eq!(w.ticks.len(), 21); // three full chunks of 7
    }

    #[test]
    fn budgeted_event_budget_is_exact() {
        let (mut w, mut q) = ticker();
        let out = run_budgeted(
            &mut w,
            &mut q,
            SimTime::from_ns(1_000_000_000),
            100,
            8,
            &mut || false,
        );
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w.ticks.len(), 100);
    }

    #[test]
    fn budgeted_horizon_is_exclusive_and_resumable() {
        let (mut w, mut q) = ticker();
        let out = run_budgeted(
            &mut w,
            &mut q,
            SimTime::from_ns(30),
            u64::MAX,
            1024,
            &mut || false,
        );
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.last(), Some(&SimTime::from_ns(20)));
        // Resuming with a different chunk size continues seamlessly.
        let out = run_budgeted(
            &mut w,
            &mut q,
            SimTime::from_ns(55),
            u64::MAX,
            2,
            &mut || false,
        );
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.len(), 6); // t = 0..=50 step 10
    }

    #[test]
    fn empty_queue_drains_immediately() {
        struct Noop;
        impl World for Noop {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut EventQueue<()>) {}
        }
        let mut q = EventQueue::<()>::new();
        assert_eq!(
            run_plain(&mut Noop, &mut q, SimTime::MAX),
            RunOutcome::QueueDrained
        );
    }
}
