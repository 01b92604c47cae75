//! Differential property tests: the timer-wheel [`EventQueue`] must be
//! observationally identical to the [`HeapEventQueue`] reference oracle for
//! arbitrary interleaved schedule/pop sequences.

use proptest::prelude::*;
use rperf_sim::reference::HeapEventQueue;
use rperf_sim::{EventQueue, SimTime};

/// Replays one interleaved op sequence through both queues and asserts every
/// observable (pop results, peek, now, len, popped counter) matches.
///
/// `ops` encodes the interleaving: each element is a delay in picoseconds to
/// schedule relative to the queue's `now` when even-ish, or a pop when the
/// low bits say so. Delays are always non-negative, so the past-scheduling
/// debug assertion never fires here (that behaviour has its own test below).
fn run_differential(ops: &[(bool, u64)]) -> Result<(), TestCaseError> {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut next_id = 0u64;
    for &(is_pop, delay) in ops {
        if is_pop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(w, h, "pop mismatch");
        } else {
            // Schedule relative to the wheel's own `now` (the heap's `now`
            // is identical — asserted below — so both see the same instant).
            let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(delay));
            wheel.schedule(at, next_id);
            heap.schedule(at, next_id);
            next_id += 1;
        }
        prop_assert_eq!(wheel.now(), heap.now(), "now mismatch");
        prop_assert_eq!(wheel.len(), heap.len(), "len mismatch");
        prop_assert_eq!(wheel.popped(), heap.popped(), "popped mismatch");
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek mismatch");
    }
    // Drain both to the end: the full residual order must match too.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain mismatch");
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

/// Replays an op sequence heavy on same-timestamp bursts. Each op is
/// `(kind, delay, burst)`:
///
/// - `kind % 3 == 0` — pop, compared against the oracle's pop.
/// - `kind % 3 == 1` — single `schedule`, as in [`run_differential`].
/// - `kind % 3 == 2` — adversarial same-timestamp burst: `burst % 17 + 1`
///   back-to-back `schedule` calls at one instant on both queues. FIFO
///   within the burst must survive.
fn run_differential_bursts(ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut next_id = 0u64;
    for &(kind, delay, burst) in ops {
        match kind % 3 {
            0 => prop_assert_eq!(wheel.pop(), heap.pop(), "pop mismatch"),
            1 => {
                let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(delay));
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            }
            _ => {
                let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(delay));
                for _ in 0..burst % 17 + 1 {
                    wheel.schedule(at, next_id);
                    heap.schedule(at, next_id);
                    next_id += 1;
                }
            }
        }
        prop_assert_eq!(wheel.now(), heap.now(), "now mismatch");
        prop_assert_eq!(wheel.len(), heap.len(), "len mismatch");
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek mismatch");
    }
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain mismatch");
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Near-horizon mix: delays within a few wheel buckets, heavy on ties.
    #[test]
    fn wheel_matches_heap_near(ops in prop::collection::vec(
        (any::<bool>(), 0u64..5_000), 1..400))
    {
        run_differential(&ops)?;
    }

    /// Far-horizon mix: delays spanning many cascade levels (ns to ~18 ms),
    /// exercising bucket redistribution on rotation.
    #[test]
    fn wheel_matches_heap_far(ops in prop::collection::vec(
        (any::<bool>(), 0u64..18_000_000_000), 1..200))
    {
        run_differential(&ops)?;
    }

    /// Bimodal mix: mostly same-instant or next-nanosecond events with
    /// occasional huge jumps, the pattern real device models produce.
    #[test]
    fn wheel_matches_heap_bimodal(ops in prop::collection::vec(
        (any::<bool>(), prop::collection::vec(0u64..2, 1..2)), 1..300),
        far in 1_000_000u64..1_000_000_000_000)
    {
        let shaped: Vec<(bool, u64)> = ops
            .iter()
            .enumerate()
            .map(|(i, (is_pop, small))| {
                let delay = if i % 7 == 3 { far } else { small[0] * 800 };
                (*is_pop, delay)
            })
            .collect();
        run_differential(&shaped)?;
    }

    /// Same-timestamp bursts, near horizon: they land in the ready lane
    /// and the overflow heap.
    #[test]
    fn wheel_matches_heap_batched_near(ops in prop::collection::vec(
        (0u8..6, 0u64..5_000, 0u64..40), 1..300))
    {
        run_differential_bursts(&ops)?;
    }

    /// Same-timestamp bursts, far horizon: they hash into deep wheel
    /// levels and cascade back down on rotation as one-tick cohorts.
    #[test]
    fn wheel_matches_heap_batched_far(ops in prop::collection::vec(
        (0u8..6, 0u64..18_000_000_000, 0u64..40), 1..150))
    {
        run_differential_bursts(&ops)?;
    }

    /// Empty-window skips: every round drains the queue to empty, then the
    /// next round schedules a burst far into the future. The first event of
    /// each burst takes the schedule-into-empty cursor jump, the rest of the
    /// burst follows it at the cursor's tick, and both sides must agree
    /// after each skip.
    #[test]
    fn wheel_matches_heap_empty_window_skips(rounds in prop::collection::vec(
        (1u64..8, 1_000u64..1_000_000_000_000), 1..40))
    {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut next_id = 0u64;
        for &(burst, jump) in &rounds {
            let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(jump));
            for _ in 0..burst {
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            }
            for _ in 0..burst {
                prop_assert_eq!(wheel.pop(), heap.pop(), "skip-round pop mismatch");
            }
            prop_assert!(wheel.is_empty(), "wheel not drained after round");
            prop_assert_eq!(wheel.now(), heap.now(), "now mismatch after round");
        }
    }
}

/// The wheel keeps the heap's past-scheduling contract: debug builds panic.
#[test]
#[should_panic(expected = "scheduled in the past")]
fn wheel_panics_on_past_schedule_like_heap() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.schedule(SimTime::from_ns(10), ());
    q.pop();
    q.schedule(SimTime::from_ns(5), ());
}

/// And so does the oracle itself (documents that both sides enforce it).
#[test]
#[should_panic(expected = "scheduled in the past")]
fn heap_panics_on_past_schedule() {
    let mut q: HeapEventQueue<()> = HeapEventQueue::new();
    q.schedule(SimTime::from_ns(10), ());
    q.pop();
    q.schedule(SimTime::from_ns(5), ());
}
