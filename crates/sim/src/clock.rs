//! Virtual time, the deterministic event queue, and the failure
//! detection that runs on them.
//!
//! The simulator never reads a real clock (consistent with the repo's
//! `instant-now` lint): time is a `u64` tick counter that only advances
//! when the scheduler pops the next event. Determinism rests on two
//! properties enforced here:
//!
//! * **total order** — events are ordered by `(time, ticket)`, where the
//!   ticket is the insertion sequence number, so simultaneous events pop
//!   in the order they were scheduled, never in heap-internal order;
//! * **monotonicity** — popping asserts that virtual time never moves
//!   backwards, so a handler scheduling into the past is a bug caught at
//!   the source.
//!
//! A primary beats on a seeded, jittered [`HeartbeatConfig`] schedule and
//! the worker runs one [`FailureDetector`] per shard over the same ticks.
//! Detection lives here because the simulator is its only user; what a
//! group does once a failure is suspected is `el_pipeline::ReplicaGroup`'s
//! `kill` and `promote`, which the trainer's kill drill calls too, and
//! `catch_up`.

use el_pipeline::replica::splitmix64;
use std::collections::BinaryHeap;

/// One scheduled event. Ordering compares `(time, ticket)` only — the
/// payload never participates, so `E` needs no `Ord`.
struct Scheduled<E> {
    time: u64,
    ticket: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.ticket == other.ticket
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, ticket) first.
        other.time.cmp(&self.time).then_with(|| other.ticket.cmp(&self.ticket))
    }
}

/// A deterministic discrete-event scheduler with a virtual clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_ticket: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at tick 0.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_ticket: 0, now: 0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire `delay` ticks from now.
    pub fn schedule(&mut self, delay: u64, event: E) {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.heap.push(Scheduled { time: self.now.saturating_add(delay), ticket, event });
    }

    /// Pops the next event, advancing the virtual clock to its fire time.
    pub fn pop(&mut self) -> Option<E> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "virtual time must not regress");
        self.now = s.time;
        Some(s.event)
    }
}

/// Heartbeat schedule with deterministic seeded jitter: interval `every`
/// plus `splitmix64(seed ^ n) % (jitter + 1)` for the n-th beat — the same
/// seed always yields the same schedule, so seeded replays stay
/// bit-for-bit while distinct shards decorrelate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Base ticks between heartbeats.
    pub every: u64,
    /// Ticks of silence before suspicion.
    pub suspicion_after: u64,
    /// Maximum jitter added to each interval.
    pub jitter: u64,
    /// Jitter seed (mix in the shard/rank identity).
    pub seed: u64,
}

impl HeartbeatConfig {
    /// Maximum jitter a beat interval of `every` ticks carries (half the
    /// interval, at least one tick).
    pub fn max_jitter(every: u64) -> u64 {
        (every / 2).max(1)
    }

    /// Minimum safe suspicion timeout for a beat interval of `every`
    /// ticks: one full interval plus its maximum jitter plus one tick,
    /// so a single maximally jittered heartbeat gap can never trip the
    /// detector on its own.
    pub fn min_suspicion(every: u64) -> u64 {
        every + Self::max_jitter(every) + 1
    }

    /// Delay before the `n`-th heartbeat.
    pub fn delay(&self, n: u64) -> u64 {
        self.every + splitmix64(self.seed ^ n) % (self.jitter + 1)
    }
}

/// Failure detector over virtual ticks: records the last time a
/// heartbeat was heard and reports suspicion after a typed timeout.
#[derive(Clone, Copy, Debug)]
pub struct FailureDetector {
    suspicion_after: u64,
    last_heard: u64,
}

impl FailureDetector {
    /// A detector that considers `now` the moment it last heard from the
    /// peer (grace on creation and on failover).
    pub fn new(suspicion_after: u64, now: u64) -> Self {
        Self { suspicion_after: suspicion_after.max(1), last_heard: now }
    }

    /// Records a heartbeat (monotone: a late-delivered old beat never
    /// moves the watermark backwards).
    pub fn record_heartbeat(&mut self, now: u64) {
        self.last_heard = self.last_heard.max(now);
    }

    /// Ticks since the peer was last heard.
    pub fn silent_for(&self, now: u64) -> u64 {
        now.saturating_sub(self.last_heard)
    }

    /// `Some(silent_for)` once silence reaches the suspicion timeout.
    pub fn suspected(&self, now: u64) -> Option<u64> {
        let silent = self.silent_for(now);
        (silent >= self.suspicion_after).then_some(silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "c");
        q.schedule(1, "a");
        q.schedule(3, "b");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.now(), 1);
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for k in 0..100 {
            q.schedule(7, k);
        }
        for k in 0..100 {
            assert_eq!(q.pop(), Some(k));
        }
    }

    #[test]
    fn delays_compose_from_current_time() {
        let mut q = EventQueue::new();
        q.schedule(2, "first");
        assert_eq!(q.pop(), Some("first"));
        q.schedule(2, "second"); // scheduled at now=2, fires at 4
        assert_eq!(q.pop(), Some("second"));
        assert_eq!(q.now(), 4);
    }

    #[test]
    fn suspicion_clamp_covers_a_maximally_jittered_gap() {
        assert_eq!(HeartbeatConfig::max_jitter(8), 4);
        assert_eq!(HeartbeatConfig::min_suspicion(8), 13);
        assert_eq!(HeartbeatConfig::min_suspicion(1), 3);
        // At the clamped timeout, no maximally jittered beat looks late.
        for every in [1, 2, 8, 31] {
            let hb = HeartbeatConfig {
                every,
                suspicion_after: HeartbeatConfig::min_suspicion(every),
                jitter: HeartbeatConfig::max_jitter(every),
                seed: 0xE1 ^ every,
            };
            assert!((0..256).all(|n| hb.delay(n) < hb.suspicion_after));
        }
    }

    #[test]
    fn failure_detector_suspects_after_typed_timeout() {
        let mut det = FailureDetector::new(30, 100);
        assert_eq!(det.suspected(129), None);
        assert_eq!(det.suspected(130), Some(30));
        det.record_heartbeat(125);
        assert_eq!(det.suspected(130), None);
        assert_eq!(det.silent_for(140), 15);
        // a late old beat never regresses the watermark
        det.record_heartbeat(60);
        assert_eq!(det.silent_for(140), 15);
    }

    #[test]
    fn heartbeat_jitter_is_deterministic_and_bounded() {
        let hb = HeartbeatConfig { every: 8, suspicion_after: 30, jitter: 4, seed: 0xE1 };
        let a: Vec<u64> = (0..32).map(|n| hb.delay(n)).collect();
        let b: Vec<u64> = (0..32).map(|n| hb.delay(n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().all(|&d| (8..=12).contains(&d)));
        let other = HeartbeatConfig { seed: 0xE2, ..hb };
        assert_ne!(a, (0..32).map(|n| other.delay(n)).collect::<Vec<_>>());
    }
}
