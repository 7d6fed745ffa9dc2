//! The open-loop scheduler.
//!
//! Requests are due at times fixed before the run starts, whatever the
//! callee does. The scheduler never waits for a response before the next
//! arrival, so a stall in the callee shows up as latency on every request
//! that was due during the stall (no coordinated omission): latency is
//! always measured from the *intended* send time, and how late the
//! generator itself ran is recorded per request.

/// What the scheduler drives. The serving tier implements this over a
/// `ServeHandle`; the unit tests implement it over a virtual clock.
pub trait Target {
    /// Nanoseconds on the clock completion stamps live on.
    fn now_ns(&mut self) -> u64;
    /// Request `i` is due (or overdue): send it now.
    fn submit(&mut self, i: usize);
    /// Nothing is due before `until_ns`: drain completions, then yield or
    /// sleep a little. May return early.
    fn idle(&mut self, until_ns: u64);
}

/// Sends request `i` when `base_ns + arrivals_ns[i]` is reached, in order.
/// Returns how late each request was sent (0 when on time).
pub fn run(arrivals_ns: &[u64], base_ns: u64, target: &mut impl Target) -> Vec<u64> {
    let mut late = Vec::with_capacity(arrivals_ns.len());
    for (i, &a) in arrivals_ns.iter().enumerate() {
        let due = base_ns + a;
        loop {
            let now = target.now_ns();
            if now >= due {
                late.push(now - due);
                break;
            }
            target.idle(due);
        }
        target.submit(i);
    }
    late
}

/// Latency of a request completed at `done_ns` that was due at
/// `base_ns + arrival_ns`.
pub fn latency_ns(done_ns: u64, base_ns: u64, arrival_ns: u64) -> u64 {
    done_ns.saturating_sub(base_ns + arrival_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-server queue on a virtual clock: `submit` costs the caller
    /// `submit_cost[i]` ns (a stalled callee blocks the generator), service
    /// takes `service_ns` per request, FIFO.
    struct Virtual {
        now: u64,
        submit_cost: Vec<u64>,
        service_ns: u64,
        server_free_at: u64,
        done_ns: Vec<u64>,
    }

    impl Target for Virtual {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn submit(&mut self, i: usize) {
            self.now += self.submit_cost[i];
            let start = self.now.max(self.server_free_at);
            self.server_free_at = start + self.service_ns;
            self.done_ns[i] = self.server_free_at;
        }
        fn idle(&mut self, until_ns: u64) {
            self.now = until_ns;
        }
    }

    fn virtual_target(n: usize, service_ns: u64) -> Virtual {
        Virtual {
            now: 0,
            submit_cost: vec![0; n],
            service_ns,
            server_free_at: 0,
            done_ns: vec![0; n],
        }
    }

    #[test]
    fn on_time_generator_measures_pure_service_time() {
        let arrivals: Vec<u64> = (0..10).map(|i| i * 1_000).collect();
        let mut t = virtual_target(10, 100);
        let late = run(&arrivals, 0, &mut t);
        assert!(late.iter().all(|&l| l == 0));
        for (i, &a) in arrivals.iter().enumerate() {
            assert_eq!(latency_ns(t.done_ns[i], 0, a), 100);
        }
    }

    #[test]
    fn a_stalled_callee_is_charged_to_every_request_due_during_the_stall() {
        // One request per microsecond; submitting request 3 blocks 5 us.
        let arrivals: Vec<u64> = (0..10).map(|i| i * 1_000).collect();
        let mut t = virtual_target(10, 100);
        t.submit_cost[3] = 5_000;
        let late = run(&arrivals, 0, &mut t);
        // Requests 4..=8 were due while the generator was blocked.
        assert_eq!(&late[..4], &[0, 0, 0, 0]);
        assert_eq!(late[4], 4_000);
        assert_eq!(late[5], 3_000);
        assert_eq!(late[8], 0);
        // A closed loop would time request 4 from its (late) send and report
        // ~100 ns; timed from the intended send it carries the stall.
        assert!(latency_ns(t.done_ns[4], 0, arrivals[4]) >= 4_000 + 100);
        assert!(latency_ns(t.done_ns[5], 0, arrivals[5]) >= 3_000 + 100);
        // The schedule itself never slipped: request 9 is back on time.
        assert_eq!(late[9], 0);
        assert_eq!(latency_ns(t.done_ns[9], 0, arrivals[9]), 100);
    }

    #[test]
    fn a_slow_server_builds_a_queue_the_generator_does_not_wait_for() {
        // Service 3 us against 1 us arrivals: the backlog grows linearly and
        // every request is still sent on time.
        let arrivals: Vec<u64> = (0..8).map(|i| i * 1_000).collect();
        let mut t = virtual_target(8, 3_000);
        let late = run(&arrivals, 500, &mut t);
        assert!(late.iter().all(|&l| l == 0));
        let lat: Vec<u64> = (0..8).map(|i| latency_ns(t.done_ns[i], 500, arrivals[i])).collect();
        assert_eq!(lat[0], 3_000);
        assert!(lat.windows(2).all(|w| w[1] == w[0] + 2_000));
    }
}
