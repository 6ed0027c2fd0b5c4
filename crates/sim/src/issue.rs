//! Bounded-window memory-level-parallelism model.
//!
//! Both the host core (whose 36-entry instruction window limits outstanding
//! misses, §3.3 of the paper) and Charon's processing units (whose MAI
//! request buffer holds in-flight requests and which "issue a request every
//! cycle", §4.2) are modeled by the same mechanism: a [`Window`] of at most
//! `capacity` in-flight requests, with a minimum interval between issues.
//!
//! A stream of `n` independent requests with service latency `L`, window `W`
//! and issue interval `i` completes in roughly
//! `max(n·i, n·L/W, bandwidth-limited time)` — exactly the latency/MLP/
//! bandwidth interplay the paper's speedups are built on.

use crate::time::Ps;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A fixed-capacity window of in-flight requests.
///
/// ```
/// use charon_sim::issue::Window;
/// use charon_sim::time::Ps;
///
/// // Two outstanding requests, one issue per ns, each taking 10 ns.
/// let mut w = Window::new(2, Ps::from_ns(1.0));
/// let mut now = Ps::ZERO;
/// for _ in 0..4 {
///     let issue = w.issue(now);
///     w.complete(issue + Ps::from_ns(10.0));
///     now = issue;
/// }
/// // With W=2 the 3rd request waits for the 1st to complete at 10 ns.
/// assert_eq!(w.drain(), Ps::from_ns(10.0) + Ps::from_ns(1.0) + Ps::from_ns(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct Window {
    capacity: usize,
    issue_interval: Ps,
    next_issue: Ps,
    inflight: BinaryHeap<Reverse<Ps>>,
    last_completion: Ps,
    issued: u64,
    stalled: u64,
}

impl Window {
    /// Creates a window holding at most `capacity` in-flight requests, with
    /// at least `issue_interval` between consecutive issues.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, issue_interval: Ps) -> Window {
        assert!(capacity > 0, "window capacity must be positive");
        Window {
            capacity,
            issue_interval,
            next_issue: Ps::ZERO,
            inflight: BinaryHeap::with_capacity(capacity),
            last_completion: Ps::ZERO,
            issued: 0,
            stalled: 0,
        }
    }

    /// Maximum in-flight requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// How many issues had to wait for a window slot (an MLP stall).
    pub fn stalled(&self) -> u64 {
        self.stalled
    }

    /// Number of requests currently in flight (whose completion has been
    /// registered but lies in the future of the last issue).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Returns the earliest time a new request can issue, given `now`,
    /// the issue-rate limit, and window occupancy, and reserves the slot.
    ///
    /// The caller must follow up with [`Window::complete`] once it has
    /// computed the request's completion time through the memory model.
    pub fn issue(&mut self, now: Ps) -> Ps {
        let mut t = now.max(self.next_issue);
        if self.inflight.len() == self.capacity {
            // Window full: wait for the oldest in-flight request to retire.
            let Reverse(first_done) = self.inflight.pop().expect("window non-empty");
            if first_done > t {
                self.stalled += 1;
                t = first_done;
            }
        }
        self.next_issue = t + self.issue_interval;
        self.issued += 1;
        t
    }

    /// Registers the completion time of the most recently issued request.
    pub fn complete(&mut self, done: Ps) {
        debug_assert!(self.inflight.len() < self.capacity, "complete() without matching issue()");
        self.inflight.push(Reverse(done));
        self.last_completion = self.last_completion.max(done);
    }

    /// The time at which every request issued so far has completed.
    pub fn drain(&self) -> Ps {
        self.last_completion
    }

    /// Forgets all in-flight state (used at simulated-thread barriers).
    /// Counters are preserved.
    pub fn reset(&mut self, now: Ps) {
        self.inflight.clear();
        self.next_issue = now;
        self.last_completion = self.last_completion.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1000;

    /// `n` requests of `latency` each, issued as fast as the window lets
    /// them from time zero; returns when the last one completes.
    fn stream(w: &mut Window, n: u64, latency: Ps) -> Ps {
        let mut now = Ps::ZERO;
        for _ in 0..n {
            let issue = w.issue(now);
            w.complete(issue + latency);
            now = issue;
        }
        w.drain()
    }

    #[test]
    fn issue_rate_limits_throughput() {
        // Infinite-latency-free requests: completion = issue. Throughput is
        // bounded purely by the 1/ns issue rate.
        let mut w = Window::new(64, Ps(NS));
        let end = stream(&mut w, 100, Ps::ZERO);
        assert_eq!(end, Ps(99 * NS));
        assert_eq!(w.stalled(), 0);
    }

    #[test]
    fn window_limits_mlp() {
        // 1 in-flight request, zero issue interval, 10 ns latency each:
        // fully serialized.
        let mut w = Window::new(1, Ps::ZERO);
        let end = stream(&mut w, 10, Ps(10 * NS));
        assert_eq!(end, Ps(100 * NS));
        assert_eq!(w.stalled(), 9);
    }

    #[test]
    fn wide_window_overlaps_latency() {
        // 10 requests, window 10, zero issue interval, 10 ns latency: all
        // overlap, finishing at 10 ns.
        let mut w = Window::new(10, Ps::ZERO);
        let end = stream(&mut w, 10, Ps(10 * NS));
        assert_eq!(end, Ps(10 * NS));
    }

    #[test]
    fn window_of_two_doubles_throughput() {
        let mut w1 = Window::new(1, Ps::ZERO);
        let t1 = stream(&mut w1, 100, Ps(10 * NS));
        let mut w2 = Window::new(2, Ps::ZERO);
        let t2 = stream(&mut w2, 100, Ps(10 * NS));
        assert_eq!(t1.0, 2 * t2.0);
    }

    #[test]
    fn issue_respects_now() {
        let mut w = Window::new(4, Ps(NS));
        let t = w.issue(Ps(5 * NS));
        assert_eq!(t, Ps(5 * NS));
        w.complete(t + Ps(NS));
        // Next issue at >= 6ns due to interval.
        let t2 = w.issue(Ps::ZERO);
        assert_eq!(t2, Ps(6 * NS));
        w.complete(t2);
    }

    #[test]
    fn reset_clears_inflight() {
        let mut w = Window::new(1, Ps::ZERO);
        let t = w.issue(Ps::ZERO);
        w.complete(t + Ps(100 * NS));
        w.reset(Ps(200 * NS));
        assert_eq!(w.in_flight(), 0);
        // After reset the window is empty; the next issue is not blocked.
        let t2 = w.issue(Ps(200 * NS));
        assert_eq!(t2, Ps(200 * NS));
    }

    #[test]
    fn drain_tracks_max_completion() {
        let mut w = Window::new(8, Ps::ZERO);
        let a = w.issue(Ps::ZERO);
        w.complete(a + Ps(50 * NS));
        let b = w.issue(Ps::ZERO);
        w.complete(b + Ps(5 * NS));
        assert_eq!(w.drain(), Ps(50 * NS));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Window::new(0, Ps::ZERO);
    }
}
