//! Inter-cube network: the star topology of HMC serial links (Fig. 5a).
//!
//! The host connects to the central cube (cube 0); every other cube hangs
//! off the center by its own full-duplex serial link. Each direction of each
//! link is an 80 GB/s resource with a 3 ns traversal latency (Table 2).
//! Routing between two peripheral cubes goes through the center (two hops),
//! matching the paper's "existing inter-HMC routing logic".

use crate::bwres::{BatchCompletion, BwOccupancy, EpochBw};
use crate::config::HmcConfig;
use crate::stats::Traffic;
use crate::time::{Bandwidth, Ps};

/// Metering epoch for link bandwidth accounting.
const LINK_EPOCH: Ps = Ps(1_000_000); // 1 us

/// An endpoint on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The host processor (attached to cube 0).
    Host,
    /// An HMC cube; cube 0 is the center of the star.
    Cube(usize),
}

/// One direction of one serial link.
#[derive(Debug, Clone)]
struct LinkDir {
    lane: EpochBw,
    latency: Ps,
    traffic: Traffic,
}

impl LinkDir {
    fn new(bw: Bandwidth, latency: Ps) -> LinkDir {
        LinkDir { lane: EpochBw::from_bandwidth(bw, LINK_EPOCH), latency, traffic: Traffic::new() }
    }

    fn transfer(&mut self, bytes: u32, start: Ps, is_read_data: bool) -> Ps {
        let served = self.lane.reserve(start, u64::from(bytes));
        self.traffic.record(is_read_data, u64::from(bytes), 1);
        served + self.latency
    }

    /// Batched [`LinkDir::transfer`]: `bytes` total, metered in
    /// `chunk`-sized packets issued together at `start`. Completions are
    /// bit-for-bit those of a per-packet `transfer` loop at the same
    /// `start` (both sides of the returned window include the latency).
    fn transfer_many(&mut self, bytes: u64, start: Ps, is_read_data: bool, chunk: u64) -> BatchCompletion {
        let run = self.lane.reserve_many(start, bytes, chunk);
        self.traffic.record(is_read_data, bytes, bytes.div_ceil(chunk).max(1));
        BatchCompletion { first: run.first + self.latency, last: run.last + self.latency }
    }
}

#[derive(Debug, Clone)]
struct Link {
    /// Toward the center (or, for the host link, toward the cube).
    inbound: LinkDir,
    /// Away from the center (or toward the host).
    outbound: LinkDir,
}

impl Link {
    fn new(bw: Bandwidth, latency: Ps) -> Link {
        Link { inbound: LinkDir::new(bw, latency), outbound: LinkDir::new(bw, latency) }
    }
}

/// The star network: `host ↔ cube0 ↔ {cube1, cube2, …}`.
#[derive(Debug, Clone)]
pub struct Noc {
    cubes: usize,
    host_link: Link,
    /// `spokes[k]` is the link between the center and cube `k+1`.
    spokes: Vec<Link>,
    /// Packets injected by fault campaigns that died en route.
    dropped_packets: u64,
    /// Bytes those dropped packets carried.
    dropped_bytes: u64,
}

/// HMC packet framing: 16 B of header/tail per request or response packet
/// (§4.1: the 48 B offload request is 16 B header/tail + payload; plain
/// memory responses are 16 B, or 32 B when carrying a return value).
pub const PACKET_OVERHEAD_BYTES: u32 = 16;

impl Noc {
    /// Builds the star network for `cfg.cubes` cubes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cubes.
    pub fn new(cfg: &HmcConfig) -> Noc {
        assert!(cfg.cubes >= 1, "need at least the central cube");
        Noc {
            cubes: cfg.cubes,
            host_link: Link::new(cfg.link_bw, cfg.link_latency),
            spokes: (1..cfg.cubes).map(|_| Link::new(cfg.link_bw, cfg.link_latency)).collect(),
            dropped_packets: 0,
            dropped_bytes: 0,
        }
    }

    /// The link direction a packet crosses between `node` and the center:
    /// toward the center when `inbound`, away from it otherwise. `None` at
    /// the center itself, whose logic layer every route passes through.
    fn leg(&mut self, node: Node, inbound: bool) -> Option<&mut LinkDir> {
        let link = match node {
            Node::Host => &mut self.host_link,
            Node::Cube(0) => return None,
            Node::Cube(c) => &mut self.spokes[c - 1],
        };
        Some(if inbound { &mut link.inbound } else { &mut link.outbound })
    }

    /// Sends `bytes` from `from` to `to`, starting at `start`; returns the
    /// arrival time at `to`. `is_read_data` only affects which traffic
    /// counter the bytes land in.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint names a cube outside the configuration.
    pub fn send(&mut self, from: Node, to: Node, bytes: u32, start: Ps, is_read_data: bool) -> Ps {
        self.check(from);
        self.check(to);
        if from == to {
            return start;
        }
        let at_center = self.leg(from, true).map_or(start, |l| l.transfer(bytes, start, is_read_data));
        self.leg(to, false)
            .map_or(at_center, |l| l.transfer(bytes, at_center, is_read_data))
    }

    /// Batched [`Noc::send`]: streams `bytes` from `from` to `to` as
    /// `chunk`-sized packets all issued at `start`. The second hop begins
    /// when the *first* packet clears the first hop (wormhole-style
    /// pipelining of the run's head), so a long run overlaps its two hops
    /// instead of paying full store-and-forward serialization twice.
    /// Returns the arrival window at `to`: `first` is the head packet's
    /// arrival, `last` the tail's.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint names a cube outside the configuration,
    /// or if `chunk == 0`.
    pub fn send_many(
        &mut self,
        from: Node,
        to: Node,
        bytes: u64,
        start: Ps,
        is_read_data: bool,
        chunk: u64,
    ) -> BatchCompletion {
        assert!(chunk >= 1, "chunk must be at least one byte");
        self.check(from);
        self.check(to);
        if from == to || bytes == 0 {
            return BatchCompletion { first: start, last: start };
        }
        let at_center = match self.leg(from, true) {
            Some(l) => l.transfer_many(bytes, start, is_read_data, chunk),
            None => BatchCompletion { first: start, last: start },
        };
        match self.leg(to, false) {
            Some(l) => {
                let hop2 = l.transfer_many(bytes, at_center.first, is_read_data, chunk);
                BatchCompletion { first: hop2.first, last: hop2.last.max(at_center.last) }
            }
            None => at_center,
        }
    }

    /// A `send` whose packet is lost or corrupted en route (fault
    /// injection): the first hop's bandwidth is still consumed — the
    /// packet left the source and was discarded at the receiving logic
    /// layer — but the packet never arrives and nothing crosses the
    /// second hop. Returns when the packet would have cleared hop 1,
    /// which is when the loss becomes physically final; the sender
    /// observes nothing until its own timeout. A packet from a node to
    /// itself crosses no link, so none is lost and none is counted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint names a cube outside the configuration.
    pub fn send_dropped(&mut self, from: Node, to: Node, bytes: u32, start: Ps, is_read_data: bool) -> Ps {
        self.check(from);
        self.check(to);
        if from == to {
            return start;
        }
        self.dropped_packets += 1;
        self.dropped_bytes += u64::from(bytes);
        // A loss on the center's own logic layer crosses no link.
        self.leg(from, true).map_or(start, |l| l.transfer(bytes, start, is_read_data))
    }

    /// `(packets, bytes)` lost to injected link faults so far.
    pub fn dropped(&self) -> (u64, u64) {
        (self.dropped_packets, self.dropped_bytes)
    }

    /// Aggregate epoch-meter occupancy over every link direction.
    pub fn occupancy(&self) -> BwOccupancy {
        let mut o = self.host_link.inbound.lane.occupancy() + self.host_link.outbound.lane.occupancy();
        for l in &self.spokes {
            o += l.inbound.lane.occupancy() + l.outbound.lane.occupancy();
        }
        o
    }

    /// Per-link-direction epoch fill snapshots for telemetry sampling:
    /// `(link name, fills)` pairs where each fill list comes from
    /// [`EpochBw::epoch_fills`]. Names follow the star topology:
    /// `host.in`/`host.out` for the host↔cube-0 link, `spokeK.in`/
    /// `spokeK.out` for the center↔cube-K links.
    pub fn link_epoch_fills(&self) -> Vec<(String, Vec<(Ps, u64)>)> {
        let mut out = vec![
            ("host.in".to_string(), self.host_link.inbound.lane.epoch_fills()),
            ("host.out".to_string(), self.host_link.outbound.lane.epoch_fills()),
        ];
        for (k, l) in self.spokes.iter().enumerate() {
            out.push((format!("spoke{}.in", k + 1), l.inbound.lane.epoch_fills()));
            out.push((format!("spoke{}.out", k + 1), l.outbound.lane.epoch_fills()));
        }
        out
    }

    /// Total bytes that crossed the host↔cube-0 link (off-chip traffic).
    pub fn host_link_traffic(&self) -> Traffic {
        self.host_link.inbound.traffic + self.host_link.outbound.traffic
    }

    /// Total bytes that crossed inter-cube links.
    pub fn intercube_traffic(&self) -> Traffic {
        self.spokes
            .iter()
            .map(|l| l.inbound.traffic + l.outbound.traffic)
            .fold(Traffic::new(), |a, b| a + b)
    }

    fn check(&self, n: Node) {
        if let Node::Cube(c) = n {
            assert!(c < self.cubes, "cube {c} out of range (have {})", self.cubes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HmcConfig;

    fn noc() -> Noc {
        Noc::new(&HmcConfig::table2())
    }

    #[test]
    fn hop_counts_match_star_topology() {
        // Each link direction a one-byte packet crosses meters one unit.
        let hops = |from, to| {
            let mut n = noc();
            n.send(from, to, 1, Ps::ZERO, false);
            n.occupancy().total_units
        };
        assert_eq!(hops(Node::Host, Node::Cube(0)), 1);
        assert_eq!(hops(Node::Host, Node::Cube(3)), 2);
        assert_eq!(hops(Node::Cube(0), Node::Host), 1);
        assert_eq!(hops(Node::Cube(2), Node::Host), 2);
        assert_eq!(hops(Node::Cube(0), Node::Cube(2)), 1);
        assert_eq!(hops(Node::Cube(1), Node::Cube(2)), 2);
        assert_eq!(hops(Node::Cube(1), Node::Cube(1)), 0);
    }

    #[test]
    fn single_hop_latency_and_serialization() {
        let mut n = noc();
        let t = n.send(Node::Host, Node::Cube(0), 256, Ps::ZERO, false);
        // 256 B at 80 GB/s = 3.2 ns, plus 3 ns traversal.
        assert_eq!(t, Ps::from_ns(3.2) + Ps::from_ns(3.0));
    }

    #[test]
    fn two_hops_pay_twice() {
        let mut n = noc();
        let t = n.send(Node::Host, Node::Cube(2), 256, Ps::ZERO, false);
        assert_eq!(t, (Ps::from_ns(3.2) + Ps::from_ns(3.0)) * 2);
    }

    #[test]
    fn same_node_is_free() {
        let mut n = noc();
        assert_eq!(n.send(Node::Cube(1), Node::Cube(1), 4096, Ps(7), true), Ps(7));
    }

    #[test]
    fn link_contention_serializes() {
        let mut n = noc();
        let a = n.send(Node::Host, Node::Cube(0), 256, Ps::ZERO, false);
        let b = n.send(Node::Host, Node::Cube(0), 256, Ps::ZERO, false);
        assert_eq!(b, a + Ps::from_ns(3.2));
    }

    #[test]
    fn directions_are_independent() {
        let mut n = noc();
        let a = n.send(Node::Host, Node::Cube(0), 256, Ps::ZERO, false);
        let b = n.send(Node::Cube(0), Node::Host, 256, Ps::ZERO, true);
        assert_eq!(a, b, "opposite directions must not contend");
    }

    #[test]
    fn traffic_counters_split_by_link_class() {
        let mut n = noc();
        n.send(Node::Host, Node::Cube(1), 100, Ps::ZERO, false);
        n.send(Node::Cube(2), Node::Cube(0), 50, Ps::ZERO, true);
        assert_eq!(n.host_link_traffic().total_bytes(), 100);
        assert_eq!(n.intercube_traffic().total_bytes(), 150);
    }

    #[test]
    fn single_hop_send_many_matches_per_packet_loop() {
        let mut a = noc();
        let mut b = noc();
        let bytes = 256u64 * 33 + 80;
        let run = a.send_many(Node::Host, Node::Cube(0), bytes, Ps::ZERO, false, 256);
        let packets = bytes.div_ceil(256);
        let mut first = Ps::ZERO;
        let mut last = Ps::ZERO;
        for i in 0..packets {
            let len = (bytes - i * 256).min(256) as u32;
            let t = b.send(Node::Host, Node::Cube(0), len, Ps::ZERO, false);
            if i == 0 {
                first = t;
            }
            last = last.max(t);
        }
        assert_eq!(run.first, first);
        assert_eq!(run.last, last);
        assert_eq!(a.host_link_traffic(), b.host_link_traffic());
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn two_hop_send_many_pipelines_the_head() {
        let mut n = noc();
        let bytes = 256u64 * 64;
        let run = n.send_many(Node::Host, Node::Cube(2), bytes, Ps::ZERO, false, 256);
        // Head packet pays both hops back to back.
        assert_eq!(run.first, (Ps::from_ns(3.2) + Ps::from_ns(3.0)) * 2);
        // The tail overlaps the hops: far less than store-and-forward of
        // the whole run on each hop in sequence.
        let serialize_all = Ps::from_ns(3.2) * 64;
        assert!(run.last < serialize_all * 2, "hops failed to overlap: {run:?}");
        assert!(run.last >= serialize_all, "tail cannot beat link serialization: {run:?}");
        assert_eq!(n.occupancy().total_units, 2 * bytes);
    }

    #[test]
    fn dropped_packets_charge_only_the_first_hop() {
        let mut n = noc();
        let t = n.send_dropped(Node::Host, Node::Cube(2), 256, Ps::ZERO, false);
        // Same cost as one hop of a delivered packet …
        assert_eq!(t, Ps::from_ns(3.2) + Ps::from_ns(3.0));
        // … and the spoke toward cube 2 stays untouched.
        assert_eq!(n.intercube_traffic().total_bytes(), 0);
        assert_eq!(n.host_link_traffic().total_bytes(), 256);
        assert_eq!(n.dropped(), (1, 256));
    }

    #[test]
    #[should_panic]
    fn out_of_range_cube_panics() {
        let mut n = noc();
        n.send(Node::Host, Node::Cube(9), 1, Ps::ZERO, false);
    }
}
