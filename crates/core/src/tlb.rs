//! The accelerator-side TLB (§4.6, "Virtual Memory and Multi-Process
//! Support").
//!
//! At launch the JVM pins the heap's huge pages (`mlock`), and Charon keeps
//! duplicate TLB entries on the DRAM side covering exactly those pages —
//! so lookups never miss. What remains to model is the lookup *port* (one
//! translation per logic-layer cycle per TLB structure) and, in the
//! **unified** design, the extra serial-link round trip that units on
//! non-central cubes pay to reach the single TLB at the center cube.
//! The **distributed** design places a slice at every cube holding only
//! its local pages' mappings; requests are routed by virtual address
//! (numa_alloc_onnode makes VA→cube static), so the destination cube's
//! slice always has the entry and no extra hops arise. Fig. 15 compares
//! the two designs.

use crate::bitmap_cache::{SliceMode, PORT_EPOCH};
use charon_sim::bwres::EpochBw;
use charon_sim::host::MemFabric;
use charon_sim::noc::Node;
use charon_sim::time::{Freq, Ps};

/// TLB lookup-packet size (a VA and a tag — one 16 B control flit each way).
const TLB_PKT_BYTES: u32 = 16;

/// The accelerator TLB structure(s): one TLB at cube 0 shared by all
/// cubes ([`SliceMode::Unified`]), or a slice per cube holding only
/// local-page mappings ([`SliceMode::Distributed`]).
#[derive(Debug, Clone)]
pub struct AccelTlb {
    mode: SliceMode,
    /// Lookup port per structure (`[0]` only, when unified).
    ports: Vec<EpochBw>,
    lookups: u64,
    remote_lookups: u64,
    unserviceable_misses: u64,
}

impl AccelTlb {
    /// Builds the TLB(s) for `cubes` cubes with the given logic-layer
    /// clock. The entries cover the pinned huge pages, so no lookup
    /// misses by construction and the entry count is not modelled.
    pub fn new(mode: SliceMode, cubes: usize, unit_freq: Freq) -> AccelTlb {
        let ports = match mode {
            SliceMode::Unified => 1,
            SliceMode::Distributed => cubes,
        };
        AccelTlb {
            mode,
            ports: (0..ports)
                .map(|_| EpochBw::from_period(unit_freq.period(), PORT_EPOCH))
                .collect(),
            lookups: 0,
            remote_lookups: 0,
            unserviceable_misses: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SliceMode {
        self.mode
    }

    /// `(total_lookups, lookups_that_crossed_a_link)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.remote_lookups)
    }

    /// Records an injected unserviceable miss: the duplicate-entry
    /// invariant (pinned huge pages, mappings never miss) was violated
    /// for this request, and the offload it belonged to cannot complete.
    /// The host recovers through its timeout; no port cycle is metered.
    pub fn record_unserviceable(&mut self) {
        self.unserviceable_misses += 1;
    }

    /// Injected unserviceable misses so far.
    pub fn unserviceable_misses(&self) -> u64 {
        self.unserviceable_misses
    }

    /// Translates one request issued by a unit on `from_cube` destined for
    /// `dest_cube` at `now`; returns when the physical address is
    /// available. Port contention serializes lookups on the same
    /// structure; the unified design adds link hops for non-central units.
    pub fn translate(&mut self, fabric: &mut MemFabric, from_cube: usize, dest_cube: usize, now: Ps) -> Ps {
        self.lookups += 1;
        match self.mode {
            SliceMode::Unified => {
                // Reach the center cube's TLB.
                let at_tlb = if from_cube == 0 {
                    now
                } else {
                    self.remote_lookups += 1;
                    fabric.control_packet(Node::Cube(from_cube), Node::Cube(0), TLB_PKT_BYTES, now)
                };
                let done = self.ports[0].reserve(at_tlb, 1);
                if from_cube == 0 {
                    done
                } else {
                    fabric.control_packet(Node::Cube(0), Node::Cube(from_cube), TLB_PKT_BYTES, done)
                }
            }
            SliceMode::Distributed => {
                // The destination cube's slice holds the mapping; requests
                // are VA-routed, so translation overlaps the trip with no
                // extra hops.
                let slice = dest_cube;
                let done = self.ports[slice].reserve(now, 1);
                if slice != from_cube {
                    self.remote_lookups += 1;
                }
                done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon_sim::config::SystemConfig;

    fn fabric() -> MemFabric {
        MemFabric::new(&SystemConfig::table2_hmc())
    }

    #[test]
    fn distributed_local_lookup_costs_one_cycle() {
        let mut f = fabric();
        let mut t = AccelTlb::new(SliceMode::Distributed, 4, Freq::ghz(1.0));
        let done = t.translate(&mut f, 2, 2, Ps::ZERO);
        assert_eq!(done, Ps::from_ns(1.0));
        assert_eq!(t.stats(), (1, 0));
    }

    #[test]
    fn unified_remote_lookup_pays_link_round_trip() {
        let mut f = fabric();
        let mut t = AccelTlb::new(SliceMode::Unified, 4, Freq::ghz(1.0));
        let local = t.translate(&mut f, 0, 0, Ps::ZERO);
        assert_eq!(local, Ps::from_ns(1.0));
        let remote = t.translate(&mut f, 3, 3, Ps::ZERO);
        // ≥ two 3 ns traversals + serialization + port.
        assert!(remote > Ps::from_ns(6.0), "remote unified lookup too fast: {remote}");
        assert_eq!(t.stats(), (2, 1));
    }

    #[test]
    fn unified_port_serializes_all_cubes() {
        let mut f = fabric();
        let mut t = AccelTlb::new(SliceMode::Unified, 4, Freq::ghz(1.0));
        let a = t.translate(&mut f, 0, 0, Ps::ZERO);
        let b = t.translate(&mut f, 0, 0, Ps::ZERO);
        assert_eq!(b - a, Ps::from_ns(1.0));
    }

    #[test]
    fn distributed_slices_do_not_contend() {
        let mut f = fabric();
        let mut t = AccelTlb::new(SliceMode::Distributed, 4, Freq::ghz(1.0));
        let a = t.translate(&mut f, 0, 0, Ps::ZERO);
        let b = t.translate(&mut f, 1, 1, Ps::ZERO);
        assert_eq!(a, b, "independent slices must serve in parallel");
    }
}
