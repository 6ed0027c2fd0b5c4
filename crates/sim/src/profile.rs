//! Opt-in latency profiler: per-channel [`Histogram`]s behind the same
//! shared handle as [`crate::telemetry::Telemetry`] ([`Sink`]).
//!
//! The telemetry spine records *events*; the profiler records
//! *distributions*. Each sample is one service latency (in picoseconds)
//! dropped into a fixed [`Channel`], so the record path is a single
//! branch plus a few integer updates — no allocation, no formatting.
//! A disabled profiler ([`Profiler::disabled`], the default everywhere)
//! is one `Option` check and leaves simulated timing bit-identical; the
//! fingerprint baselines pin this in both directions.

use crate::hist::Histogram;
use crate::json::Json;
use crate::telemetry::Sink;
use crate::time::Ps;

/// What a latency sample measures. One histogram per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// One DRAM access: request issue to data return (DDR4 channel or
    /// HMC vault service, excluding NoC transport).
    DramPacket,
    /// One NoC packet traversal (request or response leg).
    NocPacket,
    /// One batched DRAM run (`access_many` segment), issue to last beat.
    DramBatch,
    /// One batched NoC transfer (`send_many` leg), issue to last flit.
    NocBatch,
    /// One Copy primitive as the collector issued it, wherever it ran
    /// (device unit, host software path, or free on Ideal): issue to
    /// completion.
    PrimCopy,
    /// One Search primitive as the collector issued it, wherever it ran.
    PrimSearch,
    /// One Scan&Push primitive as the collector issued it, wherever it ran.
    PrimScanPush,
    /// One Bitmap Count primitive as the collector issued it, wherever it
    /// ran.
    PrimBitmapCount,
    /// One Copy executed on the host software path (Host backends, masked
    /// primitives, and offload fallbacks alike).
    HostPrimCopy,
    /// One Search executed on the host software path.
    HostPrimSearch,
    /// One Scan&Push executed on the host software path.
    HostPrimScanPush,
    /// One Bitmap Count executed on the host software path.
    HostPrimBitmapCount,
}

impl Channel {
    /// Every channel, in JSON/report order.
    pub const ALL: [Channel; 12] = [
        Channel::DramPacket,
        Channel::NocPacket,
        Channel::DramBatch,
        Channel::NocBatch,
        Channel::PrimCopy,
        Channel::PrimSearch,
        Channel::PrimScanPush,
        Channel::PrimBitmapCount,
        Channel::HostPrimCopy,
        Channel::HostPrimSearch,
        Channel::HostPrimScanPush,
        Channel::HostPrimBitmapCount,
    ];

    /// Stable snake_case name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Channel::DramPacket => "dram_packet",
            Channel::NocPacket => "noc_packet",
            Channel::DramBatch => "dram_batch",
            Channel::NocBatch => "noc_batch",
            Channel::PrimCopy => "prim_copy",
            Channel::PrimSearch => "prim_search",
            Channel::PrimScanPush => "prim_scan_push",
            Channel::PrimBitmapCount => "prim_bitmap_count",
            Channel::HostPrimCopy => "prim_copy_host",
            Channel::HostPrimSearch => "prim_search_host",
            Channel::HostPrimScanPush => "prim_scan_push_host",
            Channel::HostPrimBitmapCount => "prim_bitmap_count_host",
        }
    }

    /// The channel of the primitive whose 4-bit wire encoding is
    /// `encoding` (`PrimType::encode`: Copy, Search, Scan&Push, Bitmap
    /// Count): `prim_*` as the collector issued it, or `prim_*_host` when
    /// `host` — run on the host software path.
    pub fn prim(encoding: u8, host: bool) -> Channel {
        const ISSUED: [Channel; 4] =
            [Channel::PrimCopy, Channel::PrimSearch, Channel::PrimScanPush, Channel::PrimBitmapCount];
        const HOST: [Channel; 4] =
            [Channel::HostPrimCopy, Channel::HostPrimSearch, Channel::HostPrimScanPush, Channel::HostPrimBitmapCount];
        (if host { HOST } else { ISSUED })[usize::from(encoding)]
    }

    fn index(self) -> usize {
        match self {
            Channel::DramPacket => 0,
            Channel::NocPacket => 1,
            Channel::DramBatch => 2,
            Channel::NocBatch => 3,
            Channel::PrimCopy => 4,
            Channel::PrimSearch => 5,
            Channel::PrimScanPush => 6,
            Channel::PrimBitmapCount => 7,
            Channel::HostPrimCopy => 8,
            Channel::HostPrimSearch => 9,
            Channel::HostPrimScanPush => 10,
            Channel::HostPrimBitmapCount => 11,
        }
    }
}

/// The collected distributions: one histogram per [`Channel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyProfile {
    hists: [Histogram; 12],
}

impl LatencyProfile {
    /// An empty profile.
    pub fn new() -> LatencyProfile {
        LatencyProfile::default()
    }

    /// The histogram for one channel.
    pub fn get(&self, ch: Channel) -> &Histogram {
        &self.hists[ch.index()]
    }

    /// Records one latency sample.
    pub fn record(&mut self, ch: Channel, latency: Ps) {
        self.hists[ch.index()].record(latency.0);
    }

    /// Merges another profile in (exact counter addition).
    pub fn merge(&mut self, other: &LatencyProfile) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            *a += *b;
        }
    }

    /// Total samples across all channels.
    pub fn total_samples(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }

    /// One object keyed by channel name; empty channels are omitted.
    pub fn to_json(&self) -> Json {
        let fields: Vec<_> = Channel::ALL
            .iter()
            .filter(|ch| !self.get(**ch).is_empty())
            .map(|ch| (ch.name(), self.get(*ch).to_json()))
            .collect();
        Json::obj(fields)
    }
}

/// Shared handle to an optional [`LatencyProfile`], cloned into every
/// layer that records (fabric, device, GC primitives).
pub type Profiler = Sink<LatencyProfile>;

impl Profiler {
    /// Records one latency sample; a no-op when disabled.
    pub fn record(&self, ch: Channel, latency: Ps) {
        self.with(|p| p.record(ch, latency));
    }

    /// A copy of the collected profile (empty when disabled).
    pub fn snapshot(&self) -> LatencyProfile {
        self.read(|p| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        p.record(Channel::DramPacket, Ps(123));
        assert!(!p.is_enabled());
        assert_eq!(p.snapshot().total_samples(), 0);
    }

    #[test]
    fn enabled_profiler_shares_one_sink_across_clones() {
        let p = Profiler::enabled();
        let q = p.clone();
        p.record(Channel::PrimCopy, Ps(10));
        q.record(Channel::PrimCopy, Ps(20));
        let snap = p.snapshot();
        assert_eq!(snap.get(Channel::PrimCopy).count(), 2);
        assert_eq!(snap.get(Channel::PrimCopy).max(), 20);
    }

    #[test]
    fn json_omits_empty_channels_and_parses() {
        let p = Profiler::enabled();
        p.record(Channel::NocPacket, Ps(64));
        let j = p.snapshot().to_json();
        let back = Json::parse(&j.to_string()).unwrap();
        assert!(back.get("noc_packet").is_some());
        assert!(back.get("dram_packet").is_none(), "empty channels omitted");
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyProfile::new();
        let mut b = LatencyProfile::new();
        a.record(Channel::DramBatch, Ps(8));
        b.record(Channel::DramBatch, Ps(16));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.get(Channel::DramBatch).count(), 2);
    }

    #[test]
    fn prim_channels_pair_issued_with_host() {
        let names: Vec<&str> = (0..4).map(|e| Channel::prim(e, false).name()).collect();
        assert_eq!(names, ["prim_copy", "prim_search", "prim_scan_push", "prim_bitmap_count"]);
        for e in 0..4 {
            assert_eq!(Channel::prim(e, true).name(), format!("{}_host", Channel::prim(e, false).name()));
        }
    }

    #[test]
    fn channel_names_are_unique() {
        let mut names: Vec<&str> = Channel::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Channel::ALL.len());
    }
}
