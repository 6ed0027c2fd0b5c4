//! The host↔Charon offload interface (§4.1).
//!
//! The paper's host has two intrinsics. `initialize()` is called once at
//! program launch and writes the globally accessed addresses (heap base,
//! bitmap base and the begin→end map `OFFSET`, card-table base) into
//! memory-mapped unit registers; it costs nothing per collection, so the
//! model does not carry it. `offload()` ships one primitive:
//!
//! ```text
//! val offload(val type, addr src, addr dst, val arg)
//! ```
//!
//! The request packet is **48 bytes**: 16 B of standard HMC header/tail
//! (including the destination cube id), a 4-bit primitive type, two 8-byte
//! addresses, and up to 124 bits of extra operands. The response packet is
//! **32 bytes** when it carries a return value and **16 bytes** otherwise.
//! The model charges these sizes on the links; it builds no packet.

use std::fmt;

/// Size of every offload request packet, bytes.
pub const REQUEST_BYTES: u32 = 48;
/// Response size when a value is returned (Search's found-address,
/// Bitmap Count's word count).
pub const RESPONSE_WITH_VALUE_BYTES: u32 = 32;
/// Response size when no value is returned (Copy, Scan&Push).
pub const RESPONSE_EMPTY_BYTES: u32 = 16;
/// Size of the NACK control packet a cube returns when its command queue
/// cannot accept a request (fault campaigns only): bare header/tail, no
/// payload. Silent failures — a dropped packet, a wedged unit — produce
/// no packet at all; the host only learns of those through its timeout.
pub const RESPONSE_NACK_BYTES: u32 = 16;

// The 4-bit type, two 8-byte addresses and 124 bits of extra operands fit
// beside the 16 B header/tail in the 48 B request.
const _: () = assert!(4 + 64 + 64 + 124 <= (REQUEST_BYTES - 16) * 8);

/// The offloaded primitive, encoded in 4 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum PrimType {
    /// Bulk object/region copy (MinorGC copy/promotion, MajorGC compaction).
    Copy = 0,
    /// Dirty-card search over a card-table range (MinorGC).
    Search = 1,
    /// Object-graph scan: load referents, push unmarked ones (both GCs).
    ScanPush = 2,
    /// `live_words_in_range` over the begin/end bitmaps (MajorGC).
    BitmapCount = 3,
}

impl PrimType {
    /// All primitive types, in wire-encoding order.
    pub const ALL: [PrimType; 4] = [PrimType::Copy, PrimType::Search, PrimType::ScanPush, PrimType::BitmapCount];

    /// The 4-bit wire encoding (also the index of per-primitive arrays).
    pub fn encode(self) -> u8 {
        self as u8
    }

    /// Whether this primitive's response carries a return value
    /// (determines the response packet size, §4.1).
    pub fn returns_value(self) -> bool {
        matches!(self, PrimType::Search | PrimType::BitmapCount)
    }

    /// The response packet size for this primitive.
    pub fn response_bytes(self) -> u32 {
        if self.returns_value() {
            RESPONSE_WITH_VALUE_BYTES
        } else {
            RESPONSE_EMPTY_BYTES
        }
    }

    /// Stable static name (telemetry event labels, report keys; matches
    /// [`fmt::Display`]).
    pub fn name(self) -> &'static str {
        match self {
            PrimType::Copy => "Copy",
            PrimType::Search => "Search",
            PrimType::ScanPush => "Scan&Push",
            PrimType::BitmapCount => "Bitmap Count",
        }
    }
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_type_fits_four_bits() {
        for (i, p) in PrimType::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(p.encode()), i, "ALL is in wire-encoding order");
            assert!(p.encode() < 16);
        }
    }

    #[test]
    fn packet_sizes_match_paper() {
        assert_eq!(REQUEST_BYTES, 48);
        assert_eq!(RESPONSE_WITH_VALUE_BYTES, 32);
        assert_eq!(RESPONSE_EMPTY_BYTES, 16);
    }

    #[test]
    fn value_bearing_prims() {
        assert!(PrimType::Search.returns_value());
        assert!(PrimType::BitmapCount.returns_value());
        assert!(!PrimType::Copy.returns_value());
        assert!(!PrimType::ScanPush.returns_value());
        assert_eq!(PrimType::Copy.response_bytes(), 16);
        assert_eq!(PrimType::Search.response_bytes(), 32);
    }

    #[test]
    fn display_names() {
        assert_eq!(PrimType::ScanPush.to_string(), "Scan&Push");
        assert_eq!(PrimType::BitmapCount.to_string(), "Bitmap Count");
    }
}
