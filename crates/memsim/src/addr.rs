//! The memory geometry (Table 2) and the physical-address to
//! channel/rank/bank mapping.

use crate::{AddrMap, MemConfig};

/// Cache-line (memory burst) size in bytes, for the L2 and memory alike
/// (Table 2: 64-byte blocks).
pub const LINE_BYTES: u64 = 64;

/// A cache-line address: the physical byte address divided by
/// [`LINE_BYTES`].
///
/// Workload generators and the cache model pass line addresses around; only
/// the memory system cares how they map onto channels and banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

/// Independent memory channels (Table 2: 4 DDR3 channels).
pub const CHANNELS: usize = 4;
/// DIMMs on each channel (Table 2: 2).
pub(crate) const DIMMS_PER_CHANNEL: usize = 2;
/// Ranks on each DIMM (Table 2: dual-rank DIMMs).
pub(crate) const RANKS_PER_DIMM: usize = 2;
/// Banks in each rank (Table 2: 8).
pub(crate) const BANKS_PER_RANK: usize = 8;
/// Cache lines per DRAM row: an 8 KiB row of 64-byte lines.
pub(crate) const LINES_PER_ROW: u64 = 128;
/// Ranks on each channel.
pub const RANKS_PER_CHANNEL: usize = DIMMS_PER_CHANNEL * RANKS_PER_DIMM;
/// Ranks in the whole system.
pub const RANKS: usize = CHANNELS * RANKS_PER_CHANNEL;
/// DIMMs in the whole system.
pub const DIMMS: usize = CHANNELS * DIMMS_PER_CHANNEL;

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

/// Where a line lives in the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index, `0..CHANNELS`.
    pub channel: usize,
    /// Rank index within the channel, `0..RANKS_PER_CHANNEL`.
    pub rank: usize,
    /// Bank index within the rank, `0..BANKS_PER_RANK`.
    pub bank: usize,
    /// Row index (unbounded above; the closed-page policy never reuses it,
    /// but it is kept for address-mapping tests and future open-page work).
    pub row: u64,
}

/// Maps a line address to its location according to the configured
/// [`AddrMap`].
///
/// * [`AddrMap::ChannelInterleaved`] (the paper's layout, "exploits bank
///   interleaving"): consecutive lines hit consecutive channels, and
///   consecutive same-channel lines hit different banks.
/// * [`AddrMap::RowInterleaved`]: consecutive lines share a DRAM row until
///   it is full, maximizing row-buffer locality for open-page systems.
///
/// Every divisor is a power-of-two constant, so each step compiles to a
/// shift and a mask.
pub fn map_line(config: &MemConfig, line: LineAddr) -> Location {
    let channels = CHANNELS as u64;
    let banks = BANKS_PER_RANK as u64;
    let ranks = RANKS_PER_CHANNEL as u64;

    match config.addr_map {
        AddrMap::ChannelInterleaved => {
            let channel = (line.0 % channels) as usize;
            let in_channel = line.0 / channels;
            let bank = (in_channel % banks) as usize;
            let after_bank = in_channel / banks;
            let rank = (after_bank % ranks) as usize;
            let row = after_bank / ranks;
            Location {
                channel,
                rank,
                bank,
                row,
            }
        }
        AddrMap::RowInterleaved => {
            let chunk = line.0 / LINES_PER_ROW;
            let channel = (chunk % channels) as usize;
            let after_ch = chunk / channels;
            let bank = (after_ch % banks) as usize;
            let after_bank = after_ch / banks;
            let rank = (after_bank % ranks) as usize;
            let row = after_bank / ranks;
            Location {
                channel,
                rank,
                bank,
                row,
            }
        }
    }
}

#[cfg(test)]
// Tests build counter/config fixtures incrementally from defaults on purpose.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn row_interleave_keeps_consecutive_lines_in_one_row() {
        let mut c = MemConfig::default();
        c.addr_map = AddrMap::RowInterleaved;
        let first = map_line(&c, LineAddr(0));
        for i in 1..LINES_PER_ROW {
            let loc = map_line(&c, LineAddr(i));
            assert_eq!(
                (loc.channel, loc.rank, loc.bank, loc.row),
                (first.channel, first.rank, first.bank, first.row)
            );
        }
        let next = map_line(&c, LineAddr(LINES_PER_ROW));
        assert_ne!(next.channel, first.channel);
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let c = MemConfig::default();
        for i in 0..16u64 {
            let loc = map_line(&c, LineAddr(i));
            assert_eq!(loc.channel, (i % 4) as usize);
        }
    }

    #[test]
    fn same_channel_lines_interleave_banks() {
        let c = MemConfig::default();
        // Lines 0, 4, 8, ... land on channel 0, banks 0, 1, 2, ...
        for k in 0..8u64 {
            let loc = map_line(&c, LineAddr(k * 4));
            assert_eq!(loc.channel, 0);
            assert_eq!(loc.bank, k as usize);
        }
    }

    #[test]
    fn mapping_is_a_bijection_over_a_window() {
        let c = MemConfig::default();
        let span = (CHANNELS * RANKS_PER_CHANNEL * BANKS_PER_RANK * 4) as u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..span {
            let loc = map_line(&c, LineAddr(i));
            assert!(loc.channel < CHANNELS);
            assert!(loc.rank < RANKS_PER_CHANNEL);
            assert!(loc.bank < BANKS_PER_RANK);
            assert!(seen.insert((loc.channel, loc.rank, loc.bank, loc.row)));
        }
    }

    #[test]
    fn line_addr_from_u64() {
        assert_eq!(LineAddr::from(7u64), LineAddr(7));
    }
}
