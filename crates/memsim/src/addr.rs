//! Physical-address to channel/rank/bank mapping.

use crate::{AddrMap, MemConfig};

/// A cache-line address: the physical byte address divided by the line size.
///
/// Workload generators and the cache model pass line addresses around; only
/// the memory system cares how they map onto channels and banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

/// Where a line lives in the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index, `0..config.channels`.
    pub channel: usize,
    /// Rank index within the channel, `0..config.ranks_per_channel()`.
    pub rank: usize,
    /// Bank index within the rank, `0..config.banks_per_rank`.
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
pub fn map_line(config: &MemConfig, line: LineAddr) -> Location {
    let channels = config.channels as u64;
    let banks = config.banks_per_rank as u64;
    let ranks = config.ranks_per_channel() as u64;

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
            let chunk = line.0 / config.lines_per_row;
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
        for i in 1..c.lines_per_row {
            let loc = map_line(&c, LineAddr(i));
            assert_eq!(
                (loc.channel, loc.rank, loc.bank, loc.row),
                (first.channel, first.rank, first.bank, first.row)
            );
        }
        let next = map_line(&c, LineAddr(c.lines_per_row));
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
        let span = (c.channels * c.ranks_per_channel() * c.banks_per_rank * 4) as u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..span {
            let loc = map_line(&c, LineAddr(i));
            assert!(loc.channel < c.channels);
            assert!(loc.rank < c.ranks_per_channel());
            assert!(loc.bank < c.banks_per_rank);
            assert!(seen.insert((loc.channel, loc.rank, loc.bank, loc.row)));
        }
    }

    #[test]
    fn line_addr_from_u64() {
        assert_eq!(LineAddr::from(7u64), LineAddr(7));
    }
}
