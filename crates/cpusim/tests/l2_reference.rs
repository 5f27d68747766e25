//! Reference model for the L2: the way-array cache as it stood before
//! the 16-byte-way rewrite, kept verbatim, driven in lockstep with
//! [`L2Cache`] by random `access`, `fill` and `contains` calls. Every return
//! value, the statistics after every call, and the final residency of
//! every line touched must agree. Its set-index fold also judges the
//! lines a property test builds to check that a dirty victim is written
//! back at the line that was filled.

use cpusim::{Access, CacheConfig, CacheStats, L2Cache};
use memsim::LineAddr;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    lru: u64,
}

const INVALID: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    lru: 0,
};

/// The L2 as it was: 24-byte `Way` structs, three passes per fill.
#[derive(Clone, Debug)]
pub struct RefL2 {
    config: CacheConfig,
    sets: Vec<Way>,
    set_mask: u64,
    ways: usize,
    stamp: u64,
    stats: CacheStats,
}

impl RefL2 {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        RefL2 {
            config,
            sets: vec![INVALID; sets * config.ways],
            set_mask: sets as u64 - 1,
            ways: config.ways,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration used to build this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        // Fold the high bits down so disjoint per-core regions spread across
        // all sets.
        let x = line.0;
        ((x ^ (x >> 14) ^ (x >> 28) ^ (x >> 42)) & self.set_mask) as usize
    }

    #[inline]
    fn set_slice_mut(&mut self, idx: usize) -> &mut [Way] {
        let start = idx * self.ways;
        &mut self.sets[start..start + self.ways]
    }

    /// Performs a demand access. On a hit the line's LRU position is
    /// refreshed and, for stores, the dirty bit set. On a miss nothing is
    /// installed — fetch the line and call `fill`.
    pub fn access(&mut self, line: LineAddr, is_store: bool) -> Access {
        self.stamp += 1;
        let stamp = self.stamp;
        let idx = self.set_index(line);
        let set = self.set_slice_mut(idx);
        for way in set.iter_mut() {
            if way.valid && way.tag == line.0 {
                way.lru = stamp;
                way.dirty |= is_store;
                let first_use = way.prefetched;
                way.prefetched = false;
                self.stats.hits += 1;
                if first_use {
                    self.stats.prefetch_useful += 1;
                }
                return Access::Hit {
                    first_use_of_prefetch: first_use,
                };
            }
        }
        self.stats.misses += 1;
        Access::Miss
    }

    /// Whether `line` is currently resident (no LRU/stat side effects).
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let start = idx * self.ways;
        self.sets[start..start + self.ways]
            .iter()
            .any(|w| w.valid && w.tag == line.0)
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim's address if it was dirty (the caller owes a writeback).
    ///
    /// `dirty` marks the fill itself dirty (store miss); `prefetched` tags
    /// the line for prefetch-accuracy accounting.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<LineAddr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let idx = self.set_index(line);
        let set = self.set_slice_mut(idx);

        // Already present (e.g. a demand fill racing a prefetch fill):
        // merge flags rather than duplicating the line.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line.0) {
            way.dirty |= dirty;
            way.lru = stamp;
            return None;
        }

        let victim = match set.iter_mut().find(|w| !w.valid) {
            Some(way) => way,
            None => set
                .iter_mut()
                .min_by_key(|w| w.lru)
                .expect("ways > 0 by construction"),
        };

        let evicted = *victim;
        *victim = Way {
            tag: line.0,
            valid: true,
            dirty,
            prefetched,
            lru: stamp,
        };

        let mut writeback = None;
        if evicted.valid {
            if evicted.prefetched {
                self.stats.prefetch_unused += 1;
            }
            if evicted.dirty {
                self.stats.writebacks += 1;
                writeback = Some(LineAddr(evicted.tag));
            }
        }
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        writeback
    }
}

/// One random call against both caches.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access {
        line: LineAddr,
        store: bool,
    },
    Fill {
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
    },
    Contains(LineAddr),
}

/// Maps raw draws onto a line universe three times the cache's capacity,
/// in four address regions spread below `bound`, the first line whose tag
/// the geometry cannot hold. The last region ends on the line below it,
/// so the set-index fold and the tag see every high bit a line can have.
fn op_of(raw: (u8, u64, u64, u8), capacity: u64, bound: u64) -> Op {
    let (kind, region, lo, flags) = raw;
    let span = 3 * capacity;
    let line = match region % 4 {
        3 => LineAddr(bound - 1 - lo % span),
        r => LineAddr(r * (bound / 4) + lo % span),
    };
    match kind {
        0..=3 => Op::Access {
            line,
            store: flags & 1 != 0,
        },
        4..=7 => Op::Fill {
            line,
            dirty: flags & 1 != 0,
            prefetched: flags & 2 != 0,
        },
        _ => Op::Contains(line),
    }
}

/// The first line a cache of `2^sets_log2` sets cannot tag: its tags hold
/// `line >> sets_log2` in 30 bits.
fn tag_bound(sets_log2: u32) -> u64 {
    1 << (30 + sets_log2)
}

/// Drives [`L2Cache`] and the reference in lockstep through `ops`. Every
/// return value, the statistics after every call, and the final residency
/// of every line touched must agree.
fn lockstep(config: CacheConfig, ops: impl IntoIterator<Item = Op>) {
    let mut l2 = L2Cache::new(config);
    let mut reference = RefL2::new(config);
    let mut touched = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Access { line, store } => {
                touched.push(line);
                prop_assert_eq!(
                    l2.access(line, store),
                    reference.access(line, store),
                    "op {} {:?}",
                    i,
                    op
                );
            }
            Op::Fill {
                line,
                dirty,
                prefetched,
            } => {
                touched.push(line);
                prop_assert_eq!(
                    l2.fill(line, dirty, prefetched),
                    reference.fill(line, dirty, prefetched),
                    "op {} {:?}",
                    i,
                    op
                );
            }
            Op::Contains(line) => {
                prop_assert_eq!(
                    l2.contains(line),
                    reference.contains(line),
                    "op {} {:?}",
                    i,
                    op
                );
            }
        }
        prop_assert_eq!(
            l2.stats(),
            reference.stats(),
            "stats after op {} {:?}",
            i,
            op
        );
    }
    for line in touched {
        prop_assert_eq!(
            l2.contains(line),
            reference.contains(line),
            "final residency of {:?}",
            line
        );
    }
    prop_assert_eq!(l2.config(), reference.config());
}

/// The line with tag `tag` in set `idx` of a cache of `2^sets_log2`
/// sets, solved one index bit at a time from the top: each index bit is
/// the line's bit there XOR its bits 14, 28 and 42 higher, which are
/// already known.
fn line_in_set(tag: u64, idx: u64, sets_log2: u32) -> LineAddr {
    let mut line = tag << sets_log2;
    for i in (0..sets_log2).rev() {
        let above = (line >> (i + 14)) ^ (line >> (i + 28)) ^ (line >> (i + 42));
        line |= (((idx >> i) ^ above) & 1) << i;
    }
    LineAddr(line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn l2_matches_the_way_array_reference(
        ways_draw in 1usize..37,
        sets_log2 in 0u32..4,
        raw in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>(), 0u8..4), 1..600),
    ) {
        // 1 to 32 ways, then 64, 128 and 256, the most a rank orders.
        let ways = if ways_draw <= 32 { ways_draw } else { 256 >> (36 - ways_draw) };
        let sets = 1u64 << sets_log2;
        let config = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
        };
        let capacity = sets * ways as u64;
        let bound = tag_bound(sets_log2);
        lockstep(config, raw.into_iter().map(|r| op_of(r, capacity, bound)));
    }

    /// A dirty line evicted from a full set is written back at the line
    /// that was filled, which the cache rebuilds from the way's tag and
    /// the set index. Set counts run to 2^16, where undoing the index
    /// fold takes two passes, and tags reach the geometry's bound.
    #[test]
    fn a_dirty_victim_is_written_back_at_its_line(
        sets_log2 in 0u32..17,
        ways in 1usize..5,
        idx in any::<u64>(),
        tag in 0u64..1 << 30,
        at_bound in any::<bool>(),
    ) {
        let sets = 1u64 << sets_log2;
        let config = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
        };
        let index = RefL2::new(CacheConfig { size_bytes: sets * 64, ways: 1 });
        let idx = idx & (sets - 1);
        let tag = if at_bound { (1 << 30) - 1 } else { tag };
        let mut l2 = L2Cache::new(config);
        let victim = line_in_set(tag, idx, sets_log2);
        prop_assert!(victim.0 < tag_bound(sets_log2));
        prop_assert_eq!(index.set_index(victim) as u64, idx);
        prop_assert_eq!(l2.fill(victim, true, false), None);
        for k in 1..=ways as u64 {
            let other = line_in_set(tag ^ k, idx, sets_log2);
            prop_assert_eq!(index.set_index(other) as u64, idx);
            let want = if k == ways as u64 { Some(victim) } else { None };
            prop_assert_eq!(l2.fill(other, false, false), want, "fill {}", k);
        }
        prop_assert!(!l2.contains(victim));
        prop_assert_eq!(l2.stats().writebacks, 1);
    }
}

/// A set at the rank's cap of 256 ways fills and evicts in lockstep with
/// the reference: one set, 20,000 calls over 768 lines.
#[test]
fn a_set_of_256_ways_matches_the_reference() {
    let config = CacheConfig {
        size_bytes: 256 * 64,
        ways: 256,
    };
    let mut rng = simkernel::SimRng::new(256);
    let ops: Vec<Op> = (0..20_000)
        .map(|_| {
            let raw = (
                rng.below(10) as u8,
                rng.next_u64(),
                rng.next_u64(),
                rng.below(4) as u8,
            );
            op_of(raw, 256, tag_bound(0))
        })
        .collect();
    lockstep(config, ops);
}

/// Filling a line that is already resident merges its flags and refreshes
/// its recency in both models, so the merged line outlives the next
/// eviction and a dirty merge is written back.
#[test]
fn merges_refresh_recency_and_keep_dirt() {
    let config = CacheConfig {
        size_bytes: 2 * 64,
        ways: 2,
    };
    let mut l2 = L2Cache::new(config);
    let mut reference = RefL2::new(config);
    let (a, b, c, d) = (LineAddr(1), LineAddr(2), LineAddr(3), LineAddr(4));
    for (line, dirty, prefetched) in [(a, false, true), (b, false, false), (a, true, false)] {
        assert_eq!(
            l2.fill(line, dirty, prefetched),
            reference.fill(line, dirty, prefetched)
        );
    }
    // `b` is now the least recent: it goes first, clean.
    assert_eq!(l2.fill(c, false, false), None);
    assert_eq!(reference.fill(c, false, false), None);
    assert!(l2.contains(a) && !l2.contains(b));
    // Then `a`, dirty from the merge and never demanded.
    assert_eq!(l2.fill(d, false, false), Some(a));
    assert_eq!(reference.fill(d, false, false), Some(a));
    assert_eq!(l2.stats(), reference.stats());
    assert_eq!(l2.stats().prefetch_unused, 1);
}
