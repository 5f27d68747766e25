//! The shared last-level (L2) cache: set-associative, LRU, writeback, with
//! next-line-prefetch bookkeeping.

use memsim::{LineAddr, LINE_BYTES};
use std::ops::Range;

/// Shared L2 configuration. Defaults match Table 2: 16 MiB, 16-way. Blocks
/// are [`LINE_BYTES`], the memory system's line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024 * 1024,
            ways: 16,
        }
    }
}

impl CacheConfig {
    /// Checks that the geometry describes a cache: at least one way, no
    /// more ways than a recency rank can order, and a set count that is a
    /// nonzero power of two.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("L2 needs at least one way".into());
        }
        if self.ways > MAX_WAYS {
            return Err(format!(
                "L2 associativity {} exceeds {MAX_WAYS}, the ways a one-byte recency rank orders",
                self.ways
            ));
        }
        let sets = self.size_bytes / (LINE_BYTES * self.ways as u64);
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "L2 set count {sets} must be a nonzero power of two"
            ));
        }
        Ok(())
    }

    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        (self.size_bytes / (LINE_BYTES * self.ways as u64)) as usize
    }

    /// Whether a cache of this geometry can tag `line`: its tag,
    /// `line >> log2(sets)`, must fit 30 bits.
    /// [`L2Cache::access`], [`L2Cache::fill`] and [`L2Cache::contains`]
    /// panic on any other line.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn can_tag(&self, line: LineAddr) -> bool {
        fits_tag(line, self.sets().trailing_zeros())
    }
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions (writebacks produced).
    pub writebacks: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Prefetched lines that saw a demand access before eviction (useful
    /// prefetches).
    pub prefetch_useful: u64,
    /// Prefetched lines evicted without ever being referenced.
    pub prefetch_unused: u64,
}

impl CacheStats {
    /// Prefetch accuracy: useful / (useful + unused); zero when no
    /// prefetches have been evaluated yet.
    pub fn prefetch_accuracy(&self) -> f64 {
        let judged = self.prefetch_useful + self.prefetch_unused;
        if judged == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / judged as f64
        }
    }

    /// Component-wise difference.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writebacks: self.writebacks - earlier.writebacks,
            prefetch_fills: self.prefetch_fills - earlier.prefetch_fills,
            prefetch_useful: self.prefetch_useful - earlier.prefetch_useful,
            prefetch_unused: self.prefetch_unused - earlier.prefetch_unused,
        }
    }
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Line present. `first_use_of_prefetch` is true exactly once per
    /// prefetched line — the trigger for tagged next-line prefetching.
    Hit {
        /// First demand touch of a prefetched line.
        first_use_of_prefetch: bool,
    },
    /// Line absent; the caller must fetch it from memory and later call
    /// [`L2Cache::fill`].
    Miss,
}

/// Tag-word flag: the line is dirty.
const DIRTY: u32 = 0b10;
/// Tag-word flag: the line was installed by the prefetcher and has not
/// seen a demand access yet.
const PREFETCHED: u32 = 0b01;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;
/// Width of a way's tag, `line >> log2(sets)`.
const TAG_BITS: u32 = u32::BITS - TAG_SHIFT;
/// The most ways a `u8` recency rank can order.
const MAX_WAYS: usize = 1 << u8::BITS;
/// The recency byte of a set's most recent way, its rank 0. A way's byte
/// is `NEWEST - rank`, so a free way's zero lies below every valid one's
/// in a set that is not full.
const NEWEST: u8 = u8::MAX;
/// Each step of the set-index fold shifts the line down this many bits.
const FOLD_BITS: u32 = 14;

/// Whether `line`'s tag in a cache of `2^set_bits` sets fits [`TAG_BITS`].
#[inline]
fn fits_tag(line: LineAddr, set_bits: u32) -> bool {
    line.0 >> set_bits >> TAG_BITS == 0
}

/// The high bits a line folds onto its set index.
#[inline]
fn fold(x: u64) -> u64 {
    (x >> FOLD_BITS) ^ (x >> (2 * FOLD_BITS)) ^ (x >> (3 * FOLD_BITS))
}

/// A set-associative writeback LRU cache over [`LineAddr`]s.
///
/// The set index is hash-folded from the full line address so that each
/// core's private footprint (cores own disjoint high-order address slices)
/// spreads over all sets instead of aliasing into the low sets.
///
/// Each way is a `u32` tag word, `tag << 2 | dirty << 1 | prefetched`,
/// where the tag is `line >> log2(sets)` in 30 bits, beside a `u8` recency
/// byte. A line whose tag does not fit panics, naming the line
/// ([`CacheConfig::can_tag`]). A dirty victim's line is its tag above the
/// set index with the fold undone.
///
/// Lines are never invalidated and a fill always takes the first free
/// way, so a set's valid ways are a prefix of the set; `filled` counts
/// them and lookups scan only that prefix. The valid ways' recency bytes
/// are the set's exact LRU order: a way of rank `r`, 0 the most recent,
/// holds `255 - r`, and a free way holds 0, which no update changes. A
/// hit or a merging fill makes its way rank 0 and ages by one every way
/// that was more recent; a new fill ages every valid way by one and takes
/// rank 0. A full set evicts its way of rank `ways - 1`.
///
/// # Example
///
/// ```
/// use cpusim::{Access, CacheConfig, L2Cache};
/// use memsim::LineAddr;
///
/// let mut l2 = L2Cache::new(CacheConfig::default());
/// assert_eq!(l2.access(LineAddr(7), false), Access::Miss);
/// assert_eq!(l2.fill(LineAddr(7), false, false), None);
/// assert!(matches!(l2.access(LineAddr(7), false), Access::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct L2Cache {
    config: CacheConfig,
    /// `ways` tag words per set, zero until filled.
    tags: Vec<u32>,
    /// `ways` recency bytes per set, `NEWEST - rank`, zero until filled.
    recency: Vec<u8>,
    /// Valid ways per set.
    filled: Vec<u32>,
    set_bits: u32,
    set_mask: u64,
    assoc: usize,
    stats: CacheStats,
}

impl L2Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        L2Cache {
            config,
            tags: vec![0; sets * config.ways],
            recency: vec![0; sets * config.ways],
            filled: vec![0; sets],
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            assoc: config.ways,
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
        ((line.0 ^ fold(line.0)) & self.set_mask) as usize
    }

    /// `line`'s tag in place in a tag word, flags clear.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit: a truncated tag would alias another
    /// line.
    #[inline]
    fn key(&self, line: LineAddr) -> u32 {
        assert!(
            fits_tag(line, self.set_bits),
            "L2 line {:#x} does not fit the {TAG_BITS}-bit tag of a {}-set cache",
            line.0,
            self.set_mask + 1
        );
        ((line.0 >> self.set_bits) as u32) << TAG_SHIFT
    }

    /// The line a tag word holds in set `idx`. The index bits are the set
    /// index with the fold undone. The fold reads only bits at least
    /// [`FOLD_BITS`] above each index bit, so one pass recovers up to that
    /// many index bits from the tag, and each further pass another
    /// [`FOLD_BITS`] from the ones above them.
    fn line_of(&self, word: u32, idx: usize) -> LineAddr {
        let high = u64::from(word >> TAG_SHIFT) << self.set_bits;
        let mut low = (idx as u64 ^ fold(high)) & self.set_mask;
        for _ in 1..self.set_bits.div_ceil(FOLD_BITS) {
            low = (idx as u64 ^ fold(high | low)) & self.set_mask;
        }
        LineAddr(high | low)
    }

    /// The ways of set `idx` that hold lines, a prefix of the set.
    #[inline]
    fn valid(&self, idx: usize) -> Range<usize> {
        let base = idx * self.assoc;
        base..base + self.filled[idx] as usize
    }

    /// The index of the line keyed `key` among `ways`, if resident.
    #[inline]
    fn find(&self, ways: Range<usize>, key: u32) -> Option<usize> {
        let base = ways.start;
        self.tags[ways]
            .iter()
            .position(|&word| word & !(DIRTY | PREFETCHED) == key)
            .map(|w| base + w)
    }

    /// Applies `f` to every recency byte of the set starting at `base`,
    /// branch-free and 16 at a time, so that it vectorises with a fixed
    /// trip count: a 16-way set is one vector operation.
    #[inline(always)]
    fn age(&mut self, base: usize, f: impl Fn(&mut u8) + Copy) {
        let (lanes, rest) = self.recency[base..base + self.assoc].as_chunks_mut::<16>();
        for lane in lanes {
            lane.iter_mut().for_each(f);
        }
        rest.iter_mut().for_each(f);
    }

    /// Makes the valid way `at` of the set starting at `base` the most
    /// recent: every way more recent than it ages by one. Free ways' zeros
    /// lie below it, so they stay.
    #[inline(always)]
    fn touch(&mut self, base: usize, at: usize) {
        let recency = self.recency[at];
        self.age(base, |r| *r -= u8::from(*r > recency));
        self.recency[at] = NEWEST;
    }

    /// Performs a demand access. On a hit the line's LRU position is
    /// refreshed and, for stores, the dirty bit set. On a miss nothing is
    /// installed — fetch the line and call [`L2Cache::fill`].
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot tag `line` ([`CacheConfig::can_tag`]).
    pub fn access(&mut self, line: LineAddr, is_store: bool) -> Access {
        let key = self.key(line);
        let ways = self.valid(self.set_index(line));
        let Some(at) = self.find(ways.clone(), key) else {
            self.stats.misses += 1;
            return Access::Miss;
        };
        let word = self.tags[at];
        let first_use = word & PREFETCHED != 0;
        let dirty = if is_store { DIRTY } else { 0 };
        self.tags[at] = (word & !PREFETCHED) | dirty;
        self.touch(ways.start, at);
        self.stats.hits += 1;
        if first_use {
            self.stats.prefetch_useful += 1;
        }
        Access::Hit {
            first_use_of_prefetch: first_use,
        }
    }

    /// Whether `line` is currently resident (no LRU/stat side effects).
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot tag `line` ([`CacheConfig::can_tag`]).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.valid(self.set_index(line)), self.key(line))
            .is_some()
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim's address if it was dirty (the caller owes a writeback).
    ///
    /// `dirty` marks the fill itself dirty (store miss); `prefetched` tags
    /// the line for prefetch-accuracy accounting.
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot tag `line` ([`CacheConfig::can_tag`]).
    pub fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<LineAddr> {
        let key = self.key(line);
        let dirty = if dirty { DIRTY } else { 0 };
        let idx = self.set_index(line);
        let ways = self.valid(idx);

        // Already present (e.g. a demand fill racing a prefetch fill):
        // merge flags rather than duplicating the line.
        if let Some(at) = self.find(ways.clone(), key) {
            self.tags[at] |= dirty;
            self.touch(ways.start, at);
            return None;
        }

        let mut writeback = None;
        let at = if ways.len() < self.assoc {
            self.filled[idx] += 1;
            ways.end
        } else {
            // Full: evict the least-recent way, rank `ways - 1`.
            let oldest = (MAX_WAYS - self.assoc) as u8;
            let w = ways.start
                + self.recency[ways.clone()]
                    .iter()
                    .position(|&r| r == oldest)
                    .expect("a full set ranks its ways 0..ways");
            let victim = self.tags[w];
            if victim & PREFETCHED != 0 {
                self.stats.prefetch_unused += 1;
            }
            if victim & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(self.line_of(victim, idx));
            }
            w
        };
        self.tags[at] = key | dirty | if prefetched { PREFETCHED } else { 0 };
        // Every valid way ages by one, without comparisons: a free way's
        // zero stays zero, and a victim's byte is overwritten.
        self.age(ways.start, |r| *r = r.saturating_sub(1));
        self.recency[at] = NEWEST;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Cache {
        // 4 sets x 2 ways x 64B = 512B.
        L2Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
        })
    }

    /// Lines that map to set 0 of the tiny cache.
    fn same_set_lines(cache: &L2Cache, n: usize) -> Vec<LineAddr> {
        let target = cache.set_index(LineAddr(0));
        (0u64..)
            .map(LineAddr)
            .filter(|l| cache.set_index(*l) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(5), false), Access::Miss);
        assert_eq!(c.fill(LineAddr(5), false, false), None);
        assert!(matches!(c.access(LineAddr(5), false), Access::Hit { .. }));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], false, false);
        c.fill(lines[1], false, false);
        // Touch line 0 so line 1 is LRU.
        let _ = c.access(lines[0], false);
        c.fill(lines[2], false, false);
        assert!(c.contains(lines[0]));
        assert!(!c.contains(lines[1]));
        assert!(c.contains(lines[2]));
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], true, false);
        c.fill(lines[1], false, false);
        // Fill a third line: evicts lines[0] (LRU, dirty).
        let wb = c.fill(lines[2], false, false);
        assert_eq!(wb, Some(lines[0]));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 3);
        c.fill(lines[0], false, false);
        let _ = c.access(lines[0], true); // store hit
        c.fill(lines[1], false, false);
        let wb = c.fill(lines[2], false, false);
        // lines[1] is... touch order: fill0, access0, fill1, fill2 evicts
        // lines[0]? No: lru(l0)=access stamp 2 > fill1... victim = l1.
        // Evicting clean l1 yields no writeback; fill again to evict dirty l0.
        let wb2 = c.fill(same_set_lines(&c, 4)[3], false, false);
        assert!(wb.is_some() || wb2.is_some());
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_accuracy_accounting() {
        let mut c = tiny();
        let lines = same_set_lines(&c, 4);
        c.fill(lines[0], false, true); // prefetch, will be used
        c.fill(lines[1], false, true); // prefetch, never used
        match c.access(lines[0], false) {
            Access::Hit {
                first_use_of_prefetch,
            } => assert!(first_use_of_prefetch),
            other => panic!("expected hit, got {other:?}"),
        }
        // Second touch is no longer a "first use".
        match c.access(lines[0], false) {
            Access::Hit {
                first_use_of_prefetch,
            } => assert!(!first_use_of_prefetch),
            other => panic!("expected hit, got {other:?}"),
        }
        // Evict the unused prefetch.
        c.fill(lines[2], false, false);
        c.fill(lines[3], false, false);
        let s = c.stats();
        assert_eq!(s.prefetch_fills, 2);
        assert_eq!(s.prefetch_useful, 1);
        assert!(s.prefetch_unused >= 1);
        assert!((s.prefetch_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_fill_merges() {
        let mut c = tiny();
        c.fill(LineAddr(9), false, false);
        assert_eq!(c.fill(LineAddr(9), true, false), None);
        // Dirty flag merged: evicting it must produce a writeback.
        let lines = same_set_lines(&c, 8);
        let set9 = (0u64..)
            .map(LineAddr)
            .filter(|l| {
                l.0 != 9 && {
                    let probe = tiny();
                    probe.set_index(*l) == probe.set_index(LineAddr(9))
                }
            })
            .take(2)
            .collect::<Vec<_>>();
        let mut wb = None;
        for l in set9 {
            wb = wb.or(c.fill(l, false, false));
        }
        assert_eq!(wb, Some(LineAddr(9)));
        let _ = lines;
    }

    #[test]
    fn default_geometry() {
        let c = CacheConfig::default();
        assert_eq!(c.sets(), 16_384);
        let cache = L2Cache::new(c);
        assert_eq!(cache.tags.len(), 16_384 * 16);
        assert_eq!(cache.recency.len(), 16_384 * 16);
        assert_eq!(cache.filled.len(), 16_384);
    }

    /// A set's recency bytes are its exact LRU order: the valid ways hold
    /// `NEWEST - rank` for the ranks `0..n`, the way touched last rank 0,
    /// and free ways stay zero. Checked after every call against a
    /// most-recent-first list, in one set of 8 ways over 12 lines.
    #[test]
    fn ranks_order_each_set_by_recency() {
        let mut c = L2Cache::new(CacheConfig {
            size_bytes: 8 * 64,
            ways: 8,
        });
        let mut order: Vec<LineAddr> = Vec::new();
        let mut rng = simkernel::SimRng::new(5);
        for i in 0..2_000 {
            let line = LineAddr(rng.below(12));
            let at = order.iter().position(|&l| l == line);
            if rng.chance(0.5) {
                let hit = matches!(c.access(line, rng.chance(0.3)), Access::Hit { .. });
                assert_eq!(hit, at.is_some(), "op {i}");
                if let Some(at) = at {
                    order.remove(at);
                    order.insert(0, line);
                }
            } else {
                c.fill(line, rng.chance(0.3), rng.chance(0.2));
                match at {
                    Some(at) => drop(order.remove(at)),
                    None if order.len() == 8 => drop(order.pop()),
                    None => {}
                }
                order.insert(0, line);
            }
            let n = c.filled[0] as usize;
            assert_eq!(n, order.len(), "op {i}");
            for (w, &recency) in c.recency.iter().enumerate() {
                let want = if w < n {
                    let held = c.line_of(c.tags[w], 0);
                    NEWEST - order.iter().position(|&l| l == held).expect("resident") as u8
                } else {
                    0
                };
                assert_eq!(recency, want, "op {i} way {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "L2 line 0x100000000 does not fit the 30-bit tag of a 4-set cache")]
    fn access_rejects_a_line_past_the_tag() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr((1 << 32) - 1), false), Access::Miss);
        let _ = c.access(LineAddr(1 << 32), false);
    }

    #[test]
    #[should_panic(expected = "L2 line 0x100000000 does not fit the 30-bit tag of a 4-set cache")]
    fn fill_rejects_a_line_past_the_tag() {
        let mut c = tiny();
        assert_eq!(c.fill(LineAddr((1 << 32) - 1), false, false), None);
        let _ = c.fill(LineAddr(1 << 32), false, false);
    }

    #[test]
    #[should_panic(
        expected = "L2 line 0xffffffffffffffff does not fit the 30-bit tag of a 4-set cache"
    )]
    fn contains_rejects_a_line_past_the_tag() {
        let _ = tiny().contains(LineAddr(u64::MAX));
    }

    #[test]
    fn validate_rejects_each_bad_geometry() {
        let ok = CacheConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let widest = CacheConfig {
            size_bytes: 64 * 256,
            ways: 256,
        };
        assert_eq!(widest.validate(), Ok(()));
        let bad = [
            (CacheConfig { ways: 0, ..ok }, "at least one way"),
            (
                CacheConfig {
                    size_bytes: 64 * 257,
                    ways: 257,
                },
                "recency rank",
            ),
            (
                CacheConfig {
                    size_bytes: 3 * 64 * 16,
                    ..ok
                },
                "power of two",
            ),
            (
                CacheConfig {
                    size_bytes: 64,
                    ..ok
                },
                "power of two",
            ),
        ];
        for (config, why) in bad {
            let err = config.validate().expect_err(why);
            assert!(err.contains(why), "{config:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = L2Cache::new(CacheConfig {
            size_bytes: 3 * 64 * 2,
            ways: 2,
        });
    }
}
