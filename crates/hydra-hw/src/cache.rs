//! Set-associative cache simulation.
//!
//! Figure 10 and the client-side L2 numbers in the paper come from OProfile
//! hardware miss counters on a 256 kB L2. Here the workload models emit
//! address-level traces into a real set-associative LRU [`Cache`]; the
//! miss-rate *ratios* between scenarios (idle vs. copying server vs.
//! zero-copy vs. offloaded) emerge from which buffers each scenario
//! actually touches on the host.

use std::fmt;

/// Whether an access reads or writes the line (writes mark it dirty; a
/// dirty eviction is counted as a write-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another).
    Miss,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's host L2: 256 kB, 8-way, 64-byte lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / self.line_bytes / self.ways
    }

    /// Number of lines covered by `[addr, addr + len)`.
    pub(crate) fn lines_spanned(&self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let shift = self.line_bytes.trailing_zeros();
        ((addr + len as u64 - 1) >> shift) - (addr >> shift) + 1
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: sizes must be
    /// non-zero, the line size a power of two, and the capacity an exact
    /// multiple of `line_bytes * ways`.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes {} must be a non-zero power of two",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("ways must be non-zero".into());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_bytes * self.ways) {
            return Err(format!(
                "size_bytes {} must be a positive multiple of line_bytes*ways = {}",
                self.size_bytes,
                self.line_bytes * self.ways
            ));
        }
        Ok(())
    }
}

/// Access counters of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction or flush.
    pub write_backs: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss fraction in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative LRU cache model.
///
/// Each set is a ring of ways packed as `tag << 1 | dirty` in recency order,
/// from its head (most recent) round to the victim just behind the head.
/// Invalid ways collect at the victim end, so a miss fills one before it
/// evicts a valid line, and costs O(1) either way.
///
/// # Examples
///
/// ```
/// use hydra_hw::cache::{AccessKind, AccessOutcome, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert_eq!(c.access(0x100, AccessKind::Read), AccessOutcome::Miss);
/// assert_eq!(c.access(0x100, AccessKind::Read), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` packed ways, one ring per set.
    ways: Vec<u64>,
    /// Index within its ring of each set's most recent way.
    heads: Vec<usize>,
    stats: CacheStats,
}

/// An invalid way: an all-ones tag with a clear dirty bit. Lookups assert
/// that no tag reaches it, which holds for every address below 2^63 - 1.
const EMPTY: u64 = !1;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        Cache {
            config,
            ways: vec![EMPTY; config.sets() * config.ways],
            heads: vec![0; config.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index and tag of the line holding `addr`.
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.config.line_bytes.trailing_zeros();
        let sets = self.heads.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    /// Calls `f` with the set and tag of every line in `[addr, addr + len)`,
    /// stepping them instead of dividing per line.
    fn walk(&mut self, addr: u64, len: usize, mut f: impl FnMut(&mut Self, usize, u64)) {
        let (mut set, mut tag) = self.index(addr);
        for _ in 0..self.config.lines_spanned(addr, len) {
            f(self, set, tag);
            set += 1;
            if set == self.heads.len() {
                set = 0;
                tag += 1;
            }
        }
    }

    #[inline(always)]
    fn access_line(&mut self, set: usize, tag: u64, kind: AccessKind) -> AccessOutcome {
        let (n, head) = (self.config.ways, self.heads[set]);
        let victim = if head == 0 { n - 1 } else { head - 1 };
        let ring = &mut self.ways[set * n..(set + 1) * n];
        let dirty = u64::from(kind == AccessKind::Write);
        let Some(mut i) = way_of(ring, tag) else {
            let old = std::mem::replace(&mut ring[victim], tag << 1 | dirty);
            self.heads[set] = victim;
            self.stats.misses += 1;
            self.stats.evictions += u64::from(old != EMPTY);
            self.stats.write_backs += old & 1;
            return AccessOutcome::Miss;
        };
        // The hit becomes the head: the ways ahead of it step back one, or
        // the head steps back onto it if it was the victim.
        let hit = ring[i] | dirty;
        let front = if i == victim { i } else { head };
        while i != front {
            let prev = if i == 0 { n - 1 } else { i - 1 };
            ring[i] = ring[prev];
            i = prev;
        }
        ring[i] = hit;
        self.heads[set] = i;
        self.stats.hits += 1;
        AccessOutcome::Hit
    }

    /// Performs one access at byte address `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let (set, tag) = self.index(addr);
        self.access_line(set, tag, kind)
    }

    /// Accesses every line covered by `[addr, addr + len)`, returning the
    /// number of misses. This is how workload models "touch" a buffer.
    pub fn touch_range(&mut self, addr: u64, len: usize, kind: AccessKind) -> u64 {
        let mut misses = 0;
        self.walk(addr, len, |c, set, tag| {
            misses += u64::from(c.access_line(set, tag, kind) == AccessOutcome::Miss);
        });
        misses
    }

    /// True if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let n = self.config.ways;
        way_of(&self.ways[set * n..(set + 1) * n], tag).is_some()
    }

    /// Invalidates every line whose address falls in `[addr, addr + len)`,
    /// counting write-backs of dirty lines. Returns the number of lines
    /// invalidated. This models coherent device DMA claiming host buffers.
    pub fn invalidate_range(&mut self, addr: u64, len: usize) -> u64 {
        let mut invalidated = 0;
        self.walk(addr, len, |c, set, tag| {
            let (n, head) = (c.config.ways, c.heads[set]);
            let ring = &mut c.ways[set * n..(set + 1) * n];
            if let Some(mut i) = way_of(ring, tag) {
                c.stats.write_backs += ring[i] & 1;
                // The freed way becomes the victim: the ways behind it step
                // up one, or the head steps forward past it if it was the head.
                let victim = if head == 0 { n - 1 } else { head - 1 };
                let back = if i == head { i } else { victim };
                while i != back {
                    let next = if i + 1 == n { 0 } else { i + 1 };
                    ring[i] = ring[next];
                    i = next;
                }
                ring[i] = EMPTY;
                c.heads[set] = if i + 1 == n { 0 } else { i + 1 };
                invalidated += 1;
            }
        });
        invalidated
    }

    /// Invalidates every line, counting write-backs of dirty lines.
    pub fn flush(&mut self) {
        self.stats.write_backs += self.ways.iter().map(|w| w & 1).sum::<u64>();
        self.ways.fill(EMPTY);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|&&w| w != EMPTY).count()
    }
}

/// Index within `ring` of the way holding `tag`, scanning from the end, where fills start.
fn way_of(ring: &[u64], tag: u64) -> Option<usize> {
    assert!(tag < EMPTY >> 1, "address beyond the modelled range");
    ring.iter().rposition(|&w| w >> 1 == tag)
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}kB {}-way cache: {} accesses, miss rate {:.2}%",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.stats.accesses(),
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn second_access_hits() {
        let mut c = small();
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Miss);
        assert_eq!(c.access(63, AccessKind::Read), AccessOutcome::Hit);
        assert_eq!(c.access(64, AccessKind::Read), AccessOutcome::Miss);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with addresses ≡ 0 mod (4 sets * 64B line) = 256.
        c.access(0, AccessKind::Read); // A
        c.access(256, AccessKind::Read); // B — set 0 now full
        c.access(0, AccessKind::Read); // touch A, so B is LRU
        c.access(512, AccessKind::Read); // C evicts B
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_write_back() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(256, AccessKind::Read);
        c.access(512, AccessKind::Read); // evicts dirty line A
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, marks dirty
        c.access(256, AccessKind::Read);
        c.access(512, AccessKind::Read); // evicts line 0
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn touch_range_counts_lines() {
        let mut c = small();
        // 130 bytes from address 10 spans lines 0,1,2.
        assert_eq!(c.touch_range(10, 130, AccessKind::Read), 3);
        assert_eq!(c.touch_range(10, 130, AccessKind::Read), 0);
        assert_eq!(c.touch_range(0, 0, AccessKind::Read), 0);
    }

    #[test]
    fn flush_empties_and_counts_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().write_backs, 1);
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Miss);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 512 B
                             // Stream over 4 kB twice: second pass still misses everywhere.
        let before = c.stats().misses;
        for pass in 0..2 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
            if pass == 0 {
                assert_eq!(c.stats().misses - before, 64);
            }
        }
        assert_eq!(c.stats().misses - before, 128);
    }

    #[test]
    fn working_set_within_cache_stops_missing() {
        let mut c = small();
        for _ in 0..3 {
            for addr in (0..512u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 8); // cold misses only
        assert_eq!(c.stats().hits, 16);
    }

    #[test]
    fn paper_l2_geometry() {
        let cfg = CacheConfig::paper_l2();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 64,
            ways: 2,
        });
    }

    #[test]
    fn invalidate_range_removes_lines() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.access(128, AccessKind::Read);
        let n = c.invalidate_range(0, 128); // lines 0 and 1
        assert_eq!(n, 2);
        assert!(!c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128));
        assert_eq!(c.stats().write_backs, 1);
        assert_eq!(c.invalidate_range(0, 0), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Hit);
    }
}
