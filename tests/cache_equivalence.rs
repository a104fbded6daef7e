//! Differential proof that the L2 model's recency rings behave exactly like
//! the stamp-LRU model they replaced.
//!
//! Every Figure 10 and client-L2 number rides on the cache returning the
//! same hit/miss outcome for every access. [`StampLru`] below is the
//! original `Vec<Vec<Line>>` model, kept verbatim as the oracle: a global
//! access stamp per line, a first-invalid-way fill rule, and a
//! `min_by_key` scan for the victim. Seeded random op traces drive it and
//! [`Cache`] side by side over several geometries; after every op the
//! outcome and the full [`CacheStats`] must agree. A mismatch names the
//! geometry, the seed and the op index that reproduce it.

use hydra::hw::cache::{AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats};
use hydra::sim::rng::DetRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic stamp of last touch; larger is more recent.
    lru: u64,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The reference model: the stamp-LRU cache as it stood before the ring
/// representation.
struct StampLru {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stamp: u64,
    stats: CacheStats,
}

impl StampLru {
    fn new(config: CacheConfig) -> Self {
        let sets = vec![vec![EMPTY_LINE; config.ways]; config.sets()];
        StampLru {
            config,
            sets,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn index_of(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set_idx, tag) = self.index_of(addr);
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = stamp;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        // Choose a victim: an invalid way if any, else the LRU way.
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .expect("ways > 0 by construction");
                self.stats.evictions += 1;
                if set[i].dirty {
                    self.stats.write_backs += 1;
                }
                i
            }
        };
        set[victim] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: stamp,
        };
        AccessOutcome::Miss
    }

    fn touch_range(&mut self, addr: u64, len: usize, kind: AccessKind) -> u64 {
        if len == 0 {
            return 0;
        }
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = (addr + len as u64 - 1) / line;
        let mut misses = 0;
        for l in first..=last {
            if self.access(l * line, kind) == AccessOutcome::Miss {
                misses += 1;
            }
        }
        misses
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_of(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    fn invalidate_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = (addr + len as u64 - 1) / line;
        let mut invalidated = 0;
        for l in first..=last {
            let (set_idx, tag) = self.index_of(l * line);
            if let Some(entry) = self.sets[set_idx]
                .iter_mut()
                .find(|e| e.valid && e.tag == tag)
            {
                if entry.dirty {
                    self.stats.write_backs += 1;
                }
                *entry = EMPTY_LINE;
                invalidated += 1;
            }
        }
        invalidated
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.valid && line.dirty {
                    self.stats.write_backs += 1;
                }
                *line = EMPTY_LINE;
            }
        }
    }

    fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }
}

/// One operation of a trace, applied to both models.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, AccessKind),
    Touch(u64, usize, AccessKind),
    Invalidate(u64, usize),
    Flush,
    ResetStats,
    Contains(u64),
    Resident,
}

/// What an op returned, in a form both models can be compared on.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Access(AccessOutcome),
    Count(u64),
    Bool(bool),
    Unit,
}

fn apply_new(c: &mut Cache, op: Op) -> Outcome {
    match op {
        Op::Access(a, k) => Outcome::Access(c.access(a, k)),
        Op::Touch(a, n, k) => Outcome::Count(c.touch_range(a, n, k)),
        Op::Invalidate(a, n) => Outcome::Count(c.invalidate_range(a, n)),
        Op::Flush => {
            c.flush();
            Outcome::Unit
        }
        Op::ResetStats => {
            c.reset_stats();
            Outcome::Unit
        }
        Op::Contains(a) => Outcome::Bool(c.contains(a)),
        Op::Resident => Outcome::Count(c.resident_lines() as u64),
    }
}

fn apply_ref(c: &mut StampLru, op: Op) -> Outcome {
    match op {
        Op::Access(a, k) => Outcome::Access(c.access(a, k)),
        Op::Touch(a, n, k) => Outcome::Count(c.touch_range(a, n, k)),
        Op::Invalidate(a, n) => Outcome::Count(c.invalidate_range(a, n)),
        Op::Flush => {
            c.flush();
            Outcome::Unit
        }
        Op::ResetStats => {
            c.stats = CacheStats::default();
            Outcome::Unit
        }
        Op::Contains(a) => Outcome::Bool(c.contains(a)),
        Op::Resident => Outcome::Count(c.resident_lines() as u64),
    }
}

/// Draws one op. Each set sees `2 × ways + 1` distinct tags, so traces mix
/// hits, conflict evictions and refills; a set is drawn first and then a
/// tag, so single-set conflicts are common even in the larger geometries.
fn random_op(rng: &mut DetRng, config: &CacheConfig) -> Op {
    let line = config.line_bytes as u64;
    let span = (config.sets() as u64) * line;
    let tags = 2 * config.ways as u64 + 1;
    let addr = |rng: &mut DetRng| {
        let set = rng.next_below(config.sets() as u64);
        let tag = rng.next_below(tags);
        tag * span + set * line + rng.next_below(line)
    };
    let kind = |rng: &mut DetRng| {
        if rng.chance(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    };
    let len = |rng: &mut DetRng| match rng.next_below(4) {
        0 => 0,
        1 => 1 + rng.next_below(line) as usize,
        2 => (span + 1 + rng.next_below(2 * span)) as usize,
        _ => 1 + rng.next_below(4 * line) as usize,
    };
    match rng.next_below(100) {
        0..=44 => Op::Access(addr(rng), kind(rng)),
        45..=64 => Op::Touch(addr(rng), len(rng), kind(rng)),
        65..=79 => Op::Invalidate(addr(rng), len(rng)),
        80..=80 => Op::Flush,
        81..=83 => Op::ResetStats,
        84..=95 => Op::Contains(addr(rng)),
        _ => Op::Resident,
    }
}

fn check_geometry(name: &str, config: CacheConfig, seeds: u64, ops: usize) {
    for seed in 0..seeds {
        let mut rng = DetRng::new(seed);
        let mut new = Cache::new(config);
        let mut reference = StampLru::new(config);
        for i in 0..ops {
            let op = random_op(&mut rng, &config);
            let got = apply_new(&mut new, op);
            let want = apply_ref(&mut reference, op);
            assert_eq!(
                got, want,
                "{name}: seed {seed}, op {i} ({op:?}) returned a different outcome"
            );
            assert_eq!(
                new.stats(),
                reference.stats,
                "{name}: seed {seed}, op {i} ({op:?}) left different stats"
            );
        }
        assert_eq!(
            new.resident_lines(),
            reference.resident_lines(),
            "{name}: seed {seed}: different residency at the end"
        );
    }
}

#[test]
fn direct_mapped_matches_stamp_lru() {
    let config = CacheConfig {
        size_bytes: 16 * 64,
        line_bytes: 64,
        ways: 1,
    };
    check_geometry("1-way", config, 32, 2000);
}

#[test]
fn three_way_with_odd_set_count_matches_stamp_lru() {
    // 5 sets: the set index is not a bit field of the address.
    let config = CacheConfig {
        size_bytes: 5 * 3 * 32,
        line_bytes: 32,
        ways: 3,
    };
    check_geometry("3-way x 5 sets", config, 32, 2000);
}

#[test]
fn byte_lines_match_stamp_lru() {
    let config = CacheConfig {
        size_bytes: 3 * 2,
        line_bytes: 1,
        ways: 2,
    };
    check_geometry("1-byte lines", config, 32, 2000);
}

#[test]
fn proptest_geometries_match_stamp_lru() {
    for ways in [4, 8] {
        let config = CacheConfig {
            size_bytes: ways * 4 * 1024,
            line_bytes: 64,
            ways,
        };
        check_geometry(&format!("{ways}-way proptest"), config, 8, 1500);
    }
}

#[test]
fn paper_l2_matches_stamp_lru() {
    check_geometry("paper L2", CacheConfig::paper_l2(), 4, 1500);
}

#[test]
fn invalidated_way_is_refilled_before_any_eviction() {
    // Fill one set, punch a hole in the middle, then refill: the refill
    // must take the freed way, not evict the least-recent valid line.
    let config = CacheConfig {
        size_bytes: 4 * 4 * 64,
        line_bytes: 64,
        ways: 4,
    };
    let stride = (config.sets() * config.line_bytes) as u64;
    let mut new = Cache::new(config);
    let mut reference = StampLru::new(config);
    let mut ops: Vec<Op> = (0..4)
        .map(|t| Op::Access(t * stride, AccessKind::Write))
        .collect();
    ops.push(Op::Invalidate(2 * stride, 1));
    ops.extend((4..8).map(|t| Op::Access(t * stride, AccessKind::Read)));
    ops.extend((0..8).map(|t| Op::Contains(t * stride)));
    for (i, &op) in ops.iter().enumerate() {
        assert_eq!(
            apply_new(&mut new, op),
            apply_ref(&mut reference, op),
            "op {i}"
        );
        assert_eq!(new.stats(), reference.stats, "op {i}");
    }
    let stats = new.stats();
    assert_eq!((stats.evictions, stats.write_backs), (3, 4));
}

#[test]
#[should_panic(expected = "address beyond the modelled range")]
fn tags_that_would_alias_an_invalid_way_are_rejected() {
    // One byte per set: the tag is the address itself, so the top of the
    // address space would collide with the packed invalid-way value.
    let mut cache = Cache::new(CacheConfig {
        size_bytes: 1,
        line_bytes: 1,
        ways: 1,
    });
    cache.access(u64::MAX - 1, AccessKind::Read);
}
