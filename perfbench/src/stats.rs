//! Small numeric helpers: quantiles, hashing, process memory, and the
//! machine-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values` (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// 64-bit FNV-1a, for digests of rendered output.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The probe's median time on the reference machine (2-core x86-64 VM,
/// 2.1 GHz), µs. Host times scaled by `PROBE_REF_US / probe` read as
/// they would on that machine in its usual state.
pub const PROBE_REF_US: f64 = 800.0;

/// Times a fixed, program-independent piece of work shaped like the
/// simulator's hot loops: a 32 KiB, 8-way LRU set-associative cache model
/// walking 64 KiB address ranges (a frozen copy of the algorithm, so a
/// change to the program cannot change the probe). Returns the median of
/// five timings in µs.
///
/// The hosts this benchmark runs on change speed in phases lasting from
/// seconds to minutes; dividing a round's host time by the probe time
/// measured next to it cancels most of that.
pub fn probe_us() -> f64 {
    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        lru: u64,
    }
    const SETS: u64 = 512;
    let once = || {
        let mut sets = vec![
            [Line {
                tag: 0,
                valid: false,
                lru: 0
            }; 8];
            SETS as usize
        ];
        let (mut stamp, mut misses) = (0u64, 0u64);
        let mut x: u64 = black_box(7);
        let t = Instant::now();
        for _ in 0..64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let base = (x >> 40) << 12;
            for l in 0..1024u64 {
                stamp += 1;
                let line = (base + l * 64) / 64;
                let (set, tag) = (&mut sets[(line % SETS) as usize], line / SETS);
                if let Some(hit) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                    hit.lru = stamp;
                    continue;
                }
                misses += 1;
                let victim = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.lru)
                        .map_or(0, |(i, _)| i)
                });
                set[victim] = Line {
                    tag,
                    valid: true,
                    lru: stamp,
                };
            }
        }
        black_box(misses);
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut t = [once(), once(), once(), once(), once()];
    t.sort_by(f64::total_cmp);
    t[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
