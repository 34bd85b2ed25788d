//! The calibration kernels: two fixed, seeded pieces of memory-bound work
//! that are timed between the timed operations.
//!
//! The box is a shared VM whose speed drifts by tens of percent over minutes,
//! all operations together, and no bound below that drift can hold on raw
//! wall time. Dividing each measurement by the kernels' time right beside
//! it cancels the drift, so the end-to-end figures read "at reference
//! machine speed" in their usual units. Two kernels because the drift is
//! cache and memory contention, which slows random access about twice as
//! much as sequential work (measured: the hash kernel's p10–p90 range was
//! 1.9×, the sort kernel's 1.4×, over the same 40 runs): the rank-sharded
//! engines are sort-bound and follow the sort kernel alone; everything else
//! (Btm scatter, interning, hash-map state) follows a 3:1 geometric blend.
//! The sort kernel is also the cross-machine yardstick
//! `calib.sort_1m_u64_ms`.

use std::collections::HashMap;
use std::time::Instant;

/// The kernels' times on the reference machine (the 2-core box of the first
/// baseline, in a quiet phase). They only fix the scale of the figures.
pub const SORT_REFERENCE_S: f64 = 0.020;
pub const HASH_REFERENCE_S: f64 = 0.016;

/// Weight of the sort kernel in the blend non-sort-bound operations follow.
const MIXED_SORT_WEIGHT: f64 = 0.75;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Fill and `sort_unstable` 1 M seeded u64; seconds.
pub fn sort_kernel() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    let mut values: Vec<u64> = (0..1_000_000).map(|_| xorshift(&mut x)).collect();
    values.sort_unstable();
    std::hint::black_box(&values);
    start.elapsed().as_secs_f64()
}

/// 250 K inserts/updates and 62 K removals on a `HashMap` of ~150 K live
/// keys (the shape of interner and stream-state traffic); seconds.
fn hash_kernel() -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let start = Instant::now();
    let mut map: HashMap<(u32, u32), u64> = HashMap::new();
    for _ in 0..250_000 {
        let r = xorshift(&mut x);
        *map.entry(((r % 150_000) as u32, ((r >> 32) % 4) as u32))
            .or_insert(0) += 1;
        if r & 3 == 0 {
            map.remove(&(((r >> 8) % 150_000) as u32, ((r >> 40) % 4) as u32));
        }
    }
    std::hint::black_box(&map);
    start.elapsed().as_secs_f64()
}

/// One reading of both kernels.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub sort_s: f64,
    pub hash_s: f64,
}

pub fn read() -> Reading {
    Reading {
        sort_s: sort_kernel(),
        hash_s: hash_kernel(),
    }
}

/// Which kernel blend an operation's wall follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Pack → exchange → sort → merge: the rank-sharded engines.
    SortBound,
    /// Everything else.
    Mixed,
}

/// How much slower than the reference the machine is right now for work of
/// `class`, from the readings just before and just after a measurement.
pub fn slowdown(class: Class, before: Reading, after: Reading) -> f64 {
    let sort = (before.sort_s + after.sort_s) / 2.0 / SORT_REFERENCE_S;
    let hash = (before.hash_s + after.hash_s) / 2.0 / HASH_REFERENCE_S;
    match class {
        Class::SortBound => sort,
        Class::Mixed => sort.powf(MIXED_SORT_WEIGHT) * hash.powf(1.0 - MIXED_SORT_WEIGHT),
    }
}

/// `raw` at reference machine speed: times shrink by the slowdown, rates
/// grow by it, anything else (memory) is left as measured.
pub fn at_reference_speed(unit: &str, raw: f64, slowdown: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => raw / slowdown,
        "events/s" => raw * slowdown,
        _ => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(sort_x: f64, hash_x: f64) -> Reading {
        Reading {
            sort_s: sort_x * SORT_REFERENCE_S,
            hash_s: hash_x * HASH_REFERENCE_S,
        }
    }

    #[test]
    fn a_machine_twice_as_slow_halves_times_and_doubles_rates() {
        let slow = slowdown(Class::SortBound, reading(2.0, 3.0), reading(2.0, 3.0));
        assert!((slow - 2.0).abs() < 1e-12);
        assert_eq!(at_reference_speed("s", 3.0, 2.0), 1.5);
        assert_eq!(at_reference_speed("us", 8.0, 2.0), 4.0);
        assert_eq!(at_reference_speed("events/s", 1e6, 2.0), 2e6);
        assert_eq!(at_reference_speed("MB", 180.0, 2.0), 180.0);
    }

    #[test]
    fn mixed_work_follows_a_three_to_one_geometric_blend() {
        let slow = slowdown(Class::Mixed, reading(1.0, 16.0), reading(1.0, 16.0));
        assert!((slow - 2.0).abs() < 1e-12, "16^0.25 = 2, got {slow}");
        let even = slowdown(Class::Mixed, reading(1.0, 1.0), reading(3.0, 3.0));
        assert!(
            (even - 2.0).abs() < 1e-12,
            "mean of before and after, got {even}"
        );
    }
}
