//! How fast the shared host runs at the moment, measured by a fixed
//! probe the benchmark interleaves with its tasks.
//!
//! Other tenants of a shared host slow identical work down by up to a
//! third for minutes at a time. Taking each task at its fastest run
//! hides short bursts but not a slow phase that lasts a whole run. The
//! probe is a small discrete-event placement loop of the benchmark's
//! own (hash map, binary heap, random reads over a few hundred KB): the
//! same kind of work as the simulators, none of their code, so a change
//! to the simulators leaves it alone. It runs before every task, and
//! the 10th percentile of its host times over a run tracks the host's
//! phase; the host-normalised throughput divides that phase back out.
//!
//! Fitting log throughput against log probe time over six alternating
//! 30-second runs of each gated workload, which spanned slow and quiet
//! phases, gave slopes of 1.4 (`storage`) and 1.1 (`sched-net-disk`)
//! with correlations of -0.96 and -0.95: the simulators slow down about
//! as much as the probe's 10th percentile does, so the correction is a
//! plain ratio. The probe's fastest run tracked less well on
//! `sched-net-disk` (correlation -0.41), its median overcorrected.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's 10th-percentile host time, in ms, on the host the
/// benchmark was tuned on (2-core shared Intel Xeon, calibration about
/// 280 Mips) in a quiet phase. Normalised figures read as if measured
/// there.
pub const REFERENCE_MS: f64 = 2.2;

/// Servers the probe places replicas on.
const SERVERS: usize = 1 << 16;
/// Blocks the probe creates and deletes per run (about 2 ms).
const BLOCKS: u64 = 12_000;

/// Runs the probe once and returns its host time in ns.
pub fn probe_ns(round: u64) -> u64 {
    let start = Instant::now();
    black_box(probe(black_box(round)));
    start.elapsed().as_nanos() as u64
}

/// Scales a throughput measured while the probe's 10th-percentile run
/// took `probe_ms` to the reference host.
pub fn normalise_rate(rate: f64, probe_ms: f64) -> f64 {
    rate * probe_ms / REFERENCE_MS
}

/// Creates `BLOCKS` three-replica blocks on random servers, each with a
/// random deletion time, then deletes them in time order.
fn probe(round: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut free = vec![64u32; SERVERS];
    let mut blocks: HashMap<u64, [u32; 3]> = HashMap::with_capacity(1 << 14);
    let mut deletions = BinaryHeap::new();
    for b in 0..BLOCKS {
        let mut replicas = [0u32; 3];
        for r in &mut replicas {
            let s = (next() % SERVERS as u64) as usize;
            free[s] = free[s].saturating_sub(1);
            *r = s as u32;
        }
        blocks.insert(b, replicas);
        deletions.push(std::cmp::Reverse((next() >> 24, b)));
    }
    let mut acc = 0u64;
    while let Some(std::cmp::Reverse((_, b))) = deletions.pop() {
        if let Some(replicas) = blocks.remove(&b) {
            for s in replicas {
                free[s as usize] += 1;
                acc = acc.wrapping_add(free[s as usize] as u64);
            }
        }
    }
    acc
}
