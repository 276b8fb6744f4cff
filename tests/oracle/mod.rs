//! An independent max-min fair-sharing oracle for the sharing engines.
//!
//! `net::fabric` and `disk::pool` divide resource bandwidth max-min
//! fairly among the transfers crossing it, through incremental,
//! lazily-advanced, analytic machinery. This module checks them from
//! the outside. It is written from scratch over plain data: resources
//! are indices into a capacity vector (bytes/s) and a transfer is the
//! list of resources it crosses. It uses no type or function of the
//! engines or of `sim::fairshare`, so a bug in the engines' shared
//! bookkeeping cannot hide in the reference.
//!
//! It offers three checks:
//!
//! * [`max_min`] — the unique max-min fair allocation, by raising one
//!   common water level and fixing every transfer that crosses a
//!   resource saturating at that level;
//! * [`certify`] — feasibility plus the optimality certificate of a
//!   given allocation: every transfer crosses a saturated resource on
//!   which its rate is maximal;
//! * [`replay`] — a fluid replay of a whole workload on the
//!   simulators' integer-millisecond clock, giving each transfer's
//!   completion (or abort) instant.
//!
//! The unit tests in `crates/net/src/fabric.rs` and
//! `crates/disk/src/pool.rs` include this file by path. It therefore
//! depends on nothing but `std`.

#![allow(dead_code)]

/// Relative tolerance for "saturated" and "maximal" in [`certify`],
/// and for comparing an engine's rates against [`max_min`].
pub const REL_TOL: f64 = 1e-9;

/// The max-min fair rates of transfers crossing `paths`, over
/// resources of `capacity` bytes/s. A zero-capacity resource (a down
/// link, a throttled channel) parks its transfers at rate 0.
///
/// While some transfer is unfixed, every unfixed transfer runs at a
/// common level. The level rises until a resource saturates, that is
/// until `(capacity − fixed load) / unfixed transfers` is smallest.
/// Every unfixed transfer crossing a resource at that level is then
/// fixed at it, and the level keeps rising for the rest.
///
/// # Panics
///
/// Panics if a transfer crosses no resource: it would have no bound.
pub fn max_min(capacity: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    let mut rate = vec![0.0; paths.len()];
    let mut fixed = vec![false; paths.len()];
    let mut load = vec![0.0; capacity.len()];
    let mut unfixed = vec![0usize; capacity.len()];
    for p in paths {
        assert!(!p.is_empty(), "a transfer must cross some resource");
        for &r in p {
            unfixed[r] += 1;
        }
    }
    let level_of = |r: usize, load: &[f64], unfixed: &[usize]| {
        (capacity[r] - load[r]).max(0.0) / unfixed[r] as f64
    };
    loop {
        let level = (0..capacity.len())
            .filter(|&r| unfixed[r] > 0)
            .map(|r| level_of(r, &load, &unfixed))
            .fold(f64::INFINITY, f64::min);
        if level == f64::INFINITY {
            return rate;
        }
        let saturated: Vec<bool> = (0..capacity.len())
            .map(|r| unfixed[r] > 0 && level_of(r, &load, &unfixed) <= level)
            .collect();
        for (i, p) in paths.iter().enumerate() {
            if fixed[i] || !p.iter().any(|&r| saturated[r]) {
                continue;
            }
            fixed[i] = true;
            rate[i] = level;
            for &r in p {
                load[r] += level;
                unfixed[r] -= 1;
            }
        }
    }
}

/// Checks that `rates` is a feasible max-min fair allocation:
///
/// * no rate is negative or NaN;
/// * no resource carries more than its capacity;
/// * every transfer crosses a saturated resource on which no other
///   transfer runs faster. A transfer parked at rate 0 on a
///   zero-capacity resource satisfies this: the resource carries
///   nothing and so is saturated.
///
/// This certificate holds for the max-min allocation and for no other
/// feasible allocation, so it checks optimality without computing the
/// optimum. Returns a description of the first violation.
pub fn certify(capacity: &[f64], paths: &[Vec<usize>], rates: &[f64]) -> Result<(), String> {
    let mut load = vec![0.0; capacity.len()];
    let mut fastest = vec![0.0f64; capacity.len()];
    for (i, (p, &x)) in paths.iter().zip(rates).enumerate() {
        if x.is_nan() || x < 0.0 {
            return Err(format!("transfer {i} has rate {x}"));
        }
        for &r in p {
            load[r] += x;
            fastest[r] = fastest[r].max(x);
        }
    }
    for (r, (&l, &c)) in load.iter().zip(capacity).enumerate() {
        if l > c * (1.0 + REL_TOL) {
            return Err(format!("resource {r} carries {l} > capacity {c}"));
        }
    }
    for (i, (p, &x)) in paths.iter().zip(rates).enumerate() {
        let bottlenecked = p.iter().any(|&r| {
            load[r] >= capacity[r] * (1.0 - REL_TOL) && x >= fastest[r] * (1.0 - REL_TOL)
        });
        if !bottlenecked {
            return Err(format!(
                "transfer {i} at {x} B/s has no saturated resource on which it is fastest \
                 (path {p:?})"
            ));
        }
    }
    Ok(())
}

/// Whether two rates agree within [`REL_TOL`] of the larger.
pub fn rates_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// One external step of a workload, in time order (ties keep list
/// order, and all steps at an instant precede the engine's own events
/// at that instant).
#[derive(Debug, Clone)]
pub enum Step {
    /// Transfer `id` becomes pending and starts at this instant,
    /// carrying `work` bytes over `path`.
    Start {
        id: u64,
        work: f64,
        path: Vec<usize>,
    },
    /// A resource's capacity changes. With `abort`, every transfer that
    /// crosses it and has not finished, started or pending, is dropped
    /// (a link going down).
    Capacity {
        resource: usize,
        capacity: f64,
        abort: bool,
    },
}

/// How a replayed transfer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Its last byte moved at this millisecond.
    Done(u64),
    /// It was dropped by a [`Step::Capacity`] abort at this millisecond.
    Aborted(u64),
}

/// Replays a workload as a fluid on an integer-millisecond clock and
/// returns each transfer's end, keyed by id, ascending.
///
/// Between instants every transfer moves at its [`max_min`] rate. At
/// each instant the replay applies that instant's steps, retires the
/// transfers due then, admits the pending starts, and re-divides. A
/// transfer's due instant is `now + round(remaining / rate)` in whole
/// milliseconds, the same rounding the simulators' clock applies. The
/// replay stops when nothing is pending or moving; a transfer still
/// parked at rate 0 then has no end and is left out.
pub fn replay(initial_capacity: &[f64], steps: &[(u64, Step)]) -> Vec<(u64, End)> {
    struct Live {
        id: u64,
        path: Vec<usize>,
        remaining: f64,
        rate: f64,
        due: Option<u64>,
    }
    let mut capacity = initial_capacity.to_vec();
    let mut live: Vec<Live> = Vec::new();
    let mut pending: Vec<Live> = Vec::new();
    let mut ends: Vec<(u64, End)> = Vec::new();
    let mut next_step = 0;
    let mut now = steps.first().map_or(0, |s| s.0);
    loop {
        while next_step < steps.len() && steps[next_step].0 == now {
            match &steps[next_step].1 {
                Step::Start { id, work, path } => pending.push(Live {
                    id: *id,
                    path: path.clone(),
                    remaining: *work,
                    rate: 0.0,
                    due: None,
                }),
                &Step::Capacity {
                    resource,
                    capacity: c,
                    abort,
                } => {
                    capacity[resource] = c;
                    if abort {
                        for set in [&mut live, &mut pending] {
                            set.retain(|t| {
                                let hit = t.path.contains(&resource);
                                if hit {
                                    ends.push((t.id, End::Aborted(now)));
                                }
                                !hit
                            });
                        }
                    }
                }
            }
            next_step += 1;
        }
        live.retain(|t| {
            let done = t.due == Some(now);
            if done {
                ends.push((t.id, End::Done(now)));
            }
            !done
        });
        live.append(&mut pending);

        let paths: Vec<Vec<usize>> = live.iter().map(|t| t.path.clone()).collect();
        let rates = max_min(&capacity, &paths);
        for (t, r) in live.iter_mut().zip(rates) {
            t.rate = r;
            t.due = (r > 0.0).then(|| now + (t.remaining / r * 1_000.0).round() as u64);
        }
        let next = live
            .iter()
            .filter_map(|t| t.due)
            .chain(steps.get(next_step).map(|s| s.0))
            .min();
        let Some(next) = next else {
            break;
        };
        let dt = (next - now) as f64 / 1_000.0;
        for t in &mut live {
            t.remaining = (t.remaining - t.rate * dt).max(0.0);
        }
        now = next;
    }
    ends.sort_by_key(|e| e.0);
    ends
}
