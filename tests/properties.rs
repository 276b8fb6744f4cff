//! Property-based tests over the workspace's core invariants.

use harvest::cluster::{Datacenter, ServerId};
use harvest::dfs::grid::Grid2D;
use harvest::dfs::placement::{PlacementPolicy, Placer};
use harvest::dfs::store::BlockStore;
use harvest::disk::{DiskConfig, DiskPool, IoDir};
use harvest::jobs::length::LengthThresholds;
use harvest::net::{Fabric, LinkId, NetworkConfig, SharingMode};
use harvest::signal::fft::{fft_in_place, ifft_in_place};
use harvest::signal::kmeans::kmeans;
use harvest::signal::Complex;
use harvest::sim::engine::EventQueue;
use harvest::sim::metrics::{empirical_cdf, Percentiles, StreamingStats};
use harvest::sim::time::{SimDuration, SimTime};
use harvest::trace::scaling::{calibrate, scale, ScalingKind};
use harvest::trace::timeseries::TimeSeries;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod oracle;

proptest! {
    /// FFT followed by inverse FFT reproduces any real signal.
    #[test]
    fn fft_round_trips(values in prop::collection::vec(-100.0f64..100.0, 1..128)) {
        let n = values.len().next_power_of_two();
        let mut data: Vec<Complex> = values.iter().map(|&x| Complex::from_real(x)).collect();
        data.resize(n, Complex::ZERO);
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (orig, z) in values.iter().zip(&data) {
            prop_assert!((z.re - orig).abs() < 1e-6);
            prop_assert!(z.im.abs() < 1e-6);
        }
    }

    /// Linear scaling never leaves [0, 1] and is monotone in the factor.
    #[test]
    fn scaling_stays_in_unit_interval(
        values in prop::collection::vec(0.0f64..1.0, 1..200),
        factor in 0.0f64..8.0,
    ) {
        let ts = TimeSeries::new(SimDuration::from_mins(2), values);
        let scaled = scale(&ts, ScalingKind::Linear, factor);
        prop_assert!(scaled.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let scaled_more = scale(&ts, ScalingKind::Linear, factor + 0.5);
        for (a, b) in scaled.values().iter().zip(scaled_more.values()) {
            prop_assert!(b >= a);
        }
    }

    /// Calibration hits any reachable target mean for both scalings.
    #[test]
    fn calibration_converges(
        values in prop::collection::vec(0.05f64..0.6, 10..100),
        target in 0.1f64..0.8,
    ) {
        let ts = TimeSeries::new(SimDuration::from_mins(2), values);
        for kind in [ScalingKind::Linear, ScalingKind::Root] {
            let param = calibrate(&[&ts], kind, target);
            let mean = scale(&ts, kind, param).mean();
            prop_assert!((mean - target).abs() < 0.01, "{kind}: {mean} vs {target}");
        }
    }

    /// K-Means assigns every point to an existing centroid and never
    /// leaves a cluster empty.
    #[test]
    fn kmeans_assignments_valid(
        points in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 4..60),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = kmeans(&mut rng, &points, k, 30);
        prop_assert_eq!(result.assignments.len(), points.len());
        prop_assert!(result.assignments.iter().all(|&a| a < result.k()));
        prop_assert!(result.cluster_sizes().iter().all(|&s| s > 0));
        prop_assert!(result.inertia >= 0.0);
    }

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any push sequence.
    #[test]
    fn event_queue_is_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated on equal times");
            }
        }
    }

    /// The 3x3 grid always partitions tenants, never loses space, and
    /// orders columns by reimage rate.
    #[test]
    fn grid_partitions_tenants(
        stats in prop::collection::vec((0.0f64..2.0, 0.0f64..1.0, 10u64..5000), 9..80),
    ) {
        let grid = Grid2D::from_stats(&stats);
        let member_total: usize = Grid2D::cells().map(|c| grid.members(c).len()).sum();
        prop_assert_eq!(member_total, stats.len());
        let space_total: u64 = Grid2D::cells().map(|c| grid.space(c)).sum();
        prop_assert_eq!(space_total, stats.iter().map(|s| s.2).sum::<u64>());
        // Column rate ordering.
        let max_rate_col0 = (0..stats.len())
            .filter(|&t| grid.cell_of(harvest::cluster::TenantId(t as u32)).col == 0)
            .map(|t| stats[t].0)
            .fold(f64::MIN, f64::max);
        let min_rate_col2 = (0..stats.len())
            .filter(|&t| grid.cell_of(harvest::cluster::TenantId(t as u32)).col == 2)
            .map(|t| stats[t].0)
            .fold(f64::MAX, f64::min);
        prop_assert!(max_rate_col0 <= min_rate_col2 + 1e-12);
    }

    /// Job-length thresholds from any history are ordered and classify
    /// consistently.
    #[test]
    fn thresholds_are_ordered(durs in prop::collection::vec(1u64..100_000, 3..300)) {
        let thresholds = LengthThresholds::from_history(
            durs.iter().map(|&d| SimDuration::from_secs(d)).collect(),
        );
        prop_assert!(thresholds.short_max <= thresholds.long_min);
        use harvest::jobs::JobLength;
        let mut last = JobLength::Short;
        for d in [1u64, 1_000, 200_000] {
            let len = thresholds.classify(SimDuration::from_secs(d));
            prop_assert!(len >= last, "classification not monotone");
            last = len;
        }
    }

    /// Streaming stats agree with exact computations.
    #[test]
    fn streaming_stats_match_exact(values in prop::collection::vec(-1e4f64..1e4, 1..300)) {
        let mut s = StreamingStats::new();
        for &v in &values {
            s.push(v);
        }
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - exact_mean).abs() < 1e-6 * (1.0 + exact_mean.abs()));
        let exact_min = values.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert_eq!(s.min(), exact_min);
    }

    /// Empirical CDFs are monotone and end at 1.
    #[test]
    fn cdf_is_monotone(values in prop::collection::vec(-100.0f64..100.0, 1..200)) {
        let cdf = empirical_cdf(values);
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(values in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut p = Percentiles::new();
        p.extend(values.iter().copied());
        let q25 = p.quantile(0.25).unwrap();
        let q50 = p.quantile(0.50).unwrap();
        let q99 = p.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(q25 >= lo && q99 <= hi);
    }
}
/// A small, fixed datacenter for fabric properties (the properties are
/// over the random *flow populations*, not the topology).
fn fabric_dc() -> Datacenter {
    Datacenter::generate(
        &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.015),
        13,
    )
}

/// A fabric over `dc` using sharing engine `mode`. Zero per-hop
/// latency, so a flow's work is exactly its bytes and the oracle's
/// replay needs no latency model.
fn fabric_with(dc: &Datacenter, sharing: SharingMode) -> Fabric {
    let config = NetworkConfig {
        hop_latency_ms: 0.0,
        sharing,
        ..NetworkConfig::datacenter()
    };
    Fabric::from_datacenter(dc, &config)
}

/// Builds a fabric carrying `flows` (src, dst, bytes, start-ms tuples
/// mapped into the datacenter) and pumps it to `probe_ms`.
fn loaded_fabric(dc: &Datacenter, flows: &[(usize, usize, u64, u64)], probe_ms: u64) -> Fabric {
    let mut fabric = Fabric::from_datacenter(dc, &NetworkConfig::datacenter());
    let n = dc.n_servers();
    for (i, &(s, d, bytes, at)) in flows.iter().enumerate() {
        fabric.schedule_flow(
            SimTime::from_millis(at),
            ServerId((s % n) as u32),
            ServerId((d % n) as u32),
            // 1-64 MB so populations overlap at the probe instant.
            (bytes % 64 + 1) * 1024 * 1024,
            i as u64,
        );
    }
    fabric.pump(SimTime::from_millis(probe_ms));
    fabric
}

/// One external step of a randomized fabric workload.
#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// Start a flow of `bytes` between two distinct servers.
    Flow(ServerId, ServerId, u64),
    /// Take a link down (aborting what crosses it) or bring it back.
    Down(LinkId),
    Up(LinkId),
}

/// Servers a randomized fabric workload runs between: few enough that
/// flows contend on NICs and rack links, spread over every rack.
const NET_SERVERS: usize = 16;

/// Turns raw proptest draws into a time-ordered fabric workload over
/// [`NET_SERVERS`] servers: `flows` are (src, dst, bytes, start-ms)
/// and `faults` are (link kind, server, down-ms, outage-ms) — the
/// server's NIC (either direction) or its rack's uplink/downlink goes
/// down and comes back up.
fn net_workload(
    dc: &Datacenter,
    topo: &harvest::net::Topology,
    flows: &[(usize, usize, u64, u64)],
    faults: &[(u64, usize, u64, u64)],
) -> Vec<(u64, NetOp)> {
    let server = |i: usize| dc.servers[(i % NET_SERVERS) * dc.n_servers() / NET_SERVERS].id;
    let mut ops: Vec<(u64, NetOp)> = flows
        .iter()
        .map(|&(s, d, bytes, at)| {
            let d = if d % NET_SERVERS == s % NET_SERVERS {
                d + 1
            } else {
                d
            };
            (
                at,
                NetOp::Flow(server(s), server(d), (bytes % 64 + 1) * 1024 * 1024),
            )
        })
        .collect();
    for &(kind, s, at, outage) in faults {
        let rack = dc.servers[server(s).0 as usize].rack.0;
        let link = match kind % 4 {
            0 => topo.server_tx(server(s)),
            1 => topo.server_rx(server(s)),
            2 => topo.rack_up(rack),
            _ => topo.rack_down(rack),
        };
        ops.push((at, NetOp::Down(link)));
        ops.push((at + outage, NetOp::Up(link)));
    }
    ops.sort_by_key(|op| op.0);
    ops
}

/// Checks the fabric's current allocation against the independent
/// oracle: the max-min certificate, and the oracle's own allocation
/// (bitwise when `bitwise`, else within `oracle::REL_TOL`). Reads only
/// public state: active flows, their paths and rates, link capacities
/// and link state.
fn check_fabric(f: &Fabric, bitwise: bool) -> Result<(), String> {
    let topo = f.topology();
    let capacity: Vec<f64> = (0..topo.n_links())
        .map(|l| {
            let link = LinkId(l as u32);
            if f.link_is_up(link) {
                topo.capacity(link)
            } else {
                0.0
            }
        })
        .collect();
    let ids = f.active_flow_ids();
    let paths: Vec<Vec<usize>> = ids
        .iter()
        .map(|&id| {
            f.flow_path(id)
                .unwrap()
                .iter()
                .map(|l| l.0 as usize)
                .collect()
        })
        .collect();
    let rates: Vec<f64> = ids.iter().map(|&id| f.flow_rate(id).unwrap()).collect();
    oracle::certify(&capacity, &paths, &rates)?;
    let want = oracle::max_min(&capacity, &paths);
    for ((id, &got), &want) in ids.iter().zip(&rates).zip(&want) {
        let agree = if bitwise {
            got.to_bits() == want.to_bits()
        } else {
            oracle::rates_agree(got, want)
        };
        if !agree {
            return Err(format!("{id:?}: engine {got} B/s vs oracle {want} B/s"));
        }
    }
    Ok(())
}

/// The next instant a driven engine acts at: its own next event or the
/// next external step, whichever comes first (`None` once both are
/// exhausted).
fn next_instant(engine: Option<SimTime>, step: Option<u64>) -> Option<u64> {
    match (engine.map(|t| t.as_millis()), step) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Drives `f` through `ops` — `while let Some(t) = next_event_time()
/// { pump(t); check }`, with each external step applied before the
/// engine's own events at its instant — and checks the allocation
/// against the oracle after every event. Returns how each flow ended
/// (keyed by op index, which is the flow's tag) and the steps the
/// oracle's replay needs.
#[allow(clippy::type_complexity)]
fn drive_fabric(
    f: &mut Fabric,
    ops: &[(u64, NetOp)],
    bitwise: bool,
) -> Result<(Vec<(u64, oracle::End)>, Vec<(u64, oracle::Step)>), String> {
    let mut ends = Vec::new();
    let mut steps = Vec::new();
    let mut k = 0;
    while let Some(now) = next_instant(f.next_event_time(), ops.get(k).map(|op| op.0)) {
        let at = SimTime::from_millis(now);
        if ops.get(k).map(|op| op.0) == Some(now) {
            while let Some(&(_, op)) = ops.get(k).filter(|op| op.0 == now) {
                let tag = k as u64;
                k += 1;
                match op {
                    NetOp::Flow(src, dst, bytes) => {
                        f.schedule_flow(at, src, dst, bytes, tag);
                        let path = f.topology().path_links(src, dst);
                        let path = path.iter().map(|l| l.0 as usize).collect();
                        let work = bytes as f64;
                        steps.push((
                            now,
                            oracle::Step::Start {
                                id: tag,
                                work,
                                path,
                            },
                        ));
                    }
                    NetOp::Down(link) if f.link_is_up(link) => {
                        for tag in f.set_link_down(at, link) {
                            ends.push((tag, oracle::End::Aborted(now)));
                        }
                        let resource = link.0 as usize;
                        let (capacity, abort) = (0.0, true);
                        steps.push((
                            now,
                            oracle::Step::Capacity {
                                resource,
                                capacity,
                                abort,
                            },
                        ));
                    }
                    NetOp::Up(link) if !f.link_is_up(link) => {
                        f.set_link_up(at, link);
                        let resource = link.0 as usize;
                        let (capacity, abort) = (f.topology().capacity(link), false);
                        steps.push((
                            now,
                            oracle::Step::Capacity {
                                resource,
                                capacity,
                                abort,
                            },
                        ));
                    }
                    NetOp::Down(_) | NetOp::Up(_) => {}
                }
            }
        } else {
            for c in f.pump(at) {
                ends.push((c.tag, oracle::End::Done(c.at.as_millis())));
            }
        }
        check_fabric(f, bitwise).map_err(|e| format!("at {now} ms: {e}"))?;
    }
    Ok((ends, steps))
}

/// Compares how an engine's transfers ended with the oracle's replay:
/// the same transfers end, aborts land on the same instant, and every
/// completion is within `tol_ms` of the replay's.
fn compare_ends(
    mut engine: Vec<(u64, oracle::End)>,
    replay: &[(u64, oracle::End)],
    tol_ms: u64,
) -> Result<(), String> {
    engine.sort_by_key(|e| e.0);
    if engine.len() != replay.len() {
        return Err(format!(
            "{} transfers ended in the engine, {} in the replay",
            engine.len(),
            replay.len()
        ));
    }
    for (e, r) in engine.iter().zip(replay) {
        let close = match (e.1, r.1) {
            (oracle::End::Done(a), oracle::End::Done(b)) => a.abs_diff(b) <= tol_ms,
            (a, b) => e.0 == r.0 && a == b,
        };
        if e.0 != r.0 || !close {
            return Err(format!(
                "transfer {} ended {:?}, replay says {:?}",
                e.0, e.1, r
            ));
        }
    }
    Ok(())
}

/// The initial capacities the replay starts from: every link up.
fn link_capacities(f: &Fabric) -> Vec<f64> {
    let topo = f.topology();
    (0..topo.n_links())
        .map(|l| topo.capacity(LinkId(l as u32)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Max-min allocation invariant 1 — capacity conservation: no link
    /// carries more than its capacity, for any flow population.
    #[test]
    fn fabric_conserves_link_capacity(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..200), 1..60),
    ) {
        let dc = fabric_dc();
        let fabric = loaded_fabric(&dc, &flows, 100);
        for l in 0..fabric.topology().n_links() {
            let link = LinkId(l as u32);
            let cap = fabric.topology().capacity(link);
            let load = fabric.link_load(link);
            prop_assert!(
                load <= cap * (1.0 + 1e-9),
                "link {l} overloaded: {load} > {cap}"
            );
        }
    }

    /// Max-min allocation invariant 2 — work conservation: every active
    /// flow is bottlenecked by at least one saturated link on its path
    /// (otherwise it could be given more bandwidth).
    #[test]
    fn fabric_is_work_conserving(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..200), 1..60),
    ) {
        let dc = fabric_dc();
        let fabric = loaded_fabric(&dc, &flows, 100);
        for id in fabric.active_flow_ids() {
            let rate = fabric.flow_rate(id).unwrap();
            prop_assert!(rate > 0.0, "active flow {id:?} starved");
            let path = fabric.flow_path(id).unwrap().to_vec();
            let bottlenecked = path.iter().any(|&l| {
                fabric.link_load(l) >= fabric.topology().capacity(l) * (1.0 - 1e-9)
            });
            prop_assert!(bottlenecked, "flow {id:?} has no saturated link");
        }
    }

    /// Max-min allocation invariant 3 — no flow exceeds its bottleneck
    /// fair share: a flow's rate never beats capacity/contenders on any
    /// of its links by more than the share ceded by flows frozen at
    /// other bottlenecks (i.e. it never exceeds the link capacity, and
    /// equal-demand flows sharing a link get equal rates).
    #[test]
    fn fabric_shares_fairly(
        flows in prop::collection::vec((0usize..500, 0u64..64), 2..40),
        src in 0usize..500,
    ) {
        // All flows leave one server, so its TX NIC is every flow's
        // bottleneck: rates must be (nearly) identical.
        let dc = fabric_dc();
        let shaped: Vec<(usize, usize, u64, u64)> = flows
            .iter()
            .map(|&(d, b)| (src, if d % dc.n_servers() == src % dc.n_servers() { d + 1 } else { d }, b, 0))
            .collect();
        let fabric = loaded_fabric(&dc, &shaped, 0);
        let rates: Vec<f64> = fabric
            .active_flow_ids()
            .iter()
            .filter_map(|&id| fabric.flow_rate(id))
            .collect();
        if rates.len() >= 2 {
            let (min, max) = rates
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
            prop_assert!(
                (max - min) / max < 1e-9,
                "unequal shares on a single bottleneck: {min} vs {max}"
            );
        }
    }

    /// The fabric replays bit-identically for identical inputs.
    #[test]
    fn fabric_replays_deterministically(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..500), 1..40),
    ) {
        let dc = fabric_dc();
        let ends = |fl: &[(usize, usize, u64, u64)]| {
            let mut f = loaded_fabric(&dc, fl, 0);
            f.drain()
                .into_iter()
                .map(|c| (c.tag, c.at.as_millis()))
                .collect::<Vec<_>>()
        };
        let a = ends(&flows);
        let b = ends(&flows);
        prop_assert_eq!(a.len(), flows.len(), "flows went missing");
        prop_assert_eq!(a, b);
    }

    /// The component-scoped filling tier against the independent global
    /// oracle (`tests/oracle`), on randomized storms with links going
    /// down and coming back. After every event the allocation must pass
    /// the max-min certificate and match the oracle's from-scratch
    /// global recompute within 1e-9 relative; the flows the downs abort
    /// must be the ones the replay aborts, and every completion must
    /// land within 1 ms of the oracle's fluid replay.
    #[test]
    fn fabric_component_reshare_matches_global_oracle(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..400), 1..60),
        faults in prop::collection::vec((0u64..4, 0usize..500, 0u64..400, 1u64..300), 0..6),
    ) {
        let dc = fabric_dc();
        let mut f = fabric_with(&dc, SharingMode::Filling);
        let ops = net_workload(&dc, f.topology(), &flows, &faults);
        let (ends, steps) = drive_fabric(&mut f, &ops, false)?;
        compare_ends(ends, &oracle::replay(&link_capacities(&f), &steps), 1)?;
        prop_assert_eq!(f.stats().analytic_events, 0, "filling pin took the fast path");
    }

    /// The analytic tier on its home turf: every flow leaves one
    /// server at t = 0, so the source NIC is the whole component's
    /// single bottleneck and the classifier must promote it (singleton
    /// components are left on filling — the fast path needs at least
    /// two concurrent flows to have anything to share). After every
    /// event the rates are *bitwise* the global oracle's (both compute
    /// `capacity / n` on the same population). The completion
    /// schedule matches the filling tier's exactly and the oracle's
    /// replay within 1 ms. Completions landing on the same millisecond
    /// may pop in a different order (the analytic heap breaks ties by
    /// fair-work key, filling's queue by push order), so the two
    /// engines' schedules are compared sorted by (time, tag).
    #[test]
    fn fabric_single_bottleneck_analytic_matches_global_bitwise(
        flows in prop::collection::vec((0usize..500, 0u64..64), 2..50),
        src in 0usize..500,
    ) {
        let dc = fabric_dc();
        let shaped: Vec<(usize, usize, u64, u64)> =
            flows.iter().map(|&(d, b)| (src, d, b, 0)).collect();
        let run = |mode| -> Result<_, String> {
            let mut f = fabric_with(&dc, mode);
            let ops = net_workload(&dc, f.topology(), &shaped, &[]);
            let (ends, steps) = drive_fabric(&mut f, &ops, true)?;
            let replay = oracle::replay(&link_capacities(&f), &steps);
            let mut sorted: Vec<(u64, u64)> = ends
                .iter()
                .map(|&(tag, end)| match end {
                    oracle::End::Done(at) => (at, tag),
                    oracle::End::Aborted(_) => unreachable!("no faults"),
                })
                .collect();
            sorted.sort_unstable();
            compare_ends(ends, &replay, 1)?;
            Ok((sorted, f.stats().analytic_events))
        };
        let (auto, analytic_events) = run(SharingMode::Auto)?;
        let (filling, _) = run(SharingMode::Filling)?;
        prop_assert_eq!(&auto, &filling, "completion schedules diverged");
        prop_assert!(analytic_events > 0, "classifier never promoted a single-bottleneck component");
    }

    /// The default tier (`Auto`) on *mixed* workloads with link faults
    /// (arbitrary src/dst pairs, so components may have several
    /// bottlenecks and only some promote; downs abort and migrate live
    /// groups, ups rescue parked flows): after every event the
    /// allocation passes the certificate and matches the global
    /// oracle within 1e-9; every completion lands within 1 ms of the
    /// oracle's replay. Completion *times* may drift from the replay
    /// by float reassociation (the fair-work clock computes `r − (a +
    /// b)` where the replay folds `(r − a) − b`), which the millisecond
    /// clock rounds away — documented tolerance: one clock quantum.
    #[test]
    fn fabric_mixed_analytic_matches_global_schedule(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..400), 1..60),
        faults in prop::collection::vec((0u64..4, 0usize..500, 0u64..400, 1u64..300), 0..6),
    ) {
        let dc = fabric_dc();
        let mut f = fabric_with(&dc, SharingMode::Auto);
        let ops = net_workload(&dc, f.topology(), &flows, &faults);
        let (ends, steps) = drive_fabric(&mut f, &ops, false)?;
        compare_ends(ends, &oracle::replay(&link_capacities(&f), &steps), 1)?;
    }
}

/// Builds a pool of `N_DISKS` carrying `streams` ((server, dir, bytes,
/// start-ms) tuples) under per-disk primary utilizations drawn from
/// `utils`, and pumps it to `probe_ms`.
const N_DISKS: usize = 48;

fn loaded_pool(
    streams: &[(usize, u64, u64, u64)],
    utils: &[(usize, u64)],
    probe_ms: u64,
) -> DiskPool {
    let mut pool = DiskPool::new(N_DISKS, &DiskConfig::datacenter());
    for &(server, centi_util) in utils {
        pool.set_primary_util(
            SimTime::ZERO,
            ServerId((server % N_DISKS) as u32),
            centi_util as f64 / 100.0,
        );
    }
    for (i, &(server, write, bytes, at)) in streams.iter().enumerate() {
        pool.schedule_stream(
            SimTime::from_millis(at),
            ServerId((server % N_DISKS) as u32),
            if write % 2 == 1 {
                IoDir::Write
            } else {
                IoDir::Read
            },
            // 1-64 MB so populations overlap at the probe instant.
            (bytes % 64 + 1) * 1024 * 1024,
            i as u64,
        );
    }
    pool.pump(SimTime::from_millis(probe_ms));
    pool
}

/// One external step of a randomized disk workload.
#[derive(Debug, Clone, Copy)]
enum DiskOp {
    Stream(ServerId, IoDir, u64),
    /// A primary utilization sample (0.9 and above throttles a
    /// constant-class tenant's disk to zero: its streams park).
    Util(ServerId, f64),
    /// A brown-out factor (0 parks every stream on the disk).
    Degrade(ServerId, f64),
}

/// Every disk's final state in [`disk_workload`]: an unthrottled
/// utilization and a healthy disk, so every parked stream is rescued
/// and the pool drains.
const DISK_SETTLE_MS: u64 = 1_000;

/// Turns raw proptest draws into a time-ordered disk workload:
/// `streams` are (server, write?, bytes, start-ms), `utils` are
/// (server, centi-util, at-ms, park?) — one draw in three pins 95%,
/// which throttles the disk to zero — and `degrades` are (server,
/// tenths, at-ms), tenths 0 parking the disk. Every touched disk
/// settles back at [`DISK_SETTLE_MS`].
fn disk_workload(
    streams: &[(usize, u64, u64, u64)],
    utils: &[(usize, u64, u64, u64)],
    degrades: &[(usize, u64, u64)],
) -> Vec<(u64, DiskOp)> {
    let server = |s: usize| ServerId((s % N_DISKS) as u32);
    let mut ops: Vec<(u64, DiskOp)> = streams
        .iter()
        .map(|&(s, write, bytes, at)| {
            let dir = if write % 2 == 1 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            (
                at,
                DiskOp::Stream(server(s), dir, (bytes % 64 + 1) * 1024 * 1024),
            )
        })
        .collect();
    for &(s, centi, at, park) in utils {
        let util = if park % 3 == 0 {
            0.95
        } else {
            centi as f64 / 100.0
        };
        ops.push((at, DiskOp::Util(server(s), util)));
        ops.push((DISK_SETTLE_MS, DiskOp::Util(server(s), 0.3)));
    }
    for &(s, tenths, at) in degrades {
        ops.push((at, DiskOp::Degrade(server(s), tenths as f64 / 10.0)));
        ops.push((DISK_SETTLE_MS, DiskOp::Degrade(server(s), 1.0)));
    }
    ops.sort_by_key(|op| op.0);
    ops
}

/// Channel index of a disk channel in the oracle's resource vector.
fn channel_index(server: ServerId, dir: IoDir) -> usize {
    2 * server.0 as usize + usize::from(dir == IoDir::Write)
}

/// Every channel's current secondary capacity, as the oracle's
/// resource vector.
fn channel_capacities(p: &DiskPool) -> Vec<f64> {
    (0..N_DISKS as u32)
        .flat_map(|s| [IoDir::Read, IoDir::Write].map(|d| p.secondary_capacity(ServerId(s), d)))
        .collect()
}

/// Checks the pool's current allocation against the oracle: every
/// stream's rate is bitwise the test's own `secondary_capacity / n`
/// for its channel, and the allocation passes the max-min certificate
/// over all channels.
fn check_pool(p: &DiskPool) -> Result<(), String> {
    let capacity = channel_capacities(p);
    let ids = p.active_stream_ids();
    let mut paths = Vec::new();
    let mut rates = Vec::new();
    for &id in &ids {
        let (server, dir) = p.stream_channel(id).unwrap();
        let got = p.stream_rate(id).unwrap();
        let want = p.secondary_capacity(server, dir) / p.channel_streams(server, dir) as f64;
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "{id:?} on {server:?} {dir:?}: {got} B/s, equal split is {want}"
            ));
        }
        paths.push(vec![channel_index(server, dir)]);
        rates.push(got);
    }
    oracle::certify(&capacity, &paths, &rates)
}

/// Drives `p` through `ops` exactly as [`drive_fabric`] drives a
/// fabric, checking it against the oracle after every event. A stream's
/// replay work is its bytes plus the per-operation seek, charged as
/// seek time at the raw channel speed (the pool's documented cost).
#[allow(clippy::type_complexity)]
fn drive_pool(
    p: &mut DiskPool,
    ops: &[(u64, DiskOp)],
) -> Result<(Vec<(u64, oracle::End)>, Vec<(u64, oracle::Step)>), String> {
    let mut ends = Vec::new();
    let mut steps = Vec::new();
    let mut k = 0;
    while let Some(now) = next_instant(p.next_event_time(), ops.get(k).map(|op| op.0)) {
        let at = SimTime::from_millis(now);
        if ops.get(k).map(|op| op.0) == Some(now) {
            while let Some(&(_, op)) = ops.get(k).filter(|op| op.0 == now) {
                let tag = k as u64;
                k += 1;
                let touched = match op {
                    DiskOp::Stream(server, dir, bytes) => {
                        p.schedule_stream(at, server, dir, bytes, tag);
                        let seek = p.config().seek_ms / 1_000.0 * p.capacity(dir);
                        let path = vec![channel_index(server, dir)];
                        let work = bytes as f64 + seek;
                        steps.push((
                            now,
                            oracle::Step::Start {
                                id: tag,
                                work,
                                path,
                            },
                        ));
                        continue;
                    }
                    DiskOp::Util(server, util) => {
                        p.set_primary_util(at, server, util);
                        server
                    }
                    DiskOp::Degrade(server, factor) => {
                        p.set_degrade(at, server, factor);
                        server
                    }
                };
                for dir in [IoDir::Read, IoDir::Write] {
                    let resource = channel_index(touched, dir);
                    let (capacity, abort) = (p.secondary_capacity(touched, dir), false);
                    steps.push((
                        now,
                        oracle::Step::Capacity {
                            resource,
                            capacity,
                            abort,
                        },
                    ));
                }
            }
        } else {
            for c in p.pump(at) {
                ends.push((c.tag, oracle::End::Done(c.at.as_millis())));
            }
        }
        check_pool(p).map_err(|e| format!("at {now} ms: {e}"))?;
    }
    Ok((ends, steps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Disk invariant 1 — per-channel capacity conservation: secondary
    /// streams never carry more than what the throttle policy leaves
    /// them, which never exceeds the channel's raw capacity.
    #[test]
    fn disks_conserve_channel_capacity(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..200), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100), 0..16),
    ) {
        let pool = loaded_pool(&streams, &utils, 100);
        for s in 0..N_DISKS {
            let server = ServerId(s as u32);
            for dir in [IoDir::Read, IoDir::Write] {
                let load = pool.channel_load(server, dir);
                let allowed = pool.secondary_capacity(server, dir);
                prop_assert!(
                    load <= allowed * (1.0 + 1e-9) + 1e-9,
                    "disk {s} {dir:?} overloaded: {load} > {allowed}"
                );
                prop_assert!(allowed <= pool.capacity(dir) * (1.0 + 1e-9));
            }
        }
    }

    /// Disk invariant 2 — work conservation: a channel with active
    /// streams hands out exactly the bandwidth the policy allows (a
    /// throttled channel hands out its floor — possibly zero — and an
    /// unthrottled one is saturated).
    #[test]
    fn disks_are_work_conserving(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..200), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100), 0..16),
    ) {
        let pool = loaded_pool(&streams, &utils, 100);
        for s in 0..N_DISKS {
            let server = ServerId(s as u32);
            for dir in [IoDir::Read, IoDir::Write] {
                if pool.channel_streams(server, dir) == 0 {
                    continue;
                }
                let load = pool.channel_load(server, dir);
                let allowed = pool.secondary_capacity(server, dir);
                prop_assert!(
                    load >= allowed * (1.0 - 1e-9) - 1e-9,
                    "disk {s} {dir:?} not work-conserving: {load} < {allowed}"
                );
            }
        }
    }

    /// Disk invariant 3 — fair sharing: concurrent streams on one
    /// channel run at (nearly) identical rates.
    #[test]
    fn disks_share_fairly(
        streams in prop::collection::vec((0u64..2, 0u64..64), 2..40),
        server in 0usize..500,
        util in 0u64..100,
    ) {
        let shaped: Vec<(usize, u64, u64, u64)> = streams
            .iter()
            .map(|&(write, bytes)| (server, write, bytes, 0))
            .collect();
        let pool = loaded_pool(&shaped, &[(server, util)], 0);
        for dir in [IoDir::Read, IoDir::Write] {
            let rates: Vec<f64> = pool
                .active_stream_ids()
                .iter()
                .filter(|&&id| pool.stream_channel(id).map(|(_, d)| d) == Some(dir))
                .filter_map(|&id| pool.stream_rate(id))
                .collect();
            if rates.len() >= 2 {
                let (min, max) = rates
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
                prop_assert!(
                    max == 0.0 || (max - min) / max < 1e-9,
                    "unequal shares on one channel: {min} vs {max}"
                );
            }
        }
    }

    /// The disk pool against the independent global oracle
    /// (`tests/oracle`), on randomized storms whose disks throttle to
    /// zero and recover (primary utilization park → rescue) and brown
    /// out (`set_degrade`, including to zero). After every event, every
    /// stream on every channel runs at bitwise the test's own
    /// `secondary_capacity / n` and the allocation passes the max-min
    /// certificate; every completion lands within 1 ms of the oracle's
    /// fluid replay.
    #[test]
    fn disk_channel_reshare_matches_global_oracle(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..400), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100, 0u64..600, 0u64..3), 0..8),
        degrades in prop::collection::vec((0usize..500, 0u64..10, 0u64..600), 0..4),
    ) {
        let mut p = DiskPool::new(N_DISKS, &DiskConfig::datacenter());
        let initial = channel_capacities(&p);
        let (ends, steps) = drive_pool(&mut p, &disk_workload(&streams, &utils, &degrades))?;
        compare_ends(ends, &oracle::replay(&initial, &steps), 1)?;
        prop_assert_eq!(p.stats().completed, streams.len() as u64, "streams went missing");
    }

    /// The analytic channel engine on fault-free storms: after every
    /// event every rate is bitwise the global equal split, and the
    /// completion schedule equals the oracle's replay on the
    /// millisecond clock exactly — the fair-work clock's float
    /// reassociation never moves a completion across a millisecond
    /// boundary here.
    #[test]
    fn disk_analytic_matches_global_oracle(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..400), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..45), 0..8),
    ) {
        let mut p = DiskPool::new(N_DISKS, &DiskConfig::datacenter());
        let utils: Vec<(usize, u64, u64, u64)> =
            utils.iter().map(|&(s, centi)| (s, centi, 0, 1)).collect();
        let ops: Vec<(u64, DiskOp)> = disk_workload(&streams, &utils, &[])
            .into_iter()
            .filter(|op| op.0 < DISK_SETTLE_MS)
            .collect();
        let initial = channel_capacities(&p);
        let (ends, steps) = drive_pool(&mut p, &ops)?;
        compare_ends(ends, &oracle::replay(&initial, &steps), 0)?;
        prop_assert!(p.stats().analytic_events > 0, "fast path never served");
    }

    /// The disk pool replays bit-identically for identical inputs.
    #[test]
    fn disks_replay_deterministically(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..500), 1..40),
        utils in prop::collection::vec((0usize..500, 0u64..45), 0..8),
    ) {
        // Utilizations capped below the throttle threshold so every
        // stream finishes and drain() terminates.
        let ends = |st: &[(usize, u64, u64, u64)]| {
            let mut pool = loaded_pool(st, &utils, 0);
            pool.drain()
                .into_iter()
                .map(|c| (c.tag, c.at.as_millis()))
                .collect::<Vec<_>>()
        };
        let a = ends(&streams);
        let b = ends(&streams);
        prop_assert_eq!(a.len(), streams.len(), "streams went missing");
        prop_assert_eq!(a, b);
    }
}

/// A small, fixed DC-9 scale-down for the scheduler tick-sweep oracle
/// (the properties are over the random *workloads*, not the cluster).
fn sched_dc() -> (
    harvest::cluster::Datacenter,
    harvest::cluster::UtilizationView,
) {
    let dc = Datacenter::generate(
        &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.015),
        17,
    );
    let view = harvest::cluster::UtilizationView::unscaled(&dc);
    (dc, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tick-sweep oracle: the change-driven tick
    /// ([`harvest::sched::TickSweep::Incremental`] — occupied-server
    /// index, active-disk index + sample-change filtering, precomputed
    /// fleet series) must be *bitwise* indistinguishable from the
    /// full-fleet reference sweeps — identical per-job results
    /// (makespans included), kill counts and per-server kill
    /// attribution, task placements, utilization accounting down to the
    /// float bits, and fabric/disk stats — across randomized workloads
    /// and policies on a scaled DC-9 with both transfer models on.
    #[test]
    fn sched_incremental_tick_matches_full_sweep_oracle(
        seed in 0u64..1_000,
        gap_secs in 120u64..900,
        policy_pick in 0u64..2,
    ) {
        use harvest::sched::policy::SchedPolicy;
        use harvest::sched::sim::{SchedSim, SchedSimConfig, TickSweep};
        use harvest::jobs::workload::Workload;
        use harvest::sim::rng::stream_rng;

        let (dc, view) = sched_dc();
        let policy = if policy_pick == 0 {
            SchedPolicy::PrimaryAware
        } else {
            SchedPolicy::History
        };
        let horizon = harvest::sim::SimDuration::from_hours(1);
        let mut wl_rng = stream_rng(seed, "tick-oracle-wl");
        let workload = Workload::poisson(
            &mut wl_rng,
            harvest::jobs::tpcds::tpcds_suite(),
            harvest::sim::SimDuration::from_secs(gap_secs),
            horizon,
        );
        let run = |sweep: TickSweep| {
            let mut cfg = SchedSimConfig::testbed(policy, seed);
            cfg.horizon = horizon;
            cfg.drain = harvest::sim::SimDuration::from_hours(2);
            cfg.network = Some(NetworkConfig::datacenter());
            cfg.disk = Some(DiskConfig::datacenter());
            cfg.sweep = sweep;
            SchedSim::new(&dc, &view, &workload, cfg).run()
        };
        let inc = run(TickSweep::Incremental);
        let full = run(TickSweep::Full);
        prop_assert_eq!(inc.total_kills, full.total_kills, "kill counts diverged");
        prop_assert_eq!(inc.tasks_started, full.tasks_started, "placements diverged");
        let makespans = |s: &harvest::sched::SimStats| -> Vec<Option<u64>> {
            s.jobs
                .iter()
                .map(|j| j.execution_time.map(|d| d.as_millis()))
                .collect()
        };
        prop_assert_eq!(makespans(&inc), makespans(&full), "makespans diverged");
        prop_assert_eq!(
            inc.avg_total_utilization.to_bits(),
            full.avg_total_utilization.to_bits(),
            "total-utilization bits diverged"
        );
        prop_assert_eq!(
            inc.avg_primary_utilization.to_bits(),
            full.avg_primary_utilization.to_bits(),
            "primary-utilization bits diverged"
        );
        // Belt and braces: everything else (per-job results, per-server
        // kills, fabric and disk stats) via the derived equality.
        prop_assert_eq!(inc, full, "sweep trajectories diverged");
    }

    /// The precomputed fleet-utilization series serves exactly what the
    /// per-server sweep it replaced computes, bitwise, at any instant.
    #[test]
    fn fleet_series_matches_scan_bitwise(secs in 0u64..90 * 86_400) {
        let (_dc, view) = sched_dc();
        let t = harvest::sim::SimTime::from_secs(secs);
        prop_assert_eq!(
            view.fleet_util(t).to_bits(),
            view.fleet_util_scan(t).to_bits(),
            "fleet lookup diverged from the scan at {}s", secs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 2 placements never duplicate a server and never exceed
    /// capacity, for arbitrary writers and replication levels.
    #[test]
    fn history_placement_invariants(seed in 0u64..50, replication in 1usize..6) {
        let dc = harvest::cluster::Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.03),
            7,
        );
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut store = BlockStore::new(&dc);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..50u32 {
            let writer = harvest::cluster::ServerId(
                (seed as u32 * 31 + i) % dc.n_servers() as u32,
            );
            if let Some(p) = placer.place_new(&mut rng, &store, writer, replication, None) {
                prop_assert_eq!(p.servers.len(), replication);
                let mut dedup = p.servers.clone();
                dedup.sort();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), replication, "duplicate replica servers");
                store.create_block(&p.servers);
            }
        }
        // Space accounting never goes negative (has_space guards it).
        for s in &dc.servers {
            prop_assert!(store.free_on(s.id) <= s.harvest_blocks);
        }
    }
}

// --- observability: export → parse round trips -------------------------

/// Characters chosen to stress the JSON escaper: quotes, backslashes,
/// control characters, multibyte unicode (including an astral-plane
/// glyph), structural punctuation, and plain ASCII.
const HOSTILE: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '{', '}', '[', ']', ',', ':', 'é', '→', '日',
    '𝕏', 'a', 'Z', ' ',
];

fn hostile_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| HOSTILE[i % HOSTILE.len()]).collect()
}

proptest! {
    /// Arbitrary hostile names — used as counter, gauge, sim-track, and
    /// wall-track names — survive both exporters and come back intact
    /// through `obs::json::parse`.
    #[test]
    fn obs_exports_round_trip_hostile_names(
        names in prop::collection::vec(prop::collection::vec(0usize..1000, 0..12), 1..5),
    ) {
        use harvest::sim::obs::{json, Recorder};
        let names: Vec<String> = names.iter().map(|p| hostile_string(p)).collect();
        let mut rec = Recorder::new("props");
        for (i, n) in names.iter().enumerate() {
            let c = rec.counter(n);
            rec.add(c, i as u64 + 1);
            let g = rec.gauge(n);
            rec.gauge_at(g, SimTime::from_millis(1), i as f64);
            rec.track(n);
            rec.wall_span(n, n, 0, 5);
        }
        let metrics = json::parse(&rec.metrics_json()).map_err(|e| format!("metrics: {e}"))?;
        let counters = metrics.get("counters").ok_or("no counters")?;
        for n in &names {
            // Interned by name: the last add under a duplicate name wins
            // the id, but every name must be present and parse back to
            // the exact same string.
            prop_assert!(
                counters.get(n).is_some(),
                "counter {n:?} lost in metrics round trip"
            );
        }
        let trace = json::parse(&rec.chrome_trace_json()).map_err(|e| format!("trace: {e}"))?;
        let events = trace.get("traceEvents").and_then(|v| v.as_arr()).ok_or("no events")?;
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for n in &names {
            prop_assert!(
                thread_names.iter().filter(|t| *t == n).count() >= 2,
                "track name {n:?} lost in trace round trip (sim + wall)"
            );
        }
    }

    /// Randomized wait-state histories round-trip through the Chrome
    /// trace into `obs::analyze` with exact conservation, and the
    /// critical path never exceeds the makespan.
    #[test]
    fn obs_state_round_trip_conserves(
        entities in prop::collection::vec(prop::collection::vec((0usize..5, 1u64..100), 1..6), 1..20),
    ) {
        use harvest::sim::obs::{analyze, Recorder};
        const VOCAB: [&str; 5] =
            ["queued", "running", "blocked_on_net", "blocked_on_disk_read", "throttle_parked"];
        let mut rec = Recorder::new("props");
        let st = rec.state_track("props/entity");
        let mut lifetime_ms = 0u64;
        for (e, segs) in entities.iter().enumerate() {
            let mut at = (e as u64) * 13;
            let birth = at;
            for &(s, dur) in segs {
                rec.state_enter(st, e as u64, VOCAB[s], SimTime::from_millis(at));
                at += dur;
            }
            rec.state_exit(st, e as u64, SimTime::from_millis(at));
            lifetime_ms += at - birth;
        }
        let a = analyze::analyze_recorder(&rec).map_err(|e| e.to_string())?;
        prop_assert_eq!(a.states.len(), 1);
        let sb = &a.states[0];
        prop_assert_eq!(sb.entities, entities.len());
        prop_assert_eq!(sb.conserved, entities.len(), "conservation must be exact");
        prop_assert_eq!(sb.lifetime_us, lifetime_ms * 1_000);
        prop_assert!(sb.critical_us <= sb.makespan_us);
    }
}

// --- fault injection: determinism, no-fault oracle, conservation --------

/// A small fig16 scale so the faulted-report properties run in seconds.
fn fault_scale(
    jobs: usize,
    faults: Option<harvest::sim::fault::FaultProfile>,
) -> harvest::core::Scale {
    let mut s = harvest::core::Scale::quick();
    s.dc_scale = 0.02;
    s.availability_days = 1;
    s.utilizations = vec![0.45];
    s.jobs = jobs;
    s.faults = faults;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same fault profile + seed ⇒ byte-identical report at any worker
    /// count: the fault path draws its plan from a dedicated stream per
    /// run, so `par_map`'s order-preserving writes keep thread count
    /// unobservable even mid-storm. Without a profile the report must
    /// carry no fault note at all (the no-fault stdout oracle).
    #[test]
    fn faulted_reports_identical_at_any_jobs(
        seed in 0u64..1_000,
        pick in 0usize..4,
        jobs in 2usize..8,
    ) {
        let profile = harvest::sim::fault::FaultProfile::ALL[pick];
        let render = |jobs: usize, faults| {
            let mut s = fault_scale(jobs, faults);
            s.seed = seed;
            harvest::core::run_experiment("fig16", &s).expect("fig16 renders")
        };
        let armed_seq = render(1, Some(profile));
        let armed_par = render(jobs, Some(profile));
        prop_assert_eq!(&armed_seq, &armed_par, "faulted report depends on --jobs");
        prop_assert!(
            armed_seq.contains("fault profile"),
            "armed report lacks its fault-accounting note"
        );
        let clean_seq = render(1, None);
        let clean_par = render(jobs, None);
        prop_assert_eq!(&clean_seq, &clean_par, "clean report depends on --jobs");
        prop_assert!(
            !clean_seq.contains("fault profile"),
            "unarmed report mentions faults"
        );
    }

    /// The no-fault oracle at the experiment layer: a plan with zero
    /// events is bitwise inert no matter how its reaction knobs are
    /// set — retry budget, backoff, and shedding only matter once an
    /// event fires.
    #[test]
    fn empty_fault_plan_is_bitwise_inert(
        seed in 0u64..1_000,
        retries in 0u32..8,
        shed in 1usize..64,
    ) {
        use harvest::core::experiments::durability::run_loss;
        use harvest::sim::fault::FaultPlan;
        let dc = Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(3).scaled(0.01),
            11,
        );
        let mut knobs = FaultPlan::none();
        knobs.max_retries = retries;
        knobs.shed_inflight_above = Some(shed);
        let a = run_loss(
            &dc, PlacementPolicy::Stock, 3, 2, seed, 0, None, None, &FaultPlan::none(),
        );
        let b = run_loss(&dc, PlacementPolicy::Stock, 3, 2, seed, 0, None, None, &knobs);
        prop_assert_eq!(a.percent.to_bits(), b.percent.to_bits());
        prop_assert_eq!(a.blocks, b.blocks);
        prop_assert_eq!(b.faults_injected, 0);
        prop_assert_eq!(b.repairs_aborted, 0);
        prop_assert_eq!(b.fault_retries, 0);
        prop_assert_eq!(b.retries_exhausted, 0);
    }

    /// Faulted recorded traces still conserve: every repair entity's
    /// states — `failed` and `retrying` included — tile its lifetime
    /// exactly, for any profile and seed.
    #[test]
    fn faulted_traces_conserve(seed in 0u64..1_000, pick in 0usize..4) {
        use harvest::dfs::durability::{simulate_durability_recorded, DurabilityConfig};
        use harvest::sim::fault::ClusterShape;
        use harvest::sim::obs::{analyze, Recorder};
        let profile = harvest::sim::fault::FaultProfile::ALL[pick];
        let dc = Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.01),
            11,
        );
        let shape = ClusterShape {
            n_servers: dc.n_servers(),
            rack_size: harvest::cluster::datacenter::RACK_SIZE as usize,
        };
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, seed);
        cfg.months = 2;
        cfg.faults = profile.plan(seed, shape, SimDuration::from_days(60));
        let (r, rec) = simulate_durability_recorded(&dc, &cfg, Recorder::new("fault-prop"));
        prop_assert!(r.faults_injected > 0, "{} never fired", profile.name());
        let a = analyze::analyze_recorder(&rec).map_err(|e| e.to_string())?;
        prop_assert!(a.conserved(), "faulted trace failed conservation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Panic isolation: force exactly one task to panic at a random
    /// index and the supervisor quarantines exactly that task — every
    /// other slot's result is bitwise identical to a clean run, at any
    /// worker count.
    #[test]
    fn supervised_map_quarantines_only_the_panicking_task(
        n in 1usize..40,
        panic_pick in 0usize..1_000,
        jobs in 1usize..5,
    ) {
        use harvest::sim::supervise::{par_map_supervised, RetryBudget, SuperviseConfig};
        let panic_at = panic_pick % n;
        let tasks: Vec<u64> = (0..n as u64).collect();
        let cfg = SuperviseConfig {
            retry: RetryBudget { max_retries: 1, base_ms: 1, cap_ms: 2 },
            ..SuperviseConfig::default()
        };
        let value = |t: u64| t.wrapping_mul(0x9e37_79b9_7f4a_7c15) as f64 / 7.0;
        let out = par_map_supervised(jobs, &tasks, &cfg, |i, &t, _cancel| {
            if i == panic_at {
                panic!("forced panic at {i}");
            }
            value(t)
        });
        prop_assert_eq!(out.quarantined.len(), 1, "exactly one quarantine");
        prop_assert_eq!(out.quarantined[0].task, panic_at);
        // One retry was spent before giving up (max_retries = 1).
        prop_assert_eq!(out.quarantined[0].attempts, 2);
        prop_assert!(out.quarantined[0].payload.contains("forced panic"));
        for (i, (slot, &t)) in out.results.iter().zip(&tasks).enumerate() {
            if i == panic_at {
                prop_assert!(slot.is_none(), "quarantined slot must be empty");
            } else {
                let got = slot.expect("healthy task has a result");
                prop_assert_eq!(got.to_bits(), value(t).to_bits());
            }
        }
    }
}
