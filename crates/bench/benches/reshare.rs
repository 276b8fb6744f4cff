//! Re-share scaling benches: storm-sized flow convoys on an *unscaled*
//! DC-9 topology, across the fabric's two fair-sharing tiers.
//!
//! The workload is a rack-localized convoy — groups of 20 flows between
//! a rack pair, the locality real repair storms and shuffle waves have —
//! so each rack pair's flows form one component whose rack uplink is the
//! single bottleneck. The tiers:
//!
//! * `analytic` — `SharingMode::Auto`: the classifier proves each
//!   component single-bottleneck and routes it through the O(log n)
//!   fair-work clock, so per-event cost stays near-flat as the convoy
//!   grows (200 → 1 000 000 flows);
//! * `component` — `SharingMode::Filling`: component-scoped
//!   progressive filling, O(component) per event.
//!
//! `BENCH_reshare.json` also holds `global` rows — a whole-fabric
//! filling recompute on every event, the pre-optimization quadratic
//! regime — recorded before that mode was removed from the fabric. They
//! stay as the historical reference until the file is next re-recorded;
//! this bench no longer measures or writes them.
//!
//! Modes:
//! * default — measures both tiers and (re)writes `BENCH_reshare.json`
//!   at the workspace root with per-tier wall clock and per-event cost;
//! * `RESHARE_SMOKE=1` — runs the 2 000- and 10 000-flow component
//!   cases and the 100 000-flow analytic-vs-component pair once each,
//!   asserting wall-clock ceilings sized far above the measured
//!   baselines but far below the next-slower tier, plus an analytic
//!   speedup floor of 5x at 100k (the recorded baseline is well above
//!   20x) — so a regression that silently demotes the fast path fails
//!   the assert (and, belt-and-braces, CI's wrapping `timeout`).

use std::time::{Duration, Instant};

use harvest_cluster::ServerId;
use harvest_net::{Fabric, NetworkConfig, SharingMode, Topology};
use harvest_sim::SimTime;
use harvest_trace::datacenter::DatacenterProfile;
use std::hint::black_box;

const MB: u64 = 1024 * 1024;
const RACK_SIZE: u32 = harvest_cluster::datacenter::RACK_SIZE;
const GROUP: u64 = 20;

/// One fair-sharing tier under measurement.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    /// `SharingMode::Auto`: the analytic fast path.
    Analytic,
    /// `SharingMode::Filling`: component-scoped progressive filling.
    Component,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::Analytic => "analytic",
            Engine::Component => "component",
        }
    }

    fn sharing(self) -> SharingMode {
        match self {
            Engine::Analytic => SharingMode::Auto,
            Engine::Component => SharingMode::Filling,
        }
    }
}

/// Builds and fully drains one convoy of `n_flows`, returning the
/// completion count (sanity-checked by callers).
fn run_convoy(topo: &Topology, n_flows: u64, engine: Engine) -> usize {
    let config = NetworkConfig {
        sharing: engine.sharing(),
        ..NetworkConfig::datacenter()
    };
    let mut fabric = Fabric::new(topo.clone(), &config);
    // Only full racks host convoy lanes (the trailing rack may be
    // partial and its missing servers would be out of range).
    let full_racks = topo.n_servers() as u64 / RACK_SIZE as u64;
    let pairs = full_racks / 2;
    for i in 0..n_flows {
        let group = i / GROUP;
        let lane = (i % GROUP) as u32;
        let pair = group % pairs;
        let src_rack = (2 * pair) as u32;
        let dst_rack = (2 * pair + 1) as u32;
        let src = ServerId(src_rack * RACK_SIZE + lane);
        let dst = ServerId(dst_rack * RACK_SIZE + lane);
        // Staggered within 97 ms so the whole convoy overlaps.
        fabric.schedule_flow(SimTime::from_millis(i % 97), src, dst, 64 * MB, i);
    }
    let done = fabric.drain().len();
    assert_eq!(done as u64, n_flows, "convoy lost flows");
    if engine == Engine::Analytic {
        assert!(
            fabric.stats().analytic_events > 0,
            "analytic tier never engaged on the convoy workload"
        );
    }
    done
}

/// Median wall-clock seconds over `iters` runs.
fn measure(topo: &Topology, n_flows: u64, engine: Engine, iters: usize) -> f64 {
    let mut samples: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(run_convoy(topo, n_flows, engine));
        samples.push(t0.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

fn main() {
    let profile = DatacenterProfile::dc(9);
    let n_servers = profile.expected_servers();
    let topo = Topology::synthetic(n_servers, &NetworkConfig::datacenter());
    println!(
        "reshare bench: unscaled {} topology, {} servers / {} racks / {} links",
        profile.name(),
        topo.n_servers(),
        topo.n_racks(),
        topo.n_links(),
    );

    if std::env::var_os("RESHARE_SMOKE").is_some() {
        // CI budget guards (ceilings sit well above the recorded
        // baselines in BENCH_reshare.json yet well below the
        // next-slower tier, so an assert firing means a sharing tier
        // has regressed toward the one it was built to replace).
        for (n, engine, baseline, ceiling) in [
            (2_000u64, Engine::Component, 0.046, 1.0),
            (10_000, Engine::Component, 0.33, 50.0),
        ] {
            let secs = measure(&topo, n, engine, 1);
            let label = engine.label();
            println!("bench reshare/convoy_{n}_{label}           {secs:>10.3}s (smoke)");
            assert!(
                secs < ceiling,
                "{n}-flow {label} convoy took {secs:.2}s against a {ceiling}s budget — \
                 re-sharing has regressed toward a quadratic whole-fabric recompute \
                 (baseline ~{baseline}s)"
            );
        }
        // The million-flow regime in miniature: at 100k the analytic
        // tier must beat component filling by a wide margin (recorded
        // baseline is well above 20x; the CI floor is 5x to absorb
        // noisy shared runners) and stay under an absolute ceiling.
        let analytic = measure(&topo, 100_000, Engine::Analytic, 1);
        println!("bench reshare/convoy_100000_analytic           {analytic:>10.3}s (smoke)");
        assert!(
            analytic < 30.0,
            "100k-flow analytic convoy took {analytic:.2}s against a 30s budget — \
             the fast path has regressed"
        );
        let component = measure(&topo, 100_000, Engine::Component, 1);
        println!("bench reshare/convoy_100000_component           {component:>10.3}s (smoke)");
        let speedup = component / analytic;
        println!("bench reshare/convoy_100000 analytic speedup   {speedup:>10.1}x (smoke)");
        assert!(
            speedup >= 5.0,
            "analytic tier only {speedup:.1}x faster than component filling on the \
             100k-flow convoy (CI floor 5x, recorded baseline >20x) — the classifier \
             is demoting single-bottleneck components"
        );
        return;
    }

    let mut json_rows: Vec<String> = Vec::new();
    for &n in &[200u64, 2_000, 10_000, 100_000, 1_000_000] {
        // The analytic tier runs everywhere — its per-event cost is the
        // point of the recording and must stay near-flat to a million
        // flows.
        let ana_iters = if n >= 100_000 { 1 } else { 3 };
        let ana = measure(&topo, n, Engine::Analytic, ana_iters);
        let per_event_us = ana / n as f64 * 1e6;
        println!(
            "bench reshare/convoy_{n}_analytic           {ana:>10.4}s median of {ana_iters}  \
             ({per_event_us:.2} us/event)"
        );
        // Component filling is O(component) per event: feasible to
        // 100k (each rack pair holds ~n/346 flows), hopeless at 1M.
        let comp = if n <= 100_000 {
            let iters = if n >= 10_000 { 1 } else { 5 };
            let c = measure(&topo, n, Engine::Component, iters);
            println!("bench reshare/convoy_{n}_component           {c:>10.4}s median of {iters}");
            Some(c)
        } else {
            println!("bench reshare/convoy_{n}_component           skipped (O(component) regime)");
            None
        };
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.6}"),
            None => "null".into(),
        };
        let fmt_ratio = |v: Option<f64>| match v {
            Some(x) => format!("{:.2}", x / ana),
            None => "null".into(),
        };
        json_rows.push(format!(
            "    \"convoy_{n}\": {{ \"analytic_secs\": {ana:.6}, \
             \"analytic_per_event_us\": {per_event_us:.3}, \
             \"component_secs\": {}, \
             \"analytic_speedup_vs_component\": {} }}",
            fmt_opt(comp),
            fmt_ratio(comp),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"reshare\",\n  \"topology\": {{ \"profile\": \"{}\", \"servers\": {}, \"racks\": {}, \"links\": {} }},\n  \"workload\": \"rack-pair convoy, 64 MiB flows, {}-flow groups, starts staggered over 97 ms\",\n  \"tiers\": \"analytic = SharingMode::Auto (O(log n) fast path), component = SharingMode::Filling (component-scoped progressive filling)\",\n  \"convoys\": {{\n{}\n  }}\n}}\n",
        profile.name(),
        topo.n_servers(),
        topo.n_racks(),
        topo.n_links(),
        GROUP,
        json_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reshare.json");
    std::fs::write(path, &json).expect("write BENCH_reshare.json");
    println!("wrote {path}");
}
