//! The repository's end-to-end benchmark: one workload per run, driven
//! through the layers' public entry points under the supervised sweep
//! harness (`harvest_core::checkpoint::sweep_plain`, one worker).
//!
//! ```text
//! perfbench --workload storage|storage-net-disk|sched-net-disk
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--reference-dir DIR] [--out-dir DIR] [--record-reference]
//! ```
//!
//! `--trace 0` times passes over the task list for `--seconds` and
//! prints the end-to-end metrics; `--trace 1` runs one untraced pass and
//! then traced passes, and prints the per-layer metrics. Every task's
//! simulated statistics are checked: against the recorded reference
//! digests for the default seed, against the run's first (untraced)
//! pass for any other seed. The last stdout line is the JSON result; with
//! `--trace 0` it carries the [`GATED`] metrics, the rest print above it.

mod host;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use harvest_core::checkpoint::{sweep_plain, SweepSnapshot};
use harvest_core::scale::Scale;

use trace::Tracer;
use workload::{Inputs, Job, Kind, Outcome, Outcomes, Probe, Task};

/// The seed the reference digests are recorded for.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// The end-to-end metrics the result line carries. The others are
/// printed above it: on a shared 2-core host, their spread over the
/// seeds of a steadiness run exceeded a quarter of their median on some
/// workload, too wide to gate on; the raw throughput swings with the
/// host's slow phases that `sim_events_per_ref_s` divides out.
const GATED: [&str; 3] = ["sim_events_per_ref_s", "setup_s", "peak_rss_mb"];
/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 100_000_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_dir: PathBuf,
    out_dir: PathBuf,
    record_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::Storage,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference_dir: PathBuf::from("perfbench/reference"),
        out_dir: PathBuf::from("perfbench/out"),
        record_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            args.record_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--reference-dir" => args.reference_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

/// Where a result was measured, so records from different boxes can be
/// normalised.
struct Machine {
    nproc: usize,
    cpu_model: String,
    /// Million iterations per second of a fixed integer loop.
    calibration_mips: f64,
}

impl Machine {
    fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let start = Instant::now();
        std::hint::black_box(calibration_loop(std::hint::black_box(CALIBRATION_ITERS)));
        let secs = start.elapsed().as_secs_f64();
        Machine {
            nproc: harvest_sim::par::default_jobs(),
            cpu_model,
            calibration_mips: CALIBRATION_ITERS as f64 / secs / 1e6,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"calibration_mips\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            self.calibration_mips
        )
    }
}

/// A dependent chain of xorshift steps: the compiler cannot vectorise
/// or shorten it, so its speed tracks the core's scalar integer speed.
fn calibration_loop(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    x
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process so far (`VmHWM`), in MB. Each run
/// is its own process, so the figure is per workload.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One pass over the task list.
struct Pass {
    wall_ns: u64,
    /// Host times of the [`host`] probe runs interleaved with the tasks.
    probe_ns: Vec<u64>,
    /// Per task: host ns (including probes when traced), or `None` when
    /// the harness quarantined it.
    results: Vec<Option<(Outcomes, Probe, u64)>>,
    snapshot: SweepSnapshot,
    tracer: Tracer,
}

/// Runs one pass; with `host_probe`, each task is preceded by a run of the
/// [`host`] probe, outside the task's timing.
fn run_pass(
    scale: &Scale,
    kind: Kind,
    inputs: &Inputs,
    tasks: &[Task],
    traced: bool,
    host_probe: bool,
) -> Pass {
    let tracer = Tracer::new(traced);
    let models = kind.models();
    let probe_ns = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    let swept = tracer.span("harness.sweep", None, None, false, |root| {
        sweep_plain(
            scale,
            kind.name(),
            tasks,
            |t| t.key.clone(),
            |t, cancel| {
                if host_probe {
                    let ns = host::probe_ns(u64::from(t.idx));
                    probe_ns.lock().expect("probe times").push(ns);
                }
                let start = Instant::now();
                let (outcome, probe) =
                    tracer.span("harness.task", Some(t.idx), root, false, |parent| {
                        workload::run_task(inputs, t, models, &tracer, parent, cancel)
                    });
                (outcome, probe, start.elapsed().as_nanos() as u64)
            },
        )
    });
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        probe_ns: probe_ns.into_inner().expect("probe times"),
        results: swept.results,
        snapshot: scale.harness.stats.take(),
        tracer,
    }
}

/// Reference digests by task key, one `key digest` pair per line.
fn load_reference(path: &PathBuf) -> Result<HashMap<String, u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (key, digest) = l
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed reference line {l:?}"))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("malformed digest in line {l:?}"))?;
            Ok((key.to_string(), digest))
        })
        .collect()
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let machine = Machine::probe();
    let kind = args.kind;
    let models = kind.models();
    let scale = Scale {
        jobs: 1,
        seed: args.seed,
        ..Scale::quick()
    };

    // Set-up, repeated: the median is `setup_s`, the last build is kept.
    let mut setup_secs = Vec::new();
    let mut setup_tracers = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let tracer = Tracer::new(args.trace);
        let start = Instant::now();
        inputs = Some(workload::build_inputs(kind, &scale, &tracer));
        setup_secs.push(start.elapsed().as_secs_f64());
        setup_tracers.push(tracer);
    }
    let inputs = inputs.expect("at least one set-up");
    let tasks = inputs.tasks();
    println!(
        "workload {}: seed {}, {} tasks over {} servers, machine {}",
        kind.name(),
        args.seed,
        tasks.len(),
        inputs.servers(),
        machine.to_json()
    );

    let reference_path = args.reference_dir.join(format!("{}.txt", kind.name()));
    if args.record_reference {
        let pass = run_pass(&scale, kind, &inputs, tasks, false, false);
        let mut text = String::new();
        for (t, r) in tasks.iter().zip(&pass.results) {
            let (outcomes, _, _) = r.as_ref().ok_or_else(|| format!("{} failed", t.key))?;
            let _ = writeln!(text, "{} {:016x}", t.key, workload::digest(outcomes));
        }
        std::fs::write(&reference_path, text)
            .map_err(|e| format!("writing {}: {e}", reference_path.display()))?;
        println!("recorded {}", reference_path.display());
        return Ok(());
    }
    // Every result must satisfy the invariants of its simulation. The
    // default seed also checks against the recorded digests; any other
    // seed against the run's first pass, which is always untraced.
    let mut expected: Option<Vec<Option<u64>>> = if args.seed == DEFAULT_SEED {
        let reference = load_reference(&reference_path)?;
        Some(
            tasks
                .iter()
                .map(|t| reference.get(&t.key).copied())
                .collect(),
        )
    } else {
        None
    };

    let budget_ns = (args.seconds * 1e9) as u64;
    let measure_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = 0.0;
    loop {
        let traced = args.trace && !passes.is_empty();
        // The probe only serves the end-to-end metrics; a traced run
        // leaves it out so its untraced pass is a plain one.
        let pass = run_pass(&scale, kind, &inputs, tasks, traced, !args.trace);
        let digests: Vec<Option<u64>> = pass
            .results
            .iter()
            .map(|r| r.as_ref().map(|(o, _, _)| workload::digest(o)))
            .collect();
        let want = expected.get_or_insert_with(|| digests.clone());
        for ((t, r), (got, want)) in tasks
            .iter()
            .zip(&pass.results)
            .zip(digests.iter().zip(want.iter()))
        {
            attempted += 1;
            let problem = match r {
                None => Some("quarantined by the harness".to_string()),
                Some((o, _, _)) => match o.iter().find_map(|o| o.violation(&t.job, models)) {
                    Some(v) => Some(v.to_string()),
                    None if got != want => Some(format!("digest {got:x?}, want {want:x?}")),
                    None => None,
                },
            };
            if let Some(problem) = problem {
                failed += 1;
                eprintln!("perfbench: task {} failed: {problem}", t.key);
            }
        }
        passes.push(pass);
        if passes.len() == 1 {
            // Set-up plus one pass: later passes only add allocator
            // fragmentation, and how many fit depends on the host.
            peak_rss = peak_rss_mb();
        }
        // Start another pass only if it should end within the budget. A
        // traced run needs its untraced pass and at least one traced one.
        let elapsed = measure_start.elapsed().as_nanos() as u64;
        let per_pass = elapsed / passes.len() as u64;
        let min_passes = if args.trace { 2 } else { 1 };
        if passes.len() >= min_passes && elapsed + per_pass > budget_ns {
            break;
        }
    }

    let metrics = if args.trace {
        layer_metrics(tasks, &passes, &setup_tracers)
    } else {
        end_to_end_metrics(&passes, &setup_secs, peak_rss)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_ns as f64 / 1e9))
        .collect();
    println!(
        "  failed_tasks {failed} of {attempted} attempted; pass walls (s) [{}]",
        walls.join(", ")
    );

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let out_path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"machine\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}",
        kind.name(),
        args.seed,
        machine.to_json(),
        metrics_json(&metrics)
    );
    if args.trace {
        record.push_str(",\"setup_spans\":[");
        for (i, t) in setup_tracers.iter().enumerate() {
            if i > 0 {
                record.push(',');
            }
            record.push_str(&t.to_json());
        }
        record.push_str("],\"pass_spans\":[");
        for (i, p) in passes.iter().filter(|p| p.tracer.is_on()).enumerate() {
            if i > 0 {
                record.push(',');
            }
            record.push_str(&p.tracer.to_json());
        }
        record.push(']');
    }
    record.push_str("}\n");
    std::fs::write(&out_path, record)
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    let result: Vec<Metric> = metrics
        .iter()
        .filter(|m| args.trace || GATED.contains(&m.0))
        .copied()
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&result)
    );
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push('}');
    out
}

/// The end-to-end metrics of an untraced run. The host is shared, and
/// other tenants only ever add time to identical work, so each task's
/// host time is its fastest run over the passes: `wall_s` sums those
/// and `task_ms_p50` is their median. The tail is taken over every run
/// of every task. `sim_events_per_ref_s` scales `sim_events_per_s` by
/// the host's phase as the [`host`] probe's 10th-percentile run saw it.
fn end_to_end_metrics(passes: &[Pass], setup_secs: &[f64], peak_rss: f64) -> Vec<Metric> {
    let events: u64 = passes[0]
        .results
        .iter()
        .flatten()
        .flat_map(|(o, _, _)| o.iter().map(Outcome::events))
        .sum();
    let fastest_ms: Vec<f64> = (0..passes[0].results.len())
        .filter_map(|i| {
            let ns = passes
                .iter()
                .filter_map(|p| p.results[i].as_ref().map(|r| r.2));
            ns.min().map(|ns| ns as f64 / 1e6)
        })
        .collect();
    let wall_s = fastest_ms.iter().sum::<f64>() / 1e3;
    let mut probe_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.probe_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    probe_ms.sort_by(f64::total_cmp);
    let probe_p10_ms = probe_ms.get(probe_ms.len() / 10).copied().unwrap_or(0.0);
    let mut task_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.results
                .iter()
                .flatten()
                .map(|(_, _, ns)| *ns as f64 / 1e6)
        })
        .collect();
    task_ms.sort_by(f64::total_cmp);
    let n = task_ms.len();
    let tail_rank = n.saturating_sub(TAIL_BEYOND + 1);
    println!(
        "  task_ms_tail is p{:.1} of {n} task runs ({} beyond it)",
        100.0 * (tail_rank + 1) as f64 / n as f64,
        n - tail_rank - 1
    );
    vec![
        ("wall_s", wall_s, "s"),
        ("setup_s", median(setup_secs), "s"),
        ("sim_events_per_s", events as f64 / wall_s, "1/s"),
        ("host_probe_ms", probe_p10_ms, "ms"),
        (
            "sim_events_per_ref_s",
            host::normalise_rate(events as f64 / wall_s, probe_p10_ms),
            "1/s",
        ),
        ("task_ms_p50", median(&fastest_ms), "ms"),
        ("task_ms_tail", task_ms[tail_rank], "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
    ]
}

/// The per-layer metrics of a traced run: medians over its traced
/// passes (and over the set-ups for the set-up layers).
fn layer_metrics(tasks: &[Task], passes: &[Pass], setup_tracers: &[Tracer]) -> Vec<Metric> {
    let untraced_ns = passes[0].wall_ns as f64;
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.tracer.is_on()).collect();
    let per_pass: Vec<Vec<Metric>> = traced
        .iter()
        .map(|p| pass_layer_metrics(tasks, p, untraced_ns))
        .collect();
    let setup_ms = |name: &str| {
        median(
            &setup_tracers
                .iter()
                .map(|t| {
                    t.totals()
                        .get(name)
                        .map_or(0.0, |t| t.total_ns as f64 / 1e6)
                })
                .collect::<Vec<_>>(),
        )
    };
    let mut out: Vec<Metric> = vec![
        ("trace.dc_generate_ms", setup_ms("trace.dc_generate"), "ms"),
        (
            "cluster.view_build_ms",
            setup_ms("cluster.view_build"),
            "ms",
        ),
        ("jobs.workload_ms", setup_ms("jobs.workload"), "ms"),
        ("dfs.placer_new_ms", setup_ms("dfs.placer_new"), "ms"),
        ("trace.self_ms", setup_ms("trace.dc_generate"), "ms"),
        ("cluster.self_ms", setup_ms("cluster.view_build"), "ms"),
        ("jobs.self_ms", setup_ms("jobs.workload"), "ms"),
    ];
    for (i, &(name, _, unit)) in per_pass[0].iter().enumerate() {
        let mut value = median(&per_pass.iter().map(|m| m[i].1).collect::<Vec<_>>());
        if name == "dfs.self_ms" {
            value += setup_ms("dfs.placer_new");
        }
        out.push((name, value, unit));
    }
    out
}

fn pass_layer_metrics(tasks: &[Task], pass: &Pass, untraced_ns: f64) -> Vec<Metric> {
    let totals = pass.tracer.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut sum = Outcome::default();
    let mut f = harvest_net::FabricStats::default();
    let mut d = harvest_disk::DiskStats::default();
    let (mut fill_blocks, mut dfs_off_ns, mut sched_off_ns) = (0u64, 0i64, 0i64);
    let (mut net_ns, mut disk_ns, mut premium_ns, mut premium_with_stats_ns) =
        (0i64, 0i64, 0i64, 0i64);
    for (t, r) in tasks.iter().zip(&pass.results) {
        let Some((outcomes, p, _)) = r else { continue };
        for o in outcomes {
            sum.repairs += o.repairs;
            sum.reimages += o.reimages;
            sum.lost_blocks += o.lost_blocks;
            sum.repairs_too_late += o.repairs_too_late;
            sum.accesses += o.accesses;
            sum.forced_remote_reads += o.forced_remote_reads;
            sum.tasks_started += o.tasks_started;
            sum.kills += o.kills;
            sum.jobs_completed += o.jobs_completed;
            if let Some(s) = o.fabric {
                f.completed += s.completed;
                f.reshares += s.reshares;
                f.analytic_components += s.analytic_components;
                f.analytic_events += s.analytic_events;
                f.fallback_migrations += s.fallback_migrations;
                f.stale_events_dropped += s.stale_events_dropped;
                f.peak_active = f.peak_active.max(s.peak_active);
                f.peak_queue_len = f.peak_queue_len.max(s.peak_queue_len);
            }
            if let Some(s) = o.disk {
                d.completed += s.completed;
                d.reshares += s.reshares;
                d.analytic_channels += s.analytic_channels;
                d.analytic_events += s.analytic_events;
                d.stale_events_dropped += s.stale_events_dropped;
                d.peak_active = d.peak_active.max(s.peak_active);
            }
        }
        fill_blocks += p.fill_blocks;
        let (real, off, net) = (p.real_ns as i64, p.off_ns as i64, p.net_ns as i64);
        match t.job {
            Job::Sched { .. } => sched_off_ns += off,
            Job::Durability { .. } | Job::Availability { .. } => dfs_off_ns += off,
        }
        net_ns += net - off;
        disk_ns += real - net;
        premium_ns += real - off;
        if !matches!(t.job, Job::Availability { .. }) {
            premium_with_stats_ns += real - off;
        }
    }
    let ns_ms = |ns: i64| ns as f64 / 1e6;
    let count = |v: u64| v as f64;
    let completions = f.completed + d.completed;
    vec![
        ("dfs.fill_ms", ms("dfs.fill"), "ms"),
        (
            "dfs.fill_us_per_block",
            ratio(ms("dfs.fill") * 1e3, count(fill_blocks)),
            "us",
        ),
        ("dfs.durability_ms", ms("dfs.durability"), "ms"),
        (
            "dfs.durability_us_per_repair",
            ratio(ms("dfs.durability") * 1e3, count(sum.repairs)),
            "us",
        ),
        ("dfs.repairs", count(sum.repairs), "count"),
        ("dfs.reimages", count(sum.reimages), "count"),
        ("dfs.lost_blocks", count(sum.lost_blocks), "count"),
        (
            "dfs.too_late_ratio",
            ratio(
                count(sum.repairs_too_late),
                count(sum.repairs + sum.repairs_too_late),
            ),
            "ratio",
        ),
        ("dfs.availability_ms", ms("dfs.availability"), "ms"),
        (
            "dfs.availability_ns_per_access",
            ratio(ms("dfs.availability") * 1e6, count(sum.accesses)),
            "ns",
        ),
        ("dfs.accesses", count(sum.accesses), "count"),
        (
            "dfs.forced_remote_reads",
            count(sum.forced_remote_reads),
            "count",
        ),
        ("net.flows_completed", count(f.completed), "count"),
        ("net.reshares", count(f.reshares), "count"),
        (
            "net.analytic_components",
            count(f.analytic_components),
            "count",
        ),
        ("net.analytic_events", count(f.analytic_events), "count"),
        (
            "net.fallback_migrations",
            count(f.fallback_migrations),
            "count",
        ),
        ("net.peak_active", f.peak_active as f64, "count"),
        ("net.peak_queue_len", f.peak_queue_len as f64, "count"),
        (
            "net.stale_ratio",
            ratio(count(f.stale_events_dropped), count(f.completed)),
            "ratio",
        ),
        ("disk.streams_completed", count(d.completed), "count"),
        ("disk.reshares", count(d.reshares), "count"),
        (
            "disk.analytic_channels",
            count(d.analytic_channels),
            "count",
        ),
        ("disk.analytic_events", count(d.analytic_events), "count"),
        ("disk.peak_active", d.peak_active as f64, "count"),
        (
            "disk.stale_ratio",
            ratio(count(d.stale_events_dropped), count(d.completed)),
            "ratio",
        ),
        ("xfer.premium_ms", ns_ms(premium_ns), "ms"),
        (
            "xfer.us_per_completion",
            ratio(ns_ms(premium_with_stats_ns) * 1e3, count(completions)),
            "us",
        ),
        ("sched.run_ms", ms("sched.run"), "ms"),
        (
            "sched.us_per_task",
            ratio(ms("sched.run") * 1e3, count(sum.tasks_started)),
            "us",
        ),
        ("sched.tasks_started", count(sum.tasks_started), "count"),
        ("sched.jobs_completed", count(sum.jobs_completed), "count"),
        (
            "sched.kill_ratio",
            ratio(count(sum.kills), count(sum.tasks_started)),
            "ratio",
        ),
        ("harness.overhead_ms", self_ms("harness.sweep"), "ms"),
        ("harness.retries", count(pass.snapshot.retries), "count"),
        (
            "harness.quarantined",
            count(pass.snapshot.quarantined),
            "count",
        ),
        (
            "harness.stragglers",
            count(pass.snapshot.stragglers),
            "count",
        ),
        ("dfs.self_ms", ns_ms(dfs_off_ns), "ms"),
        ("net.self_ms", ns_ms(net_ns), "ms"),
        ("disk.self_ms", ns_ms(disk_ns), "ms"),
        ("sched.self_ms", ns_ms(sched_off_ns), "ms"),
        (
            "harness.self_ms",
            self_ms("harness.sweep") + self_ms("harness.task"),
            "ms",
        ),
        (
            "tracing.overhead_ratio",
            (pass.wall_ns as f64 - pass.tracer.probe_ns() as f64) / untraced_ns,
            "ratio",
        ),
    ]
}
