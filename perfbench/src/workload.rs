//! The three workloads: their inputs (generated from the seed), their
//! task lists, and one task's execution through the layers' public
//! entry points.
//!
//! A task is one policy comparison on one input, as `repro`'s sweep
//! tasks are (`sweep_point` runs YARN-PT and YARN-H): a fig15 task runs
//! HDFS-Stock and HDFS-H, a fig16 task HDFS-H and HDFS-Stock, a fig13/14
//! task YARN-PT and YARN-H. Pairing keeps the per-task host times one
//! continuous population instead of a fast and a slow cluster whose
//! boundary the median would sit on.

use harvest_cluster::{Datacenter, ServerId, UtilizationView};
use harvest_core::scale::Scale;
use harvest_dfs::availability::{busy_mask, simulate_availability, AvailabilityConfig};
use harvest_dfs::durability::{simulate_durability, DurabilityConfig};
use harvest_dfs::placement::{PlacementPolicy, Placer};
use harvest_dfs::store::BlockStore;
use harvest_disk::{DiskConfig, DiskStats};
use harvest_jobs::tpcds::{scale_job, tpcds_suite};
use harvest_jobs::workload::Workload;
use harvest_net::{FabricStats, NetworkConfig};
use harvest_sched::{SchedPolicy, SchedSim, SchedSimConfig};
use harvest_sim::rng::{derive_seed_indexed, stream_rng};
use harvest_sim::supervise::CancelToken;
use harvest_sim::{SimDuration, SimTime};
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::scaling::{calibrate, ScalingKind};
use rand::RngExt;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::{SpanId, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// fig15 durability + fig16 availability, transfer models off.
    Storage,
    /// The same over the datacenter fabric and shared disks.
    StorageNetDisk,
    /// fig13/fig14 scheduling points over the fabric and shared disks.
    SchedNetDisk,
}

/// What a workload runs. Storage tasks share one datacenter instance
/// per profile; every scheduling point gets one shared by its runs.
/// Each task's host time is its fastest run over the passes, so tasks
/// are kept short (about 25 ms for `storage`, 50 ms for
/// `sched-net-disk` on a 2-core x86-64 box) and a pass takes 1-3 s:
/// a 50-second run then times every task 15 times or more. On a shared
/// host, the fastest of many short runs varies far less from run to run
/// than the fastest of a few long ones.
struct Shape {
    /// Fraction of each datacenter profile instantiated.
    dc_scale: f64,
    /// Storage workloads divide every server's harvestable blocks by
    /// this (1 = the profile's), as if blocks were this many times
    /// larger: the same servers, tenants and racks hold fewer blocks, so
    /// a simulation is short and a pass runs each many times.
    block_scale: u32,
    /// fig15 tasks: task `i` runs profile `i % 10` at replication 3
    /// (even `i + i / 10`) or 4 (odd).
    durability: usize,
    /// Simulated months per durability simulation.
    months: usize,
    /// fig16 tasks on the DC-9 instance (linear scaling, R=3): task `i`
    /// runs utilization `availability_utils[i % n]`.
    availability: usize,
    /// See `availability`.
    availability_utils: &'static [f64],
    /// Simulated hours per availability simulation.
    hours: u64,
    /// fig13/14 points: point `k` runs profile `k % 10` under linear
    /// (even `k`) or root (odd `k`) scaling at utilization
    /// `sched_utils[(k / 2) % n]`, with `sched_runs` batch workloads of
    /// its own, each one task.
    sched_points: usize,
    /// See `sched_points`.
    sched_utils: &'static [f64],
    /// See `sched_points`.
    sched_runs: usize,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Storage, Kind::StorageNetDisk, Kind::SchedNetDisk];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Storage => "storage",
            Kind::StorageNetDisk => "storage-net-disk",
            Kind::SchedNetDisk => "sched-net-disk",
        }
    }

    /// The transfer models the workload runs over.
    pub fn models(self) -> Models {
        match self {
            Kind::Storage => Models::default(),
            Kind::StorageNetDisk | Kind::SchedNetDisk => Models {
                network: Some(NetworkConfig::datacenter()),
                disk: Some(DiskConfig::datacenter()),
            },
        }
    }

    fn shape(self) -> Shape {
        let none = Shape {
            dc_scale: DC_SCALE,
            block_scale: 1,
            durability: 0,
            months: 0,
            availability: 0,
            availability_utils: &[],
            hours: 0,
            sched_points: 0,
            sched_utils: &[],
            sched_runs: 0,
        };
        match self {
            Kind::Storage => Shape {
                block_scale: 16,
                durability: 40,
                months: 1,
                availability: 10,
                availability_utils: &[0.30, 0.45],
                hours: 2,
                ..none
            },
            // The transfer models make storage simulations about ten
            // times slower, so this one runs on smaller datacenters.
            Kind::StorageNetDisk => Shape {
                dc_scale: DC_SCALE / 3.0,
                durability: 6,
                months: 1,
                availability: 4,
                availability_utils: &[0.30, 0.45],
                hours: 12,
                ..none
            },
            // Half-size datacenters keep a scheduling run near 50 ms.
            Kind::SchedNetDisk => Shape {
                dc_scale: DC_SCALE / 2.0,
                sched_points: 10,
                sched_utils: &[0.30, 0.60],
                sched_runs: 4,
                ..none
            },
        }
    }
}

/// The transfer models a simulation runs over (`None` = free, instant).
#[derive(Debug, Clone, Copy, Default)]
pub struct Models {
    /// Datacenter fabric.
    pub network: Option<NetworkConfig>,
    /// Shared disks.
    pub disk: Option<DiskConfig>,
}

impl Models {
    fn any(self) -> bool {
        self.network.is_some() || self.disk.is_some()
    }
}

/// Fraction of each datacenter profile instantiated (`Scale::quick()`).
const DC_SCALE: f64 = 0.03;
/// Simulated hours per scheduling run (`Scale::quick()`).
const SCHED_HOURS: u64 = 8;
/// fig13/14's task-duration multiplier and batch demand share.
const DURATION_FACTOR: f64 = 16.0;
const BATCH_DEMAND: f64 = 0.05;
/// Master seed of the datacenter instances. The datacenters are the
/// fixed system under test; `--seed` draws everything that runs on them
/// (placements, reimage schedules, accesses, job arrivals). Drawing the
/// datacenters from `--seed` too made a pass's host time swing by a
/// third between seeds, mostly through the instances' server counts.
const DC_SEED: u64 = 42;
/// The profile fig16 runs availability on.
const AVAILABILITY_DC: usize = 9;

/// Everything a workload's tasks read, built from the seed.
pub struct Inputs {
    /// Datacenter instances.
    dcs: Vec<Datacenter>,
    /// Utilization views, one per availability task and per point.
    views: Vec<UtilizationView>,
    /// Batch workloads, one per scheduling task.
    workloads: Vec<Workload>,
    /// The task list, referring to the above by index.
    tasks: Vec<Task>,
}

impl Inputs {
    /// Servers across the datacenter instances.
    pub fn servers(&self) -> usize {
        self.dcs.iter().map(Datacenter::n_servers).sum()
    }

    /// The task list.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }
}

/// Builds a workload's inputs from the scale's seed, recording set-up
/// spans.
pub fn build_inputs(kind: Kind, scale: &Scale, tracer: &Tracer) -> Inputs {
    let shape = kind.shape();
    let seed = scale.seed;
    tracer.span("setup.build", None, None, false, |root| {
        let mut inputs = Inputs {
            dcs: Vec::new(),
            views: Vec::new(),
            workloads: Vec::new(),
            tasks: Vec::new(),
        };
        let add_dc = |inputs: &mut Inputs, profile: usize, storage: bool| -> usize {
            let n = inputs.dcs.len();
            let dc = tracer.span("trace.dc_generate", None, root, false, |_| {
                let p = DatacenterProfile::dc(profile).scaled(shape.dc_scale);
                let mut dc = Datacenter::generate(
                    &p,
                    derive_seed_indexed(DC_SEED, "perfbench/dc", n as u64),
                );
                for s in &mut dc.servers {
                    s.harvest_blocks = (s.harvest_blocks / shape.block_scale).max(1);
                }
                dc
            });
            if storage {
                // The placement indexes (HDFS-H's grid, rack lists). The
                // simulations build their own; this times the layer's set-up.
                for policy in [PlacementPolicy::Stock, PlacementPolicy::History] {
                    tracer.span("dfs.placer_new", None, root, false, |_| {
                        black_box(Placer::new(&dc, policy));
                    });
                }
            }
            inputs.dcs.push(dc);
            n
        };
        let push = |inputs: &mut Inputs, key: String, job: Job| {
            let idx = inputs.tasks.len() as u32;
            inputs.tasks.push(Task { idx, key, job });
        };

        // Storage tasks share one instance per profile and one view per
        // utilization; the seed varies what runs on them.
        let mut storage_dcs = [None; 10];
        let mut storage_dc = |inputs: &mut Inputs, profile: usize| {
            *storage_dcs[profile].get_or_insert_with(|| add_dc(inputs, profile, true))
        };
        for i in 0..shape.durability {
            let profile = i % 10;
            let replication = 3 + (i + i / 10) % 2;
            let dc = storage_dc(&mut inputs, profile);
            let job = Job::Durability {
                dc,
                seed: derive_seed_indexed(seed, "fig15", i as u64),
                replication,
                months: shape.months,
            };
            push(
                &mut inputs,
                format!("fig15/{i}/dc{profile}/R{replication}"),
                job,
            );
        }
        let mut availability_views = Vec::new();
        for i in 0..shape.availability {
            let n_utils = shape.availability_utils.len();
            let util = shape.availability_utils[i % n_utils];
            let dc = storage_dc(&mut inputs, AVAILABILITY_DC);
            if i < n_utils {
                let view = tracer.span("cluster.view_build", None, root, false, |_| {
                    build_view(&inputs.dcs[dc], ScalingKind::Linear, util)
                });
                inputs.views.push(view);
                availability_views.push(inputs.views.len() - 1);
            }
            let job = Job::Availability {
                dc,
                view: availability_views[i % n_utils],
                seed: derive_seed_indexed(seed, "fig16", i as u64),
                hours: shape.hours,
            };
            push(&mut inputs, format!("fig16/{i}/u{util:.2}/R3"), job);
        }
        for k in 0..shape.sched_points {
            let profile = k % 10;
            let scaling = if k % 2 == 0 {
                ScalingKind::Linear
            } else {
                ScalingKind::Root
            };
            let util = shape.sched_utils[(k / 2) % shape.sched_utils.len()];
            let dc = add_dc(&mut inputs, profile, false);
            let view = tracer.span("cluster.view_build", None, root, false, |_| {
                build_view(&inputs.dcs[dc], scaling, util)
            });
            inputs.views.push(view);
            for r in 0..shape.sched_runs {
                let run_seed = derive_seed_indexed(seed, "fig14", (k * 100 + r) as u64);
                let workload = tracer.span("jobs.workload", None, root, false, |_| {
                    sched_workload(&inputs.dcs[dc], run_seed)
                });
                inputs.workloads.push(workload);
                let job = Job::Sched {
                    dc,
                    view: inputs.views.len() - 1,
                    workload: inputs.workloads.len() - 1,
                    seed: run_seed,
                };
                let key = format!("fig14/{k}/dc{profile}/{scaling}/u{util:.2}/r{r}");
                push(&mut inputs, key, job);
            }
        }
        inputs
    })
}

/// `calibrate` + `UtilizationView::scaled`, as fig13/14/16 build them.
fn build_view(dc: &Datacenter, scaling: ScalingKind, util: f64) -> UtilizationView {
    let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
    let param = calibrate(&traces, scaling, util);
    UtilizationView::scaled(dc, scaling, param)
}

/// The Poisson TPC-DS batch workload of one fig13/14 sweep run.
fn sched_workload(dc: &Datacenter, seed: u64) -> Workload {
    let suite: Vec<_> = tpcds_suite()
        .iter()
        .map(|q| scale_job(q, DURATION_FACTOR, 1.0))
        .collect();
    let mean_work: f64 = suite
        .iter()
        .map(|q| q.total_work().as_secs_f64())
        .sum::<f64>()
        / suite.len() as f64;
    let cluster_cores = dc.n_servers() as f64 * 12.0;
    let mean_gap = SimDuration::from_secs_f64(mean_work / (BATCH_DEMAND * cluster_cores));
    let mut rng = stream_rng(seed, "sweep-wl");
    Workload::poisson(
        &mut rng,
        suite,
        mean_gap,
        SimDuration::from_hours(SCHED_HOURS),
    )
}

/// One policy comparison the benchmark runs; indices refer to [`Inputs`].
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// A fig15 cell pair: `simulate_durability` under HDFS-Stock and
    /// HDFS-H.
    Durability {
        dc: usize,
        seed: u64,
        replication: usize,
        months: usize,
    },
    /// A fig16 cell pair: `simulate_availability` under HDFS-H and
    /// HDFS-Stock at R=3.
    Availability {
        dc: usize,
        view: usize,
        seed: u64,
        hours: u64,
    },
    /// A fig13/14 sweep run: `SchedSim::run` under YARN-PT and YARN-H.
    Sched {
        dc: usize,
        view: usize,
        workload: usize,
        seed: u64,
    },
}

/// A task of the sweep: its position, stable key, and simulations.
#[derive(Debug, Clone)]
pub struct Task {
    /// Position in the task list (the span key).
    pub idx: u32,
    /// Stable key; reference digests are recorded under it.
    pub key: String,
    /// The simulations.
    pub job: Job,
}

/// One simulation's statistics: what the correctness check compares.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Blocks created (durability and availability).
    pub n_blocks: u64,
    /// Blocks that lost every replica.
    pub lost_blocks: u64,
    /// Reimages replayed.
    pub reimages: u64,
    /// Replicas re-created.
    pub repairs: u64,
    /// Repairs abandoned because the block was already lost.
    pub repairs_too_late: u64,
    /// Availability accesses.
    pub accesses: u64,
    /// Failed accesses.
    pub failed_accesses: u64,
    /// Accesses whose local replica was busy.
    pub forced_remote_reads: u64,
    /// Bits of the mean served-read latency.
    pub mean_read_ms_bits: u64,
    /// Bits of the mean job execution time (scheduling).
    pub mean_execution_secs_bits: u64,
    /// Scheduler tasks started.
    pub tasks_started: u64,
    /// Scheduler task kills.
    pub kills: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Final fabric counters (durability and scheduling).
    pub fabric: Option<FabricStats>,
    /// Final disk counters (durability and scheduling).
    pub disk: Option<DiskStats>,
}

impl Outcome {
    /// The first invariant of a `job` simulation over `models` that this
    /// outcome breaks.
    pub fn violation(&self, job: &Job, models: Models) -> Option<&'static str> {
        let reports_transfers = !matches!(job, Job::Availability { .. });
        match job {
            _ if reports_transfers
                && (self.fabric.is_some() != models.network.is_some()
                    || self.disk.is_some() != models.disk.is_some()) =>
            {
                Some("transfer statistics do not match the models")
            }
            Job::Durability { .. } if self.n_blocks == 0 => Some("no blocks placed"),
            Job::Durability { .. } if self.lost_blocks > self.n_blocks => {
                Some("more blocks lost than placed")
            }
            Job::Availability { .. } if self.accesses == 0 => Some("no accesses"),
            Job::Availability { .. }
                if self.failed_accesses > self.accesses
                    || self.forced_remote_reads > self.accesses =>
            {
                Some("more failed or remote reads than accesses")
            }
            Job::Sched { .. } if self.tasks_started == 0 => Some("no scheduler tasks started"),
            _ => None,
        }
    }

    /// Simulated events: dfs blocks created + repairs + reimages +
    /// accesses, flows and disk streams completed, scheduler tasks
    /// started + kills. Counting the blocks a storage simulation creates
    /// makes its events track its host time: the seed-drawn reimages
    /// only change how many repairs follow the fixed-size fill.
    pub fn events(&self) -> u64 {
        self.n_blocks
            + self.repairs
            + self.reimages
            + self.accesses
            + self.fabric.map_or(0, |f| f.completed)
            + self.disk.map_or(0, |d| d.completed)
            + self.tasks_started
            + self.kills
    }
}

/// A task's result: one outcome per policy, in the job's policy order.
pub type Outcomes = [Outcome; 2];

/// A 64-bit digest of a task's simulated trajectory: every outcome
/// field except the transfer engines' own bookkeeping (re-shares, stale
/// events, queue depth, analytic-tier counters), which a faster engine
/// may change without changing what is simulated.
pub fn digest(outcomes: &Outcomes) -> u64 {
    let mut text = String::new();
    for o in outcomes {
        let fabric = o.fabric.map(|f| {
            (
                f.completed,
                f.bytes_delivered,
                f.flows_aborted,
                f.peak_active,
            )
        });
        let disk = o
            .disk
            .map(|d| (d.completed, d.bytes_moved, d.streams_aborted, d.peak_active));
        text.push_str(&format!(
            "{} {} {} {} {} {} {} {} {:x} {:x} {} {} {} {fabric:?} {disk:?};",
            o.n_blocks,
            o.lost_blocks,
            o.reimages,
            o.repairs,
            o.repairs_too_late,
            o.accesses,
            o.failed_accesses,
            o.forced_remote_reads,
            o.mean_read_ms_bits,
            o.mean_execution_secs_bits,
            o.tasks_started,
            o.kills,
            o.jobs_completed,
        ));
    }
    harvest_core::checkpoint::fnv1a64(text.as_bytes())
}

/// What the traced run's probes measured for one task (both policies).
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Blocks the standalone fills placed.
    pub fill_blocks: u64,
    /// Host ns of the simulations with the workload's models.
    pub real_ns: u64,
    /// Host ns of the same simulations with both models off.
    pub off_ns: u64,
    /// Host ns with only the network model on.
    pub net_ns: u64,
}

/// Runs one task. With the tracer on, each simulation is a span under
/// `parent`, and the task also runs the attribution probes: a
/// standalone placement fill, and for simulations over the transfer
/// models, the same simulation with the models off and with the network
/// only.
pub fn run_task(
    inputs: &Inputs,
    task: &Task,
    models: Models,
    tracer: &Tracer,
    parent: Option<SpanId>,
    cancel: &CancelToken,
) -> (Outcomes, Probe) {
    let key = Some(task.idx);
    let traced = tracer.is_on();
    let mut probe = Probe::default();
    let mut fill_blocks = 0;
    // Runs `sim` under the workload's models as the real span, then
    // (traced only) under the reduced models as probe spans.
    let mut timed = |name: &'static str, sim: &dyn Fn(Models) -> Outcome| -> Outcome {
        let t = Instant::now();
        let out = tracer.span(name, key, parent, false, |_| sim(models));
        let real = t.elapsed().as_nanos() as u64;
        probe.real_ns += real;
        if traced && models.any() {
            let t = Instant::now();
            tracer.span("probe.off", key, parent, true, |_| {
                black_box(sim(Models::default()))
            });
            probe.off_ns += t.elapsed().as_nanos() as u64;
            let net_only = Models {
                network: models.network,
                disk: None,
            };
            let t = Instant::now();
            tracer.span("probe.net", key, parent, true, |_| black_box(sim(net_only)));
            probe.net_ns += t.elapsed().as_nanos() as u64;
        } else {
            probe.off_ns += real;
            probe.net_ns += real;
        }
        out
    };
    let mut fill_probe = |dc, policy, r, fraction, seed, stream, busy| {
        if traced {
            fill_blocks += tracer.span("dfs.fill", key, parent, true, |_| {
                fill(dc, policy, r, fraction, seed, stream, busy)
            });
        }
    };
    let outcomes = match task.job {
        Job::Durability {
            dc,
            seed,
            replication,
            months,
        } => {
            let dc = &inputs.dcs[dc];
            [PlacementPolicy::Stock, PlacementPolicy::History].map(|policy| {
                let cfg = |m: Models| {
                    let mut cfg = DurabilityConfig::paper(policy, replication, seed);
                    cfg.months = months;
                    cfg.network = m.network;
                    cfg.disk = m.disk;
                    cfg
                };
                let fraction = cfg(models).fill_fraction;
                fill_probe(dc, policy, replication, fraction, seed, "durability", None);
                timed("dfs.durability", &|m| {
                    let r = simulate_durability(dc, &cfg(m));
                    Outcome {
                        n_blocks: r.n_blocks,
                        lost_blocks: r.lost_blocks,
                        reimages: r.reimages,
                        repairs: r.repairs,
                        repairs_too_late: r.repairs_too_late,
                        fabric: r.fabric,
                        disk: r.disk,
                        ..Outcome::default()
                    }
                })
            })
        }
        Job::Availability {
            dc,
            view,
            seed,
            hours,
        } => {
            let (dc, view) = (&inputs.dcs[dc], &inputs.views[view]);
            let busy = if traced {
                busy_mask(dc, view, SimTime::ZERO)
            } else {
                Vec::new()
            };
            [PlacementPolicy::History, PlacementPolicy::Stock].map(|policy| {
                let cfg = |m: Models| {
                    let mut cfg = AvailabilityConfig::paper(policy, 3, seed);
                    cfg.span = SimDuration::from_hours(hours);
                    cfg.network = m.network;
                    cfg.disk = m.disk;
                    cfg
                };
                let fraction = cfg(models).fill_fraction;
                fill_probe(dc, policy, 3, fraction, seed, "availability", Some(&busy));
                timed("dfs.availability", &|m| {
                    let r = simulate_availability(dc, view, &cfg(m));
                    Outcome {
                        n_blocks: r.n_blocks,
                        accesses: r.accesses,
                        failed_accesses: r.failed,
                        forced_remote_reads: r.forced_remote_reads,
                        mean_read_ms_bits: r.mean_read_ms.to_bits(),
                        ..Outcome::default()
                    }
                })
            })
        }
        Job::Sched {
            dc,
            view,
            workload,
            seed,
        } => {
            let (dc, view) = (&inputs.dcs[dc], &inputs.views[view]);
            let workload = &inputs.workloads[workload];
            [SchedPolicy::PrimaryAware, SchedPolicy::History].map(|policy| {
                timed("sched.run", &|m| {
                    let mut cfg = SchedSimConfig::testbed(policy, seed);
                    cfg.horizon = SimDuration::from_hours(SCHED_HOURS);
                    cfg.drain = cfg.horizon;
                    cfg.network = m.network;
                    cfg.disk = m.disk;
                    cfg.cancel = cancel.clone();
                    let s = SchedSim::new(dc, view, workload, cfg).run();
                    Outcome {
                        mean_execution_secs_bits: s.mean_execution_secs().to_bits(),
                        tasks_started: s.tasks_started,
                        kills: s.total_kills,
                        jobs_completed: s.completed_jobs() as u64,
                        fabric: s.fabric,
                        disk: s.disks,
                        ..Outcome::default()
                    }
                })
            })
        }
    };
    probe.fill_blocks = fill_blocks;
    (outcomes, probe)
}

/// Phase 1 of the storage simulations on its own: `Placer::place_new`
/// fills a fresh `BlockStore` to `fill_fraction` of the harvestable
/// space. Returns the blocks placed.
fn fill(
    dc: &Datacenter,
    policy: PlacementPolicy,
    replication: usize,
    fill_fraction: f64,
    seed: u64,
    stream: &str,
    busy: Option<&[bool]>,
) -> u64 {
    let placer = Placer::new(dc, policy);
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(seed, stream);
    let target = ((dc.total_harvest_blocks() as f64 * fill_fraction) / replication as f64) as u64;
    let n = dc.n_servers();
    let mut placed = 0;
    for _ in 0..target {
        let writer = ServerId(rng.random_range(0..n) as u32);
        match placer.place_new(&mut rng, &store, writer, replication, busy) {
            Some(p) => {
                store.create_block(&p.servers);
                placed += 1;
            }
            None => break,
        }
    }
    placed
}
