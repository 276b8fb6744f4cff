//! Event-driven shared-disk simulation with fair sharing and
//! primary-tenant contention.
//!
//! A [`DiskPool`] models one disk per server, each with independent
//! read and write channels. Secondary (harvested) streams on a channel
//! split its bandwidth equally — the max-min fair allocation for
//! single-resource flows — after the primary tenant's demand and the
//! [`crate::ThrottlePolicy`] have taken their cut. Every stream touches
//! exactly one channel, so each channel is a single-bottleneck
//! resource, and each occupied channel is served by a [`FairShare`]
//! engine: a virtual fair-work clock plus a completion-ordered heap,
//! with one live completion event per channel for its next finisher.
//!
//! Primary I/O is not simulated as individual operations: it is a
//! bandwidth reservation derived from the utilization playback through
//! [`crate::PrimaryIoModel`] (see [`DiskPool::set_primary_util`]), which
//! is how the paper's isolation manager perceives it too. A fully
//! throttled channel (zero secondary bandwidth) parks its streams on a
//! far-future completion; the re-share triggered when the primary's
//! demand drops rescues them — this is the mechanism behind the §7
//! lesson-2 heartbeat incident.
//!
//! # Cost model
//!
//! A stream start, finish, or abort, and a change of a channel's
//! secondary capacity (a throttle transition, a brown-out), costs
//! O(log n) in the channel's occupancy and touches no other channel.
//! The per-stream rate is the engine's `capacity / n` division, so
//! every stream on a channel gets bitwise the same equal split; a
//! capacity change settles work delivered so far at the old rate
//! ([`FairShare::set_capacity`]). A fully throttled channel keeps one
//! far-future placeholder completion until the re-share that restores
//! its capacity cancels it, so [`DiskPool::next_event_time`] stays
//! `Some` while any stream is in flight. The max-min oracle in the
//! workspace's `tests/oracle` checks the pool from outside: after every
//! event every rate must be the test's own `secondary_capacity / n`,
//! and completions must match the oracle's fluid replay.
//!
//! Everything is exact integer time plus deterministic `f64`
//! arithmetic over deterministically ordered collections, so a replay
//! is bit-identical for identical inputs.
//!
//! The pool also serves change-driven callers: [`DiskPool::active_servers`]
//! iterates (ascending) exactly the disks whose rates a primary-demand
//! change can currently move, and [`DiskPool::set_primary_util`]
//! early-outs a bitwise-unchanged utilization before the demand model
//! runs — so a utilization replay over a mostly-idle fleet costs
//! O(disks with in-flight streams) per tick, not O(fleet).

use std::collections::{BTreeMap, BTreeSet};

use harvest_cluster::ServerId;
use harvest_signal::classify::UtilizationPattern;
use harvest_sim::engine::{EventKey, EventQueue};
use harvest_sim::fairshare::FairShare;
use harvest_sim::obs::{CounterId, GaugeId, HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::{SimDuration, SimTime};

use crate::config::DiskConfig;

/// Identifies a stream within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

/// Which channel of a disk an operation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IoDir {
    /// The read channel.
    Read,
    /// The write channel.
    Write,
}

/// A finished stream, as reported by [`DiskPool::pump`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCompletion {
    /// The stream that finished.
    pub stream: StreamId,
    /// When its last byte was serviced.
    pub at: SimTime,
    /// The caller's tag, echoed back.
    pub tag: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// When the stream entered the pool.
    pub started: SimTime,
    /// The disk it ran on.
    pub server: ServerId,
    /// The channel it used.
    pub dir: IoDir,
}

/// One in-flight secondary I/O stream. Its progress and rate live in
/// its channel's [`FairShare`] engine.
#[derive(Debug, Clone)]
struct Stream {
    tag: u64,
    bytes: u64,
    started: SimTime,
    chan: u32,
}

/// A stream waiting for its scheduled start time.
#[derive(Debug, Clone)]
struct PendingStream {
    server: ServerId,
    dir: IoDir,
    bytes: u64,
    tag: u64,
}

#[derive(Debug)]
enum DiskEvent {
    Start(StreamId),
    Complete(StreamId),
}

/// One direction of one disk: its active streams.
#[derive(Debug, Clone, Default)]
struct Channel {
    /// Active stream ids in start order (deterministic iteration).
    streams: Vec<u64>,
}

/// Aggregate pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Streams completed.
    pub completed: u64,
    /// Bytes moved by completed streams.
    pub bytes_moved: u64,
    /// High-water mark of concurrently active streams, pool-wide.
    pub peak_active: usize,
    /// Allocation passes run: a start, finish, abort, or capacity
    /// change on an occupied channel.
    pub reshares: u64,
    /// Superseded completion events dropped — cancelled in the queue
    /// when a re-share re-predicted the channel, or (defensively) found
    /// stale at fire time, plus cancels that found nothing to cancel
    /// (fault-driven mass cancellation).
    pub stale_events_dropped: u64,
    /// Streams aborted by fault injection (disk death or a caller
    /// tearing down a doomed transfer) before completion.
    pub streams_aborted: u64,
    /// High-water mark of the event heap (including not-yet-collected
    /// tombstones).
    pub peak_queue_len: usize,
    /// Channel engines opened: a channel's first stream opens one, and
    /// a channel that drains and refills opens another.
    pub analytic_channels: u64,
    /// Completions served by the channel engines in O(log n).
    pub analytic_events: u64,
}

/// How far in the future a fully throttled channel parks its
/// placeholder completion; the re-share that restores its capacity
/// cancels it.
const PARKED: SimDuration = SimDuration::from_days(365_000);

/// One occupied channel's sharing state: the [`FairShare`] engine plus
/// the channel's single live completion event, for the engine's next
/// finisher (or the [`PARKED`] placeholder while the channel has no
/// secondary capacity).
#[derive(Debug)]
struct ChanGroup {
    engine: FairShare,
    event: Option<EventKey>,
}

/// The shared-disk simulator. See the module docs.
#[derive(Debug)]
pub struct DiskPool {
    config: DiskConfig,
    /// Per-server tenant class, for the util→demand mapping.
    patterns: Vec<UtilizationPattern>,
    /// Per-server primary demand as a fraction of channel capacity.
    primary_fraction: Vec<f64>,
    /// Last utilization each server's demand was derived from (NaN
    /// until the first update), so a bitwise-unchanged utilization
    /// replay costs one compare instead of a demand-model evaluation.
    primary_util: Vec<f64>,
    /// Fault state: a brown-out multiplier on each disk's secondary
    /// bandwidth (1.0 = healthy; 0.0 parks every stream). Multiplying
    /// by 1.0 is bitwise-exact, so fault-free runs are unaffected.
    degrade: Vec<f64>,
    /// Dead cancels already folded into `stats.stale_events_dropped`.
    dead_cancels_seen: u64,
    /// Active secondary streams per server, across both channels.
    streams_per_server: Vec<u32>,
    /// Servers with at least one active stream, ascending — the set a
    /// change-driven primary replay needs to touch.
    active_servers: BTreeSet<u32>,
    /// `2 * server + dir` — read and write channels of every disk.
    channels: Vec<Channel>,
    queue: EventQueue<DiskEvent>,
    pending: BTreeMap<u64, PendingStream>,
    active: BTreeMap<u64, Stream>,
    /// The engine of every occupied channel.
    groups: BTreeMap<u32, ChanGroup>,
    next_id: u64,
    stats: DiskStats,
    completions: Vec<StreamCompletion>,
    /// Observability sink ([`Recorder::off`] unless a caller attaches
    /// one); `obs` holds the registered ids iff recording is on, so a
    /// hot path pays exactly one `Option` check when off.
    rec: Recorder,
    obs: Option<DiskObs>,
}

/// Metric ids registered on [`DiskPool::set_recorder`].
#[derive(Debug)]
struct DiskObs {
    track: TrackId,
    stream_secs: HistogramId,
    reshare_streams: HistogramId,
    queue_len: GaugeId,
    tombstones: GaugeId,
    parks: CounterId,
    /// Wait-state track `disk/stream`: a stream is `running` from
    /// start to completion except while fully throttled, when it sits
    /// in `throttle_parked` until a re-share rescues it.
    states: StateTrackId,
}

impl DiskPool {
    /// A pool of `n_disks` identical disks with all-constant tenant
    /// classes (useful for benches and single-disk replays).
    ///
    /// # Panics
    ///
    /// Panics if `n_disks` is zero or the config is invalid.
    pub fn new(n_disks: usize, config: &DiskConfig) -> Self {
        Self::with_patterns(vec![UtilizationPattern::Constant; n_disks], config)
    }

    /// One disk per server of `dc`, each tagged with its primary
    /// tenant's utilization pattern.
    pub fn from_datacenter(dc: &harvest_cluster::Datacenter, config: &DiskConfig) -> Self {
        Self::with_patterns(
            dc.servers
                .iter()
                .map(|s| dc.tenant(s.tenant).pattern)
                .collect(),
            config,
        )
    }

    /// A pool with an explicit per-server tenant class.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or the config is invalid.
    pub fn with_patterns(patterns: Vec<UtilizationPattern>, config: &DiskConfig) -> Self {
        config.validate();
        assert!(!patterns.is_empty(), "cannot build a pool of zero disks");
        let n = patterns.len();
        DiskPool {
            config: *config,
            patterns,
            primary_fraction: vec![0.0; n],
            primary_util: vec![f64::NAN; n],
            degrade: vec![1.0; n],
            dead_cancels_seen: 0,
            streams_per_server: vec![0; n],
            active_servers: BTreeSet::new(),
            channels: vec![Channel::default(); 2 * n],
            queue: EventQueue::new(),
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 0,
            stats: DiskStats::default(),
            completions: Vec::new(),
            rec: Recorder::off(),
            obs: None,
        }
    }

    /// Attaches an observability recorder (typically a
    /// [`Recorder::child`] of the caller's). Recording never changes a
    /// trajectory: stream lifetimes land as spans on the `disk` track,
    /// durations in `disk/stream_secs`, per-re-share channel occupancy
    /// in `disk/reshare_streams`, throttle parks as `disk/parks` (with
    /// an instant event per park), and event-heap depth/tombstone
    /// gauges sampled at each re-share. Wait states land on the
    /// `disk/stream` state track: `running` from start to completion,
    /// interrupted by `throttle_parked` while fully throttled.
    pub fn set_recorder(&mut self, mut rec: Recorder) {
        self.obs = rec.is_on().then(|| DiskObs {
            track: rec.track("disk"),
            stream_secs: rec.histogram("disk/stream_secs"),
            reshare_streams: rec.histogram("disk/reshare_streams"),
            queue_len: rec.gauge("disk/queue_len"),
            tombstones: rec.gauge("disk/queue_tombstones"),
            parks: rec.counter("disk/parks"),
            states: rec.state_track("disk/stream"),
        });
        self.rec = rec;
    }

    /// Detaches and returns the recorder, mirroring the final
    /// [`DiskStats`] into `disk/*` counters first so the metrics report
    /// carries the same numbers as the struct.
    pub fn take_recorder(&mut self) -> Recorder {
        if self.rec.is_on() {
            let s = self.stats;
            for (name, v) in [
                ("disk/completed", s.completed),
                ("disk/bytes_moved", s.bytes_moved),
                ("disk/peak_active", s.peak_active as u64),
                ("disk/reshares", s.reshares),
                ("disk/stale_events_dropped", s.stale_events_dropped),
                ("disk/streams_aborted", s.streams_aborted),
                ("disk/peak_queue_len", s.peak_queue_len as u64),
                ("disk/analytic_channels", s.analytic_channels),
                ("disk/analytic_events", s.analytic_events),
            ] {
                let id = self.rec.counter(name);
                self.rec.counter_set(id, v);
            }
        }
        self.obs = None;
        std::mem::take(&mut self.rec)
    }

    /// Number of disks.
    pub fn n_disks(&self) -> usize {
        self.patterns.len()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Streams currently moving bytes.
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Streams scheduled but not yet started.
    pub fn n_pending(&self) -> usize {
        self.pending.len()
    }

    /// The current rate of a stream in bytes/s, if it is active.
    pub fn stream_rate(&self, stream: StreamId) -> Option<f64> {
        self.active.get(&stream.0).map(|s| self.rate_of(s))
    }

    /// A stream's live allocation: its channel engine's equal split.
    fn rate_of(&self, s: &Stream) -> f64 {
        self.groups[&s.chan].engine.rate()
    }

    /// Ids of the currently active streams, ascending.
    pub fn active_stream_ids(&self) -> Vec<StreamId> {
        self.active.keys().map(|&id| StreamId(id)).collect()
    }

    /// The disk and channel an active stream runs on.
    pub fn stream_channel(&self, stream: StreamId) -> Option<(ServerId, IoDir)> {
        self.active.get(&stream.0).map(|s| unchan(s.chan))
    }

    /// A channel's raw capacity in bytes/s.
    pub fn capacity(&self, dir: IoDir) -> f64 {
        match dir {
            IoDir::Read => self.config.read_bytes_per_sec(),
            IoDir::Write => self.config.write_bytes_per_sec(),
        }
    }

    /// The bandwidth currently available to secondary streams on a
    /// channel, after the primary's demand, the throttle policy, and
    /// any fault-injected brown-out factor.
    pub fn secondary_capacity(&self, server: ServerId, dir: IoDir) -> f64 {
        let share = self
            .config
            .throttle
            .secondary_fraction(self.primary_fraction[server.0 as usize]);
        self.capacity(dir) * share * self.degrade[server.0 as usize]
    }

    /// Sum of active secondary stream rates on a channel, in bytes/s.
    pub fn channel_load(&self, server: ServerId, dir: IoDir) -> f64 {
        self.channels[chan(server, dir) as usize]
            .streams
            .iter()
            .map(|id| self.rate_of(&self.active[id]))
            .sum()
    }

    /// Active secondary streams on a channel.
    pub fn channel_streams(&self, server: ServerId, dir: IoDir) -> usize {
        self.channels[chan(server, dir) as usize].streams.len()
    }

    /// The primary's current demand fraction on a server's disk.
    pub fn primary_fraction(&self, server: ServerId) -> f64 {
        self.primary_fraction[server.0 as usize]
    }

    /// Whether the isolation manager is currently suppressing secondary
    /// I/O on a server's disk below its fair share.
    pub fn is_throttled(&self, server: ServerId) -> bool {
        self.config
            .throttle
            .is_throttling(self.primary_fraction[server.0 as usize])
    }

    /// Updates a server's primary CPU utilization at `now`, mapping it
    /// to disk demand through the configured [`crate::PrimaryIoModel`]
    /// and re-sharing the disk's channels if the demand changed. A
    /// bitwise-unchanged utilization early-outs before the demand model
    /// runs (the NaN sentinel makes the very first update always
    /// apply), so replaying an idle sample grid costs one compare per
    /// touched server.
    ///
    /// The caller must have pumped the pool to `now` first (the pool
    /// never runs backwards); utilization playback naturally satisfies
    /// this by updating on its sample grid.
    pub fn set_primary_util(&mut self, now: SimTime, server: ServerId, util: f64) {
        if util == self.primary_util[server.0 as usize] {
            return;
        }
        debug_assert!(
            self.queue.peek_time().map(|t| t >= now).unwrap_or(true),
            "set_primary_util at {now} with unpumped events pending"
        );
        self.primary_util[server.0 as usize] = util;
        let fraction = self
            .config
            .primary
            .demand_fraction(self.patterns[server.0 as usize], util);
        if fraction == self.primary_fraction[server.0 as usize] {
            return;
        }
        self.primary_fraction[server.0 as usize] = fraction;
        for dir in [IoDir::Read, IoDir::Write] {
            self.sync_channel(chan(server, dir), now);
        }
    }

    /// Servers with at least one in-flight secondary stream, ascending —
    /// the only disks whose rates a primary-demand change can move
    /// *right now*, and therefore the only disks a change-driven
    /// utilization replay has to visit each tick.
    pub fn active_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.active_servers.iter().map(|&s| ServerId(s))
    }

    /// Number of disks currently hosting at least one active stream.
    pub fn n_active_servers(&self) -> usize {
        self.active_servers.len()
    }

    /// Schedules a secondary stream of `bytes` on `server`'s `dir`
    /// channel, starting at `at`. Returns the stream's id; its
    /// completion will be reported by a later [`DiskPool::pump`].
    pub fn schedule_stream(
        &mut self,
        at: SimTime,
        server: ServerId,
        dir: IoDir,
        bytes: u64,
        tag: u64,
    ) -> StreamId {
        let id = StreamId(self.next_id);
        self.next_id += 1;
        self.pending.insert(
            id.0,
            PendingStream {
                server,
                dir,
                bytes,
                tag,
            },
        );
        self.queue.push(at, DiskEvent::Start(id));
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
        id
    }

    /// The next instant anything can happen in the pool (`None` when it
    /// is idle). Superseded completion events are cancelled in the
    /// queue, so this is exact: the next event is a real stream start
    /// or a live predicted completion.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the pool through every event at or before `until`,
    /// returning the streams that completed, in completion order.
    pub fn pump(&mut self, until: SimTime) -> Vec<StreamCompletion> {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            match ev {
                DiskEvent::Start(id) => self.on_start(id, now),
                DiskEvent::Complete(id) => self.on_complete(id, now),
            }
        }
        self.sync_dead_cancels();
        std::mem::take(&mut self.completions)
    }

    /// Folds the queue's dead-cancel count (cancels of already-fired
    /// keys — only fault-driven mass cancellation produces them) into
    /// `stale_events_dropped`. A no-op in fault-free runs.
    fn sync_dead_cancels(&mut self) {
        let d = self.queue.n_dead_cancels();
        self.stats.stale_events_dropped += d - self.dead_cancels_seen;
        self.dead_cancels_seen = d;
    }

    /// The fault-injected brown-out factor on a disk (1.0 = healthy).
    pub fn degrade_factor(&self, server: ServerId) -> f64 {
        self.degrade[server.0 as usize]
    }

    /// Sets a disk's brown-out factor and re-shares both its channels.
    /// `factor` multiplies the secondary bandwidth: 0.7 models a
    /// degraded replacement disk, 0.0 parks every stream until a later
    /// call restores it. Same pumped-to-`now` contract as
    /// [`DiskPool::set_primary_util`].
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn set_degrade(&mut self, now: SimTime, server: ServerId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "degrade factor must be finite and non-negative, got {factor}"
        );
        if factor == self.degrade[server.0 as usize] {
            return;
        }
        self.degrade[server.0 as usize] = factor;
        for dir in [IoDir::Read, IoDir::Write] {
            self.sync_channel(chan(server, dir), now);
        }
    }

    /// Kills a disk: every stream on either channel — active, or
    /// scheduled but unstarted — aborts. Returns the aborted streams'
    /// tags. The disk itself stays usable for *new* streams (the
    /// replaced-disk model); combine with [`DiskPool::set_degrade`] to
    /// model a dead-until-restored disk.
    pub fn fail_server(&mut self, now: SimTime, server: ServerId) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for dir in [IoDir::Read, IoDir::Write] {
            ids.extend(&self.channels[chan(server, dir) as usize].streams);
        }
        let mut tags = Vec::new();
        for id in ids {
            if let Some((tag, c)) = self.abort_active(StreamId(id), now) {
                tags.push(tag);
                self.sync_channel(c, now);
            }
        }
        let pend: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.server == server)
            .map(|(&id, _)| id)
            .collect();
        for id in pend {
            let p = self.pending.remove(&id).expect("collected above");
            self.stats.streams_aborted += 1;
            tags.push(p.tag);
        }
        self.sync_dead_cancels();
        tags
    }

    /// Aborts every stream (active or scheduled) whose tag is in `tags`
    /// — the fault path for "this transfer's purpose just died".
    /// Returns the number aborted.
    pub fn abort_streams_with_tags(
        &mut self,
        now: SimTime,
        tags: &std::collections::HashSet<u64>,
    ) -> usize {
        let ids: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, s)| tags.contains(&s.tag))
            .map(|(&id, _)| id)
            .collect();
        let mut n = 0;
        for id in ids {
            if let Some((_, c)) = self.abort_active(StreamId(id), now) {
                n += 1;
                self.sync_channel(c, now);
            }
        }
        let pend: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| tags.contains(&p.tag))
            .map(|(&id, _)| id)
            .collect();
        for id in pend {
            self.pending.remove(&id);
            self.stats.streams_aborted += 1;
            n += 1;
        }
        self.sync_dead_cancels();
        n
    }

    /// Removes an active stream without completing it, mirroring
    /// `on_complete`'s bookkeeping (channel list, per-server counts,
    /// pending event, obs state). Returns the stream's tag and channel
    /// so the caller can re-share it.
    fn abort_active(&mut self, id: StreamId, now: SimTime) -> Option<(u64, u32)> {
        let stream = self.active.remove(&id.0)?;
        let c = stream.chan;
        let g = self
            .groups
            .get_mut(&c)
            .expect("occupied channel has an engine");
        g.engine.remove(now, id.0);
        // The group's one event may predict this very stream; the
        // caller's re-share re-predicts (or retires) the group.
        if let Some(key) = g.event.take() {
            if self.queue.cancel(key) {
                self.stats.stale_events_dropped += 1;
            }
        }
        let list = &mut self.channels[c as usize].streams;
        let pos = list.iter().position(|&s| s == id.0).expect("on channel");
        list.remove(pos);
        let (server, _) = unchan(c);
        let per_server = &mut self.streams_per_server[server.0 as usize];
        *per_server -= 1;
        if *per_server == 0 {
            self.active_servers.remove(&server.0);
        }
        self.stats.streams_aborted += 1;
        if let Some(obs) = &self.obs {
            self.rec.state_exit(obs.states, id.0, now);
        }
        Some((stream.tag, c))
    }

    /// Drains the pool to quiescence, returning all remaining
    /// completions. A fully throttled channel never quiesces on its own
    /// (its streams are parked); drain only a pool whose primary demand
    /// will not strand streams.
    pub fn drain(&mut self) -> Vec<StreamCompletion> {
        self.pump(SimTime::MAX)
    }

    fn on_start(&mut self, id: StreamId, now: SimTime) {
        let Some(p) = self.pending.remove(&id.0) else {
            return; // cancelled
        };
        let c = chan(p.server, p.dir);
        // Fold the per-op seek in as capacity-bytes, the same trick the
        // fabric uses for hop latency: a zero-byte stream still takes
        // one seek.
        let seek_bytes = self.config.seek_ms / 1_000.0 * self.capacity(p.dir);
        self.active.insert(
            id.0,
            Stream {
                tag: p.tag,
                bytes: p.bytes,
                started: now,
                chan: c,
            },
        );
        self.channels[c as usize].streams.push(id.0);
        let per_server = &mut self.streams_per_server[p.server.0 as usize];
        *per_server += 1;
        if *per_server == 1 {
            self.active_servers.insert(p.server.0);
        }
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        if let Some(obs) = &self.obs {
            self.rec.state_enter(obs.states, id.0, "running", now);
        }
        let capacity = self.secondary_capacity(p.server, p.dir);
        let stats = &mut self.stats;
        let g = self.groups.entry(c).or_insert_with(|| {
            stats.analytic_channels += 1;
            ChanGroup {
                engine: FairShare::new(capacity, now),
                event: None,
            }
        });
        g.engine.insert(now, id.0, p.bytes as f64 + seek_bytes);
        let (n, rate) = (g.engine.n(), g.engine.rate());
        if rate == 0.0 {
            self.park_obs(id.0, now);
        }
        self.alloc_pass_obs(n, now);
        self.repredict_group(c, now);
    }

    /// Serves a channel's completion event in O(log n): retire the
    /// engine's finisher, book the completion, re-predict the channel's
    /// next event.
    fn on_complete(&mut self, id: StreamId, now: SimTime) {
        let Some(stream) = self.active.remove(&id.0) else {
            // Defensive: superseded events are cancelled at re-predict
            // time, so a stale fire indicates a missed cancellation.
            self.stats.stale_events_dropped += 1;
            return;
        };
        let c = stream.chan;
        let g = self
            .groups
            .get_mut(&c)
            .expect("occupied channel has an engine");
        // This is the group's one live event firing; superseded group
        // events are cancelled at re-predict time, never left to fire.
        g.event = None;
        let removed = g.engine.remove(now, id.0);
        debug_assert!(removed.is_some(), "completed stream not enrolled");
        self.stats.analytic_events += 1;
        let list = &mut self.channels[c as usize].streams;
        let pos = list.iter().position(|&s| s == id.0).expect("on channel");
        list.remove(pos);
        let (server, dir) = unchan(c);
        let per_server = &mut self.streams_per_server[server.0 as usize];
        *per_server -= 1;
        if *per_server == 0 {
            self.active_servers.remove(&server.0);
        }
        self.stats.completed += 1;
        self.stats.bytes_moved += stream.bytes;
        if let Some(obs) = &self.obs {
            self.rec
                .observe(obs.stream_secs, now.since(stream.started).as_secs_f64());
            self.rec.state_exit(obs.states, id.0, now);
            self.rec.span_args(
                obs.track,
                "stream",
                stream.started,
                now,
                &[("bytes", stream.bytes as f64)],
            );
        }
        self.completions.push(StreamCompletion {
            stream: id,
            at: now,
            tag: stream.tag,
            bytes: stream.bytes,
            started: stream.started,
            server,
            dir,
        });
        let left = self.channels[c as usize].streams.len();
        if left == 0 {
            self.groups.remove(&c);
        } else {
            self.alloc_pass_obs(left, now);
            self.repredict_group(c, now);
        }
    }

    /// Brings a channel current after a capacity change (throttle,
    /// brown-out) or an abort: refreshes the engine's capacity, records
    /// park/rescue transitions, and re-predicts the channel's single
    /// completion event. Retires the engine of a channel left empty.
    fn sync_channel(&mut self, c: u32, now: SimTime) {
        if self.channels[c as usize].streams.is_empty() {
            if let Some(mut g) = self.groups.remove(&c) {
                if let Some(key) = g.event.take() {
                    if self.queue.cancel(key) {
                        self.stats.stale_events_dropped += 1;
                    }
                }
            }
            return;
        }
        let (server, dir) = unchan(c);
        let cap = self.secondary_capacity(server, dir);
        let g = self
            .groups
            .get_mut(&c)
            .expect("occupied channel has an engine");
        let was = g.engine.rate();
        g.engine.set_capacity(now, cap);
        let rate = g.engine.rate();
        let n = g.engine.n();
        if (was == 0.0) != (rate == 0.0) {
            let ids: Vec<u64> = g.engine.members().map(|(id, _)| id).collect();
            for id in ids {
                if rate == 0.0 {
                    self.park_obs(id, now);
                } else if let Some(obs) = &self.obs {
                    self.rec.state_enter(obs.states, id, "running", now);
                }
            }
        }
        self.alloc_pass_obs(n, now);
        self.repredict_group(c, now);
    }

    /// Re-predicts a channel's single completion event from the
    /// engine's next finisher. A parked channel (zero rate) keeps one
    /// far-future [`PARKED`] event on its lowest-id member, so
    /// [`DiskPool::next_event_time`] stays `Some` while any stream is in
    /// flight, until the capacity-restoring re-share rescues it
    /// (cancelling the placeholder like any superseded prediction).
    fn repredict_group(&mut self, c: u32, now: SimTime) {
        let g = self.groups.get_mut(&c).expect("group exists");
        if let Some(key) = g.event.take() {
            if self.queue.cancel(key) {
                self.stats.stale_events_dropped += 1;
            }
        }
        let (top, eta) = match g.engine.peek(now) {
            Some((top, eta)) => (top, SimDuration::from_secs_f64(eta)),
            None => match g.engine.members().map(|(id, _)| id).min() {
                Some(top) => (top, PARKED),
                None => return,
            },
        };
        g.event = Some(
            self.queue
                .push_keyed(now + eta, DiskEvent::Complete(StreamId(top))),
        );
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
    }

    /// Counts one allocation pass ([`DiskStats::reshares`]) and samples
    /// the pass's observability gauges.
    fn alloc_pass_obs(&mut self, n_streams: usize, now: SimTime) {
        self.stats.reshares += 1;
        if let Some(obs) = &self.obs {
            self.rec.observe(obs.reshare_streams, n_streams as f64);
            self.rec
                .gauge_at(obs.queue_len, now, self.queue.len() as f64);
            self.rec
                .gauge_at(obs.tombstones, now, self.queue.n_stale() as f64);
        }
    }

    /// Records one stream's throttle park (counter, instant, state).
    fn park_obs(&mut self, id: u64, now: SimTime) {
        if let Some(obs) = &self.obs {
            self.rec.add(obs.parks, 1);
            self.rec.instant(obs.track, "park", now);
            self.rec.state_enter(obs.states, id, "throttle_parked", now);
        }
    }
}

fn chan(server: ServerId, dir: IoDir) -> u32 {
    server.0 * 2
        + match dir {
            IoDir::Read => 0,
            IoDir::Write => 1,
        }
}

fn unchan(c: u32) -> (ServerId, IoDir) {
    (
        ServerId(c / 2),
        if c.is_multiple_of(2) {
            IoDir::Read
        } else {
            IoDir::Write
        },
    )
}

/// The workspace's independent max-min oracle (plain `std` code that
/// shares nothing with this module).
#[cfg(test)]
#[path = "../../../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;
    const S0: ServerId = ServerId(0);
    const S1: ServerId = ServerId(1);

    fn pool() -> DiskPool {
        DiskPool::new(4, &DiskConfig::datacenter())
    }

    /// The oracle's resource index of a channel.
    fn channel_index(server: ServerId, dir: IoDir) -> usize {
        2 * server.0 as usize + usize::from(dir == IoDir::Write)
    }

    /// Every channel's secondary capacity, as the oracle's resources.
    fn capacities(p: &DiskPool) -> Vec<f64> {
        (0..p.n_disks() as u32)
            .flat_map(|s| [IoDir::Read, IoDir::Write].map(|d| p.secondary_capacity(ServerId(s), d)))
            .collect()
    }

    /// Checks the pool against the max-min oracle: every stream runs at
    /// bitwise the test's own `secondary_capacity / n` for its channel,
    /// and the allocation passes the certificate over every channel.
    fn check_against_oracle(p: &DiskPool) {
        let mut paths = Vec::new();
        let mut rates = Vec::new();
        for id in p.active_stream_ids() {
            let (server, dir) = p.stream_channel(id).unwrap();
            let rate = p.stream_rate(id).unwrap();
            let split = p.secondary_capacity(server, dir) / p.channel_streams(server, dir) as f64;
            assert_eq!(rate.to_bits(), split.to_bits(), "{id:?}: {rate} vs {split}");
            paths.push(vec![channel_index(server, dir)]);
            rates.push(rate);
        }
        oracle::certify(&capacities(p), &paths, &rates).unwrap();
    }

    /// Pumps `p` event by event up to `until`, checking it against the
    /// oracle after every event.
    fn pump_checked(p: &mut DiskPool, until: SimTime) -> Vec<StreamCompletion> {
        let mut done = Vec::new();
        while let Some(t) = p.next_event_time().filter(|&t| t <= until) {
            done.extend(p.pump(t));
            check_against_oracle(p);
        }
        done
    }

    /// The oracle replay's steps for a change of `server`'s capacity.
    fn capacity_steps(p: &DiskPool, server: ServerId, at: u64) -> Vec<(u64, oracle::Step)> {
        [IoDir::Read, IoDir::Write]
            .map(|dir| {
                let resource = channel_index(server, dir);
                let capacity = p.secondary_capacity(server, dir);
                let abort = false;
                (
                    at,
                    oracle::Step::Capacity {
                        resource,
                        capacity,
                        abort,
                    },
                )
            })
            .to_vec()
    }

    /// Schedules a stream and returns the oracle replay's start step.
    fn start(
        p: &mut DiskPool,
        at: u64,
        server: ServerId,
        dir: IoDir,
        bytes: u64,
        tag: u64,
    ) -> (u64, oracle::Step) {
        p.schedule_stream(SimTime::from_millis(at), server, dir, bytes, tag);
        let work = bytes as f64 + p.config().seek_ms / 1_000.0 * p.capacity(dir);
        let path = vec![channel_index(server, dir)];
        (
            at,
            oracle::Step::Start {
                id: tag,
                work,
                path,
            },
        )
    }

    #[test]
    fn single_read_runs_at_channel_speed() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        // 160 MB at 160 MB/s = 1 s, plus the 8 ms seek.
        let secs = done[0].at.since(done[0].started).as_secs_f64();
        assert!((1.0..1.05).contains(&secs), "single read took {secs}s");
        assert_eq!(done[0].server, S0);
        assert_eq!(done[0].dir, IoDir::Read);
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 120 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 120 * MB, 2);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "read should finish first");
        assert!(done[1].at > done[0].at);
    }

    #[test]
    fn concurrent_streams_share_a_channel_fairly() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 2);
        p.pump(SimTime::ZERO);
        let r1 = p.stream_rate(StreamId(0)).unwrap();
        let r2 = p.stream_rate(StreamId(1)).unwrap();
        assert!((r1 - r2).abs() < 1.0, "unequal shares {r1} vs {r2}");
        let cap = p.capacity(IoDir::Read);
        assert!((r1 + r2 - cap).abs() / cap < 1e-9, "channel not saturated");
        // Sharing doubles the transfer time vs. running alone.
        let done = p.drain();
        let secs = done[1].at.since(done[1].started).as_secs_f64();
        assert!((1.0..1.1).contains(&secs), "shared pair took {secs}s");
    }

    #[test]
    fn different_disks_do_not_interact() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 80 * MB, 2);
        p.pump(SimTime::ZERO);
        let cap = p.capacity(IoDir::Read);
        for id in [0, 1] {
            let r = p.stream_rate(StreamId(id)).unwrap();
            assert!((r - cap).abs() / cap < 1e-9, "stream {id} throttled to {r}");
        }
        p.drain();
    }

    #[test]
    fn primary_demand_shrinks_secondary_bandwidth() {
        let mut p = pool();
        // Constant-class tenant at 50% CPU: demand = 0.05 + 0.5*0.5 =
        // 0.3 of the channel, below the 0.5 throttle threshold, so the
        // stream gets the remaining 70%.
        p.set_primary_util(SimTime::ZERO, S0, 0.5);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.pump(SimTime::ZERO);
        let r = p.stream_rate(StreamId(0)).unwrap();
        let expect = p.capacity(IoDir::Read) * 0.7;
        assert!((r - expect).abs() / expect < 1e-9, "rate {r} vs {expect}");
        p.drain();
    }

    #[test]
    fn throttle_parks_and_rescues_streams() {
        let mut p = pool();
        // Constant-class at 95% CPU: demand 0.525 >= 0.5 threshold, so
        // the paper policy pauses secondaries outright.
        p.set_primary_util(SimTime::ZERO, S0, 0.95);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 7);
        let early = p.pump(SimTime::from_secs(600));
        assert!(early.is_empty(), "stream finished while throttled");
        assert!(p.is_throttled(S0));
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0));
        // Primary backs off ten minutes in; the stream completes ~0.1 s
        // later (16 MB at 160 MB/s against an idle-demand disk).
        p.set_primary_util(SimTime::from_secs(600), S0, 0.0);
        let done = p.pump(SimTime::from_secs(700));
        assert_eq!(done.len(), 1);
        let at = done[0].at.as_secs_f64();
        assert!((600.0..601.0).contains(&at), "rescued at {at}s");
    }

    /// A fully parked channel keeps a far-future placeholder event:
    /// `next_event_time()` must stay `Some` while any stream is in
    /// flight (heartbeat replay in `harvest_dfs` drives the pool off
    /// `next_event_time` and relies on it).
    #[test]
    fn parked_analytic_channel_keeps_a_next_event() {
        let mut p = pool();
        p.set_primary_util(SimTime::ZERO, S0, 0.95);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 7);
        p.pump(SimTime::from_secs(60));
        assert!(p.stats().analytic_channels > 0, "channel never promoted");
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0), "not parked");
        assert!(
            p.next_event_time().is_some(),
            "parked analytic channel dropped its placeholder event"
        );
        // The rescue cancels the placeholder and completes the stream.
        p.set_primary_util(SimTime::from_secs(600), S0, 0.0);
        let done = p.pump(SimTime::from_secs(700));
        assert_eq!(done.len(), 1);
        let at = done[0].at.as_secs_f64();
        assert!((600.0..601.0).contains(&at), "rescued at {at}s");
    }

    #[test]
    fn departures_release_bandwidth() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 2);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "short stream finishes first");
        let long_secs = done[1].at.as_secs_f64();
        // Alone: ~1.0 s. Always halved: ~2.0 s. With the short stream
        // departing around 0.2 s the long one lands near 1.1 s.
        assert!(
            (1.0..1.6).contains(&long_secs),
            "long stream took {long_secs}s — bandwidth not released?"
        );
    }

    #[test]
    fn pump_respects_the_horizon() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1); // ~1 s
        let early = p.pump(SimTime::from_millis(500));
        assert!(early.is_empty(), "stream finished early: {early:?}");
        assert_eq!(p.n_active(), 1);
        let late = p.pump(SimTime::from_secs(10));
        assert_eq!(late.len(), 1);
        assert_eq!(p.n_active(), 0);
    }

    #[test]
    fn staggered_starts_replay_deterministically() {
        let run = || {
            let mut p = DiskPool::new(8, &DiskConfig::datacenter());
            for i in 0..30u64 {
                p.schedule_stream(
                    SimTime::from_millis(i * 37),
                    ServerId((i % 8) as u32),
                    if i % 3 == 0 {
                        IoDir::Write
                    } else {
                        IoDir::Read
                    },
                    (i + 1) * 4 * MB,
                    i,
                );
            }
            p.set_primary_util(SimTime::ZERO, ServerId(2), 0.4);
            p.drain()
                .into_iter()
                .map(|c| (c.tag, c.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_the_population() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 10 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 10 * MB, 2);
        p.drain();
        let s = p.stats();
        assert_eq!(s.completed, 2);
        assert_eq!(s.bytes_moved, 20 * MB);
        assert_eq!(s.peak_active, 2);
        // Two starts and the first completion each re-divide the (still
        // occupied) channel; the last completion leaves it empty, which
        // does not count as an allocation pass.
        assert!(s.reshares >= 3);
        // The second stream's arrival re-predicted the first's
        // completion, which cancelled (dropped) the superseded event.
        assert!(s.stale_events_dropped >= 1);
        assert!(s.peak_queue_len >= 2);
    }

    /// An event on one disk leaves other disks' channels alone: their
    /// completion event is neither cancelled nor re-pushed
    /// (`stale_events_dropped` does not move) and their rate holds.
    #[test]
    fn other_channels_keep_their_event() {
        let mut p = pool();
        let bystander = p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let dropped = p.stats().stale_events_dropped;
        let rate = p.stream_rate(bystander);
        let next = p.next_event_time();
        // Unrelated churn on another disk starts and finishes.
        p.schedule_stream(SimTime::from_millis(10), S1, IoDir::Write, 4 * MB, 2);
        p.pump(SimTime::from_millis(500));
        assert_eq!(p.stats().completed, 1, "unrelated stream should be done");
        assert_eq!(
            p.stats().stale_events_dropped,
            dropped,
            "an untouched channel's event was cancelled"
        );
        assert_eq!(p.stream_rate(bystander), rate);
        assert_eq!(p.next_event_time(), next, "the bystander's event moved");
        // Churn on the *same* channel re-predicts it.
        p.schedule_stream(SimTime::from_millis(600), S0, IoDir::Read, 4 * MB, 3);
        p.pump(SimTime::from_millis(600));
        assert!(p.stats().stale_events_dropped > dropped);
        p.drain();
    }

    /// The active-server index tracks stream starts and completions and
    /// iterates in ascending server order.
    #[test]
    fn active_server_index_tracks_streams() {
        let mut p = pool();
        assert_eq!(p.n_active_servers(), 0);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 160 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 160 * MB, 2);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 4 * MB, 3);
        p.pump(SimTime::ZERO);
        let active: Vec<ServerId> = p.active_servers().collect();
        assert_eq!(active, vec![S0, S1], "index not ascending / complete");
        // The short read finishes; S0 still has its write in flight.
        p.pump(SimTime::from_millis(500));
        assert_eq!(p.active_servers().collect::<Vec<_>>(), vec![S0, S1]);
        p.drain();
        assert_eq!(p.n_active_servers(), 0, "drained pool still indexed");
    }

    /// A bitwise-unchanged utilization replay is a no-op: no re-share
    /// runs and the in-flight stream keeps its completion event.
    #[test]
    fn unchanged_util_early_outs() {
        let mut p = pool();
        p.set_primary_util(SimTime::ZERO, S0, 0.4);
        let s = p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let reshares = p.stats().reshares;
        let dropped = p.stats().stale_events_dropped;
        let rate = p.stream_rate(s).unwrap();
        // Replaying the same sample must not disturb the stream.
        p.set_primary_util(SimTime::from_millis(100), S0, 0.4);
        assert_eq!(p.stats().reshares, reshares, "re-share ran needlessly");
        assert_eq!(
            p.stats().stale_events_dropped,
            dropped,
            "stream was re-predicted"
        );
        assert_eq!(p.stream_rate(s), Some(rate));
        // A moved sample still applies.
        p.set_primary_util(SimTime::from_millis(100), S0, 0.6);
        assert_eq!(
            p.stats().reshares,
            reshares + 1,
            "one pass, for the occupied channel"
        );
        assert!(p.stats().stale_events_dropped > dropped);
        assert!(p.stream_rate(s).unwrap() < rate);
        p.set_primary_util(SimTime::from_millis(200), S0, 0.0);
        p.drain();
    }

    /// Recording is pure observation: the completion schedule and the
    /// stats struct are bitwise identical with a recorder attached, and
    /// throttle parks are counted.
    #[test]
    fn recording_does_not_change_the_trajectory() {
        let run = |record: bool| {
            let mut p = DiskPool::new(8, &DiskConfig::datacenter());
            if record {
                p.set_recorder(Recorder::new("disk-test"));
            }
            // Throttle S0 so its stream parks, then rescue it.
            p.set_primary_util(SimTime::ZERO, S0, 0.95);
            for i in 0..30u64 {
                p.schedule_stream(
                    SimTime::from_millis(i * 37),
                    ServerId((i % 8) as u32),
                    if i % 3 == 0 {
                        IoDir::Write
                    } else {
                        IoDir::Read
                    },
                    (i + 1) * 4 * MB,
                    i,
                );
            }
            p.pump(SimTime::from_secs(60));
            p.set_primary_util(SimTime::from_secs(60), S0, 0.0);
            let ends: Vec<(u64, SimTime)> = p.drain().into_iter().map(|c| (c.tag, c.at)).collect();
            let stats = *p.stats();
            (ends, stats, p.take_recorder())
        };
        let (ends_off, stats_off, _) = run(false);
        let (ends_on, stats_on, rec) = run(true);
        assert_eq!(ends_off, ends_on, "recording changed the schedule");
        assert_eq!(stats_off, stats_on, "recording changed the stats");
        assert_eq!(
            rec.counter_value("disk/completed"),
            Some(stats_on.completed)
        );
        assert_eq!(rec.counter_value("disk/reshares"), Some(stats_on.reshares));
        assert_eq!(
            rec.counter_value("disk/analytic_events"),
            Some(stats_on.analytic_events)
        );
        assert!(
            rec.counter_value("disk/parks").unwrap_or(0) >= 1,
            "the throttled stream should have parked at least once"
        );
    }

    #[test]
    fn degrade_slows_and_restores_streams() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let healthy = p.stream_rate(StreamId(0)).unwrap();
        assert_eq!(p.degrade_factor(S0), 1.0);
        p.set_degrade(SimTime::from_millis(100), S0, 0.5);
        let r = p.stream_rate(StreamId(0)).unwrap();
        assert!(
            (r - healthy * 0.5).abs() / healthy < 1e-9,
            "browned-out rate {r} vs healthy {healthy}"
        );
        // Full brown-out parks; restore rescues.
        p.set_degrade(SimTime::from_millis(200), S0, 0.0);
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0));
        assert!(p.pump(SimTime::from_secs(3_600)).is_empty());
        p.set_degrade(SimTime::from_secs(3_600), S0, 1.0);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        assert!(done[0].at >= SimTime::from_secs(3_600));
    }

    #[test]
    fn fail_server_aborts_both_channels_and_pending() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 160 * MB, 2);
        p.schedule_stream(SimTime::from_secs(9), S0, IoDir::Read, MB, 3);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 16 * MB, 4);
        p.pump(SimTime::ZERO);
        let mut tags = p.fail_server(SimTime::from_millis(50), S0);
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(p.stats().streams_aborted, 3);
        assert_eq!(p.n_active(), 1, "the bystander on S1 survives");
        // The replaced disk accepts new streams.
        p.schedule_stream(SimTime::from_secs(10), S0, IoDir::Read, MB, 5);
        let done: Vec<u64> = p.drain().into_iter().map(|c| c.tag).collect();
        assert_eq!(done, vec![4, 5]);
    }

    #[test]
    fn abort_by_tag_leaves_other_streams_alone() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 9);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Write, 80 * MB, 9);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 8 * MB, 2);
        p.pump(SimTime::ZERO);
        let dead: std::collections::HashSet<u64> = [9].into_iter().collect();
        assert_eq!(p.abort_streams_with_tags(SimTime::from_millis(1), &dead), 2);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        // The survivor sped up once its channel-mate aborted.
        let secs = done[0].at.as_secs_f64();
        assert!(secs < 0.2, "survivor took {secs}s — bandwidth not released");
    }

    /// Channel-scoped re-sharing matches the global max-min oracle:
    /// after every event, every stream on *every* channel runs at
    /// bitwise the test's own equal split, and the completion schedule
    /// is the oracle's fluid replay to within a millisecond (the full
    /// randomized oracle lives in tests/properties.rs).
    #[test]
    fn channel_scope_matches_global_scope() {
        let mut p = DiskPool::new(8, &DiskConfig::datacenter());
        let initial = capacities(&p);
        p.set_primary_util(SimTime::ZERO, ServerId(2), 0.4);
        let mut steps = capacity_steps(&p, ServerId(2), 0);
        for i in 0..30u64 {
            let dir = if i % 3 == 0 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            let server = ServerId((i % 8) as u32);
            steps.push(start(&mut p, i * 37, server, dir, (i + 1) * 4 * MB, i));
        }
        let done = pump_checked(&mut p, SimTime::MAX);
        let replay = oracle::replay(&initial, &steps);
        assert_eq!(done.len(), 30);
        let mut ends: Vec<(u64, u64)> = done.iter().map(|c| (c.tag, c.at.as_millis())).collect();
        ends.sort_unstable();
        for ((tag, at), (id, end)) in ends.iter().zip(&replay) {
            assert_eq!(tag, id);
            let oracle::End::Done(want) = *end else {
                panic!("stream {id} aborted in the replay")
            };
            assert!(
                at.abs_diff(want) <= 1,
                "stream {tag} at {at} ms, replay {want} ms"
            );
        }
    }

    /// The analytic channel engine matches an equal-split filling
    /// replay of the same storm exactly: uniform rates bitwise after
    /// every event, and the completion schedule to the millisecond —
    /// through starts, finishes, a mid-storm brown-out, a fully parked
    /// channel, and its rescue. The replay is the oracle's, fed the
    /// capacities the pool reports after each change.
    #[test]
    fn analytic_matches_filling_exactly() {
        let mut p = DiskPool::new(8, &DiskConfig::datacenter());
        let initial = capacities(&p);
        // Server 3 is fully throttled before its streams start.
        p.set_primary_util(SimTime::ZERO, ServerId(3), 0.95);
        let mut steps = capacity_steps(&p, ServerId(3), 0);
        for i in 0..40u64 {
            let dir = if i % 3 == 0 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            let server = ServerId((i % 8) as u32);
            steps.push(start(&mut p, i * 61, server, dir, (i % 9 + 1) * 8 * MB, i));
        }
        let mut done = pump_checked(&mut p, SimTime::from_millis(399));
        p.set_degrade(SimTime::from_millis(400), S0, 0.5);
        steps.extend(capacity_steps(&p, S0, 400));
        check_against_oracle(&p);
        done.extend(pump_checked(&mut p, SimTime::from_millis(1_999)));
        assert_eq!(p.stream_rate(StreamId(3)), Some(0.0), "server 3 not parked");
        p.set_primary_util(SimTime::from_secs(2), ServerId(3), 0.0);
        steps.extend(capacity_steps(&p, ServerId(3), 2_000));
        check_against_oracle(&p);
        done.extend(pump_checked(&mut p, SimTime::MAX));
        steps.sort_by_key(|s| s.0);
        let mut ends: Vec<(u64, oracle::End)> = done
            .iter()
            .map(|c| (c.tag, oracle::End::Done(c.at.as_millis())))
            .collect();
        ends.sort_by_key(|e| e.0);
        assert_eq!(
            ends,
            oracle::replay(&initial, &steps),
            "completion schedules diverged"
        );
        assert_eq!(p.stats().completed, 40, "streams lost");
    }

    /// Fault interplay regression: a disk brown-out to zero mid-storm
    /// (then a degraded replacement) is a capacity change the channel
    /// engines absorb in place — every rate stays the oracle's equal
    /// split, and no stream is lost or double-completed.
    #[test]
    fn degrade_mid_storm_loses_nothing() {
        let mut p = DiskPool::new(4, &DiskConfig::datacenter());
        let mut tags: Vec<u64> = Vec::new();
        for i in 0..24u64 {
            p.schedule_stream(
                SimTime::from_millis(i * 31),
                ServerId((i % 4) as u32),
                if i % 2 == 0 {
                    IoDir::Read
                } else {
                    IoDir::Write
                },
                (i % 5 + 1) * 16 * MB,
                i,
            );
        }
        let mut pump = |p: &mut DiskPool, until: SimTime| {
            tags.extend(pump_checked(p, until).iter().map(|c| c.tag));
        };
        pump(&mut p, SimTime::from_millis(799));
        p.set_degrade(SimTime::from_millis(800), S1, 0.0);
        check_against_oracle(&p);
        pump(&mut p, SimTime::from_millis(29_999));
        assert!(p.n_active() > 0, "S1 streams should be parked");
        p.set_degrade(SimTime::from_secs(30), S1, 0.7);
        check_against_oracle(&p);
        pump(&mut p, SimTime::MAX);
        tags.sort_unstable();
        assert_eq!(tags, (0..24).collect::<Vec<u64>>(), "lost or doubled");
        assert_eq!(p.stats().completed, 24);
        assert!(p.stats().analytic_events > 0, "fast path never served");
    }

    /// The engine counters track the channels: one engine per occupied
    /// channel, reopened when a drained channel refills, and one
    /// O(log n) completion per stream.
    #[test]
    fn analytic_counters_track_the_fast_path() {
        let mut p = pool();
        for tag in 0..3u64 {
            p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 8 * MB, tag);
        }
        p.drain();
        assert_eq!(p.stats().analytic_channels, 1, "one channel, one group");
        assert_eq!(p.stats().analytic_events, 3);
        p.schedule_stream(SimTime::from_secs(1), S0, IoDir::Read, 8 * MB, 3);
        p.schedule_stream(SimTime::from_secs(1), S0, IoDir::Write, 8 * MB, 4);
        p.drain();
        assert_eq!(p.stats().analytic_channels, 3, "refill and a new channel");
        assert_eq!(p.stats().analytic_events, 5);
    }
}
