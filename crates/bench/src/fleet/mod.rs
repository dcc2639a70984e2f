//! Fleet-scale runtime: N provers measured, collected and verified end to
//! end on the host, with the wall-clock time of each phase.
//!
//! The paper's evaluation prices a *single* prover (Figures 6/8, Table 2).
//! This module drives N provers through their measurement schedules and
//! periodic collections end to end — the same `Prover`/`Verifier` hot
//! paths the protocol tests use, with the precomputed
//! [`erasmus_crypto::KeyedMac`] schedules derived once per device — and
//! reports the run's totals, ledgers and phase walls.
//!
//! The fleet is cut into balanced, contiguous **shards** of at most 512
//! devices (the private `shard` module), at least one per worker. Scoped
//! `std::thread` workers claim shards in turn: a worker provisions its
//! shard's `(Prover, Verifier)` pairs, owns them outright, drives them
//! through the shard's own [`erasmus_sim::Engine`] as one event-driven
//! timeline and drops them before it claims the next shard, so live
//! device state is bounded by the pool, not by the fleet, and a worker
//! that finishes early takes more shards instead of idling.
//! A device holds only what differs between devices. Every device boots
//! the same blank application image, so each shard builds that image once
//! and shares it copy-on-write among its provers
//! ([`erasmus_core::Prover::with_app_image`]), and hashes it once for its
//! verifiers' reference digest. Every measurement still hashes its own
//! device's bytes.
//! Each stagger group of the [`erasmus_swarm::StaggeredSchedule`] (the
//! Section 6 availability argument) ticks once per `T_M` on its own
//! phase offset: the tick measures the group's devices and, at the end of
//! a round, collects them. Collection responses travel through a
//! deterministic [`erasmus_sim::NetworkModel`] (latency, jitter, loss — all
//! drawn per device from the run's seed); responses arriving at the same
//! instant form one burst that is serialized into framed batch buffers
//! ([`erasmus_core::encode_collection_batch`]'s wire format) and folded
//! into the shard's [`erasmus_core::VerifierHub`] straight off the bytes
//! via [`erasmus_core::VerifierHub::ingest_sequenced_frame`]; on-demand requests
//! (ERASMUS+OD, Figure 4) and device churn interleave with the schedule on
//! the same timeline. Because every device-hop draw is keyed by the
//! *global* device index, totals and the root digest are invariant under
//! the thread count and the partition, lossy runs included, but only while
//! no batch frame exhausts its retry budget. The frame hop draws per shard
//! (`FRAME_STREAM ^ base` in `Shard::flush_batch`), so its own counters
//! change with the partition, and an exhausted frame drops its responses
//! (`frame_lost_responses`), which moves the totals and the root digest
//! with it too (ROADMAP item 10). `tests/fleet_determinism.rs` pins the
//! lossless totals against a serial oracle that calls the protocol
//! directly, with no engine and no codec.
//!
//! Every hash of a run is a scalar `erasmus-crypto` call over one message,
//! one device at a time: each shard instantiates the key-derivation
//! generator once and clones it per device
//! ([`erasmus_hw::DeviceKey::derive_range`]), each measurement hashes one
//! memory image, each frame record is verified and folded into its hub
//! history in turn, and each shard hub re-verifies its devices' chains on
//! its worker ([`erasmus_core::VerifierHub::verified_chains`]) before the
//! hub goes with its shard.
//!
//! Injected faults ride the same deterministic draws: duplicated frames
//! are deduplicated by the hubs' per-flow sequence windows, reordered
//! deliveries pick up extra in-flight delay, corrupted frames hit the
//! strict decoder's and the MAC verifier's live rejection paths, and — with
//! [`FleetConfig::retries`] > 0 — every drop is retransmitted under an
//! exponential-backoff ARQ loop (100 ms, doubling per attempt). Scheduled
//! [`FleetConfig::hub_crashes`] serialize each shard hub to its wire-format
//! snapshot ([`erasmus_core::encode_hub_snapshot`]), drop it and restore
//! it from the bytes mid-run.
//!
//! Per-device verifier state is governed by [`FleetConfig::history`]: a
//! ring of [`erasmus_core::DEFAULT_RING_CAPACITY`] entries unless set
//! otherwise caps every device at a fixed-size retained window plus a
//! rollup summary and a PCR-style hash chain over the evicted entries, so
//! a shard hub's resident footprint is O(devices × capacity) regardless of
//! run length.
//! Lifetime totals and chain heads do not depend on the capacity as long as
//! it covers each device's reordering window.
//!
//! No hub outlives its shard. Like a sub-verifier of the swarm setting
//! (Section 6), each worker reads off its shard hub everything the fleet
//! report needs (its history and health counts, and one fixed-size leaf
//! aggregate per device) and drops the hub with the shard's devices.
//! The shard ledgers fold in shard order into one [`FleetReport`] that
//! keeps the per-shard breakdown, and the leaves, concatenated in device
//! order, build the [`erasmus_swarm::AggregationTree`] that folds every
//! chain head into one root digest ([`AggregationReport`]). Shards keep
//! counters, not verdicts: whether a device is flagged is decided once, in
//! `erasmus-core`'s [`erasmus_core::DeviceHistory`], and read off each
//! shard hub on its worker as a count. The repository's fleet benchmark
//! (`BENCHMARK.json`) times [`run_threaded`] on pinned workloads and gates
//! every rep on its totals; `tests/fleet_determinism.rs` checks the
//! report's ledger laws on every run it makes.

pub mod lanes;
mod shard;

pub use shard::ShardReport;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use erasmus_core::{DeviceHistory, HistoryEntry, HistoryMode};
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::{NetworkConfig, QueueStats, SimDuration, SimRng, SimTime};
use erasmus_swarm::{digest_hex, AggregationTree, StaggeredSchedule, SubtreeAggregate};

use shard::Shard;

/// Seed used when none is given: any seed reproduces identical lossless
/// runs, and a lossy run replays exactly from its seed.
pub const DEFAULT_SEED: u64 = 42;

/// Stream salt for the fleet-wide on-demand plan.
const ON_DEMAND_STREAM: u64 = 0x6f6e_6465_6d61_6e64;

/// Parameters of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated prover devices.
    pub provers: usize,
    /// Scheduled self-measurements each prover takes per collection round.
    pub measurements_per_round: usize,
    /// Collection rounds: after each, every device's buffer is collected
    /// and (if the response survives the network) verified.
    pub rounds: usize,
    /// Application-memory size hashed by every measurement, in bytes.
    pub memory_bytes: usize,
    /// Phase groups for the staggered measurement schedule: devices are
    /// spread over this many offsets within `T_M`, so at most
    /// `⌈provers / stagger_groups⌉` devices measure at the same simulated
    /// instant (Section 6 availability). Clamped to at least 1.
    pub stagger_groups: usize,
    /// MAC construction provisioned on every device.
    pub algorithm: MacAlgorithm,
    /// Seed for every deterministic draw of the run (network fates, churn
    /// plan, on-demand targeting). Kept in [`FleetReport::config`], so a
    /// report names the seed that replays it.
    pub seed: u64,
    /// Link model between devices and the verifier side. The ideal default
    /// reproduces lossless, zero-latency behaviour bit-for-bit.
    pub network: NetworkConfig,
    /// Probability that a device leaves the fleet once mid-run and rejoins
    /// later (losing the measurements and collections in between).
    pub churn: f64,
    /// ARQ retransmission budget per collection response and per batch
    /// frame: a dropped or corrupted transmission is retried up to this
    /// many times, after a backoff of 100 ms that doubles per attempt. 0
    /// disables retransmission.
    pub retries: u32,
    /// Scheduled verifier-hub crash/restart cycles: at each of these
    /// instants, spread evenly over the run, every shard's hub state is
    /// serialized to its wire-format snapshot, dropped, and restored from
    /// the bytes alone. A run restores `shards × hub_crashes` hubs
    /// ([`FleetReport::hub_crashes`]).
    pub hub_crashes: usize,
    /// Fleet-wide count of authenticated on-demand requests (ERASMUS+OD)
    /// injected at deterministic instants during the run.
    pub on_demand: usize,
    /// Group width bound for the fleet benchmark's traced replica of this
    /// runtime, its only reader (see [`lanes`]). [`run_threaded`] ignores
    /// it and measures every device through the scalar path; ROADMAP item
    /// 2 deletes it with the replica.
    pub lanes: usize,
    /// Per-device verifier-history ring: resident state is capped at
    /// O(capacity) per device, evicted entries are sealed into the hash
    /// chain. Defaults to [`erasmus_core::DEFAULT_RING_CAPACITY`]. Lifetime
    /// totals (`history_entries`, verdict counts) and chain heads do not
    /// depend on the capacity whenever it covers each device's in-flight
    /// reordering window.
    pub history: HistoryMode,
}

impl FleetConfig {
    /// A lossless, churn-free configuration with the given shape — the
    /// baseline every scenario knob perturbs.
    pub fn new(
        provers: usize,
        measurements_per_round: usize,
        rounds: usize,
        memory_bytes: usize,
        stagger_groups: usize,
        algorithm: MacAlgorithm,
    ) -> Self {
        Self {
            provers,
            measurements_per_round,
            rounds,
            memory_bytes,
            stagger_groups,
            algorithm,
            seed: DEFAULT_SEED,
            network: NetworkConfig::IDEAL,
            churn: 0.0,
            retries: 0,
            hub_crashes: 0,
            on_demand: 0,
            lanes: 1,
            history: HistoryMode::default(),
        }
    }

    /// Small run: ≥ 1,000 provers but only a few schedule ticks (the fleet
    /// benchmark's warm-up fleet).
    pub fn quick(algorithm: MacAlgorithm) -> Self {
        Self::new(1_000, 4, 2, 1024, 4, algorithm)
    }

    /// Total measurements the schedule will produce when every device stays
    /// online (churn removes some; on-demand requests add fresh ones).
    pub fn total_measurements(&self) -> u64 {
        (self.provers * self.measurements_per_round * self.rounds) as u64
    }

    /// Total scheduled collection attempts.
    pub fn total_collection_attempts(&self) -> u64 {
        (self.provers * self.rounds) as u64
    }

    /// The staggered schedule the run drives its provers with.
    pub fn schedule(&self) -> StaggeredSchedule {
        StaggeredSchedule::new(
            self.provers,
            self.stagger_groups.max(1),
            MEASUREMENT_INTERVAL,
        )
    }
}

/// The fleet-wide on-demand plan: `(global device, issue instant)` pairs,
/// sorted by time. Drawn from the run seed alone, before the fleet is
/// partitioned, so every shard (at any thread count) agrees on it.
pub(crate) fn on_demand_plan(config: &FleetConfig) -> Vec<(usize, SimTime)> {
    if config.on_demand == 0 || config.provers == 0 {
        return Vec::new();
    }
    let span = MEASUREMENT_INTERVAL * (config.measurements_per_round * config.rounds).max(1) as u64;
    let mut rng = SimRng::seed_from(config.seed ^ ON_DEMAND_STREAM);
    let mut plan: Vec<(usize, SimTime)> = (0..config.on_demand)
        .map(|_| {
            let device = rng.gen_range(0, config.provers as u64) as usize;
            let at = rng.gen_range(span.as_nanos() / 4, span.as_nanos());
            (device, SimTime::from_nanos(at))
        })
        .collect();
    plan.sort_by_key(|&(device, at)| (at, device));
    plan
}

/// Fan-out of the hierarchical aggregation tree built over the fleet's
/// leaf aggregates: each sub-verifier folds up to this many children into one fixed-size
/// subtree aggregate (SANA/slimIoT style, Section 6 scale argument).
pub const AGGREGATION_FANOUT: usize = 64;

/// Summary of the [`erasmus_swarm::AggregationTree`] built after a run
/// over the leaf aggregates each worker read off its shard hubs: the root
/// verifier's view of the whole fleet in one fixed-size record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggregationReport {
    /// Children per internal node.
    pub fanout: usize,
    /// Leaf aggregates — one per tracked device.
    pub leaves: usize,
    /// Total aggregate nodes across all levels, leaves included.
    pub nodes: usize,
    /// Levels in the tree, leaves included (0 for an empty fleet).
    pub depth: usize,
    /// Devices whose history carries no compromise verdict.
    pub healthy_devices: u64,
    /// Lifetime history entries summed up to the root — must equal
    /// `history_entries`.
    pub root_entries: u64,
    /// Hex-encoded root digest binding every per-device chain head
    /// (empty string for an empty fleet).
    pub root_digest: String,
}

impl AggregationReport {
    /// Builds the tree over the fleet's leaf aggregates, in device order,
    /// and reads its shape and root.
    fn from_leaf_aggregates(leaves: Vec<SubtreeAggregate>) -> Self {
        let tree = AggregationTree::from_leaf_aggregates(leaves, AGGREGATION_FANOUT);
        let stats = tree.stats();
        Self {
            fanout: stats.fanout,
            leaves: stats.leaves,
            nodes: stats.nodes,
            depth: stats.depth,
            healthy_devices: tree.root().map_or(0, |root| root.healthy_devices),
            root_entries: tree.root().map_or(0, |root| root.entries),
            root_digest: tree
                .root()
                .map_or_else(String::new, |root| digest_hex(&root.digest)),
        }
    }
}

/// Wall-clock throughput and scenario accounting of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Worker threads that ran the shards: the requested count, clamped
    /// to the shard count.
    pub threads: usize,
    /// Self-measurements taken across the fleet (scheduled + on-demand).
    pub measurements_total: u64,
    /// Individual measurement MACs verified across all delivered reports.
    pub verifications_total: u64,
    /// Worker time spent on measurement work, summed over shards, so it
    /// reads the same whatever the partition (and can exceed the run's
    /// wall when workers overlap). Only self-measurements and on-demand
    /// exchanges count; provisioning (which derives every key schedule
    /// once) is not measurement work.
    pub measure_wall: Duration,
    /// Worker time spent on verifier-side work — frame ingest (decode, MAC
    /// verify, hub fold) and on-demand verification — summed over shards
    /// like `measure_wall`. The prover answering a collection is not
    /// charged here.
    pub verify_wall: Duration,
    /// Aggregate *simulated* prover busy time, for cross-checking against
    /// the paper's cost model.
    pub simulated_busy: SimDuration,
    /// Whether the run stayed healthy: no device history in any shard hub
    /// holds a forged or compromised measurement, and no shard hub rejected
    /// a report. The hubs' histories are the one place verdicts are kept;
    /// each worker reads its shard hub's compromised devices and rejected
    /// reports as counts ([`ShardReport::compromised_devices`],
    /// [`ShardReport::hub_rejected`]), and the run is healthy when both
    /// sums are 0.
    pub all_healthy: bool,
    /// Devices tracked by the shard hubs, summed over shards.
    pub devices_tracked: usize,
    /// Distinct measurements recorded across all per-device histories
    /// (lifetime count — mode-invariant, evicted entries included).
    pub history_entries: u64,
    /// Entries resident in the per-device windows when each shard ended,
    /// summed over shards, bounded by `devices_tracked × ring capacity`.
    pub history_resident: u64,
    /// Entries evicted from bounded rings into their sealed hash chains.
    /// Conservation (checked on every benchmark rep and every
    /// `fleet_determinism` run):
    /// `history_evictions + history_resident == history_entries`.
    pub history_evictions: u64,
    /// Arrivals discarded because they fell behind an already-sealed ring
    /// window.
    pub history_stale_discards: u64,
    /// Device histories whose head digest re-verified as `chain` folded
    /// over the resident window — must equal `devices_tracked`. Each
    /// worker counts its shard hub's before dropping it; this is the sum.
    pub chains_verified: u64,
    /// Resident verifier state of the shard hubs when each shard ended,
    /// summed, in bytes: per-device fixed struct size plus the retained
    /// entries, O(devices × capacity) regardless of run length. Each hub is
    /// dropped with its shard, so this much is never resident at once. `fleet_determinism` bounds it by
    /// `devices × (1024 + 64 × capacity)` on every run.
    pub resident_state_bytes: u64,
    /// Hierarchical swarm aggregation built over the shard hubs' leaf
    /// aggregates.
    pub aggregation: AggregationReport,
    /// Collection reports folded into the hub across the whole run.
    pub collections_ingested: u64,
    /// Scheduled collection attempts across the fleet.
    pub collections_attempted: u64,
    /// Collection responses that reached the verifier side.
    pub collections_delivered: u64,
    /// Collection attempts lost to the network or to absent devices.
    pub collections_dropped: u64,
    /// Collect-hop retransmissions sent under the ARQ policy.
    pub collect_retransmits: u64,
    /// Responses lost for good after the retry budget ran out.
    pub exhausted_retries: u64,
    /// Collection attempts lost because the device was absent (churn);
    /// counted inside `collections_dropped`.
    pub churn_losses: u64,
    /// Retransmission timers that fired after the device had churned — the
    /// stale copy is discarded; counted inside `collections_dropped`.
    pub stale_retries: u64,
    /// Deliveries that drew a reorder fault (extra in-flight delay).
    pub reorders: u64,
    /// `retry_histogram[a]` = deliveries that took `a` retransmissions
    /// (length = retry budget + 1; element-wise sum over shards).
    pub retry_histogram: Vec<u64>,
    /// Frame-hop retransmissions sent under the ARQ policy.
    pub frame_retransmits: u64,
    /// Duplicate frame copies the network injected on the frame link.
    pub frame_duplicates: u64,
    /// Corrupted frame copies the strict decoder rejected live.
    pub corrupt_decode_drops: u64,
    /// Corrupted frame copies that decoded but failed MAC verification.
    pub corrupt_tamper_drops: u64,
    /// Frames lost for good after the retry budget ran out.
    pub frames_exhausted: u64,
    /// Response records carried by those exhausted frames.
    pub frame_lost_responses: u64,
    /// Duplicate frames the shard hubs' dedup windows dropped, summed over
    /// shards — must equal `frame_duplicates` (exactly-once delivery).
    pub hub_duplicates: u64,
    /// Shard-hub crash/restart cycles survived via snapshot recovery: every
    /// shard hub restores at each of the [`FleetConfig::hub_crashes`]
    /// instants, so this is `shards.len() × hub_crashes`.
    pub hub_crashes: u64,
    /// Total bytes of the recovery snapshots taken at those crashes.
    pub snapshot_bytes: u64,
    /// Encoded collection batch frames ingested across all shards.
    pub wire_frames: u64,
    /// Total bytes of those frames, count headers included.
    pub wire_bytes: u64,
    /// Response records carried by the ingested frames.
    pub wire_responses: u64,
    /// Frame-decoded responses whose reports the hubs accepted:
    /// `decoded_accepted + on_demand_completed == collections_ingested`.
    pub decoded_accepted: u64,
    /// Worker time spent serializing frames, summed over shards (excluded
    /// from `verify_wall`).
    pub encode_wall: Duration,
    /// Worker time of the frame-ingest spans (decode + verify + hub fold),
    /// summed over shards; included in `verify_wall`.
    pub wire_ingest_wall: Duration,
    /// On-demand requests issued across the fleet.
    pub on_demand_attempted: u64,
    /// On-demand exchanges that completed end to end.
    pub on_demand_completed: u64,
    /// Median simulated end-to-end on-demand latency.
    pub on_demand_p50: SimDuration,
    /// 90th-percentile on-demand latency.
    pub on_demand_p90: SimDuration,
    /// 99th-percentile on-demand latency.
    pub on_demand_p99: SimDuration,
    /// Devices that left and rejoined during the run.
    pub devices_churned: u64,
    /// Scheduled measurements: every due device of a stagger cohort's tick
    /// counts once.
    pub events_scheduled: u64,
    /// Cohort ticks that carried at least one of those measurements — one
    /// queue slot per `(instant, cohort)` regardless of how many devices
    /// are due.
    pub singleton_events: u64,
    /// Queue slots *saved* by the cohort ticks: measurements that shared a
    /// tick with an earlier member of their cohort. Conservation invariant
    /// (checked on every benchmark rep and every `fleet_determinism` run):
    /// `coalesced_events + singleton_events == events_scheduled`.
    pub coalesced_events: u64,
    /// Always 0: events own their payloads, so the shards keep no payload
    /// pool. Kept because the fleet benchmark still reports it as
    /// `sim.pool.high_water`.
    pub event_pool_high_water: u64,
    /// Merged event-queue counters: pushes and pops summed over shards,
    /// `max_pending` the per-shard maximum; `overflow_pushes` is always 0.
    pub queue: QueueStats,
    /// One report per shard, in shard order (fleet order of their device
    /// ranges), whichever worker ran it.
    pub shards: Vec<ShardReport>,
}

/// The latency at quantile `q` (in `[0, 1]`) of a sorted sample.
fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let index = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[index.min(sorted.len() - 1)]
}

pub(crate) const MEASUREMENT_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Most devices one shard holds. Workers provision, run and drop one shard
/// at a time, so live device state is bounded by `threads × SHARD_DEVICES`
/// devices, not by the fleet. A device's live state (prover, verifier,
/// rolling buffer and hub history) is about 1.5–3 KB, so a 512-device
/// shard's working set fits a core's 2 MB L2 cache.
const SHARD_DEVICES: usize = 512;

/// Cuts the fleet into balanced, contiguous shards of at most 512 devices,
/// at least `threads` of them (one per device for a fleet smaller than
/// that), and runs them on `threads` scoped workers. Each worker claims
/// the next shard index in turn, provisions that shard's devices and
/// drives them through its own event-driven engine, reduces the shard hub
/// to its counts and leaf aggregates, then drops the shard, hub included,
/// before it claims another; the shard results fold in shard order.
///
/// The partition only changes *which shard* drives a device, and the
/// thread count only *which worker* runs a shard; every device performs
/// identical simulated work, and every device-hop packet suffers the same
/// deterministic fate, regardless of either. So all totals but the frame
/// hop's own counters (including delivered/dropped splits under loss) and
/// the root digest are identical across thread counts, but only while no
/// batch frame exhausts its retry budget: frame-hop draws are per shard,
/// and an exhausted frame drops its responses (`frame_lost_responses`),
/// which moves the totals and the root digest with the partition (ROADMAP
/// item 10).
///
/// # Panics
///
/// Panics if `threads`, `config.measurements_per_round` or `config.rounds`
/// is zero, or if a prover refuses a measurement or a verifier rejects a
/// delivered collection response — the latter two would be bugs in the
/// reproduction, not load conditions. A panic on a worker (for instance a
/// `churn` outside `[0, 1]`) reaches the caller with its own message.
pub fn run_threaded(config: &FleetConfig, threads: usize) -> FleetReport {
    assert!(threads > 0, "at least one worker thread is required");
    assert!(
        config.measurements_per_round > 0,
        "a collection round needs at least one scheduled measurement"
    );
    assert!(
        config.rounds > 0,
        "a fleet run needs at least one collection round"
    );
    let shards = threads
        .max(config.provers.div_ceil(SHARD_DEVICES))
        .min(config.provers.max(1));
    let threads = threads.min(shards);
    let schedule = config.schedule();
    let plan = on_demand_plan(config);

    // The partition is balanced: the remainder is spread over the first
    // shards, so no shard holds two devices more than another.
    let base = config.provers / shards;
    let remainder = config.provers % shards;
    let mut start = 0usize;
    let ranges: Vec<Range<usize>> = (0..shards)
        .map(|index| {
            let size = base + usize::from(index < remainder);
            let range = start..start + size;
            start += size;
            range
        })
        .collect();

    // Each worker claims shards in turn until none is left. Per shard it
    // provisions the devices (keys, MAC schedules, reference digests,
    // scenario plans) and drives them; the shard's report reads the hub's
    // counts, and the hub's leaf aggregates go up as the shard's slice of the
    // tree's level 0. The shard, hub included, is dropped before the next
    // claim. Provisioning is part of the run's wall time; done on the
    // workers, it runs in parallel like the event loops. The claim counter
    // publishes no data (the ranges are shared read-only and results come
    // back through the joins), so `Relaxed` suffices: each index is still
    // handed out exactly once.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(index) else {
                return done;
            };
            let mut shard = Shard::provision(index, config, &schedule, range.clone(), &plan);
            let report = shard.run();
            done.push((report, AggregationTree::leaf_aggregates(&shard.hub)));
        }
    };
    let mut finished: Vec<(ShardReport, Vec<SubtreeAggregate>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    finished.sort_unstable_by_key(|(report, _)| report.shard);

    // The shard ledgers fold in shard order, whichever worker ran each shard
    // and whenever it finished, and the shards' contiguous device ranges
    // concatenate their leaves into the tree's level 0 in device order.
    let mut total = ShardReport::new(config.retries);
    let mut shard_reports = Vec::with_capacity(finished.len());
    let mut leaves = Vec::with_capacity(config.provers);
    for (report, shard_leaves) in finished {
        total.absorb(&report);
        shard_reports.push(report);
        leaves.extend(shard_leaves);
    }
    total.on_demand_latencies.sort_unstable();
    let aggregation = AggregationReport::from_leaf_aggregates(leaves);
    // Informational estimate of the shard hubs' resident footprint when
    // each shard ended: the fixed per-device struct plus the retained window
    // entries, which the ring keeps O(devices × capacity) no matter how long
    // the run was. Each hub is dropped with its shard, so this much is never
    // resident at once.
    let resident_state_bytes = total.devices_tracked as u64
        * std::mem::size_of::<DeviceHistory>() as u64
        + total.history_resident * std::mem::size_of::<HistoryEntry>() as u64;

    FleetReport {
        config: config.clone(),
        threads,
        measurements_total: total.measurements,
        verifications_total: total.verifications,
        measure_wall: total.measure_wall,
        verify_wall: total.verify_wall,
        simulated_busy: total.simulated_busy,
        all_healthy: total.compromised_devices == 0 && total.hub_rejected == 0,
        devices_tracked: total.devices_tracked,
        history_entries: total.history_entries,
        history_resident: total.history_resident,
        history_evictions: total.history_evictions,
        history_stale_discards: total.history_stale_discards,
        chains_verified: total.chains_verified,
        resident_state_bytes,
        aggregation,
        collections_ingested: total.collections_ingested,
        collections_attempted: total.collections_attempted,
        collections_delivered: total.collections_delivered,
        collections_dropped: total.collections_dropped,
        collect_retransmits: total.collect_retransmits,
        exhausted_retries: total.exhausted_retries,
        churn_losses: total.churn_losses,
        stale_retries: total.stale_retries,
        reorders: total.reorders,
        retry_histogram: total.retry_histogram,
        frame_retransmits: total.frame_retransmits,
        frame_duplicates: total.frame_duplicates,
        corrupt_decode_drops: total.corrupt_decode_drops,
        corrupt_tamper_drops: total.corrupt_tamper_drops,
        frames_exhausted: total.frames_exhausted,
        frame_lost_responses: total.frame_lost_responses,
        hub_duplicates: total.hub_duplicates,
        hub_crashes: total.hub_crashes,
        snapshot_bytes: total.snapshot_bytes,
        wire_frames: total.wire_frames,
        wire_bytes: total.wire_bytes,
        wire_responses: total.wire_responses,
        decoded_accepted: total.wire_accepted,
        encode_wall: total.encode_wall,
        wire_ingest_wall: total.wire_ingest_wall,
        on_demand_attempted: total.on_demand_attempted,
        on_demand_completed: total.on_demand_completed,
        on_demand_p50: percentile(&total.on_demand_latencies, 0.50),
        on_demand_p90: percentile(&total.on_demand_latencies, 0.90),
        on_demand_p99: percentile(&total.on_demand_latencies, 0.99),
        devices_churned: total.devices_churned,
        events_scheduled: total.events_scheduled,
        singleton_events: total.singleton_events,
        coalesced_events: total.coalesced_events,
        event_pool_high_water: 0,
        queue: total.queue,
        shards: shard_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_core::DeviceId;
    use erasmus_sim::NetworkConfig;

    fn tiny(algorithm: MacAlgorithm) -> FleetConfig {
        FleetConfig::new(8, 2, 2, 256, 4, algorithm)
    }

    #[test]
    fn fleet_run_counts_add_up() {
        let config = tiny(MacAlgorithm::HmacSha256);
        let report = run_threaded(&config, 1);
        assert_eq!(report.measurements_total, config.total_measurements());
        assert_eq!(report.measurements_total, 8 * 2 * 2);
        // Every measurement taken in a round is collected and verified.
        assert_eq!(report.verifications_total, report.measurements_total);
        assert!(report.all_healthy);
        assert!(report.simulated_busy > SimDuration::ZERO);
        // The hub saw every device and every measurement exactly once.
        assert_eq!(report.devices_tracked, config.provers);
        assert_eq!(report.history_entries, report.measurements_total);
        // The default 64-entry ring covers each device's 4 entries:
        // everything stays resident, nothing is sealed into a chain, and
        // every (empty) chain still verifies.
        assert_eq!(report.history_resident, report.history_entries);
        assert_eq!(report.history_evictions, 0);
        assert_eq!(report.history_stale_discards, 0);
        assert_eq!(report.chains_verified, config.provers as u64);
        assert!(report.resident_state_bytes > 0);
        // The aggregation tree covers the whole fleet up to its root.
        assert_eq!(report.aggregation.fanout, AGGREGATION_FANOUT);
        assert_eq!(report.aggregation.leaves, config.provers);
        assert_eq!(report.aggregation.healthy_devices, config.provers as u64);
        assert_eq!(report.aggregation.root_entries, report.history_entries);
        assert_eq!(report.aggregation.root_digest.len(), 64);
        assert_eq!(
            report.collections_ingested,
            (config.provers * config.rounds) as u64
        );
        // The ideal network delivers everything.
        assert_eq!(report.collections_attempted, (8 * 2) as u64);
        assert_eq!(report.collections_delivered, report.collections_attempted);
        assert_eq!(report.collections_dropped, 0);
        assert_eq!(report.collections_ingested, report.collections_delivered);
        assert_eq!(report.on_demand_attempted, 0);
        assert_eq!(report.devices_churned, 0);
        // Every delivered response travelled as an encoded frame record,
        // and every decoded record was accepted — `ingested ==
        // decoded_accepted` on a lossless run.
        assert_eq!(report.wire_responses, report.collections_delivered);
        assert_eq!(report.decoded_accepted, report.collections_ingested);
        assert!(report.wire_frames >= 1);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn fleet_runs_for_every_algorithm() {
        for alg in MacAlgorithm::ALL {
            let report = run_threaded(&tiny(alg), 1);
            assert!(report.all_healthy, "{alg}");
            assert_eq!(
                report.verifications_total, report.measurements_total,
                "{alg}"
            );
        }
    }

    #[test]
    fn threaded_run_matches_single_threaded_totals() {
        let config = tiny(MacAlgorithm::HmacSha256);
        let single = run_threaded(&config, 1);
        let threaded = run_threaded(&config, 4);
        assert_eq!(threaded.threads, 4);
        assert_eq!(threaded.shards.len(), 4);
        assert_eq!(single.measurements_total, threaded.measurements_total);
        assert_eq!(single.verifications_total, threaded.verifications_total);
        assert_eq!(single.all_healthy, threaded.all_healthy);
        assert_eq!(single.devices_tracked, threaded.devices_tracked);
        assert_eq!(single.history_entries, threaded.history_entries);
        // Shard totals add up to the fleet totals.
        let shard_meas: u64 = threaded.shards.iter().map(|s| s.measurements).sum();
        assert_eq!(shard_meas, threaded.measurements_total);
        let shard_provers: usize = threaded.shards.iter().map(|s| s.provers).sum();
        assert_eq!(shard_provers, config.provers);
    }

    #[test]
    fn lossy_runs_are_thread_invariant_and_conserve_attempts() {
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(15),
            jitter: SimDuration::from_millis(10),
            loss: 0.25,
            ..NetworkConfig::IDEAL
        };
        config.seed = 9;
        let single = run_threaded(&config, 1);
        let threaded = run_threaded(&config, 3);
        assert_eq!(
            single.collections_delivered + single.collections_dropped,
            single.collections_attempted
        );
        assert!(single.collections_dropped > 0, "no drop at 25% loss");
        assert_eq!(single.collections_delivered, threaded.collections_delivered);
        assert_eq!(single.collections_dropped, threaded.collections_dropped);
        assert_eq!(single.verifications_total, threaded.verifications_total);
        assert_eq!(single.history_entries, threaded.history_entries);
        assert_eq!(single.collections_ingested, single.collections_delivered);
        // Loss drops evidence, it does not fabricate compromise.
        assert!(single.all_healthy);
    }

    #[test]
    fn ring_history_bounds_state_and_matches_a_covering_ring() {
        // Ring(2) against 4 lifetime entries per device: evictions must
        // fire, resident state must cap at devices × capacity, and every
        // lifetime total — head digests included, hence the aggregation
        // root — must match the default ring, which never evicts here.
        let covering = run_threaded(&tiny(MacAlgorithm::HmacSha256), 1);
        assert_eq!(covering.history_evictions, 0);
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.history = HistoryMode::Ring(2);
        let ring = run_threaded(&config, 1);

        assert_eq!(ring.measurements_total, covering.measurements_total);
        assert_eq!(ring.verifications_total, covering.verifications_total);
        assert_eq!(ring.collections_ingested, covering.collections_ingested);
        assert_eq!(ring.history_entries, covering.history_entries);
        assert_eq!(ring.all_healthy, covering.all_healthy);
        assert_eq!(
            ring.aggregation.root_digest,
            covering.aggregation.root_digest
        );
        assert_eq!(ring.aggregation.root_entries, ring.history_entries);

        assert_eq!(ring.history_resident, (8 * 2) as u64);
        assert_eq!(
            ring.history_evictions + ring.history_resident,
            ring.history_entries
        );
        assert!(ring.history_evictions > 0);
        assert_eq!(ring.history_stale_discards, 0);
        assert_eq!(ring.chains_verified, 8);
        assert!(ring.resident_state_bytes < covering.resident_state_bytes);
    }

    #[test]
    fn faulty_ring_run_is_thread_and_capacity_invariant() {
        // The acceptance bar: under loss + duplication + reordering with
        // ARQ retries, Ring(8) totals must match the default 64-entry ring
        // (which never evicts here) at every thread count, as long as the
        // capacity covers each device's in-flight reordering window.
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(8),
            loss: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            ..NetworkConfig::IDEAL
        };
        config.retries = 2;
        config.seed = 17;
        config.history = HistoryMode::Ring(8);
        let ring1 = run_threaded(&config, 1);
        let ring4 = run_threaded(&config, 4);
        config.history = HistoryMode::default();
        let flat = run_threaded(&config, 1);
        assert_eq!(flat.history_evictions, 0);

        assert!(
            flat.collect_retransmits + flat.frame_retransmits > 0,
            "faults never fired"
        );
        for faulty in [&ring1, &ring4] {
            assert_eq!(faulty.history_entries, flat.history_entries);
            assert_eq!(faulty.verifications_total, flat.verifications_total);
            assert_eq!(faulty.collections_ingested, flat.collections_ingested);
            assert_eq!(faulty.collections_dropped, flat.collections_dropped);
            assert_eq!(faulty.history_stale_discards, 0);
            assert_eq!(
                faulty.history_evictions + faulty.history_resident,
                faulty.history_entries
            );
            assert_eq!(faulty.chains_verified, faulty.devices_tracked as u64);
            assert_eq!(faulty.aggregation.root_digest, flat.aggregation.root_digest);
        }
    }

    #[test]
    fn on_demand_latency_percentiles_are_ordered() {
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.on_demand = 6;
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            loss: 0.0,
            ..NetworkConfig::IDEAL
        };
        let report = run_threaded(&config, 1);
        assert_eq!(report.on_demand_attempted, 6);
        assert!(report.on_demand_completed > 0);
        assert!(report.on_demand_p50 >= SimDuration::from_millis(20)); // two legs
        assert!(report.on_demand_p50 <= report.on_demand_p90);
        assert!(report.on_demand_p90 <= report.on_demand_p99);
        // Each completed exchange added one fresh measurement and verified
        // the fresh + k buffered ones.
        assert_eq!(
            report.measurements_total,
            config.total_measurements() + report.on_demand_completed
        );
    }

    #[test]
    #[should_panic(expected = "at least one scheduled measurement")]
    fn zero_measurements_per_round_is_rejected_before_spawning() {
        let config = FleetConfig::new(4, 0, 2, 64, 1, MacAlgorithm::HmacSha256);
        run_threaded(&config, 1);
    }

    #[test]
    #[should_panic(expected = "at least one collection round")]
    fn zero_rounds_is_rejected_before_spawning() {
        // Spawned, the churn plan would draw from an empty range.
        let mut config = FleetConfig::new(4, 2, 0, 64, 1, MacAlgorithm::HmacSha256);
        config.churn = 0.5;
        run_threaded(&config, 1);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn worker_panics_reach_the_caller_with_their_message() {
        // Each worker draws its churn plan, and `gen_bool` rejects 1.5.
        let mut config = FleetConfig::new(4, 2, 2, 64, 1, MacAlgorithm::HmacSha256);
        config.churn = 1.5;
        run_threaded(&config, 2);
    }

    #[test]
    fn thread_count_clamped_to_fleet_size() {
        let config = FleetConfig {
            provers: 3,
            ..tiny(MacAlgorithm::HmacSha256)
        };
        let report = run_threaded(&config, 16);
        assert_eq!(report.threads, 3);
        assert!(report.shards.iter().all(|s| s.provers == 1));
        assert_eq!(report.measurements_total, config.total_measurements());
    }

    #[test]
    fn partition_is_balanced_with_no_empty_shard() {
        let config = FleetConfig {
            provers: 9,
            ..tiny(MacAlgorithm::HmacSha256)
        };
        let report = run_threaded(&config, 4);
        let sizes: Vec<usize> = report.shards.iter().map(|s| s.provers).collect();
        assert_eq!(sizes, vec![3, 2, 2, 2]);
        assert_eq!(report.measurements_total, config.total_measurements());
    }

    #[test]
    fn staggering_spreads_offsets_but_keeps_counts() {
        let config = tiny(MacAlgorithm::KeyedBlake2s);
        let schedule = config.schedule();
        assert_eq!(schedule.groups(), 4);
        assert_eq!(schedule.max_concurrent(), 2);
        // Offsets stay inside T_M, so every device still completes the same
        // number of measurements per round.
        for device in 0..config.provers {
            assert!(schedule.offset(device) < MEASUREMENT_INTERVAL);
        }
        let report = run_threaded(&config, 1);
        assert_eq!(report.measurements_total, config.total_measurements());
    }

    #[test]
    fn more_stagger_groups_than_provers_still_covers_every_device() {
        // Groups clamp to the fleet size; every device keeps a distinct
        // offset strictly inside T_M and the totals are unchanged.
        let config = FleetConfig::new(3, 2, 2, 128, 64, MacAlgorithm::HmacSha256);
        let schedule = config.schedule();
        assert_eq!(schedule.groups(), 3);
        assert_eq!(schedule.max_concurrent(), 1);
        for device in 0..config.provers {
            assert!(schedule.offset(device) < MEASUREMENT_INTERVAL);
        }
        let report = run_threaded(&config, 1);
        assert_eq!(report.measurements_total, config.total_measurements());
        assert_eq!(report.verifications_total, report.measurements_total);
        assert!(report.all_healthy);
    }

    #[test]
    fn percentiles_of_empty_and_singleton_samples() {
        assert_eq!(percentile(&[], 0.5), SimDuration::ZERO);
        let one = [SimDuration::from_millis(7)];
        assert_eq!(percentile(&one, 0.5), SimDuration::from_millis(7));
        assert_eq!(percentile(&one, 0.99), SimDuration::from_millis(7));
        let many: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        assert_eq!(percentile(&many, 0.5), SimDuration::from_millis(50));
        assert_eq!(percentile(&many, 0.99), SimDuration::from_millis(99));
    }

    #[test]
    fn hub_histories_are_per_device() {
        let config = tiny(MacAlgorithm::HmacSha256);
        let report = run_threaded(&config, 1);
        // Each device contributed measurements_per_round × rounds entries;
        // a cross-device leak would inflate one history and starve another.
        assert_eq!(
            report.history_entries,
            (config.provers * config.measurements_per_round * config.rounds) as u64
        );
        assert_eq!(report.devices_tracked, config.provers);
        let _ = DeviceId::new(0); // device ids are dense 0..provers by construction
    }

    #[test]
    fn coalescing_ledger_conserves_scheduled_events() {
        // coalesced + singleton == scheduled — and with more devices than
        // stagger groups the cohort path must actually save queue slots.
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.provers = 64;
        config.stagger_groups = 4;
        let report = run_threaded(&config, 2);
        assert_eq!(
            report.coalesced_events + report.singleton_events,
            report.events_scheduled
        );
        assert_eq!(report.events_scheduled, report.measurements_total);
        assert!(
            report.coalesced_events > 0,
            "16 devices per stagger group must coalesce"
        );
        // Queue accounting: every push is eventually popped.
        assert_eq!(report.queue.pushes, report.queue.pops);
        assert!(report.queue.max_pending > 0);
    }

    #[test]
    fn on_demand_plan_is_sorted_and_in_range() {
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.on_demand = 32;
        let plan = on_demand_plan(&config);
        assert_eq!(plan.len(), 32);
        let span = MEASUREMENT_INTERVAL * (config.measurements_per_round * config.rounds) as u64;
        for window in plan.windows(2) {
            assert!(window[0].1 <= window[1].1, "plan not time-sorted");
        }
        for &(device, at) in &plan {
            assert!(device < config.provers);
            assert!(at >= SimTime::ZERO + span / 4 && at < SimTime::ZERO + span);
        }
        // The plan is a pure function of the seed.
        assert_eq!(plan, on_demand_plan(&config));
        let mut reseeded = config.clone();
        reseeded.seed = 1;
        assert_ne!(plan, on_demand_plan(&reseeded));
    }

    #[test]
    fn quick_config_meets_the_fleet_floor() {
        let quick = FleetConfig::quick(MacAlgorithm::HmacSha256);
        assert!(quick.provers >= 1_000);
    }
}
