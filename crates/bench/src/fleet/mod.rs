//! Fleet-scale throughput harness: how many self-measurements and
//! collection verifications per second the reproduction sustains on the
//! host.
//!
//! The paper's evaluation prices a *single* prover (Figures 6/8, Table 2);
//! the ROADMAP's north star is millions of unattended devices. This module
//! drives N provers through their measurement schedules and periodic
//! collections end to end — the same `Prover`/`Verifier` hot paths the
//! protocol tests use, with the precomputed [`erasmus_crypto::KeyedMac`]
//! schedules derived once per device — and reports wall-clock throughput.
//!
//! The fleet is partitioned into per-thread **shards** (the private `shard`
//! module): each scoped `std::thread` worker provisions its
//! `(Prover, Verifier)` pairs, owns them outright and drives them through
//! its own [`erasmus_sim::Engine`] as one event-driven timeline.
//! Measurements fire at their staggered
//! [`erasmus_swarm::StaggeredSchedule`] instants (the Section 6 availability
//! argument); collection responses travel through a deterministic
//! [`erasmus_sim::NetworkModel`] (latency, jitter, loss — all drawn per device from the
//! run's seed); responses arriving at the same instant form one burst that
//! is serialized into framed batch buffers
//! ([`erasmus_core::encode_collection_batch`]'s wire format) and folded
//! into the shard's [`erasmus_core::VerifierHub`] straight off the bytes
//! via [`erasmus_core::VerifierHub::ingest_frame`]; on-demand requests
//! (ERASMUS+OD, Figure 4) and device churn interleave with the schedule on
//! the same timeline. Because every random draw is keyed by the *global*
//! device index, totals are thread-count-invariant by construction, lossy
//! runs included. `tests/fleet_determinism.rs` pins the lossless totals
//! against a serial oracle that calls the protocol directly, with no engine
//! and no codec.
//!
//! With `lanes` ≥ 4 each shard coalesces same-instant measurements —
//! devices sharing a stagger-group offset — into lane-interleaved hash jobs
//! ([`erasmus_crypto::Sha256xN`] via
//! [`erasmus_core::Measurement::compute_keyed_batch`]), falling back to the
//! scalar path for ragged remainders; totals stay bit-identical at every
//! lane width (see [`lanes`]).
//!
//! Injected faults ride the same deterministic draws: duplicated frames
//! are deduplicated by the hubs' per-flow sequence windows, reordered
//! deliveries pick up extra in-flight delay, corrupted frames hit the
//! strict decoder's and the MAC verifier's live rejection paths, and — with
//! [`FleetConfig::retries`] > 0 — every drop is retransmitted under an
//! exponential-backoff ARQ loop ([`erasmus_core::RetryPolicy`]). Scheduled
//! [`FleetConfig::hub_crashes`] serialize each shard hub to its wire-format
//! snapshot ([`erasmus_core::encode_hub_snapshot`]) and restore it
//! bit-identically mid-run.
//!
//! Per-device verifier state is governed by [`FleetConfig::history`]: a
//! ring of [`erasmus_core::DEFAULT_RING_CAPACITY`] entries unless set
//! otherwise caps every device at a fixed-size retained window plus a
//! rollup summary and a PCR-style hash chain over the evicted entries, so
//! the merged hub's resident footprint is O(devices × capacity) regardless
//! of run length — the property the million-prover run demonstrates.
//! Lifetime totals and chain heads do not depend on the capacity as long as
//! it covers each device's reordering window. After the merge an
//! [`erasmus_swarm::AggregationTree`] folds every chain head into one root
//! digest ([`AggregationReport`]).
//!
//! Shard results are merged into one [`FleetReport`]; the per-thread
//! breakdown, the per-algorithm scalar-vs-lane speedup probe and the 1→N
//! scaling sweep (see [`scaling`]) are serialized by the `perfbench` binary
//! into `BENCH_fleet.json` (schema `erasmus-perfbench/v9`) so successive
//! PRs accumulate a perf trajectory.
//!
//! Each shard engine schedules on an [`erasmus_sim::CalendarQueue`]; its
//! delivery order is pinned against the binary-heap oracle by the sim
//! crate's order-equivalence property tests.

pub mod lanes;
pub mod reservoir;
pub mod scaling;
mod shard;

pub use lanes::LaneSpeedup;
pub use reservoir::{LatencyReservoir, RESERVOIR_CAP};
pub use shard::ShardReport;

use std::ops::Range;
use std::time::Duration;

use erasmus_core::{DeviceHistory, HistoryEntry, HistoryMode, VerifierHub};
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::{NetworkConfig, QueueStats, SimDuration, SimRng, SimTime};
use erasmus_swarm::{digest_hex, AggregationTree, StaggeredSchedule};

use shard::Shard;

/// Seed used when none is given: any seed reproduces identical lossless
/// runs, but recording one keeps lossy runs replayable from the JSON alone.
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
    /// plan, on-demand targeting). Recorded in the JSON report.
    pub seed: u64,
    /// Link model between devices and the verifier side. The ideal default
    /// reproduces lossless, zero-latency behaviour bit-for-bit.
    pub network: NetworkConfig,
    /// Probability that a device leaves the fleet once mid-run and rejoins
    /// later (losing the measurements and collections in between).
    pub churn: f64,
    /// ARQ retransmission budget per collection response and per batch
    /// frame: a dropped or corrupted transmission is retried up to this
    /// many times with exponential backoff
    /// ([`erasmus_core::RetryPolicy`]). 0 disables retransmission.
    pub retries: u32,
    /// Scheduled verifier-hub crash/restart cycles per shard: at each, the
    /// hub state is serialized to its wire-format snapshot, dropped, and
    /// restored from the bytes alone — recovery must be bit-identical.
    pub hub_crashes: usize,
    /// Fleet-wide count of authenticated on-demand requests (ERASMUS+OD)
    /// injected at deterministic instants during the run.
    pub on_demand: usize,
    /// Upper bound on the lane width for batched measurement hashing: 1
    /// runs the scalar per-device path; ≥ 4 coalesces same-instant
    /// measurements into lane-interleaved hash jobs of the widest supported
    /// width not exceeding this value (see [`lanes::effective_width`]).
    /// Totals are bit-identical at every width.
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

    /// CI-sized run: ≥ 1,000 provers but only a few schedule ticks, so the
    /// whole sweep finishes in seconds even on a busy runner.
    pub fn quick(algorithm: MacAlgorithm) -> Self {
        Self::new(1_000, 4, 2, 1024, 4, algorithm)
    }

    /// Default full-size run.
    pub fn full(algorithm: MacAlgorithm) -> Self {
        Self::new(4_096, 8, 4, 4 * 1024, 4, algorithm)
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

/// Fan-out of the hierarchical aggregation tree built over the merged hub:
/// each sub-verifier folds up to this many children into one fixed-size
/// subtree aggregate (SANA/slimIoT style, Section 6 scale argument).
pub const AGGREGATION_FANOUT: usize = 64;

/// Summary of the [`erasmus_swarm::AggregationTree`] built over the merged
/// hub after a run: the root verifier's view of the whole fleet in one
/// fixed-size record.
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
    fn from_hub(hub: &VerifierHub) -> Self {
        let tree = AggregationTree::from_hub(hub, AGGREGATION_FANOUT);
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
    /// Worker threads (shards) the fleet was partitioned into.
    pub threads: usize,
    /// Self-measurements taken across the fleet (scheduled + on-demand).
    pub measurements_total: u64,
    /// Individual measurement MACs verified across all delivered reports.
    pub verifications_total: u64,
    /// Wall-clock time of the measurement work: the *slowest shard's*
    /// accumulated measurement time, since shards run concurrently. Only
    /// self-measurements and on-demand exchanges count; provisioning (which
    /// derives every key schedule once) is not measurement work.
    pub measure_wall: Duration,
    /// Wall-clock time of the verifier-side work — frame ingest (decode,
    /// MAC verify, hub fold) and on-demand verification — same
    /// slowest-shard convention. The prover answering a collection is not
    /// charged here.
    pub verify_wall: Duration,
    /// Aggregate *simulated* prover busy time, for cross-checking against
    /// the paper's cost model.
    pub simulated_busy: SimDuration,
    /// Whether the run stayed healthy: no forged or compromised
    /// measurement anywhere, no hub rejection — and, in a gap-free run (no
    /// loss, no churn), every delivered report fully `AllHealthy`.
    pub all_healthy: bool,
    /// Devices tracked by the merged verifier-side history hub.
    pub devices_tracked: usize,
    /// Distinct measurements recorded across all per-device histories
    /// (lifetime count — mode-invariant, evicted entries included).
    pub history_entries: u64,
    /// Entries resident in the per-device windows after the merge, bounded
    /// by `devices_tracked × ring capacity`.
    pub history_resident: u64,
    /// Entries evicted from bounded rings into their sealed hash chains.
    /// Conservation (checked by `ci/validate_perfbench.py`):
    /// `history_evictions + history_resident == history_entries`.
    pub history_evictions: u64,
    /// Arrivals discarded because they fell behind an already-sealed ring
    /// window.
    pub history_stale_discards: u64,
    /// Device histories whose head digest re-verified as `chain` folded
    /// over the resident window — must equal `devices_tracked`.
    pub chains_verified: u64,
    /// Resident verifier state across the merged hub, in bytes: per-device
    /// fixed struct size plus the retained entries: O(devices × capacity)
    /// regardless of run length — the bound the million-prover run
    /// demonstrates.
    pub resident_state_bytes: u64,
    /// Hierarchical swarm aggregation built over the merged hub.
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
    /// Duplicate frames the hubs' dedup windows dropped — must equal
    /// `frame_duplicates` (exactly-once delivery).
    pub hub_duplicates: u64,
    /// Hub crash/restart cycles survived via snapshot recovery.
    pub hub_crashes: u64,
    /// Total bytes of the recovery snapshots taken at those crashes.
    pub snapshot_bytes: u64,
    /// Delivery bursts folded into shard hubs via `ingest_batch`.
    pub hub_batches: u64,
    /// Largest single delivery burst.
    pub largest_batch: u64,
    /// Encoded collection batch frames ingested across all shards.
    pub wire_frames: u64,
    /// Total bytes of those frames, count headers included.
    pub wire_bytes: u64,
    /// Response records carried by the ingested frames.
    pub wire_responses: u64,
    /// Frame-decoded responses whose reports the hubs accepted. On a
    /// lossless wire run this equals `collections_ingested` — the validator
    /// cross-checks it.
    pub decoded_accepted: u64,
    /// Frames the strict decoder rejected. Always 0 for harness-encoded
    /// frames; the field exists so the JSON schema matches the fuzz
    /// harness's accounting.
    pub decode_rejects: u64,
    /// Wall-clock time the slowest shard spent serializing frames
    /// (excluded from `verify_wall`).
    pub encode_wall: Duration,
    /// Wall-clock time of the slowest shard's frame-ingest spans (decode +
    /// verify + hub fold, included in `verify_wall`): the denominator of
    /// [`FleetReport::decode_mib_per_sec`].
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
    /// Multi-lane hash jobs executed across all shards (0 when `lanes` is
    /// 1 or no cohort filled a lane group).
    pub lane_jobs: u64,
    /// Measurements that fell back to the scalar path as ragged cohort
    /// remainders (fewer than 4 devices left after the lane groups);
    /// scalar catch-up drains outside the cohort path are not counted.
    pub lane_remainder: u64,
    /// Measurement events that went through the coalesced cohort path:
    /// every due device of a `MeasureCohort` firing counts once.
    pub events_scheduled: u64,
    /// `MeasureCohort` queue slots actually popped to deliver those
    /// measurements — the insertion-time coalescing means one slot per
    /// `(instant, cohort)` regardless of how many devices are due.
    pub singleton_events: u64,
    /// Queue slots *saved* by coalescing: measurement events that rode an
    /// already-scheduled cohort slot. Conservation invariant (checked by
    /// `ci/validate_perfbench.py`):
    /// `coalesced_events + singleton_events == events_scheduled`.
    pub coalesced_events: u64,
    /// High-water mark of live pooled event payloads (collection responses
    /// and on-demand exchanges) summed over shards. Bounded by in-flight
    /// traffic, not run length — the leak guard for long churn runs.
    pub event_pool_high_water: u64,
    /// Merged event-queue counters: pushes/pops/overflow summed over
    /// shards, `max_pending` the per-shard maximum, plus the calendar
    /// queue's bucket geometry.
    pub queue: QueueStats,
    /// Scalar-vs-lane digest throughput probe, attached by `perfbench`
    /// (`None` for plain `run_threaded` calls).
    pub lane_speedup: Option<LaneSpeedup>,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardReport>,
}

impl FleetReport {
    /// Measurements per wall-clock second.
    pub fn measurements_per_sec(&self) -> f64 {
        per_second(self.measurements_total, self.measure_wall)
    }

    /// Verified measurements per wall-clock second.
    pub fn verifications_per_sec(&self) -> f64 {
        per_second(self.verifications_total, self.verify_wall)
    }

    /// Frame-ingest throughput in MiB/s: encoded bytes over the wall time
    /// of the decode + verify + hub-fold spans.
    pub fn decode_mib_per_sec(&self) -> f64 {
        per_second(self.wire_bytes, self.wire_ingest_wall) / (1024.0 * 1024.0)
    }
}

/// Smallest wall time a phase is credited with when computing rates. Quick
/// runs on fast hosts can complete a phase below timer resolution; dividing
/// by a raw zero used to report `0.0` throughput into `BENCH_fleet.json`,
/// which downstream tooling reads as "infinitely slow". Clamping keeps the
/// rate finite, positive and, at worst, *under*stated.
const MIN_RATE_WALL: Duration = Duration::from_micros(1);

fn per_second(count: u64, wall: Duration) -> f64 {
    if count == 0 {
        return 0.0;
    }
    count as f64 / wall.as_secs_f64().max(MIN_RATE_WALL.as_secs_f64())
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

/// Single-threaded fleet run: [`run_threaded`] with one shard.
///
/// # Panics
///
/// Panics if a prover refuses a measurement or a verifier rejects a
/// delivered collection response — both would be bugs in the reproduction,
/// not load conditions.
pub fn run(config: &FleetConfig) -> FleetReport {
    run_threaded(config, 1)
}

/// Partitions the fleet into `threads` shards and runs each on a scoped
/// worker thread, which provisions the shard's devices and drives them
/// through its own event-driven engine; then merges the shard results.
///
/// The partition only changes *which worker* drives a device; every device
/// performs identical simulated work, and every packet suffers the same
/// deterministic fate, regardless of `threads` — so all totals (including
/// delivered/dropped splits under loss) are identical across thread counts.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a prover refuses a measurement or a
/// verifier rejects a delivered collection response — the latter two would
/// be bugs in the reproduction, not load conditions.
pub fn run_threaded(config: &FleetConfig, threads: usize) -> FleetReport {
    assert!(threads > 0, "at least one worker thread is required");
    let threads = threads.min(config.provers.max(1));
    let schedule = config.schedule();
    let plan = on_demand_plan(config);

    // The partition is balanced: the remainder is spread over the first
    // shards, so no worker idles while another owns two extra devices.
    let base = config.provers / threads;
    let remainder = config.provers % threads;
    let mut start = 0usize;
    let ranges: Vec<Range<usize>> = (0..threads)
        .map(|index| {
            let size = base + usize::from(index < remainder);
            let range = start..start + size;
            start += size;
            range
        })
        .collect();

    // Each worker provisions its own devices (keys, MAC schedules, reference
    // digests, scenario plans), drives them and hands back its hub.
    // Provisioning is part of the run's wall time; done on the workers, it
    // runs in parallel like the event loops.
    let drive = |index: usize, range: Range<usize>| {
        let mut shard = Shard::provision(index, config, &schedule, range, &plan);
        let report = shard.run(config);
        (report, shard.into_hub())
    };
    let finished: Vec<(ShardReport, VerifierHub)> = if threads == 1 {
        // Keep a single-threaded run literally single-threaded so its
        // timings carry no spawn/join overhead.
        ranges
            .into_iter()
            .enumerate()
            .map(|(index, range)| drive(index, range))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(index, range)| scope.spawn(move || drive(index, range)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet shard thread panicked"))
                .collect()
        })
    };

    // Hubs merge in shard-index order, whatever order the workers finished.
    let mut hub = VerifierHub::with_history(config.history);
    let mut shard_reports = Vec::with_capacity(finished.len());
    for (report, shard_hub) in finished {
        let merged = hub.merge(shard_hub);
        assert!(merged, "every shard hub uses the fleet's ring capacity");
        shard_reports.push(report);
    }

    let mut measurements_total = 0u64;
    let mut verifications_total = 0u64;
    let mut measure_wall = Duration::ZERO;
    let mut verify_wall = Duration::ZERO;
    let mut simulated_busy = SimDuration::ZERO;
    let mut all_healthy = true;
    let mut collections_attempted = 0u64;
    let mut collections_delivered = 0u64;
    let mut collections_dropped = 0u64;
    let mut collect_retransmits = 0u64;
    let mut exhausted_retries = 0u64;
    let mut churn_losses = 0u64;
    let mut stale_retries = 0u64;
    let mut reorders = 0u64;
    let mut retry_histogram = vec![0u64; config.retries as usize + 1];
    let mut frame_retransmits = 0u64;
    let mut frame_duplicates = 0u64;
    let mut corrupt_decode_drops = 0u64;
    let mut corrupt_tamper_drops = 0u64;
    let mut frames_exhausted = 0u64;
    let mut frame_lost_responses = 0u64;
    let mut hub_crashes = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut hub_batches = 0u64;
    let mut largest_batch = 0u64;
    let mut wire_frames = 0u64;
    let mut wire_bytes = 0u64;
    let mut wire_responses = 0u64;
    let mut decoded_accepted = 0u64;
    let mut decode_rejects = 0u64;
    let mut encode_wall = Duration::ZERO;
    let mut wire_ingest_wall = Duration::ZERO;
    let mut on_demand_attempted = 0u64;
    let mut on_demand_completed = 0u64;
    let mut devices_churned = 0u64;
    let mut lane_jobs = 0u64;
    let mut lane_remainder = 0u64;
    let mut events_scheduled = 0u64;
    let mut singleton_events = 0u64;
    let mut coalesced_events = 0u64;
    let mut event_pool_high_water = 0u64;
    let mut queue = QueueStats::default();
    let mut latency_sample = LatencyReservoir::with_default_cap();
    for report in &shard_reports {
        measurements_total += report.measurements;
        verifications_total += report.verifications;
        measure_wall = measure_wall.max(report.measure_wall);
        verify_wall = verify_wall.max(report.verify_wall);
        simulated_busy += report.simulated_busy;
        all_healthy &= report.all_healthy;
        collections_attempted += report.collections_attempted;
        collections_delivered += report.collections_delivered;
        collections_dropped += report.collections_dropped;
        collect_retransmits += report.collect_retransmits;
        exhausted_retries += report.exhausted_retries;
        churn_losses += report.churn_losses;
        stale_retries += report.stale_retries;
        reorders += report.reorders;
        for (total, shard) in retry_histogram.iter_mut().zip(&report.retry_histogram) {
            *total += shard;
        }
        frame_retransmits += report.frame_retransmits;
        frame_duplicates += report.frame_duplicates;
        corrupt_decode_drops += report.corrupt_decode_drops;
        corrupt_tamper_drops += report.corrupt_tamper_drops;
        frames_exhausted += report.frames_exhausted;
        frame_lost_responses += report.frame_lost_responses;
        hub_crashes += report.hub_crashes;
        snapshot_bytes += report.snapshot_bytes;
        hub_batches += report.hub_batches;
        largest_batch = largest_batch.max(report.largest_batch);
        wire_frames += report.wire_frames;
        wire_bytes += report.wire_bytes;
        wire_responses += report.wire_responses;
        decoded_accepted += report.wire_accepted;
        decode_rejects += report.wire_decode_rejects;
        encode_wall = encode_wall.max(report.encode_wall);
        wire_ingest_wall = wire_ingest_wall.max(report.wire_ingest_wall);
        on_demand_attempted += report.on_demand_attempted;
        on_demand_completed += report.on_demand_completed;
        devices_churned += report.devices_churned;
        lane_jobs += report.lane_jobs;
        lane_remainder += report.lane_remainder;
        events_scheduled += report.events_scheduled;
        singleton_events += report.singleton_events;
        coalesced_events += report.coalesced_events;
        event_pool_high_water += report.event_pool_high_water;
        queue.pushes += report.queue.pushes;
        queue.pops += report.queue.pops;
        queue.overflow_pushes += report.queue.overflow_pushes;
        queue.max_pending = queue.max_pending.max(report.queue.max_pending);
        queue.buckets = queue.buckets.max(report.queue.buckets);
        queue.bucket_width_nanos = queue
            .bucket_width_nanos
            .max(report.queue.bucket_width_nanos);
        latency_sample.merge(report.on_demand_latencies.clone());
    }
    let latencies = latency_sample.sorted_latencies();
    all_healthy &= hub.all_healthy() && hub.rejected() == 0;
    let hub_duplicates = hub.duplicates();

    let history_resident = hub.total_resident();
    let aggregation = AggregationReport::from_hub(&hub);
    // Informational estimate of the merged hub's resident footprint: the
    // fixed per-device struct plus the retained window entries, which the
    // ring keeps O(devices × capacity) no matter how long the run was.
    let resident_state_bytes = hub.len() as u64 * std::mem::size_of::<DeviceHistory>() as u64
        + history_resident * std::mem::size_of::<HistoryEntry>() as u64;

    FleetReport {
        config: config.clone(),
        threads,
        measurements_total,
        verifications_total,
        measure_wall,
        verify_wall,
        simulated_busy,
        all_healthy,
        devices_tracked: hub.len(),
        history_entries: hub.total_entries(),
        history_resident,
        history_evictions: hub.total_evictions(),
        history_stale_discards: hub.total_stale_discards(),
        chains_verified: hub.verified_chains() as u64,
        resident_state_bytes,
        aggregation,
        collections_ingested: hub.total_collections(),
        collections_attempted,
        collections_delivered,
        collections_dropped,
        collect_retransmits,
        exhausted_retries,
        churn_losses,
        stale_retries,
        reorders,
        retry_histogram,
        frame_retransmits,
        frame_duplicates,
        corrupt_decode_drops,
        corrupt_tamper_drops,
        frames_exhausted,
        frame_lost_responses,
        hub_duplicates,
        hub_crashes,
        snapshot_bytes,
        hub_batches,
        largest_batch,
        wire_frames,
        wire_bytes,
        wire_responses,
        decoded_accepted,
        decode_rejects,
        encode_wall,
        wire_ingest_wall,
        on_demand_attempted,
        on_demand_completed,
        on_demand_p50: percentile(&latencies, 0.50),
        on_demand_p90: percentile(&latencies, 0.90),
        on_demand_p99: percentile(&latencies, 0.99),
        devices_churned,
        lane_jobs,
        lane_remainder,
        events_scheduled,
        singleton_events,
        coalesced_events,
        event_pool_high_water,
        queue,
        lane_speedup: None,
        shards: shard_reports,
    }
}

/// Renders one report as the JSON object used inside `BENCH_fleet.json`.
pub fn report_json(report: &FleetReport, indent: &str) -> String {
    let per_thread: Vec<String> = report
        .shards
        .iter()
        .map(|shard| shard.to_json(&format!("{indent}    ")))
        .collect();
    format!(
        "{indent}{{\n\
         {indent}  \"algorithm\": \"{alg}\",\n\
         {indent}  \"provers\": {provers},\n\
         {indent}  \"measurements_per_round\": {mpr},\n\
         {indent}  \"rounds\": {rounds},\n\
         {indent}  \"memory_bytes\": {memory},\n\
         {indent}  \"stagger_groups\": {groups},\n\
         {indent}  \"threads\": {threads},\n\
         {indent}  \"lanes\": {lanes},\n\
         {indent}  \"seed\": {seed},\n\
         {indent}  \"network\": {{ \"latency_ms\": {lat:.3}, \"jitter_ms\": {jit:.3}, \"loss\": {loss}, \
         \"duplicate\": {dup}, \"reorder\": {reord}, \"corrupt\": {corr} }},\n\
         {indent}  \"churn\": {churn},\n\
         {indent}  \"measurements_total\": {mt},\n\
         {indent}  \"verifications_total\": {vt},\n\
         {indent}  \"measure_wall_secs\": {mw:.6},\n\
         {indent}  \"verify_wall_secs\": {vw:.6},\n\
         {indent}  \"measurements_per_sec\": {mps:.1},\n\
         {indent}  \"verifications_per_sec\": {vps:.1},\n\
         {indent}  \"simulated_busy_secs\": {busy:.3},\n\
         {indent}  \"all_healthy\": {healthy},\n\
         {indent}  \"devices_tracked\": {tracked},\n\
         {indent}  \"history_entries\": {entries},\n\
         {indent}  \"history\": {{ \"ring_capacity\": {h_cap}, \
         \"resident\": {h_res}, \"evictions\": {h_evict}, \"stale_discards\": {h_stale}, \
         \"chains_verified\": {h_chains}, \"resident_state_bytes\": {h_bytes} }},\n\
         {indent}  \"aggregation\": {{ \"fanout\": {a_fanout}, \"leaves\": {a_leaves}, \
         \"nodes\": {a_nodes}, \"depth\": {a_depth}, \"healthy_devices\": {a_healthy}, \
         \"root_entries\": {a_entries}, \"root_digest\": \"{a_digest}\" }},\n\
         {indent}  \"collections_ingested\": {ingested},\n\
         {indent}  \"collections\": {{ \"attempted\": {att}, \"delivered\": {del}, \"dropped\": {dropped} }},\n\
         {indent}  \"hub_batches\": {batches},\n\
         {indent}  \"largest_batch\": {largest},\n\
         {indent}  \"wire\": {{ \"frames\": {wframes}, \"bytes\": {wbytes}, \
         \"responses\": {wresp}, \"decoded_accepted\": {waccepted}, \"decode_rejects\": {wrejects}, \
         \"encode_wall_secs\": {wenc:.6}, \"ingest_wall_secs\": {wing:.6}, \
         \"decode_mib_per_sec\": {wmibs:.3} }},\n\
         {indent}  \"lane_jobs\": {lane_jobs},\n\
         {indent}  \"lane_remainder\": {lane_remainder},\n\
         {indent}  \"lane_speedup\": {lane_speedup},\n\
         {indent}  \"events\": {{ \"scheduled\": {ev_sched}, \"singleton\": {ev_single}, \
         \"coalesced\": {ev_coal}, \"pool_high_water\": {ev_pool}, \
         \"queue_pushes\": {q_push}, \"queue_pops\": {q_pop}, \
         \"queue_overflow_pushes\": {q_ovf}, \"queue_max_pending\": {q_max}, \
         \"queue_buckets\": {q_buckets}, \"queue_bucket_width_nanos\": {q_width} }},\n\
         {indent}  \"devices_churned\": {churned},\n\
         {indent}  \"on_demand\": {{ \"attempted\": {od_att}, \"completed\": {od_done}, \
         \"latency_ms_p50\": {p50:.3}, \"latency_ms_p90\": {p90:.3}, \"latency_ms_p99\": {p99:.3} }},\n\
         {indent}  \"reliability\": {{\n\
         {indent}    \"retries\": {retries},\n\
         {indent}    \"collect\": {{ \"attempted\": {att}, \"unique_accepted\": {del}, \
         \"retransmits\": {c_rtx}, \"exhausted_retries\": {c_exh}, \"churn_losses\": {c_churn}, \
         \"stale_retries\": {c_stale}, \"reorders\": {c_reord}, \"retry_histogram\": [{histogram}] }},\n\
         {indent}    \"frame\": {{ \"retransmits\": {f_rtx}, \"duplicates_injected\": {f_dup}, \
         \"corrupt_decode\": {f_cdec}, \"corrupt_tamper\": {f_ctam}, \"exhausted\": {f_exh}, \
         \"lost_responses\": {f_lost} }},\n\
         {indent}    \"hub\": {{ \"duplicates_dropped\": {h_dup}, \"crashes\": {h_crash}, \
         \"snapshot_bytes\": {h_snap} }}\n\
         {indent}  }},\n\
         {indent}  \"per_thread\": [\n{pt}\n{indent}  ]\n\
         {indent}}}",
        alg = report.config.algorithm,
        provers = report.config.provers,
        mpr = report.config.measurements_per_round,
        rounds = report.config.rounds,
        memory = report.config.memory_bytes,
        groups = report.config.stagger_groups,
        threads = report.threads,
        lanes = lanes::effective_width(report.config.lanes),
        seed = report.config.seed,
        lat = report.config.network.base_latency.as_millis_f64(),
        jit = report.config.network.jitter.as_millis_f64(),
        loss = report.config.network.loss,
        dup = report.config.network.duplicate,
        reord = report.config.network.reorder,
        corr = report.config.network.corrupt,
        churn = report.config.churn,
        mt = report.measurements_total,
        vt = report.verifications_total,
        mw = report.measure_wall.as_secs_f64(),
        vw = report.verify_wall.as_secs_f64(),
        mps = report.measurements_per_sec(),
        vps = report.verifications_per_sec(),
        busy = report.simulated_busy.as_secs_f64(),
        healthy = report.all_healthy,
        tracked = report.devices_tracked,
        entries = report.history_entries,
        h_cap = report.config.history.capacity(),
        h_res = report.history_resident,
        h_evict = report.history_evictions,
        h_stale = report.history_stale_discards,
        h_chains = report.chains_verified,
        h_bytes = report.resident_state_bytes,
        a_fanout = report.aggregation.fanout,
        a_leaves = report.aggregation.leaves,
        a_nodes = report.aggregation.nodes,
        a_depth = report.aggregation.depth,
        a_healthy = report.aggregation.healthy_devices,
        a_entries = report.aggregation.root_entries,
        a_digest = report.aggregation.root_digest,
        ingested = report.collections_ingested,
        att = report.collections_attempted,
        del = report.collections_delivered,
        dropped = report.collections_dropped,
        batches = report.hub_batches,
        largest = report.largest_batch,
        wframes = report.wire_frames,
        wbytes = report.wire_bytes,
        wresp = report.wire_responses,
        waccepted = report.decoded_accepted,
        wrejects = report.decode_rejects,
        wenc = report.encode_wall.as_secs_f64(),
        wing = report.wire_ingest_wall.as_secs_f64(),
        wmibs = report.decode_mib_per_sec(),
        lane_jobs = report.lane_jobs,
        lane_remainder = report.lane_remainder,
        ev_sched = report.events_scheduled,
        ev_single = report.singleton_events,
        ev_coal = report.coalesced_events,
        ev_pool = report.event_pool_high_water,
        q_push = report.queue.pushes,
        q_pop = report.queue.pops,
        q_ovf = report.queue.overflow_pushes,
        q_max = report.queue.max_pending,
        q_buckets = report.queue.buckets,
        q_width = report.queue.bucket_width_nanos,
        lane_speedup = report
            .lane_speedup
            .as_ref()
            .map_or_else(|| "null".to_owned(), LaneSpeedup::to_json),
        churned = report.devices_churned,
        od_att = report.on_demand_attempted,
        od_done = report.on_demand_completed,
        p50 = report.on_demand_p50.as_millis_f64(),
        p90 = report.on_demand_p90.as_millis_f64(),
        p99 = report.on_demand_p99.as_millis_f64(),
        retries = report.config.retries,
        c_rtx = report.collect_retransmits,
        c_exh = report.exhausted_retries,
        c_churn = report.churn_losses,
        c_stale = report.stale_retries,
        c_reord = report.reorders,
        histogram = report
            .retry_histogram
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        f_rtx = report.frame_retransmits,
        f_dup = report.frame_duplicates,
        f_cdec = report.corrupt_decode_drops,
        f_ctam = report.corrupt_tamper_drops,
        f_exh = report.frames_exhausted,
        f_lost = report.frame_lost_responses,
        h_dup = report.hub_duplicates,
        h_crash = report.hub_crashes,
        h_snap = report.snapshot_bytes,
        pt = per_thread.join(",\n"),
    )
}

/// Renders the whole `BENCH_fleet.json` document for a set of per-algorithm
/// runs sharing one mode label, plus the 1→N scaling sweep.
pub fn document_json(
    mode: &str,
    threads: usize,
    reports: &[FleetReport],
    sweep: &[scaling::ScalingPoint],
) -> String {
    let provers = reports.first().map_or(0, |r| r.config.provers);
    let seed = reports.first().map_or(DEFAULT_SEED, |r| r.config.seed);
    let lane_width = reports
        .first()
        .map_or(1, |r| lanes::effective_width(r.config.lanes));
    let ring_capacity = reports
        .first()
        .map_or(HistoryMode::default(), |r| r.config.history)
        .capacity();
    let entries: Vec<String> = reports.iter().map(|r| report_json(r, "    ")).collect();
    let scaling_entries: Vec<String> = sweep.iter().map(|point| point.to_json("    ")).collect();
    format!(
        "{{\n  \"schema\": \"erasmus-perfbench/v9\",\n  \"mode\": \"{mode}\",\n  \
         \"provers\": {provers},\n  \"threads\": {threads},\n  \"lanes\": {lane_width},\n  \
         \"ring_capacity\": {ring_capacity},\n  \"seed\": {seed},\n  \
         \"results\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        scaling_entries.join(",\n"),
    )
}

/// Renders a human-readable summary table.
pub fn render(reports: &[FleetReport]) -> String {
    let mut out = String::from(
        "Fleet throughput (host wall-clock)\n\
         algorithm       provers  threads  measurements     meas/s     verifs     verif/s  delivered/attempted\n",
    );
    for report in reports {
        out.push_str(&format!(
            "{:<15} {:>7}  {:>7}  {:>12}  {:>9.0}  {:>9}  {:>10.0}  {:>9}/{}\n",
            report.config.algorithm.to_string(),
            report.config.provers,
            report.threads,
            report.measurements_total,
            report.measurements_per_sec(),
            report.verifications_total,
            report.verifications_per_sec(),
            report.collections_delivered,
            report.collections_attempted,
        ));
    }
    out
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
        let report = run(&config);
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
        assert_eq!(report.decode_rejects, 0);
        assert!(report.wire_frames >= 1);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn fleet_runs_for_every_algorithm() {
        for alg in MacAlgorithm::ALL {
            let report = run(&tiny(alg));
            assert!(report.all_healthy, "{alg}");
            assert!(report.measurements_per_sec() > 0.0, "{alg}");
            assert!(report.verifications_per_sec() > 0.0, "{alg}");
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
        let covering = run(&tiny(MacAlgorithm::HmacSha256));
        assert_eq!(covering.history_evictions, 0);
        let mut config = tiny(MacAlgorithm::HmacSha256);
        config.history = HistoryMode::Ring(2);
        let ring = run(&config);

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
        let report = run(&config);
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
        let report = run(&config);
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
        let report = run(&config);
        assert_eq!(report.measurements_total, config.total_measurements());
        assert_eq!(report.verifications_total, report.measurements_total);
        assert!(report.all_healthy);
    }

    #[test]
    fn per_second_is_positive_even_below_timer_resolution() {
        // The regression: a quick phase finishing in "zero" wall time used
        // to serialize measurements_per_sec = 0.0 into BENCH_fleet.json.
        assert!(per_second(1_000, Duration::ZERO) > 0.0);
        assert_eq!(per_second(0, Duration::ZERO), 0.0);
        assert_eq!(per_second(10, Duration::from_secs(2)), 5.0);
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
        let report = run(&config);
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
    fn json_document_shape() {
        let report = run_threaded(&tiny(MacAlgorithm::KeyedBlake2s), 2);
        let sweep = vec![scaling::ScalingPoint {
            threads: 1,
            measurements_per_sec: report.measurements_per_sec(),
            verifications_per_sec: report.verifications_per_sec(),
            speedup: 1.0,
        }];
        let doc = document_json("test", 2, std::slice::from_ref(&report), &sweep);
        assert!(doc.starts_with("{\n"));
        assert!(doc.contains("\"schema\": \"erasmus-perfbench/v9\""));
        assert!(doc.contains("\"ring_capacity\": 64,\n"));
        assert!(doc.contains(
            "\"history\": { \"ring_capacity\": 64, \"resident\": 32, \
             \"evictions\": 0, \"stale_discards\": 0, \"chains_verified\": 8, \
             \"resident_state_bytes\": "
        ));
        // The retired runtime switches left the schema.
        for retired in ["\"delivery\"", "\"scheduler\"", "\"mode\": \"ring\""] {
            assert!(!doc.contains(retired), "{retired}");
        }
        assert!(doc.contains(
            "\"aggregation\": { \"fanout\": 64, \"leaves\": 8, \
             \"nodes\": 9, \"depth\": 2, \"healthy_devices\": 8, \"root_entries\": 32, \
             \"root_digest\": \""
        ));
        assert!(doc.contains("\"events\": {"));
        assert!(doc.contains("\"pool_high_water\""));
        assert!(doc.contains("\"queue_overflow_pushes\""));
        assert!(doc.contains("\"queue_buckets\": 1024"));
        assert!(doc.contains("\"wire\": {"));
        assert!(doc.contains("\"decoded_accepted\""));
        assert!(doc.contains("\"decode_rejects\": 0"));
        assert!(doc.contains("\"decode_mib_per_sec\""));
        assert!(doc.contains("\"lanes\": 1"));
        assert!(doc.contains("\"lane_jobs\": 0"));
        assert!(doc.contains("\"lane_speedup\": null"));
        assert!(doc.contains("\"mode\": \"test\""));
        assert!(doc.contains("\"provers\": 8"));
        assert!(doc.contains("\"threads\": 2"));
        assert!(doc.contains(&format!("\"seed\": {DEFAULT_SEED}")));
        assert!(doc.contains(
            "\"network\": { \"latency_ms\": 0.000, \"jitter_ms\": 0.000, \"loss\": 0, \
             \"duplicate\": 0, \"reorder\": 0, \"corrupt\": 0 }"
        ));
        assert!(doc.contains("\"measurements_per_sec\""));
        assert!(doc.contains("\"verifications_per_sec\""));
        assert!(doc.contains("\"algorithm\": \"Keyed BLAKE2S\""));
        assert!(doc
            .contains("\"collections\": { \"attempted\": 16, \"delivered\": 16, \"dropped\": 0 }"));
        assert!(doc.contains("\"on_demand\""));
        assert!(doc.contains("\"latency_ms_p99\""));
        assert!(doc.contains("\"reliability\": {"));
        assert!(doc.contains("\"retries\": 0"));
        assert!(doc.contains(
            "\"collect\": { \"attempted\": 16, \"unique_accepted\": 16, \"retransmits\": 0, \
             \"exhausted_retries\": 0, \"churn_losses\": 0, \"stale_retries\": 0, \
             \"reorders\": 0, \"retry_histogram\": [16] }"
        ));
        assert!(doc.contains(
            "\"frame\": { \"retransmits\": 0, \"duplicates_injected\": 0, \"corrupt_decode\": 0, \
             \"corrupt_tamper\": 0, \"exhausted\": 0, \"lost_responses\": 0 }"
        ));
        assert!(doc.contains(
            "\"hub\": { \"duplicates_dropped\": 0, \"crashes\": 0, \"snapshot_bytes\": 0 }"
        ));
        assert!(doc.contains("\"hub_batches\""));
        assert!(doc.contains("\"per_thread\""));
        assert!(doc.contains("\"shard\": 0"));
        assert!(doc.contains("\"scaling\""));
        assert!(doc.contains("\"speedup\": 1.00"));
        assert!(doc.contains("\"devices_tracked\": 8"));
        // Balanced braces/brackets — the cheap structural JSON check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn coalescing_ledger_conserves_scheduled_events() {
        // coalesced + singleton == scheduled, in every mode — and with
        // more devices than stagger groups the cohort path must actually
        // save queue slots.
        for lanes in [1usize, 8] {
            let mut config = tiny(MacAlgorithm::HmacSha256);
            config.provers = 64;
            config.stagger_groups = 4;
            config.lanes = lanes;
            let report = run_threaded(&config, 2);
            assert_eq!(
                report.coalesced_events + report.singleton_events,
                report.events_scheduled,
                "lanes={lanes}"
            );
            assert_eq!(report.events_scheduled, report.measurements_total);
            assert!(
                report.coalesced_events > 0,
                "16 devices per stagger group must coalesce (lanes={lanes})"
            );
            assert!(report.event_pool_high_water > 0);
            // Queue accounting: every push is eventually popped.
            assert_eq!(report.queue.pushes, report.queue.pops);
            assert!(report.queue.max_pending > 0);
        }
    }

    #[test]
    fn render_mentions_each_algorithm() {
        let reports: Vec<FleetReport> = MacAlgorithm::ALL.iter().map(|&a| run(&tiny(a))).collect();
        let text = render(&reports);
        for alg in MacAlgorithm::ALL {
            assert!(text.contains(&alg.to_string()), "{text}");
        }
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
        let full = FleetConfig::full(MacAlgorithm::HmacSha256);
        assert!(full.provers >= quick.provers);
    }
}
