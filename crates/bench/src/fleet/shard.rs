//! Fleet shards, driven by a discrete-event engine.
//!
//! [`Shard`] is the unit of work of the fleet harness: a contiguous slice
//! of the fleet whose `(Prover, Verifier)` pairs are *owned* by the scoped
//! worker thread that claimed it, so the hot loops run without any
//! cross-thread sharing or locking. The worker provisions the shard, runs
//! it, reads off its hub the counts and leaf aggregates the fleet needs,
//! and drops the shard, hub included, before it claims the next one. Each
//! shard owns an [`erasmus_sim::Engine`] and runs its slice of the fleet as
//! one interleaved timeline of [`FleetEvent`]s: stagger-cohort ticks that
//! measure and collect, responses travelling back through the
//! [`NetworkModel`], on-demand attestations racing the schedule, and
//! devices leaving/rejoining the fleet (churn).
//!
//! Devices keep their global fleet index for key derivation, for their
//! [`StaggeredSchedule`] phase offset and for their network flows, which
//! makes shard boundaries invisible to the simulated protocol: a device
//! performs the same measurements at the same simulated instants — and its
//! packets suffer the same fates — whether its shard holds one device or
//! five hundred, and whichever worker drives it.
//!
//! Delivered collection responses are verified at their (per-device,
//! latency-shifted) arrival instants; responses arriving at the same
//! instant form one burst. The burst is serialized into framed batch
//! buffers — chunked at [`MAX_BATCH_RESPONSES`] — and folded into the
//! shard's [`VerifierHub`] straight off the bytes through
//! [`VerifierHub::ingest_sequenced_frame`], verifying each record
//! zero-copy off the frame. On-demand reports are verified when they
//! arrive and go into the hub there and then, through
//! [`VerifierHub::ingest`], after the open burst seals, so a device's
//! reports reach the hub in arrival order whatever else the shard carries.
//!
//! The event loop counts straight into the shard's [`ShardReport`], the
//! one declaration of every shard counter, and [`Shard::run`] adds the hub's
//! counts when the run ends; `run_threaded` folds the shards together with
//! [`ShardReport::absorb`]. The shard only carries evidence to its hub: it
//! keeps no verdict of its own. The hub's device histories hold every
//! verdict the verifiers reached, and the shard report reads them off the
//! hub on the worker, as counts of compromised devices and refused reports
//! (`FleetReport::all_healthy` holds when both sums are 0).
//!
//! # Reliability
//!
//! Two hops can fail, and each recovers through its own ARQ loop:
//!
//! * **Collect hop** (device → collector, event-driven): the network model
//!   drops and delays responses as before; *reorder* faults add a
//!   deterministic extra delay so late packets genuinely overtake earlier
//!   ones. With [`FleetConfig::retries`] > 0, a dropped response is
//!   retransmitted after an exponential [`RetryPolicy`] backoff. Retry
//!   events carry the device's churn `epoch`: a device that left the fleet
//!   mid-backoff never replays stale evidence.
//! * **Frame hop** (collector → hub, synchronous): each encoded batch
//!   frame is numbered on a per-shard flow and ingested through
//!   [`VerifierHub::ingest_sequenced_frame`], whose `Ok(Some(_))` return
//!   doubles as the hub's ack. *Duplicate* faults deliver a frame twice —
//!   the hub's dedup window drops the echo. *Corrupt* faults flip a byte
//!   on the wire: a damaged count header hits the strict decoder's live
//!   `DecodeError` path, a damaged digest parses fine but fails MAC
//!   verification (`TamperingDetected`) on a scratch verifier before the
//!   frame is acked; both trigger a retransmission of the pristine frame
//!   until the retry budget runs out.
//!
//! Every fault and retry draw is keyed by global device index or shard
//! base, so recovered totals stay thread-count-invariant and — with a
//! sufficient budget — bit-identical to the fault-free run.
//!
//! # Runtime layout
//!
//! * Every device measures and is collected on its stagger cohort's
//!   lattice `offset + k·T_M`, so the schedule is one
//!   [`FleetEvent::CohortTick`] per (instant, cohort): the tick measures
//!   the due members one by one and, when it ends a round, collects every
//!   member. Each cohort has exactly one tick pending, so the engine's
//!   binary heap holds the cohorts plus the traffic in flight, never one
//!   event per device or per round. The per-shard ledger keeps the
//!   conservation invariant
//!   `coalesced_events + singleton_events == events_scheduled`.
//! * Per-device hot state is struct-of-arrays ([`DeviceState`]): activity,
//!   epoch tags and sequence counters live in parallel vecs indexed by
//!   dense local slot, next to the `provers` and `verifiers` columns.
//! * Events own their payloads: a collection response rides its
//!   [`FleetEvent::CollectDeliver`] or [`FleetEvent::CollectRetry`] by
//!   value, and an on-demand exchange rides its
//!   [`FleetEvent::OnDemandDeliver`] in a box. A stale retry or a spent
//!   budget drops its event and the payload with it, so nothing can leak;
//!   the pending set stays bounded by the traffic in flight (the fleet
//!   determinism tests bound `queue.max_pending` under churn and ARQ).

#![expect(
    clippy::disallowed_types,
    reason = "Instant::now here times the measure/verify phases for throughput reporting; \
              simulation decisions and totals never read wall-clock time (pinned by \
              fleet_determinism.rs)"
)]

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use erasmus_core::{
    decode_hub_snapshot, encode_collection_batch_into, encode_hub_snapshot, AttestationVerdict,
    CollectionRequest, CollectionResponse, DeviceId, FrameView, Measurement, OnDemandRequest,
    OnDemandResponse, Prover, ProverConfig, RetryPolicy, Verifier, VerifierHub,
    MAX_BATCH_RESPONSES,
};
use erasmus_crypto::{Digest, Sha256};
use erasmus_hw::{DeviceKey, DeviceProfile, Mcu};
use erasmus_sim::{
    Corruption, Delivery, Engine, NetworkModel, QueueStats, ScheduledEvent, SimDuration, SimRng,
    SimTime,
};
use erasmus_swarm::StaggeredSchedule;

use super::{FleetConfig, MEASUREMENT_INTERVAL};

/// Network channel tags: a device's flows are `global_id * CHANNELS + tag`,
/// so its collection stream, the two on-demand legs and its ARQ
/// retransmissions draw independent randomness.
const CHANNELS: u64 = 4;
const CHANNEL_COLLECT: u64 = 0;
const CHANNEL_OD_REQUEST: u64 = 1;
const CHANNEL_OD_RESPONSE: u64 = 2;
const CHANNEL_RETRY: u64 = 3;

/// Stream salt for the per-device churn draws (seeds a fresh [`SimRng`] per
/// device, so the plan is independent of the shard partition).
const CHURN_STREAM: u64 = 0x6368_7572_6e21_7331;

/// Flow salt for the collector → hub frame link. Frame flows are per
/// shard (`FRAME_STREAM ^ base`): frame composition already depends on the
/// partition, so frame-hop fault draws may too — recovered totals do not.
const FRAME_STREAM: u64 = 0x6672_616d_6521_7331;

fn flow(global: u64, channel: u64) -> u64 {
    global * CHANNELS + channel
}

/// The master seed every fleet device key derives from.
const FLEET_SEED: &[u8] = b"erasmus-fleet";

/// Struct-of-arrays device state: every hot per-device scalar lives in its
/// own parallel vec, indexed by dense local slot.
///
/// A device's global fleet index (keys, phase offsets, network flows) is
/// `base + local`; it is never stored per device.
struct DeviceState {
    provers: Vec<Prover>,
    verifiers: Vec<Verifier>,
    /// Whether the device is currently part of the fleet (churn).
    active: Vec<bool>,
    /// Bumped on every churn transition: outstanding retry events from
    /// before the churn are recognized as stale and discarded.
    epochs: Vec<u32>,
    collect_seqs: Vec<u64>,
    od_request_seqs: Vec<u64>,
    od_response_seqs: Vec<u64>,
}

impl DeviceState {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            provers: Vec::with_capacity(capacity),
            verifiers: Vec::with_capacity(capacity),
            active: Vec::with_capacity(capacity),
            epochs: Vec::with_capacity(capacity),
            collect_seqs: Vec::with_capacity(capacity),
            od_request_seqs: Vec::with_capacity(capacity),
            od_response_seqs: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, prover: Prover, verifier: Verifier) {
        self.provers.push(prover);
        self.verifiers.push(verifier);
        self.active.push(true);
        self.epochs.push(0);
        self.collect_seqs.push(0);
        self.od_request_seqs.push(0);
        self.od_response_seqs.push(0);
    }

    fn len(&self) -> usize {
        self.provers.len()
    }
}

/// The events a shard's timeline is made of.
///
/// Each event owns its payload. A [`CollectionResponse`] is 40 bytes and
/// rides by value without growing the event past the inline
/// [`OnDemandRequest`] of [`FleetEvent::OnDemand`]; the much larger
/// [`OnDemandExchange`] is boxed, so on x86-64 an event stays 80 bytes and
/// a queued [`ScheduledEvent`] 96, the bound
/// `a_queued_event_fits_in_96_bytes` pins.
enum FleetEvent {
    /// Tick `tick` (1-based) of a stagger cohort's lattice,
    /// `offset + tick·T_M`: every active member measures and, when the
    /// tick ends a round, the verifier's collection request reaches every
    /// member.
    CohortTick { cohort: usize, tick: usize },
    /// A collection response reaches the verifier side.
    CollectDeliver {
        response: CollectionResponse,
        /// How many retransmissions this copy took (0 = first send).
        attempt: u32,
    },
    /// A dropped collection response's retransmission timer fires.
    CollectRetry {
        device: usize,
        /// The response awaiting retransmission.
        response: CollectionResponse,
        /// The original send's collect sequence number: retry fault draws
        /// key off `(CHANNEL_RETRY, seq << 8 | attempt)`, so they never
        /// collide with first-send draws and stay partition-invariant.
        seq: u64,
        attempt: u32,
        /// Churn epoch at the original send: a device that left (or left
        /// and rejoined) mid-backoff must not replay stale evidence.
        epoch: u32,
    },
    /// The verifier hub crashes and restarts from a state snapshot.
    HubCrash,
    /// An authenticated on-demand request reaches a device.
    OnDemand {
        device: usize,
        request: OnDemandRequest,
        issued: SimTime,
    },
    /// An on-demand response reaches the verifier side.
    OnDemandDeliver(Box<OnDemandExchange>),
    /// A device drops out of the fleet.
    DeviceLeave { device: usize },
    /// A device rejoins the fleet and resumes its (phase-aligned) schedule.
    DeviceJoin { device: usize },
}

/// Payload of an [`FleetEvent::OnDemandDeliver`] event.
struct OnDemandExchange {
    device: usize,
    request: OnDemandRequest,
    response: OnDemandResponse,
    issued: SimTime,
}

/// Mutable per-run state threaded through the event loop as the
/// [`Engine::run_with`] context: the shard's ledger plus the loop's
/// scratch. Payloads in flight live in their events, not here.
struct RunState {
    /// Every counter of the run, filled in as events fire; [`Shard::run`]
    /// adds the fields known only at the end.
    report: ShardReport,
    request: CollectionRequest,
    /// Cohort ticks per collection round (`measurements_per_round`).
    round_ticks: usize,
    /// The run's final tick, `measurements_per_round × rounds`.
    last_tick: usize,
    /// ARQ retry policy shared by the collect and frame hops.
    policy: RetryPolicy,
    /// Raw collection responses of the current burst awaiting frame
    /// encode + ingest.
    pending_responses: Vec<CollectionResponse>,
    pending_at: Option<SimTime>,
    /// Reusable frame buffer, so steady-state encoding allocates nothing.
    frame_buf: Vec<u8>,
    /// Per-shard frame-link sequence counter.
    frame_seq: u64,
    /// Reusable due-member scratch for cohort fires (no per-fire alloc).
    due_scratch: Vec<usize>,
}

impl RunState {
    fn new(policy: RetryPolicy, config: &FleetConfig) -> Self {
        Self {
            report: ShardReport::new(policy.budget),
            request: CollectionRequest::latest(config.measurements_per_round),
            round_ticks: config.measurements_per_round,
            last_tick: config.measurements_per_round * config.rounds,
            policy,
            pending_responses: Vec::new(),
            pending_at: None,
            frame_buf: Vec::new(),
            frame_seq: 0,
            due_scratch: Vec::new(),
        }
    }
}

/// One stagger cohort: the local devices sharing a phase offset, i.e.
/// exactly the devices that are measured and collected at the same
/// simulated instants. The queue holds one [`FleetEvent::CohortTick`] per
/// (instant, cohort), never one event per device.
struct Cohort {
    /// The members' shared stagger phase offset.
    offset: SimDuration,
    /// Local device indices, ascending (provision order).
    members: Vec<usize>,
}

/// A contiguous slice of the fleet, driven by one worker at a time.
pub(crate) struct Shard {
    index: usize,
    /// Global fleet index of the shard's first device: the range is
    /// contiguous, so `global - base` recovers the local index when a
    /// decoded frame record is routed back to its verifier.
    base: usize,
    devices: DeviceState,
    /// The shard's verifier-side histories. `run_threaded` reads their
    /// leaf aggregates when the run ends and drops the hub with the shard.
    pub(super) hub: VerifierHub,
    engine: Engine<FleetEvent>,
    /// `(local index, leave, rejoin)` churn plan, drawn per global device.
    churn: Vec<(usize, SimTime, SimTime)>,
    /// `(local index, issue instant)` on-demand plan, sorted by time.
    on_demand: Vec<(usize, SimTime)>,
    /// Stagger cohorts (one per phase offset present in this shard).
    cohorts: Vec<Cohort>,
}

/// What one shard contributed to a fleet run: the one declaration of every
/// shard counter. The event loop counts into it, `Shard::run` reads the
/// hub's counts into it when the run ends, and `ShardReport::absorb` is the
/// one place that knows how each counter combines across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index: 0-based, in fleet order, whichever worker ran it.
    pub shard: usize,
    /// Devices driven by this shard.
    pub provers: usize,
    /// Self-measurements taken by this shard's devices.
    pub measurements: u64,
    /// Measurement MACs verified from this shard's delivered reports.
    pub verifications: u64,
    /// Wall-clock time this shard spent taking measurements.
    pub measure_wall: Duration,
    /// Wall-clock time this shard spent on verifier-side work: frame
    /// ingest and on-demand verification.
    pub verify_wall: Duration,
    /// Simulated busy time accumulated by this shard's provers.
    pub simulated_busy: SimDuration,
    /// Scheduled collection attempts against this shard's devices.
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
    /// Retransmission timers that fired after the device had left — the
    /// stale copy is discarded; counted inside `collections_dropped`.
    pub stale_retries: u64,
    /// Deliveries that drew a reorder fault (extra in-flight delay).
    pub reorders: u64,
    /// `retry_histogram[a]` = deliveries that took `a` retransmissions
    /// (length = retry budget + 1).
    pub retry_histogram: Vec<u64>,
    /// Frame-hop retransmissions sent under the ARQ policy.
    pub frame_retransmits: u64,
    /// Duplicate frame copies injected by the network.
    pub frame_duplicates: u64,
    /// Corrupted frame copies the strict decoder rejected live.
    pub corrupt_decode_drops: u64,
    /// Corrupted frame copies that decoded but failed MAC verification.
    pub corrupt_tamper_drops: u64,
    /// Frames lost for good after the retry budget ran out.
    pub frames_exhausted: u64,
    /// Response records carried by those exhausted frames.
    pub frame_lost_responses: u64,
    /// Devices the shard hub tracks: one history per device that any
    /// report reached.
    pub devices_tracked: usize,
    /// Collection reports recorded across the shard hub's histories.
    pub collections_ingested: u64,
    /// Distinct measurements recorded across those histories (lifetime
    /// count, evicted entries included).
    pub history_entries: u64,
    /// Entries resident in the histories' rings when the shard ended.
    pub history_resident: u64,
    /// Entries evicted from the rings into their sealed hash chains.
    pub history_evictions: u64,
    /// Arrivals discarded for falling behind a sealed ring window.
    pub history_stale_discards: u64,
    /// Device histories whose head digest re-verified as the chain folded
    /// over the resident window.
    pub chains_verified: u64,
    /// Duplicate frames the shard hub's dedup window dropped.
    pub hub_duplicates: u64,
    /// Reports the shard hub refused ([`VerifierHub::rejected`]).
    pub hub_rejected: u64,
    /// Devices whose history holds a non-healthy measurement
    /// ([`VerifierHub::compromised_devices`]).
    pub compromised_devices: u64,
    /// Hub crash/restart cycles survived via snapshot recovery.
    pub hub_crashes: u64,
    /// Total bytes of the recovery snapshots taken at those crashes.
    pub snapshot_bytes: u64,
    /// Collection bursts sealed into the shard hub as batch frames (see
    /// `Shard::flush_batch`); on-demand reports go in one by one and do not
    /// count.
    pub hub_batches: u64,
    /// Largest single collection burst, in responses.
    pub largest_batch: u64,
    /// Encoded collection batch frames this shard ingested.
    pub wire_frames: u64,
    /// Total bytes of those frames, count headers included.
    pub wire_bytes: u64,
    /// Response records carried by the ingested frames.
    pub wire_responses: u64,
    /// Frame-decoded responses whose reports the hub accepted.
    pub wire_accepted: u64,
    /// Wall-clock time spent serializing frames (not part of
    /// `verify_wall`).
    pub encode_wall: Duration,
    /// Wall-clock time of the frame-ingest spans (decode + verify + hub
    /// fold); included in `verify_wall`.
    pub wire_ingest_wall: Duration,
    /// On-demand requests issued against this shard's devices.
    pub on_demand_attempted: u64,
    /// On-demand exchanges that completed end to end.
    pub on_demand_completed: u64,
    /// Simulated end-to-end latency of every completed on-demand exchange,
    /// in completion order.
    pub on_demand_latencies: Vec<SimDuration>,
    /// Devices of this shard that leave and rejoin during the run.
    pub devices_churned: u64,
    /// Scheduled measurements, each taken on its cohort's tick.
    pub events_scheduled: u64,
    /// Cohort ticks that carried at least one due measurement.
    pub singleton_events: u64,
    /// Measurements that shared a tick with an earlier member of their
    /// cohort. Conservation: `coalesced_events + singleton_events ==
    /// events_scheduled`.
    pub coalesced_events: u64,
    /// Lifetime counters of the shard engine's event queue.
    pub queue: QueueStats,
}

impl ShardReport {
    /// An empty ledger whose retry histogram has a bucket for every attempt
    /// a `retries` budget allows.
    pub(crate) fn new(retries: u32) -> Self {
        Self {
            retry_histogram: vec![0; retries as usize + 1],
            ..Self::default()
        }
    }

    /// Folds another shard's ledger into this one. Burst sizes and queue
    /// high-water marks take the maximum; latencies are appended in shard
    /// order; every other counter is added, the walls included, so they
    /// read worker time per layer whatever the partition. `shard` is left
    /// alone.
    pub(crate) fn absorb(&mut self, other: &ShardReport) {
        self.provers += other.provers;
        self.measurements += other.measurements;
        self.verifications += other.verifications;
        self.measure_wall += other.measure_wall;
        self.verify_wall += other.verify_wall;
        self.simulated_busy += other.simulated_busy;
        self.collections_attempted += other.collections_attempted;
        self.collections_delivered += other.collections_delivered;
        self.collections_dropped += other.collections_dropped;
        self.collect_retransmits += other.collect_retransmits;
        self.exhausted_retries += other.exhausted_retries;
        self.churn_losses += other.churn_losses;
        self.stale_retries += other.stale_retries;
        self.reorders += other.reorders;
        for (total, shard) in self.retry_histogram.iter_mut().zip(&other.retry_histogram) {
            *total += shard;
        }
        self.frame_retransmits += other.frame_retransmits;
        self.frame_duplicates += other.frame_duplicates;
        self.corrupt_decode_drops += other.corrupt_decode_drops;
        self.corrupt_tamper_drops += other.corrupt_tamper_drops;
        self.frames_exhausted += other.frames_exhausted;
        self.frame_lost_responses += other.frame_lost_responses;
        self.devices_tracked += other.devices_tracked;
        self.collections_ingested += other.collections_ingested;
        self.history_entries += other.history_entries;
        self.history_resident += other.history_resident;
        self.history_evictions += other.history_evictions;
        self.history_stale_discards += other.history_stale_discards;
        self.chains_verified += other.chains_verified;
        self.hub_duplicates += other.hub_duplicates;
        self.hub_rejected += other.hub_rejected;
        self.compromised_devices += other.compromised_devices;
        self.hub_crashes += other.hub_crashes;
        self.snapshot_bytes += other.snapshot_bytes;
        self.hub_batches += other.hub_batches;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.wire_frames += other.wire_frames;
        self.wire_bytes += other.wire_bytes;
        self.wire_responses += other.wire_responses;
        self.wire_accepted += other.wire_accepted;
        self.encode_wall += other.encode_wall;
        self.wire_ingest_wall += other.wire_ingest_wall;
        self.on_demand_attempted += other.on_demand_attempted;
        self.on_demand_completed += other.on_demand_completed;
        self.on_demand_latencies
            .extend_from_slice(&other.on_demand_latencies);
        self.devices_churned += other.devices_churned;
        self.events_scheduled += other.events_scheduled;
        self.singleton_events += other.singleton_events;
        self.coalesced_events += other.coalesced_events;
        self.queue.pushes += other.queue.pushes;
        self.queue.pops += other.queue.pops;
        self.queue.max_pending = self.queue.max_pending.max(other.queue.max_pending);
    }
}

impl Shard {
    /// Provisions the devices with global fleet indices `range`: per-device
    /// keys (from one key-derivation generator per shard, see
    /// [`DeviceKey::derive_range`]), precomputed MAC schedules, stagger
    /// cohorts — plus the shard's slices of the deterministic churn and
    /// on-demand plans.
    ///
    /// Every device boots the same blank application image, so the shard
    /// builds it once, hands every prover a clone of the `Arc` (copied on a
    /// device's first write, see [`Prover::with_app_image`]) and hashes it
    /// once for every verifier's reference digest.
    ///
    /// `on_demand_plan` is the fleet-wide `(global device, issue instant)`
    /// plan (time-sorted); the shard keeps the entries that fall into its
    /// range. The churn plan is drawn here, from a per-device RNG keyed by
    /// the global index, so both plans are independent of the partition.
    pub(crate) fn provision(
        index: usize,
        config: &FleetConfig,
        schedule: &StaggeredSchedule,
        range: Range<usize>,
        on_demand_plan: &[(usize, SimTime)],
    ) -> Self {
        let buffer_slots = config.measurements_per_round.max(1);
        let span = MEASUREMENT_INTERVAL * (config.measurements_per_round * config.rounds) as u64;
        let mut devices = DeviceState::with_capacity(range.len());
        let profile = DeviceProfile::msp430_8mhz(config.memory_bytes);
        let image = Mcu::zeroed_image(&profile);
        let reference = Sha256::digest(&image);
        let keys = DeviceKey::derive_range(FLEET_SEED, range.start as u64..range.end as u64);
        for (i, key) in range.clone().zip(keys) {
            // The device's phase offset goes into its *prover schedule*:
            // measurements genuinely fire at `offset + k·T_M`, so at any
            // simulated instant only one stagger group is busy measuring.
            let offset = schedule.offset(i);
            let prover_config = ProverConfig::builder()
                .measurement_interval(MEASUREMENT_INTERVAL)
                .buffer_slots(buffer_slots)
                .mac_algorithm(config.algorithm)
                .phase_offset(offset)
                .build()
                .expect("fleet prover config is valid");
            let prover = Prover::with_app_image(
                DeviceId::new(i as u64),
                profile,
                key.clone(),
                prover_config,
                Arc::clone(&image),
            )
            .expect("fleet prover provisions");
            let mut verifier = Verifier::new(key, config.algorithm);
            verifier.set_reference_digest(reference);
            verifier.set_expected_interval(MEASUREMENT_INTERVAL);
            devices.push(prover, verifier);
        }

        let churn = if config.churn > 0.0 {
            range
                .clone()
                .filter_map(|i| {
                    let mut rng = SimRng::seed_from(
                        config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ CHURN_STREAM,
                    );
                    if !rng.gen_bool(config.churn) {
                        return None;
                    }
                    let leave = rng.gen_range(span.as_nanos() / 4, span.as_nanos() / 2);
                    let dwell = rng.gen_range(span.as_nanos() / 8, span.as_nanos() / 4);
                    Some((
                        i - range.start,
                        SimTime::from_nanos(leave),
                        SimTime::from_nanos(leave + dwell),
                    ))
                })
                .collect()
        } else {
            Vec::new()
        };

        let on_demand = on_demand_plan
            .iter()
            .filter(|(device, _)| range.contains(device))
            .map(|&(device, at)| (device - range.start, at))
            .collect();

        // Group the shard's devices into stagger cohorts — one cohort per
        // phase offset, i.e. per set of devices measured and collected at
        // the same simulated instants: the queue holds one tick per
        // (instant, cohort).
        let mut cohorts: Vec<Cohort> = Vec::new();
        let mut by_group: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for global in range.clone() {
            let cohort = *by_group
                .entry(schedule.group_of(global))
                .or_insert_with(|| {
                    cohorts.push(Cohort {
                        offset: schedule.offset(global),
                        members: Vec::new(),
                    });
                    cohorts.len() - 1
                });
            cohorts[cohort].members.push(global - range.start);
        }

        Self {
            index,
            base: range.start,
            devices,
            hub: VerifierHub::with_history(config.history),
            engine: Engine::new(),
            churn,
            on_demand,
            cohorts,
        }
    }

    /// Drives this shard's event loop to completion.
    ///
    /// A device with phase offset `o` measures at `o + k·T_M` and is
    /// collected at its *own* staggered instants `o + r·round_span` — every
    /// `measurements_per_round`-th tick of its cohort — so staggering shifts
    /// whole timelines without changing how many measurements a round
    /// yields: offsets stay strictly inside `T_M`, hence exactly
    /// `measurements_per_round` measurements fall into every device's
    /// collection window regardless of its group. Loss, latency,
    /// churn and on-demand traffic perturb that timeline only through
    /// deterministic per-device draws, keeping every total thread-count-
    /// invariant.
    pub(crate) fn run(&mut self, config: &FleetConfig) -> ShardReport {
        let network = NetworkModel::new(config.network, config.seed);
        let mut state = RunState::new(RetryPolicy::with_budget(config.retries), config);
        let span = MEASUREMENT_INTERVAL * state.last_tick as u64;
        let mut engine = std::mem::take(&mut self.engine);

        // Seed the timeline. Hub crashes go in FIRST: the engine breaks
        // time ties FIFO, so crash events scheduled before everything else
        // fire before any same-instant delivery — the crash boundary never
        // splits a burst differently across thread counts.
        for k in 1..=config.hub_crashes {
            let at = SimTime::ZERO
                + SimDuration::from_nanos(
                    span.as_nanos() / (config.hub_crashes as u64 + 1) * k as u64,
                );
            engine.schedule_at(at, FleetEvent::HubCrash);
        }
        // Then each cohort's first tick (each tick schedules the next), the
        // churn plan, and the on-demand plan (whose requests are built now,
        // in issue order, so each device's `t_req` values are strictly
        // increasing).
        if state.last_tick > 0 {
            for (cohort, entry) in self.cohorts.iter().enumerate() {
                engine.schedule_at(
                    SimTime::ZERO + MEASUREMENT_INTERVAL + entry.offset,
                    FleetEvent::CohortTick { cohort, tick: 1 },
                );
            }
        }
        for &(local, leave, rejoin) in &self.churn {
            engine.schedule_at(leave, FleetEvent::DeviceLeave { device: local });
            engine.schedule_at(rejoin, FleetEvent::DeviceJoin { device: local });
        }
        let plan = std::mem::take(&mut self.on_demand);
        for &(local, issued) in &plan {
            let request = self.devices.verifiers[local]
                .make_on_demand_request(config.measurements_per_round, issued);
            state.report.on_demand_attempted += 1;
            let seq = self.devices.od_request_seqs[local];
            self.devices.od_request_seqs[local] += 1;
            let global = (self.base + local) as u64;
            if let Delivery::Delivered(latency) =
                network.sample(flow(global, CHANNEL_OD_REQUEST), seq)
            {
                engine.schedule_at(
                    issued + latency,
                    FleetEvent::OnDemand {
                        device: local,
                        request,
                        issued,
                    },
                );
            }
        }
        self.on_demand = plan;

        engine.run_with(&mut state, |engine, state, event| {
            self.handle(engine, state, &network, event);
            true
        });
        self.flush_batch(&mut state, &network);
        let queue = engine.queue_stats();
        self.engine = engine;

        let simulated_busy = self
            .devices
            .provers
            .iter()
            .map(|prover| prover.total_busy_time())
            .fold(SimDuration::ZERO, |acc, busy| acc + busy);

        // What the fleet report needs of the hub is read here, on the
        // worker, so the hub can go with the shard.
        let hub = &self.hub;
        ShardReport {
            shard: self.index,
            provers: self.devices.len(),
            simulated_busy,
            devices_tracked: hub.len(),
            collections_ingested: hub.total_collections(),
            history_entries: hub.total_entries(),
            history_resident: hub.total_resident(),
            history_evictions: hub.total_evictions(),
            history_stale_discards: hub.total_stale_discards(),
            chains_verified: hub.verified_chains() as u64,
            hub_duplicates: hub.duplicates(),
            hub_rejected: hub.rejected(),
            compromised_devices: hub.compromised_devices().len() as u64,
            devices_churned: self.churn.len() as u64,
            queue,
            ..state.report
        }
    }

    /// One event of the shard timeline.
    fn handle(
        &mut self,
        engine: &mut Engine<FleetEvent>,
        state: &mut RunState,
        network: &NetworkModel,
        event: ScheduledEvent<FleetEvent>,
    ) {
        let now = event.time;
        match event.payload {
            FleetEvent::CohortTick { cohort, tick } => {
                self.measure_cohort(state, cohort, now);
                if tick < state.last_tick {
                    engine.schedule_at(
                        now + MEASUREMENT_INTERVAL,
                        FleetEvent::CohortTick {
                            cohort,
                            tick: tick + 1,
                        },
                    );
                }
                if tick % state.round_ticks == 0 {
                    for index in 0..self.cohorts[cohort].members.len() {
                        let device = self.cohorts[cohort].members[index];
                        self.collect(engine, state, network, device, now);
                    }
                }
            }
            FleetEvent::CollectRetry {
                device,
                response,
                seq,
                attempt,
                epoch,
            } => {
                if !self.devices.active[device] || self.devices.epochs[device] != epoch {
                    // The device churned mid-backoff: the buffered copy is
                    // stale evidence and must not be replayed; it is
                    // dropped with its event.
                    state.report.collections_dropped += 1;
                    state.report.stale_retries += 1;
                    return;
                }
                state.report.collect_retransmits += 1;
                self.dispatch_collection(
                    engine, state, network, device, response, seq, attempt, epoch, now,
                );
            }
            FleetEvent::CollectDeliver { response, attempt } => {
                state.report.collections_delivered += 1;
                state.report.retry_histogram[attempt as usize] += 1;
                // The response joins the current burst as-is; the whole
                // burst is frame-encoded, decoded and verified off the bytes
                // when it seals (`flush_batch`).
                self.push_response(state, network, now, response);
            }
            FleetEvent::OnDemand {
                device,
                request,
                issued,
            } => {
                if !self.devices.active[device] {
                    return;
                }
                // The fresh measurement dominates the cost of serving the
                // request, so the exchange is timed as measurement work.
                let started = Instant::now();
                let outcome = self.devices.provers[device].handle_on_demand(&request, now);
                state.report.measure_wall += started.elapsed();
                // Rejected requests (e.g. reordered arrivals tripping the
                // anti-replay check) fail the exchange, not the run.
                if let Ok(response) = outcome {
                    state.report.measurements += 1; // the fresh M_0
                    let seq = self.devices.od_response_seqs[device];
                    self.devices.od_response_seqs[device] += 1;
                    let global = (self.base + device) as u64;
                    if let Delivery::Delivered(latency) =
                        network.sample(flow(global, CHANNEL_OD_RESPONSE), seq)
                    {
                        engine.schedule_at(
                            now + latency,
                            FleetEvent::OnDemandDeliver(Box::new(OnDemandExchange {
                                device,
                                request,
                                response,
                                issued,
                            })),
                        );
                    }
                }
            }
            FleetEvent::OnDemandDeliver(exchange) => {
                // The burst in flight seals first. It may hold a collection
                // of this device delivered at an earlier instant; whichever
                // report reaches the hub first sets `collected_at` on the
                // entries both carry, and a burst only seals on a later
                // delivery, which depends on the shard's other traffic.
                self.flush_batch(state, network);
                let device = exchange.device;
                let started = Instant::now();
                let verified = self.devices.verifiers[device].verify_on_demand(
                    &exchange.request,
                    &exchange.response,
                    now,
                );
                state.report.verify_wall += started.elapsed();
                if let Ok(report) = verified {
                    state.report.on_demand_completed += 1;
                    state
                        .report
                        .on_demand_latencies
                        .push(now.saturating_duration_since(exchange.issued));
                    state.report.verifications += report.measurements().len() as u64;
                    // A refused report is counted in `VerifierHub::rejected`,
                    // which the shard report reads off the hub at the end.
                    self.hub.ingest(&report);
                }
            }
            FleetEvent::HubCrash => {
                // Crash boundary. The burst in flight flushes first (frames
                // already on the wire are the network's problem, not the
                // restarting verifier's), then the hub is checkpointed,
                // dropped, and rebuilt from the snapshot bytes alone — and
                // the rebuilt state must be bit-identical.
                self.flush_batch(state, network);
                let snapshot = encode_hub_snapshot(&self.hub);
                let restored = decode_hub_snapshot(&snapshot).expect("hub snapshot round-trips");
                assert_eq!(restored, self.hub, "hub restores bit-identically");
                self.hub = restored;
                state.report.hub_crashes += 1;
                state.report.snapshot_bytes += snapshot.len() as u64;
            }
            FleetEvent::DeviceLeave { device } => {
                if self.devices.active[device] {
                    self.devices.active[device] = false;
                    self.devices.epochs[device] += 1;
                }
            }
            FleetEvent::DeviceJoin { device } => {
                if !self.devices.active[device] {
                    self.devices.active[device] = true;
                    self.devices.epochs[device] += 1;
                    // The skip is phase-aligned, so the device resumes on
                    // its cohort's lattice: the cohort kept ticking, and
                    // its next tick measures the device again.
                    self.devices.provers[device].skip_missed_measurements(now);
                }
            }
        }
    }

    /// Serves the verifier's collection request at `device` on its cohort's
    /// round-ending tick and puts the response on the wire. An absent
    /// device answers nothing: the attempt is lost to churn.
    fn collect(
        &mut self,
        engine: &mut Engine<FleetEvent>,
        state: &mut RunState,
        network: &NetworkModel,
        device: usize,
        now: SimTime,
    ) {
        state.report.collections_attempted += 1;
        if !self.devices.active[device] {
            state.report.collections_dropped += 1;
            state.report.churn_losses += 1;
            return;
        }
        let response = self.devices.provers[device].handle_collection(&state.request, now);
        let seq = self.devices.collect_seqs[device];
        self.devices.collect_seqs[device] += 1;
        let epoch = self.devices.epochs[device];
        self.dispatch_collection(engine, state, network, device, response, seq, 0, epoch, now);
    }

    /// Puts one copy of a collection response on the wire (first send or
    /// retransmission) and schedules what its fate implies.
    ///
    /// Attempt 0 draws on the device's collection flow with the original
    /// sequence — bit-compatible with the pre-ARQ timeline — while
    /// retransmissions draw on the dedicated retry channel keyed by
    /// `(seq, attempt)`, so every copy's fate is an independent,
    /// partition-invariant function of the run seed. A reorder fault
    /// stretches the copy's in-flight latency, letting later sends
    /// genuinely overtake it; a drop either arms the backoff timer or,
    /// with the budget spent, loses the response for good.
    #[expect(
        clippy::too_many_arguments,
        reason = "engine, run state and network are the event loop's; the rest names one copy"
    )]
    fn dispatch_collection(
        &mut self,
        engine: &mut Engine<FleetEvent>,
        state: &mut RunState,
        network: &NetworkModel,
        device: usize,
        response: CollectionResponse,
        seq: u64,
        attempt: u32,
        epoch: u32,
        now: SimTime,
    ) {
        let global = (self.base + device) as u64;
        let (fault_flow, fault_seq) = if attempt == 0 {
            (flow(global, CHANNEL_COLLECT), seq)
        } else {
            (flow(global, CHANNEL_RETRY), (seq << 8) | attempt as u64)
        };
        match network.sample(fault_flow, fault_seq) {
            Delivery::Delivered(latency) => {
                let mut latency = latency;
                if let Some(extra) = network.sample_faults(fault_flow, fault_seq).reorder {
                    latency += extra;
                    state.report.reorders += 1;
                }
                engine.schedule_at(
                    now + latency,
                    FleetEvent::CollectDeliver { response, attempt },
                );
            }
            Delivery::Dropped => {
                if state.policy.allows_retry(attempt) {
                    engine.schedule_at(
                        now + state.policy.backoff(attempt),
                        FleetEvent::CollectRetry {
                            device,
                            response,
                            seq,
                            attempt: attempt + 1,
                            epoch,
                        },
                    );
                } else {
                    state.report.collections_dropped += 1;
                    state.report.exhausted_retries += 1;
                }
            }
        }
    }

    /// Fires every due measurement of a stagger cohort at `now`, one
    /// device at a time in ascending local order.
    fn measure_cohort(&mut self, state: &mut RunState, cohort: usize, now: SimTime) {
        // One scratch vec is reused across ticks.
        let mut due = std::mem::take(&mut state.due_scratch);
        due.clear();
        for &local in &self.cohorts[cohort].members {
            if !self.devices.active[local] {
                continue;
            }
            let next = self.devices.provers[local].next_measurement_due();
            // Active members never fall behind the lattice: every
            // scheduled measurement is taken on its tick, and a rejoin
            // skips ahead phase-aligned.
            debug_assert!(next >= now, "device {local} missed its tick at {now}");
            if next == now {
                due.push(local);
            }
        }

        if !due.is_empty() {
            // Coalescing ledger: these measurements ride ONE tick.
            state.report.events_scheduled += due.len() as u64;
            state.report.singleton_events += 1;
            state.report.coalesced_events += due.len() as u64 - 1;
            let started = Instant::now();
            for &local in &due {
                self.devices.provers[local]
                    .self_measure(now)
                    .expect("fleet measurement");
            }
            state.report.measurements += due.len() as u64;
            state.report.measure_wall += started.elapsed();
        }
        due.clear();
        state.due_scratch = due;
    }

    /// Buffers a raw collection response into the current delivery burst;
    /// a new arrival instant seals the previous burst into the hub.
    fn push_response(
        &mut self,
        state: &mut RunState,
        network: &NetworkModel,
        at: SimTime,
        response: CollectionResponse,
    ) {
        if state.pending_at != Some(at) {
            self.flush_batch(state, network);
            state.pending_at = Some(at);
        }
        state.pending_responses.push(response);
    }

    /// Seals the buffered collection burst into the shard hub.
    ///
    /// The responses are serialized into framed batch buffers — chunked at
    /// [`MAX_BATCH_RESPONSES`], since a single-group stagger can put a
    /// whole shard into one instant — and carried across the frame link by
    /// [`Shard::deliver_frame`]'s ARQ loop, which verifies each record
    /// zero-copy off the frame, at the burst's arrival instant, by the
    /// device's own verifier. However many frames it takes, a burst counts
    /// as *one* hub batch. Encoding is timed separately (`encode_wall`);
    /// the ingest span lands in both `wire_ingest_wall` and `verify_wall`.
    fn flush_batch(&mut self, state: &mut RunState, network: &NetworkModel) {
        let Some(at) = state.pending_at.take() else {
            return;
        };
        let mut responses = std::mem::take(&mut state.pending_responses);
        let mut frame = std::mem::take(&mut state.frame_buf);
        let frame_flow = FRAME_STREAM ^ self.base as u64;
        for chunk in responses.chunks(MAX_BATCH_RESPONSES) {
            frame.clear();
            let started = Instant::now();
            encode_collection_batch_into(&mut frame, chunk);
            state.report.encode_wall += started.elapsed();
            // First-send accounting: however many times the ARQ loop below
            // re-carries this frame, it counts once here, so the wire
            // totals stay comparable across fault settings.
            state.report.wire_frames += 1;
            state.report.wire_bytes += frame.len() as u64;
            let frame_seq = state.frame_seq;
            state.frame_seq += 1;
            self.deliver_frame(state, network, frame_flow, frame_seq, &frame, chunk, at);
        }
        state.report.hub_batches += 1;
        state.report.largest_batch = state.report.largest_batch.max(responses.len() as u64);
        responses.clear();
        state.pending_responses = responses;
        state.frame_buf = frame;
    }

    /// Carries one encoded batch frame across the collector → hub link
    /// until the hub acknowledges it or the retry budget runs out.
    ///
    /// Each copy's fate is drawn from the fault stream at
    /// `(frame_flow, frame_seq << 8 | attempt)`. A corrupted copy is
    /// damaged and delivered so the verifier side rejects it *live* —
    /// through the strict decoder for structural damage, through MAC
    /// verification for payload damage — and the pristine frame is then
    /// retransmitted. A clean copy goes through
    /// [`VerifierHub::ingest_sequenced_frame`], whose fresh acceptance is
    /// the ack; a duplicate fault re-delivers the acked copy and the
    /// hub's dedup window must swallow the echo. The frame link itself
    /// does not lose frames (the collector and hub are co-located; loss
    /// lives on the device radio hop), so only corruption consumes
    /// retries here.
    #[expect(
        clippy::too_many_arguments,
        reason = "run state and network are the event loop's; the rest names one frame copy"
    )]
    fn deliver_frame(
        &mut self,
        state: &mut RunState,
        network: &NetworkModel,
        frame_flow: u64,
        frame_seq: u64,
        frame: &[u8],
        chunk: &[CollectionResponse],
        at: SimTime,
    ) {
        let base = self.base as u64;
        let mut attempt: u32 = 0;
        loop {
            let draw = network.sample_faults(frame_flow, (frame_seq << 8) | attempt as u64);
            if let Some(corruption) = draw.corrupt {
                self.deliver_corrupt_copy(state, frame, chunk, corruption, at);
                if state.policy.allows_retry(attempt) {
                    state.report.frame_retransmits += 1;
                    attempt += 1;
                    continue;
                }
                state.report.frames_exhausted += 1;
                state.report.frame_lost_responses += chunk.len() as u64;
                return;
            }
            let verifiers = &mut self.devices.verifiers;
            let started = Instant::now();
            let outcome = self
                .hub
                .ingest_sequenced_frame(frame_flow, frame_seq, frame, |view| {
                    let local = (view.device().value() - base) as usize;
                    let report = verifiers[local]
                        .verify_frame_response(&view, at)
                        .expect("fleet collection verifies");
                    state.report.verifications += report.measurements().len() as u64;
                    Some(report)
                })
                .expect("shard-encoded frame decodes")
                .expect("first acceptance of a fresh sequence");
            let elapsed = started.elapsed();
            state.report.wire_ingest_wall += elapsed;
            state.report.verify_wall += elapsed;
            state.report.wire_responses += outcome.responses;
            state.report.wire_accepted += outcome.accepted;
            if draw.duplicate.is_some() {
                // The link re-delivers the acked copy; the dedup window
                // must drop the echo without running any verification.
                let echo = self
                    .hub
                    .ingest_sequenced_frame(frame_flow, frame_seq, frame, |_| {
                        unreachable!("duplicate frames are dropped before verification")
                    })
                    .expect("duplicate copy still decodes");
                assert!(echo.is_none(), "hub dedup window drops the echo");
                state.report.frame_duplicates += 1;
            }
            return;
        }
    }

    /// Delivers one corrupted copy of `frame` and checks that the verifier
    /// side rejects it without perturbing any live state, so the
    /// retransmitted pristine copy is still fresh.
    ///
    /// Structural damage flips a count-header byte: the strict decoder
    /// must throw a `DecodeError` before the dedup window or any verifier
    /// is touched. Payload damage flips a digest byte of the first
    /// measurement of the first non-empty response, re-encoded as a frame
    /// of its own: the frame still parses, but the record's MAC no longer
    /// matches — checked on a *clone* of the device's verifier (collection
    /// verification advances `last_collection`, and a discarded frame must
    /// not move the live coverage window).
    fn deliver_corrupt_copy(
        &mut self,
        state: &mut RunState,
        frame: &[u8],
        chunk: &[CollectionResponse],
        corruption: Corruption,
        at: SimTime,
    ) {
        let started = Instant::now();
        let evidence = chunk
            .iter()
            .find(|response| !response.measurements.is_empty());
        match evidence {
            // A frame of empty responses has no authenticated payload, so
            // any damage to it is structural.
            Some(response) if !corruption.structural => {
                let mut damaged = response.clone();
                let first = &damaged.measurements[0];
                let mut digest = *first.digest();
                digest[0] ^= corruption.mask;
                damaged.measurements[0] =
                    Measurement::from_parts(first.timestamp(), digest, *first.tag());
                let mut bytes = Vec::new();
                encode_collection_batch_into(&mut bytes, std::slice::from_ref(&damaged));
                let parsed =
                    FrameView::parse(&bytes).expect("payload corruption preserves framing");
                let view = parsed
                    .responses()
                    .next()
                    .expect("damaged response still present");
                let local = (damaged.device.value() - self.base as u64) as usize;
                let report = self.devices.verifiers[local]
                    .clone()
                    .verify_frame_response(&view, at)
                    .expect("corrupted evidence still verifies to a report");
                assert_eq!(
                    report.verdict(),
                    AttestationVerdict::TamperingDetected,
                    "flipped digest byte must surface as tampering"
                );
                state.report.corrupt_tamper_drops += 1;
            }
            _ => {
                // Flip a count-header byte: the decoder must reject the
                // frame outright, leaving the hub (dedup window included)
                // untouched.
                let mut damaged = frame.to_vec();
                damaged[0] ^= corruption.mask;
                self.hub
                    .ingest_sequenced_frame(
                        FRAME_STREAM ^ self.base as u64,
                        u64::MAX,
                        &damaged,
                        |_| unreachable!("structurally corrupt frames fail decode"),
                    )
                    .expect_err("damaged count header fails the strict decoder");
                state.report.corrupt_decode_drops += 1;
            }
        }
        let elapsed = started.elapsed();
        state.report.wire_ingest_wall += elapsed;
        state.report.verify_wall += elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::MacAlgorithm;
    use erasmus_sim::NetworkConfig;

    fn config() -> FleetConfig {
        FleetConfig::new(6, 3, 2, 256, 3, MacAlgorithm::HmacSha256)
    }

    /// The fleet's health verdict for one shard: every device history is
    /// free of forged and compromised entries, and the hub refused no
    /// report.
    fn assert_hub_healthy(hub: &VerifierHub) {
        assert!(hub.all_healthy(), "a device history holds a bad verdict");
        assert_eq!(hub.rejected(), 0, "the hub refused a report");
    }

    fn shard_for(config: &FleetConfig, range: Range<usize>, index: usize) -> Shard {
        let schedule = config.schedule();
        Shard::provision(
            index,
            config,
            &schedule,
            range,
            &super::super::on_demand_plan(config),
        )
    }

    #[test]
    fn shard_drives_only_its_range() {
        let config = config();
        let mut shard = shard_for(&config, 2..5, 1);
        let report = shard.run(&config);
        assert_eq!(report.shard, 1);
        assert_eq!(report.provers, 3);
        assert_eq!(report.measurements, 3 * 3 * 2);
        assert_eq!(report.verifications, report.measurements);
        assert!(report.simulated_busy > SimDuration::ZERO);
        assert_eq!(report.collections_attempted, 3 * 2);
        assert_eq!(report.collections_delivered, 3 * 2);
        assert_eq!(report.collections_dropped, 0);
        assert!(report.hub_batches >= 1);
        assert!(report.largest_batch >= 1);

        // The hub tracks exactly the shard's devices, under their *global*
        // fleet ids, and every one of them is healthy.
        let hub = &shard.hub;
        assert_hub_healthy(hub);
        assert_eq!(hub.len(), 3);
        for id in 2..5u64 {
            let history = hub.history(DeviceId::new(id)).expect("tracked");
            assert_eq!(history.len(), 3 * 2);
            assert_eq!(history.collections(), 2);
        }
        assert!(hub.history(DeviceId::new(0)).is_none());
    }

    #[test]
    fn measurement_instants_are_genuinely_staggered() {
        let config = config(); // 6 devices, 3 stagger groups over T_M = 10 s
        let schedule = config.schedule();
        let mut shard = shard_for(&config, 0..3, 0);
        shard.run(&config);
        let hub = &shard.hub;
        // Devices 0/1/2 sit in groups 0/1/2: their k-th measurements fire at
        // 10k, 10k + 3.33…, 10k + 6.66… seconds — never the same instant.
        let firsts: Vec<_> = (0..3u64)
            .map(|id| {
                hub.history(DeviceId::new(id))
                    .expect("tracked")
                    .entries()
                    .next()
                    .expect("measured")
                    .timestamp
            })
            .collect();
        for (device, first) in firsts.iter().enumerate() {
            let expected = SimTime::ZERO + MEASUREMENT_INTERVAL + schedule.offset(device);
            assert_eq!(*first, expected, "device {device}");
        }
        assert!(firsts[0] < firsts[1] && firsts[1] < firsts[2]);
    }

    #[test]
    fn same_instant_deliveries_form_one_batch() {
        // One stagger group: all devices collect — and, with an ideal
        // network, deliver — at the same instants, so each round is exactly
        // one burst.
        let config = FleetConfig::new(4, 2, 3, 128, 1, MacAlgorithm::KeyedBlake2s);
        let mut shard = shard_for(&config, 0..4, 0);
        let report = shard.run(&config);
        assert_eq!(report.hub_batches, config.rounds as u64);
        assert_eq!(report.largest_batch, config.provers as u64);
    }

    #[test]
    fn lossy_shard_conserves_attempts() {
        let mut config = config();
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            loss: 0.3,
            ..NetworkConfig::IDEAL
        };
        config.seed = 7;
        let mut shard = shard_for(&config, 0..6, 0);
        let report = shard.run(&config);
        assert_eq!(
            report.collections_delivered + report.collections_dropped,
            report.collections_attempted
        );
        assert_eq!(report.collections_attempted, 6 * 2);
        // Measurements happen on-device regardless of collection fate.
        assert_eq!(report.measurements, 6 * 3 * 2);
        // Only delivered reports are verified.
        assert_eq!(report.verifications, report.collections_delivered * 3);
        assert_eq!(shard.hub.ingested(), report.collections_delivered);

        // Determinism: the identical shard sees the identical fates.
        let mut again = shard_for(&config, 0..6, 0);
        let rerun = again.run(&config);
        assert_eq!(rerun.collections_delivered, report.collections_delivered);
        assert_eq!(rerun.verifications, report.verifications);
    }

    #[test]
    fn churned_devices_miss_work_deterministically() {
        let mut config = FleetConfig::new(8, 2, 4, 128, 2, MacAlgorithm::HmacSha256);
        config.churn = 0.9;
        config.seed = 11;
        let mut shard = shard_for(&config, 0..8, 0);
        let report = shard.run(&config);
        assert!(report.devices_churned > 0, "plan drew no churners");
        // Absent devices measure less and miss collections.
        assert!(report.measurements < config.total_measurements());
        assert!(report.collections_dropped > 0);
        assert_eq!(
            report.collections_delivered + report.collections_dropped,
            report.collections_attempted
        );
        // Gaps must not read as compromise.
        assert_hub_healthy(&shard.hub);

        // Identical simulated outcome on a re-run (wall clocks aside).
        let mut again = shard_for(&config, 0..8, 0);
        let rerun = again.run(&config);
        assert_eq!(rerun.measurements, report.measurements);
        assert_eq!(rerun.verifications, report.verifications);
        assert_eq!(rerun.collections_delivered, report.collections_delivered);
        assert_eq!(rerun.collections_dropped, report.collections_dropped);
        assert_eq!(rerun.devices_churned, report.devices_churned);
        assert_eq!(rerun.simulated_busy, report.simulated_busy);
    }

    #[test]
    fn extreme_latency_does_not_read_as_tampering() {
        // Delivery shifted by more than T_M moves the verifier's coverage
        // window: the resulting "missing measurement" verdicts are a
        // latency artefact, not tampering, and must not fail the run.
        let mut config = config();
        config.network = NetworkConfig {
            base_latency: SimDuration::from_secs(15),
            jitter: SimDuration::from_secs(10),
            loss: 0.0,
            ..NetworkConfig::IDEAL
        };
        let mut shard = shard_for(&config, 0..6, 0);
        let report = shard.run(&config);
        assert_eq!(report.collections_delivered, report.collections_attempted);
        assert_eq!(report.collections_dropped, 0);
        // Latency gaps must not read as compromise.
        assert_hub_healthy(&shard.hub);
    }

    #[test]
    fn an_infected_device_is_counted_and_the_fold_keeps_it() {
        // Device 1 carries an implant before its first measurement. The
        // write gives its prover a private copy of the shared image, so
        // every measurement it takes misses the reference digest.
        let config = config();
        let mut infected = shard_for(&config, 0..3, 0);
        infected.devices.provers[1]
            .mcu_mut()
            .write_app_memory(0, b"implant")
            .expect("infect");
        let report = infected.run(&config);
        assert_eq!(report.compromised_devices, 1);
        assert_eq!(report.hub_rejected, 0);
        assert_eq!(infected.hub.compromised_devices(), vec![DeviceId::new(1)]);

        // Folded with a healthy shard's report, the count stays 1: the
        // fleet reads unhealthy.
        let healthy = shard_for(&config, 3..6, 1).run(&config);
        assert_eq!(healthy.compromised_devices, 0);
        let mut total = ShardReport::new(config.retries);
        total.absorb(&report);
        total.absorb(&healthy);
        assert_eq!(total.compromised_devices, 1);
        assert_eq!(total.devices_tracked, 6);
    }

    #[test]
    fn on_demand_exchanges_complete_under_ideal_network() {
        let mut config = config();
        config.on_demand = 5;
        let mut shard = shard_for(&config, 0..6, 0);
        let report = shard.run(&config);
        assert_eq!(report.on_demand_attempted, 5);
        assert_eq!(report.on_demand_completed, 5);
        assert_eq!(report.on_demand_latencies.len(), 5);
        // Each exchange takes one fresh measurement on top of the schedule.
        assert_eq!(report.measurements, config.total_measurements() + 5);
        assert_hub_healthy(&shard.hub);
    }

    #[test]
    fn oversized_bursts_chunk_into_multiple_frames() {
        // One stagger group puts the whole fleet into a single burst;
        // 1100 responses exceed MAX_BATCH_RESPONSES (1024), so the burst
        // must ship as two frames while still counting as one hub batch.
        let config = FleetConfig::new(1100, 1, 1, 64, 1, MacAlgorithm::HmacSha256);
        assert!(config.provers > MAX_BATCH_RESPONSES);
        let mut shard = shard_for(&config, 0..1100, 0);
        let report = shard.run(&config);
        assert_eq!(report.largest_batch, 1100);
        assert_eq!(report.hub_batches, 1);
        assert_eq!(report.wire_frames, 2);
        assert_eq!(report.wire_responses, 1100);
        assert_eq!(report.wire_accepted, 1100);
        assert_hub_healthy(&shard.hub);
    }

    #[test]
    fn a_shard_shares_one_image_and_one_reference_digest() {
        let config = config();
        let shard = shard_for(&config, 1..6, 0);
        let provers = &shard.devices.provers;
        assert_eq!(provers.len(), 5);
        let image = provers[0].mcu().app_memory();
        assert_eq!(image.len(), config.memory_bytes);
        assert!(image.iter().all(|&b| b == 0));
        let digest = Sha256::digest(image);
        for (prover, verifier) in provers.iter().zip(&shard.devices.verifiers) {
            assert!(std::ptr::eq(prover.mcu().app_memory(), image));
            assert_eq!(verifier.reference_digest(), Some(&digest));
        }
    }

    #[test]
    fn a_queued_event_fits_in_96_bytes() {
        // Responses ride their events by value at no cost to the heap: the
        // inline `OnDemandRequest` already sets the event's size.
        assert!(
            std::mem::size_of::<ScheduledEvent<FleetEvent>>() <= 96,
            "a queued fleet event outgrew 96 bytes: OnDemandExchange must stay boxed, \
             and no other payload may grow past OnDemandRequest"
        );
    }

    #[test]
    fn empty_shard_is_a_no_op() {
        let config = config();
        let mut shard = shard_for(&config, 0..0, 0);
        let report = shard.run(&config);
        assert_eq!(report.provers, 0);
        assert_eq!(report.measurements, 0);
        assert_hub_healthy(&shard.hub);
        assert!(shard.hub.is_empty());
    }

    /// A faulty-but-retried config used by the recovery tests: every fault
    /// family is on, with enough budget that nothing is lost for good.
    fn faulty_config() -> FleetConfig {
        let mut config = FleetConfig::new(24, 3, 3, 256, 3, MacAlgorithm::HmacSha256);
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            loss: 0.1,
            duplicate: 0.05,
            reorder: 0.05,
            corrupt: 0.05,
        };
        config.retries = 6;
        config.seed = 42;
        config
    }

    #[test]
    fn retries_recover_every_report_under_faults() {
        let config = faulty_config();
        let mut shard = shard_for(&config, 0..24, 0);
        let report = shard.run(&config);

        // Conservation: every attempt is delivered, lost to churn, lost to
        // a stale retry, or exhausted — and with this budget, nothing
        // exhausts, so recovery is total.
        assert_eq!(report.collections_attempted, 24 * 3);
        assert_eq!(
            report.collections_delivered
                + report.exhausted_retries
                + report.churn_losses
                + report.stale_retries,
            report.collections_attempted
        );
        assert_eq!(report.exhausted_retries, 0);
        assert_eq!(report.collections_delivered, report.collections_attempted);
        assert!(report.collect_retransmits > 0, "loss 10% must retransmit");
        assert_eq!(
            report.retry_histogram.iter().sum::<u64>(),
            report.collections_delivered
        );
        assert!(
            report.retry_histogram[1..].iter().sum::<u64>() > 0,
            "some delivery took at least one retry"
        );

        // Frame hop: corruption was seen live on both rejection paths over
        // this many frames, and every frame eventually got through.
        assert_eq!(report.frames_exhausted, 0);
        assert_eq!(report.frame_lost_responses, 0);
        assert_eq!(report.wire_responses, report.collections_delivered);

        // The hub saw everything exactly once, dropped every duplicate
        // frame, and recovery reads as no compromise.
        let hub = &shard.hub;
        assert_eq!(hub.duplicates(), report.frame_duplicates);
        assert_hub_healthy(hub);
        assert_eq!(
            hub.ingested(),
            report.collections_delivered + report.on_demand_completed
        );
    }

    #[test]
    fn recovered_totals_match_the_lossless_run() {
        let faulty = faulty_config();
        let mut lossless = faulty.clone();
        lossless.network = NetworkConfig::IDEAL;
        lossless.retries = 0;

        let mut faulty_shard = shard_for(&faulty, 0..24, 0);
        let faulty_report = faulty_shard.run(&faulty);
        let mut lossless_shard = shard_for(&lossless, 0..24, 0);
        let lossless_report = lossless_shard.run(&lossless);

        assert_eq!(
            faulty_report.collections_delivered,
            lossless_report.collections_delivered
        );
        assert_eq!(faulty_report.measurements, lossless_report.measurements);
        let faulty_hub = &faulty_shard.hub;
        let lossless_hub = &lossless_shard.hub;
        assert_eq!(faulty_hub.ingested(), lossless_hub.ingested());
        assert_eq!(faulty_hub.total_entries(), lossless_hub.total_entries());
        assert_eq!(
            faulty_hub.total_collections(),
            lossless_hub.total_collections()
        );
    }

    #[test]
    fn hub_crashes_recover_bit_identically() {
        let mut crashing = faulty_config();
        crashing.hub_crashes = 3;
        let smooth = FleetConfig {
            hub_crashes: 0,
            ..crashing.clone()
        };

        let mut crashed_shard = shard_for(&crashing, 0..24, 0);
        let crashed_report = crashed_shard.run(&crashing);
        let mut smooth_shard = shard_for(&smooth, 0..24, 0);
        let smooth_report = smooth_shard.run(&smooth);

        assert_eq!(crashed_report.hub_crashes, 3);
        assert!(crashed_report.snapshot_bytes > 0);
        assert_eq!(smooth_report.hub_crashes, 0);
        assert_eq!(
            crashed_report.collections_delivered,
            smooth_report.collections_delivered
        );
        // The crash/restore cycles must leave no trace: the recovered hub
        // equals the never-crashed one bit for bit.
        assert_eq!(crashed_shard.hub, smooth_shard.hub);
    }

    #[test]
    fn device_leaving_mid_backoff_never_replays_stale_evidence() {
        // Heavy loss plus churn: some retransmission timers are guaranteed
        // to fire on devices that churned away in the meantime.
        let mut config = FleetConfig::new(32, 3, 3, 256, 4, MacAlgorithm::HmacSha256);
        config.network = NetworkConfig {
            base_latency: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            loss: 0.35,
            ..NetworkConfig::IDEAL
        };
        config.retries = 8;
        config.churn = 0.6;
        config.seed = 13;
        let mut shard = shard_for(&config, 0..32, 0);
        let report = shard.run(&config);

        assert!(report.devices_churned > 0, "churn plan must trigger");
        assert_eq!(
            report.collections_delivered
                + report.exhausted_retries
                + report.churn_losses
                + report.stale_retries,
            report.collections_attempted
        );
        // Every delivery is fresh-epoch by construction; the hub holds
        // exactly the delivered reports, no replayed extras.
        assert_eq!(
            shard.hub.ingested(),
            report.collections_delivered + report.on_demand_completed
        );
    }
}
