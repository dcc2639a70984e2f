//! The fleet pipeline of `fleet::run_threaded`, re-composed from the
//! public calls of each layer so that every call can be timed from the
//! outside.
//!
//! The structure is the shard runtime's, on a lossless network:
//!
//! 1. the balanced partition, then every device provisioned serially with
//!    the arguments `Shard::provision` uses;
//! 2. one loop per shard (on scoped threads when there are several): per
//!    (round, stagger group) pass, each measurement tick measures the due
//!    cohort members in ascending order through
//!    `Prover::self_measure_batch::<8>`/`<4>` and the scalar path, exactly
//!    as the lane width allows; the collection tick has every member
//!    answer, and the burst is chunked at [`MAX_BATCH_RESPONSES`], encoded
//!    and folded into the shard hub through
//!    [`VerifierHub::ingest_sequenced_frame`], each record verified by the
//!    device's own verifier;
//! 3. merge, aggregation tree and chain verification, serially.
//!
//! With an ideal network every response arrives at its collection instant,
//! so each device sees the same calls at the same simulated times as under
//! the event engine, and the totals and root digest agree exactly (the
//! tests pin this). The event queue, cohort bookkeeping, pools and network
//! draws of the real runtime have no counterpart here: their cost is what
//! `run_s` minus this pipeline's untraced wall leaves over.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use erasmus_bench::fleet::{lanes, FleetConfig, AGGREGATION_FANOUT};
use erasmus_core::{
    encode_collection_batch_into, CollectionRequest, CollectionResponse, DeviceId, Prover,
    ProverConfig, Verifier, VerifierHub, MAX_BATCH_RESPONSES,
};
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};
use erasmus_swarm::{digest_hex, AggregationTree, StaggeredSchedule};

use crate::stats;
use crate::trace::{Layer, Tracer};

/// What a pipeline run must reproduce of `run_threaded`: its totals and
/// root digest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Totals {
    pub devices: u64,
    pub measurements: u64,
    pub verifications: u64,
    pub history_entries: u64,
    pub history_resident: u64,
    pub history_evictions: u64,
    pub chains_verified: u64,
    pub simulated_busy_ns: u64,
    pub root_digest: String,
}

impl Totals {
    /// Named fields, in a fixed order, for the child-process result line.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("devices", self.devices.to_string()),
            ("measurements_total", self.measurements.to_string()),
            ("verifications_total", self.verifications.to_string()),
            ("history_entries", self.history_entries.to_string()),
            ("history_resident", self.history_resident.to_string()),
            ("history_evictions", self.history_evictions.to_string()),
            ("chains_verified", self.chains_verified.to_string()),
            ("simulated_busy_ns", self.simulated_busy_ns.to_string()),
            ("root_digest", self.root_digest.clone()),
        ]
    }
}

/// Counts taken at the layer boundaries, summed over the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Application-memory bytes hashed by self-measurements.
    pub bytes_hashed: u64,
    /// `self_measure_batch` calls (4 or 8 lanes).
    pub lane_jobs: u64,
    /// Bytes of the encoded batch frames.
    pub frame_bytes: u64,
    /// Frame records the hub rejected or the verify callback refused.
    pub ingest_rejects: u64,
    /// `verify_frame_response` calls that returned an error.
    pub verify_failed: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.bytes_hashed += other.bytes_hashed;
        self.lane_jobs += other.lane_jobs;
        self.frame_bytes += other.frame_bytes;
        self.ingest_rejects += other.ingest_rejects;
        self.verify_failed += other.verify_failed;
    }
}

/// One pipeline run.
pub struct Outcome {
    pub totals: Totals,
    pub counts: Counts,
    /// Wall time from the partition to the last chain verified.
    pub wall: Duration,
    /// `VmRSS` growth across provisioning and across the shard loops, in
    /// bytes (0 where `/proc` is unavailable).
    pub provision_rss: i64,
    pub shard_loop_rss: i64,
    /// The serial phases' spans (index 0) followed by one tracer per
    /// shard; all empty when tracing is off.
    pub tracers: Vec<Tracer>,
}

/// A provisioned shard: devices with global indices `base..base + len`.
struct Shard {
    base: usize,
    provers: Vec<Prover>,
    verifiers: Vec<Verifier>,
    /// Local device indices per stagger group present in the shard, in
    /// ascending group order; members ascend.
    cohorts: Vec<Vec<usize>>,
    hub: VerifierHub,
}

/// What a shard loop hands back for the serial merge.
struct ShardResult {
    hub: VerifierHub,
    tracer: Tracer,
    counts: Counts,
    measurements: u64,
    verifications: u64,
    simulated_busy_ns: u64,
}

/// Runs the pipeline for `config` on `threads` shards. With `trace` on,
/// every layer call records a span; off, the same code runs without
/// reading the clock.
pub fn run(config: &FleetConfig, threads: usize, trace: bool) -> Outcome {
    assert!(threads > 0, "at least one worker thread is required");
    let started = Instant::now();
    let origin = trace.then_some(started);
    let mut serial = Tracer::new(origin, None);
    let threads = threads.min(config.provers.max(1));
    let schedule = config.schedule();
    let rss_start = rss();

    let base = config.provers / threads;
    let remainder = config.provers % threads;
    let mut start = 0usize;
    let shards: Vec<Shard> = (0..threads)
        .map(|index| {
            let size = base + usize::from(index < remainder);
            let range = start..start + size;
            start += size;
            provision(&mut serial, config, &schedule, range)
        })
        .collect();
    let rss_provisioned = rss();

    let finished: Vec<ShardResult> = if shards.len() == 1 {
        shards
            .into_iter()
            .map(|shard| shard.run(config, &schedule, Tracer::new(origin, Some(0))))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(index, shard)| {
                    let schedule = &schedule;
                    scope.spawn(move || {
                        shard.run(config, schedule, Tracer::new(origin, Some(index)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("pipeline shard thread panicked"))
                .collect()
        })
    };
    let rss_looped = rss();

    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let mut tracers = Vec::with_capacity(finished.len() + 1);
    let mut hub = VerifierHub::with_history(config.history);
    for shard in finished {
        totals.measurements += shard.measurements;
        totals.verifications += shard.verifications;
        totals.simulated_busy_ns += shard.simulated_busy_ns;
        counts.add(shard.counts);
        tracers.push(shard.tracer);
        let devices = shard.hub.len() as u64;
        let span = serial.open(Layer::HubMerge);
        hub.merge(shard.hub);
        serial.close(span, devices);
    }

    let span = serial.open(Layer::AggregateFromHub);
    let tree = AggregationTree::from_hub(&hub, AGGREGATION_FANOUT);
    serial.close(span, tree.stats().leaves as u64);
    let span = serial.open(Layer::VerifiedChains);
    totals.chains_verified = hub.verified_chains() as u64;
    serial.close(span, hub.len() as u64);
    let wall = started.elapsed();

    totals.devices = hub.len() as u64;
    totals.history_entries = hub.total_entries();
    totals.history_resident = hub.total_resident();
    totals.history_evictions = hub.total_evictions();
    totals.root_digest = tree
        .root()
        .map_or_else(String::new, |root| digest_hex(&root.digest));
    tracers.insert(0, serial);
    Outcome {
        totals,
        counts,
        wall,
        provision_rss: rss_provisioned - rss_start,
        shard_loop_rss: rss_looped - rss_provisioned,
        tracers,
    }
}

fn rss() -> i64 {
    stats::self_status_bytes("VmRSS").map_or(0, |bytes| bytes as i64)
}

/// The fleet's measurement interval `T_M`: the first measurement of
/// device 0 (phase offset 0) falls one interval after time zero.
fn measurement_interval(schedule: &StaggeredSchedule) -> SimDuration {
    schedule
        .first_measurement(0)
        .saturating_duration_since(SimTime::ZERO)
}

/// Provisions the devices with global indices `range`, exactly as
/// `Shard::provision` does, timing the three provisioning layers.
fn provision(
    tracer: &mut Tracer,
    config: &FleetConfig,
    schedule: &StaggeredSchedule,
    range: Range<usize>,
) -> Shard {
    let interval = measurement_interval(schedule);
    let mut provers = Vec::with_capacity(range.len());
    let mut verifiers = Vec::with_capacity(range.len());
    for i in range.clone() {
        let prover_config = ProverConfig::builder()
            .measurement_interval(interval)
            .buffer_slots(config.measurements_per_round.max(1))
            .mac_algorithm(config.algorithm)
            .phase_offset(schedule.offset(i))
            .build()
            .expect("fleet prover config is valid");

        let span = tracer.open(Layer::KeyDerive);
        let key = DeviceKey::derive(b"erasmus-fleet", i as u64);
        tracer.close(span, 1);

        let span = tracer.open(Layer::ProverNew);
        let prover = Prover::new(
            DeviceId::new(i as u64),
            DeviceProfile::msp430_8mhz(config.memory_bytes),
            key.clone(),
            prover_config,
        )
        .expect("fleet prover provisions");
        tracer.close(span, 1);

        let span = tracer.open(Layer::VerifierProvision);
        let mut verifier = Verifier::new(key, config.algorithm);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(interval);
        tracer.close(span, 1);

        provers.push(prover);
        verifiers.push(verifier);
    }

    let mut cohorts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for local in 0..provers.len() {
        let group = schedule.group_of(range.start + local);
        cohorts.entry(group).or_default().push(local);
    }

    Shard {
        base: range.start,
        provers,
        verifiers,
        cohorts: cohorts.into_values().collect(),
        hub: VerifierHub::with_history(config.history),
    }
}

impl Shard {
    /// Drives the shard through every round.
    fn run(
        mut self,
        config: &FleetConfig,
        schedule: &StaggeredSchedule,
        mut tracer: Tracer,
    ) -> ShardResult {
        let loop_span = tracer.open(Layer::ShardLoop);
        let interval = measurement_interval(schedule);
        let lane_width = lanes::effective_width(config.lanes);
        let request = CollectionRequest::latest(config.measurements_per_round);
        let mpr = config.measurements_per_round as u64;
        // The shard's frame flow is its first global index, which also
        // maps a frame record's device id back to its local verifier.
        let flow = self.base as u64;
        let mut counts = Counts::default();
        let mut measurements = 0u64;
        let mut verifications = 0u64;
        let mut frame_seq = 0u64;
        let mut due: Vec<usize> = Vec::new();
        let mut responses: Vec<CollectionResponse> = Vec::new();
        let mut frame: Vec<u8> = Vec::new();
        let cohorts = std::mem::take(&mut self.cohorts);

        for round in 0..config.rounds as u64 {
            for members in &cohorts {
                let offset = schedule.offset(self.base + members[0]);
                let mut now = SimTime::ZERO;
                for tick in 1..=mpr {
                    now = SimTime::ZERO + interval * (round * mpr + tick) + offset;
                    due.clear();
                    due.extend(
                        members
                            .iter()
                            .copied()
                            .filter(|&local| self.provers[local].next_measurement_due() == now),
                    );
                    let measured = self.measure(&mut tracer, &due, lane_width, now, &mut counts);
                    measurements += measured;
                    counts.bytes_hashed += measured * config.memory_bytes as u64;
                }

                responses.clear();
                for &local in members {
                    let span = tracer.open(Layer::HandleCollection);
                    let response = self.provers[local].handle_collection(&request, now);
                    tracer.close(span, response.measurements.len() as u64);
                    responses.push(response);
                }
                for chunk in responses.chunks(MAX_BATCH_RESPONSES) {
                    frame.clear();
                    let span = tracer.open(Layer::EncodeBatch);
                    encode_collection_batch_into(&mut frame, chunk);
                    tracer.close(span, chunk.len() as u64);
                    counts.frame_bytes += frame.len() as u64;

                    let span = tracer.open(Layer::IngestFrame);
                    let outcome = self
                        .hub
                        .ingest_sequenced_frame(flow, frame_seq, &frame, |view| {
                            let local = (view.device().value() - flow) as usize;
                            let span = tracer.open(Layer::VerifyFrameResponse);
                            let result = self.verifiers[local].verify_frame_response(&view, now);
                            let items = result.as_ref().map_or(0, |r| r.measurements().len());
                            tracer.close(span, items as u64);
                            verifications += items as u64;
                            match result {
                                Ok(report) => Some(report),
                                Err(_) => {
                                    counts.verify_failed += 1;
                                    None
                                }
                            }
                        })
                        .expect("pipeline-encoded frame decodes")
                        .expect("first acceptance of a fresh sequence");
                    tracer.close(span, outcome.responses);
                    counts.ingest_rejects += outcome.rejected + outcome.verify_failed;
                    frame_seq += 1;
                }
            }
        }

        let simulated_busy_ns = self
            .provers
            .iter()
            .map(|prover| prover.total_busy_time().as_nanos())
            .sum();
        tracer.close(loop_span, 0);
        ShardResult {
            hub: self.hub,
            tracer,
            counts,
            measurements,
            verifications,
            simulated_busy_ns,
        }
    }

    /// Measures the `due` devices (ascending local indices) at `now` in
    /// lane groups of 8, then 4, then scalar, as the lane width allows.
    /// Returns how many devices measured.
    fn measure(
        &mut self,
        tracer: &mut Tracer,
        due: &[usize],
        lane_width: usize,
        now: SimTime,
        counts: &mut Counts,
    ) -> u64 {
        let mut rest = due;
        if lane_width >= 8 {
            while let Some((group, tail)) = rest.split_first_chunk::<8>() {
                self.measure_lanes(tracer, group, now);
                counts.lane_jobs += 1;
                rest = tail;
            }
        }
        if lane_width >= 4 {
            while let Some((group, tail)) = rest.split_first_chunk::<4>() {
                self.measure_lanes(tracer, group, now);
                counts.lane_jobs += 1;
                rest = tail;
            }
        }
        for &local in rest {
            let span = tracer.open(Layer::SelfMeasure);
            self.provers[local]
                .self_measure(now)
                .expect("fleet measurement");
            tracer.close(span, 1);
        }
        due.len() as u64
    }

    fn measure_lanes<const N: usize>(
        &mut self,
        tracer: &mut Tracer,
        group: &[usize; N],
        now: SimTime,
    ) {
        let provers = select_mut(&mut self.provers, group);
        let span = tracer.open(Layer::SelfMeasure);
        Prover::self_measure_batch(provers, now).expect("fleet lane measurement");
        tracer.close(span, N as u64);
    }
}

/// Disjoint mutable references to `items[indices[0]], items[indices[1]], …`
/// for strictly ascending `indices`.
fn select_mut<'a, T, const N: usize>(items: &'a mut [T], indices: &[usize; N]) -> [&'a mut T; N] {
    let mut rest = items;
    let mut skipped = 0usize;
    let mut picked = indices.map(|_| None);
    for (slot, &index) in picked.iter_mut().zip(indices) {
        let (item, tail) = std::mem::take(&mut rest)[index - skipped..]
            .split_first_mut()
            .expect("lane index within the shard");
        *slot = Some(item);
        skipped = index + 1;
        rest = tail;
    }
    picked.map(|item| item.expect("every lane selected"))
}
