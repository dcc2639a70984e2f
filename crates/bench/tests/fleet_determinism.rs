//! The sharded fleet engine must be a pure partition of the work: thread
//! count changes wall-clock, never the simulated protocol. These tests pin
//! the determinism contract the fleet benchmark's goldens rely on —
//! including for lossy, churning and on-demand timelines, whose per-device
//! draws are keyed by the global device index and therefore independent of
//! the partition — and pin lossless runs against a serial oracle that calls
//! the protocol directly, with no engine and no codec. Every run also goes
//! through [`run`], which checks the report's ledger laws.

use erasmus_bench::fleet::{self, FleetConfig, FleetReport};
use erasmus_core::{
    CollectionRequest, DeviceId, HistoryMode, Prover, ProverConfig, Verifier, VerifierHub,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{NetworkConfig, SimDuration, SimTime};
use erasmus_swarm::{digest_hex, AggregationTree};

/// Runs `config` on `threads` workers and checks the laws every fleet
/// report must satisfy, whatever the scenario: each ledger conserves, the
/// resident state stays bounded by the ring, the aggregation covers every
/// device once, the shards add up to the fleet, and the health verdict
/// agrees with the shards' health counts.
fn run(config: &FleetConfig, threads: usize) -> FleetReport {
    let report = fleet::run_threaded(config, threads);
    let at = format!(
        "{} seed={} threads={threads} lanes={}",
        config.algorithm, config.seed, config.lanes
    );
    let delivered = report.collections_delivered;

    // Collect hop: every attempt ends in exactly one bucket, and the retry
    // histogram partitions the deliveries.
    assert_eq!(
        delivered + report.exhausted_retries + report.churn_losses + report.stale_retries,
        report.collections_attempted,
        "collect ledger, {at}"
    );
    assert_eq!(
        report.collections_dropped,
        report.exhausted_retries + report.churn_losses + report.stale_retries,
        "dropped split, {at}"
    );
    assert_eq!(
        report.retry_histogram.len(),
        config.retries as usize + 1,
        "retry histogram buckets, {at}"
    );
    assert_eq!(
        report.retry_histogram.iter().sum::<u64>(),
        delivered,
        "retry histogram sum, {at}"
    );

    // Frame hop and hub: exactly-once ingest, and every delivered
    // collection crossed the wire.
    assert_eq!(
        report.hub_duplicates, report.frame_duplicates,
        "hub dedup, {at}"
    );
    assert_eq!(
        report.collections_ingested + report.frame_lost_responses,
        delivered + report.on_demand_completed,
        "hub ingest, {at}"
    );
    assert_eq!(report.wire_responses, delivered, "wire responses, {at}");
    assert_eq!(
        report.decoded_accepted + report.on_demand_completed,
        report.collections_ingested,
        "decoded accepts, {at}"
    );

    // Retention: lifetime entries conserve across eviction, and resident
    // state is bounded by the ring, not by the run length.
    let devices = report.devices_tracked as u64;
    let capacity = config.history.capacity() as u64;
    assert_eq!(
        report.history_evictions + report.history_resident,
        report.history_entries,
        "retention ledger, {at}"
    );
    assert!(
        report.history_resident <= devices * capacity,
        "resident entries over devices × capacity, {at}"
    );
    assert!(
        report.resident_state_bytes <= devices * (1024 + 64 * capacity),
        "resident bytes over devices × (1024 + 64 × capacity), {at}"
    );

    // Aggregation: every device's chain verifies and is one leaf.
    assert_eq!(report.chains_verified, devices, "chains verified, {at}");
    assert_eq!(
        report.aggregation.leaves, report.devices_tracked,
        "aggregation leaves, {at}"
    );
    assert_eq!(
        report.aggregation.root_entries, report.history_entries,
        "aggregation root entries, {at}"
    );

    // Event runtime: the coalescing ledger conserves and the queue drains.
    assert_eq!(
        report.coalesced_events + report.singleton_events,
        report.events_scheduled,
        "coalescing ledger, {at}"
    );
    assert_eq!(report.queue.pushes, report.queue.pops, "queue drain, {at}");
    // With nothing but the schedule in flight, the queue holds one tick per
    // cohort plus one collection burst, never the whole run.
    if config.network == NetworkConfig::IDEAL
        && config.churn == 0.0
        && config.on_demand == 0
        && config.hub_crashes == 0
    {
        let schedule = config.schedule();
        assert!(
            report.queue.max_pending <= (schedule.max_concurrent() + schedule.groups()) as u64,
            "queue peak {} over one burst plus one tick per cohort, {at}",
            report.queue.max_pending
        );
    }

    // The pool: at least one shard per worker, reported in shard order,
    // whose sizes differ by at most one device.
    let shards = &report.shards;
    assert!(shards.len() >= report.threads, "shard count, {at}");
    assert!(
        shards.iter().enumerate().all(|(index, s)| s.shard == index),
        "shard order, {at}"
    );
    let sizes = || shards.iter().map(|s| s.provers);
    assert!(
        sizes().max().unwrap_or(0) - sizes().min().unwrap_or(0) <= 1,
        "shard sizes differ by more than one, {at}"
    );

    // The shards add up to the fleet: every counter the fold adds sums,
    // and the retry histogram sums bucket by bucket.
    let sum = |field: fn(&fleet::ShardReport) -> u64| shards.iter().map(field).sum::<u64>();
    // A counter both reports carry under the same name.
    macro_rules! summed {
        ($($field:ident).+) => {
            (stringify!($($field).+), sum(|s| s.$($field).+), report.$($field).+)
        };
    }
    for (what, shard_sum, total) in [
        ("provers", sum(|s| s.provers as u64), config.provers as u64),
        (
            "measurements",
            sum(|s| s.measurements),
            report.measurements_total,
        ),
        (
            "verifications",
            sum(|s| s.verifications),
            report.verifications_total,
        ),
        (
            "wire_accepted",
            sum(|s| s.wire_accepted),
            report.decoded_accepted,
        ),
        (
            "simulated_busy",
            sum(|s| s.simulated_busy.as_nanos()),
            report.simulated_busy.as_nanos(),
        ),
        (
            "on-demand latency samples",
            sum(|s| s.on_demand_latencies.len() as u64),
            report.on_demand_completed,
        ),
        summed!(collections_attempted),
        summed!(collections_delivered),
        summed!(collections_dropped),
        summed!(collect_retransmits),
        summed!(exhausted_retries),
        summed!(churn_losses),
        summed!(stale_retries),
        summed!(reorders),
        summed!(frame_retransmits),
        summed!(frame_duplicates),
        summed!(corrupt_decode_drops),
        summed!(corrupt_tamper_drops),
        summed!(frames_exhausted),
        summed!(frame_lost_responses),
        (
            "devices_tracked",
            sum(|s| s.devices_tracked as u64),
            report.devices_tracked as u64,
        ),
        summed!(collections_ingested),
        summed!(history_entries),
        summed!(history_resident),
        summed!(history_evictions),
        summed!(history_stale_discards),
        summed!(chains_verified),
        summed!(hub_duplicates),
        summed!(hub_crashes),
        summed!(snapshot_bytes),
        summed!(wire_frames),
        summed!(wire_bytes),
        summed!(wire_responses),
        summed!(on_demand_attempted),
        summed!(on_demand_completed),
        summed!(devices_churned),
        summed!(events_scheduled),
        summed!(singleton_events),
        summed!(coalesced_events),
        summed!(queue.pushes),
        summed!(queue.pops),
    ] {
        assert_eq!(shard_sum, total, "per-shard {what}, {at}");
    }
    for (bucket, &total) in report.retry_histogram.iter().enumerate() {
        let shard_sum: u64 = shards.iter().map(|s| s.retry_histogram[bucket]).sum();
        assert_eq!(shard_sum, total, "per-shard retry bucket {bucket}, {at}");
    }

    // Health: each shard counts its hub's compromised devices and refused
    // reports. Every device the tree calls unhealthy is counted once, and
    // the fleet is healthy exactly when both sums are 0.
    let compromised = sum(|s| s.compromised_devices);
    let rejected = sum(|s| s.hub_rejected);
    assert_eq!(
        report.aggregation.healthy_devices + compromised,
        devices,
        "healthy plus compromised devices, {at}"
    );
    assert_eq!(
        report.all_healthy,
        compromised == 0 && rejected == 0,
        "health verdict, {at}"
    );
    report
}

fn config(algorithm: MacAlgorithm) -> FleetConfig {
    FleetConfig::new(96, 3, 2, 512, 4, algorithm)
}

fn lossy_config() -> FleetConfig {
    let mut config = config(MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        loss: 0.05,
        ..NetworkConfig::IDEAL
    };
    config.seed = 42;
    config
}

/// The acceptance scenario from the reliability work: loss, duplication,
/// reordering and corruption all on at once, with enough ARQ budget to
/// recover every report.
fn faulty_config() -> FleetConfig {
    let mut config = config(MacAlgorithm::HmacSha256);
    // Four rounds give the 1% corruption draw enough frame transmissions
    // to fire at this seed, so the live reject paths are exercised.
    config.rounds = 4;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        corrupt: 0.01,
    };
    config.retries = 6;
    config.seed = 42;
    config
}

#[test]
fn threaded_and_single_threaded_runs_are_identical() {
    let config = config(MacAlgorithm::HmacSha256);
    let single = run(&config, 1);
    let threaded = run(&config, 4);

    assert_eq!(single.threads, 1);
    assert_eq!(threaded.threads, 4);
    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert_eq!(single.all_healthy, threaded.all_healthy);
    assert!(single.all_healthy);

    // The same invariants hold on the simulated-cost and history axes: the
    // partition must not change what any device did or what the verifier
    // side learned.
    assert_eq!(single.simulated_busy, threaded.simulated_busy);
    assert_eq!(single.devices_tracked, threaded.devices_tracked);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.collections_ingested, threaded.collections_ingested);

    assert_eq!(single.measurements_total, config.total_measurements());
}

#[test]
fn default_flags_reproduce_the_phase_loop_totals() {
    // The event-driven runtime must be observationally identical to the
    // original measure-then-collect phase loops when no scenario knob is
    // turned: exact totals, exact hub coverage, no bad verdict in any
    // history — at 1 and 4 threads. (The serial-oracle test below pins
    // every report gap-free as well.)
    let config = config(MacAlgorithm::HmacSha256);
    for threads in [1usize, 4] {
        let report = run(&config, threads);
        assert_eq!(
            report.measurements_total,
            config.total_measurements(),
            "threads={threads}"
        );
        assert_eq!(report.verifications_total, config.total_measurements());
        assert_eq!(
            report.collections_attempted,
            config.total_collection_attempts()
        );
        assert_eq!(report.collections_delivered, report.collections_attempted);
        assert_eq!(report.collections_dropped, 0);
        assert_eq!(report.collections_ingested, report.collections_delivered);
        assert_eq!(report.devices_tracked, config.provers);
        assert_eq!(report.history_entries, config.total_measurements());
        assert!(report.all_healthy, "threads={threads}");
        assert_eq!(report.devices_churned, 0);
        assert_eq!(report.on_demand_attempted, 0);
    }
}

#[test]
fn determinism_holds_for_every_algorithm() {
    for alg in MacAlgorithm::ALL {
        let config = config(alg);
        let single = run(&config, 1);
        let threaded = run(&config, 3);
        assert_eq!(
            single.measurements_total, threaded.measurements_total,
            "{alg}"
        );
        assert_eq!(
            single.verifications_total, threaded.verifications_total,
            "{alg}"
        );
        assert_eq!(single.all_healthy, threaded.all_healthy, "{alg}");
    }
}

#[test]
fn lossy_runs_are_deterministic_and_conserve_attempts() {
    let config = lossy_config();
    let first = run(&config, 1);
    let again = run(&config, 1);
    let threaded = run(&config, 4);

    // Same seed → same packet fates, run to run and thread count to thread
    // count.
    assert_eq!(first.collections_delivered, again.collections_delivered);
    assert_eq!(first.collections_dropped, again.collections_dropped);
    assert_eq!(first.collections_delivered, threaded.collections_delivered);
    assert_eq!(first.collections_dropped, threaded.collections_dropped);
    assert_eq!(first.verifications_total, threaded.verifications_total);
    assert_eq!(first.history_entries, threaded.history_entries);

    // Every scheduled attempt was made, and the hub ingested exactly the
    // delivered ones (`run` checks the ledger splits them).
    assert_eq!(
        first.collections_attempted,
        config.total_collection_attempts()
    );
    assert!(first.collections_dropped > 0, "5% loss dropped nothing");
    assert_eq!(first.collections_ingested, first.collections_delivered);

    // Devices measure regardless of collection fate; loss only removes
    // evidence from the verifier side, it does not fabricate compromise.
    assert_eq!(first.measurements_total, config.total_measurements());
    assert!(first.all_healthy);

    // A different seed draws different fates.
    let mut reseeded = config.clone();
    reseeded.seed = 1337;
    let other = run(&reseeded, 1);
    assert_ne!(other.collections_delivered, first.collections_delivered);
}

#[test]
fn churn_and_on_demand_stay_thread_invariant() {
    let mut config = config(MacAlgorithm::KeyedBlake2s);
    config.rounds = 3;
    config.churn = 0.25;
    config.on_demand = 24;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.02,
        ..NetworkConfig::IDEAL
    };
    config.seed = 7;

    let single = run(&config, 1);
    let threaded = run(&config, 4);

    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert_eq!(single.collections_delivered, threaded.collections_delivered);
    assert_eq!(single.collections_dropped, threaded.collections_dropped);
    assert_eq!(single.devices_churned, threaded.devices_churned);
    assert_eq!(single.on_demand_attempted, threaded.on_demand_attempted);
    assert_eq!(single.on_demand_completed, threaded.on_demand_completed);
    assert_eq!(single.on_demand_p50, threaded.on_demand_p50);
    assert_eq!(single.on_demand_p99, threaded.on_demand_p99);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.simulated_busy, threaded.simulated_busy);
    assert_eq!(single.all_healthy, threaded.all_healthy);
    assert_eq!(
        single.aggregation.root_digest,
        threaded.aggregation.root_digest
    );

    assert!(single.devices_churned > 0, "25% churn drew no churners");
    assert_eq!(single.on_demand_attempted, 24);
    assert!(single.on_demand_completed > 0);
    assert!(single.on_demand_p50 <= single.on_demand_p99);
    // Churned devices skip part of their schedule.
    assert!(single.measurements_total < config.total_measurements() + 24);
    assert!(single.all_healthy, "gaps must not read as compromise");
}

/// What a lossless fleet run must reproduce of the serial oracle.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    measurements: u64,
    verifications: u64,
    simulated_busy: SimDuration,
    devices: usize,
    collections: u64,
    entries: u64,
    resident: u64,
    evictions: u64,
    root_digest: String,
}

impl Outcome {
    fn of(report: &FleetReport) -> Self {
        Self {
            measurements: report.measurements_total,
            verifications: report.verifications_total,
            simulated_busy: report.simulated_busy,
            devices: report.devices_tracked,
            collections: report.collections_ingested,
            entries: report.history_entries,
            resident: report.history_resident,
            evictions: report.history_evictions,
            root_digest: report.aggregation.root_digest.clone(),
        }
    }
}

/// The fleet protocol with no engine, no shards and no codec. Devices are
/// provisioned exactly as `Shard::provision` does; then, device by device,
/// each collection instant `r · T_M · k + offset` runs `run_until`,
/// `handle_collection`, `verify_collection` and `VerifierHub::ingest` in
/// turn. On an ideal network every response arrives at its collection
/// instant, so this is what any lossless fleet run must add up to.
fn serial_oracle(config: &FleetConfig) -> Outcome {
    let schedule = config.schedule();
    let interval = schedule
        .first_measurement(0)
        .saturating_duration_since(SimTime::ZERO);
    let round_span = interval * config.measurements_per_round as u64;
    let request = CollectionRequest::latest(config.measurements_per_round);
    let mut hub = VerifierHub::with_history(config.history);
    let mut outcome = Outcome::default();
    for i in 0..config.provers {
        let prover_config = ProverConfig::builder()
            .measurement_interval(interval)
            .buffer_slots(config.measurements_per_round.max(1))
            .mac_algorithm(config.algorithm)
            .phase_offset(schedule.offset(i))
            .build()
            .expect("fleet prover config is valid");
        let key = DeviceKey::derive(b"erasmus-fleet", i as u64);
        let mut prover = Prover::new(
            DeviceId::new(i as u64),
            DeviceProfile::msp430_8mhz(config.memory_bytes),
            key.clone(),
            prover_config,
        )
        .expect("fleet prover provisions");
        let mut verifier = Verifier::new(key, config.algorithm);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(interval);

        for round in 1..=config.rounds as u64 {
            let at = SimTime::ZERO + round_span * round + schedule.offset(i);
            let measured = prover.run_until(at).expect("scheduled measurements");
            outcome.measurements += measured.len() as u64;
            let response = prover.handle_collection(&request, at);
            let report = verifier
                .verify_collection(&response, at)
                .expect("collection verifies");
            assert!(report.all_valid(), "device {i} round {round}");
            outcome.verifications += report.measurements().len() as u64;
            assert!(hub.ingest(&report));
        }
        outcome.simulated_busy += prover.total_busy_time();
    }
    let tree = AggregationTree::from_hub(&hub, fleet::AGGREGATION_FANOUT);
    outcome.devices = hub.len();
    outcome.collections = hub.total_collections();
    outcome.entries = hub.total_entries();
    outcome.resident = hub.total_resident();
    outcome.evictions = hub.total_evictions();
    outcome.root_digest = tree
        .root()
        .map_or_else(String::new, |root| digest_hex(&root.digest));
    outcome
}

#[test]
fn lossless_runs_match_the_serial_oracle_at_every_thread_count_and_lane_width() {
    // Ring(2) against 6 lifetime entries per device, so eviction and the
    // sealed chain are part of what must agree. The fleet run goes through
    // the event engine, the shard partition and the frame codec; the
    // oracle goes through none of them. `run_threaded` ignores `lanes`
    // (only the benchmark's traced replica reads it), so every width must
    // agree too.
    //
    // This is the fleet's gap-free pin for ideal networks: the oracle
    // asserts `all_valid()` on every report (no missing measurement, no
    // bad verdict), and the equal root digest binds each history entry's
    // `collected_at`, so every fleet delivery lands at the oracle's
    // collection instant. The fleet's own health verdict sums the counts
    // each worker reads off its shard hub; gaps are not hub evidence.
    let mut base = config(MacAlgorithm::HmacSha256);
    base.history = HistoryMode::Ring(2);
    let expected = serial_oracle(&base);
    assert!(expected.evictions > 0, "Ring(2) must evict");
    assert_eq!(expected.entries, base.total_measurements());

    for lanes in [1usize, 8] {
        for threads in [1usize, 2, 4] {
            let mut config = base.clone();
            config.lanes = lanes;
            let report = run(&config, threads);
            let label = format!("lanes={lanes} threads={threads}");
            assert_eq!(Outcome::of(&report), expected, "{label}");
            assert!(report.all_healthy, "{label}");
        }
    }
}

#[test]
fn hub_tracks_every_device_exactly_once_at_fleet_scale() {
    let config = config(MacAlgorithm::KeyedBlake2s);
    let report = run(&config, 4);
    // Per-device isolation: 96 devices × 3 measurements × 2 rounds, no
    // entry leaked into a neighbour's history and none double-counted.
    assert_eq!(report.devices_tracked, config.provers);
    assert_eq!(report.history_entries, config.total_measurements());
    assert_eq!(
        report.collections_ingested,
        (config.provers * config.rounds) as u64
    );
}

#[test]
fn more_stagger_groups_than_provers_is_well_defined_at_scale() {
    let mut config = FleetConfig::new(5, 2, 2, 256, 64, MacAlgorithm::HmacSha256);
    config.seed = 3;
    let single = run(&config, 1);
    let threaded = run(&config, 4);
    assert_eq!(single.measurements_total, config.total_measurements());
    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert!(single.all_healthy && threaded.all_healthy);
}

#[test]
fn faulty_runs_recover_every_report_and_stay_thread_invariant() {
    // The reliability acceptance pin: with 5% loss, 2% duplication, 2%
    // reordering and 1% corruption all active, the ARQ budget recovers
    // every scheduled collection — the hub ends the run with exactly the
    // totals of the fault-free timeline, at any thread count.
    let faulty = faulty_config();
    let mut lossless = faulty.clone();
    lossless.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        ..NetworkConfig::IDEAL
    };
    lossless.retries = 0;
    let clean = run(&lossless, 1);

    let single = run(&faulty, 1);
    let threaded = run(&faulty, 4);
    for (report, label) in [(&single, "threads=1"), (&threaded, "threads=4")] {
        // Recovery: every attempt was eventually delivered exactly once.
        assert_eq!(
            report.collections_delivered, report.collections_attempted,
            "{label}: ARQ failed to recover every report"
        );
        assert_eq!(report.collections_dropped, 0, "{label}");
        assert_eq!(report.exhausted_retries, 0, "{label}");
        assert!(
            report.collect_retransmits > 0,
            "{label}: faults retried nothing"
        );
        assert!(report.reorders > 0, "{label}: reorder faults never drew");

        assert!(
            report.retry_histogram[0] < report.collections_delivered,
            "{label}: no delivery needed a retransmission"
        );

        // Duplicates were injected (`run` checks the hub dropped each
        // one), and every corrupted copy was caught live.
        assert!(
            report.frame_duplicates > 0,
            "{label}: no duplicate injected"
        );
        assert!(
            report.corrupt_decode_drops + report.corrupt_tamper_drops > 0,
            "{label}: no corrupted copy exercised the reject paths"
        );
        assert_eq!(report.frames_exhausted, 0, "{label}");
        assert_eq!(report.frame_lost_responses, 0, "{label}");

        // Hub totals equal the lossless run's: the faults are invisible in
        // what the verifier side learned.
        assert_eq!(
            report.collections_ingested, clean.collections_ingested,
            "{label}"
        );
        assert_eq!(report.history_entries, clean.history_entries, "{label}");
        assert_eq!(report.devices_tracked, clean.devices_tracked, "{label}");
        assert_eq!(
            report.measurements_total, clean.measurements_total,
            "{label}"
        );
        assert_eq!(
            report.verifications_total, clean.verifications_total,
            "{label}"
        );
        assert!(
            report.all_healthy,
            "{label}: recovery must not read as compromise"
        );
    }

    // Thread invariance: collect-hop fates are drawn per (device, seq) and
    // never per shard, so those counters are identical at any thread
    // count. Frame-hop draws are keyed by the shard's frame flow — frame
    // composition is partition-dependent — so only the *recovered* totals
    // (asserted above) are invariant on that axis, not the fault counts.
    assert_eq!(single.collect_retransmits, threaded.collect_retransmits);
    assert_eq!(single.retry_histogram, threaded.retry_histogram);
    assert_eq!(single.reorders, threaded.reorders);
    assert_eq!(single.collections_ingested, threaded.collections_ingested);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.simulated_busy, threaded.simulated_busy);
    assert_eq!(
        single.aggregation.root_digest,
        threaded.aggregation.root_digest
    );
}

/// What a run must reproduce however the fleet is partitioned: every
/// total, the verdict, the on-demand percentiles and the root digest. The
/// shard breakdown, wire and frame counts, frame-hop fault counts, cohort
/// ticks, queue counters, hub crashes, snapshot bytes and walls depend on
/// the partition and are left out.
fn partition_invariant(report: &FleetReport) -> Vec<(&'static str, String)> {
    let totals = [
        ("measurements", report.measurements_total),
        ("verifications", report.verifications_total),
        ("simulated_busy", report.simulated_busy.as_nanos()),
        ("devices_tracked", report.devices_tracked as u64),
        ("history_entries", report.history_entries),
        ("history_resident", report.history_resident),
        ("history_evictions", report.history_evictions),
        ("history_stale_discards", report.history_stale_discards),
        ("chains_verified", report.chains_verified),
        ("collections_ingested", report.collections_ingested),
        ("collections_attempted", report.collections_attempted),
        ("collections_delivered", report.collections_delivered),
        ("collections_dropped", report.collections_dropped),
        ("collect_retransmits", report.collect_retransmits),
        ("exhausted_retries", report.exhausted_retries),
        ("churn_losses", report.churn_losses),
        ("stale_retries", report.stale_retries),
        ("reorders", report.reorders),
        ("decoded_accepted", report.decoded_accepted),
        ("on_demand_attempted", report.on_demand_attempted),
        ("on_demand_completed", report.on_demand_completed),
        ("on_demand_p50", report.on_demand_p50.as_nanos()),
        ("on_demand_p90", report.on_demand_p90.as_nanos()),
        ("on_demand_p99", report.on_demand_p99.as_nanos()),
        ("devices_churned", report.devices_churned),
        ("events_scheduled", report.events_scheduled),
    ];
    totals
        .into_iter()
        .map(|(name, value)| (name, value.to_string()))
        .chain([
            ("all_healthy", report.all_healthy.to_string()),
            ("retry_histogram", format!("{:?}", report.retry_histogram)),
            ("root_digest", report.aggregation.root_digest.clone()),
        ])
        .collect()
}

#[test]
fn on_demand_reports_land_after_older_collections_at_every_thread_count() {
    // A device's on-demand report can arrive while one of its collections,
    // delivered at an earlier instant, still waits in the shard's open
    // burst. Whichever reaches the hub first sets `collected_at` on the
    // entries both carry, so the burst must seal before the on-demand
    // report goes in, or the root digest depends on the shard's other
    // traffic. 24 threads put one device in each shard.
    let mut config = FleetConfig::new(24, 3, 4, 64, 4, MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(20),
        jitter: SimDuration::from_millis(10),
        ..NetworkConfig::IDEAL
    };
    config.on_demand = 24;
    config.seed = 42;

    let single = run(&config, 1);
    assert!(single.on_demand_completed > 0, "no on-demand report landed");
    for threads in [2usize, 3, 4, 8, 24] {
        let report = run(&config, threads);
        assert_eq!(
            partition_invariant(&report),
            partition_invariant(&single),
            "threads={threads}"
        );
    }
}

#[test]
fn a_fleet_of_several_pool_shards_is_partition_invariant() {
    // Just over two 512-device shards, with every scenario knob on: at 1, 2
    // and 3 threads the workers pull the same three shards in turn, and 8
    // threads cut eight. Whichever worker drives a shard, and however many
    // shards there are, the run's totals and root digest stay the same.
    let mut config = FleetConfig::new(1_030, 2, 3, 64, 4, MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        corrupt: 0.01,
    };
    config.retries = 3;
    config.churn = 0.05;
    config.on_demand = 50;
    config.hub_crashes = 2;
    config.seed = 42;

    let mut expected = None;
    for threads in [1usize, 2, 3, 8] {
        let report = run(&config, threads);
        let label = format!("threads={threads}");
        assert_eq!(
            report.shards.len(),
            threads.max(config.provers.div_ceil(512)),
            "{label}"
        );
        assert!(report.shards.iter().all(|s| s.provers <= 512), "{label}");
        assert_eq!(report.threads, threads, "{label}");
        assert_eq!(
            report.hub_crashes,
            (report.shards.len() * config.hub_crashes) as u64,
            "{label}"
        );
        assert!(report.all_healthy, "{label}");
        assert!(
            report.devices_churned > 0,
            "{label}: churn drew no churners"
        );
        assert!(report.on_demand_completed > 0, "{label}");
        assert!(
            report.frame_duplicates > 0,
            "{label}: no duplicate injected"
        );
        assert!(report.reorders > 0, "{label}: reorder faults never drew");
        assert!(
            report.corrupt_decode_drops + report.corrupt_tamper_drops > 0,
            "{label}: no corrupted copy exercised the reject paths"
        );
        let invariant = partition_invariant(&report);
        assert_eq!(
            expected.get_or_insert_with(|| invariant.clone()),
            &invariant,
            "{label}"
        );
    }
}

#[test]
fn hub_crash_recovery_is_invisible_in_the_totals() {
    // Crash/snapshot/restore cycles mid-run must not change a single
    // observable total — the restored hub is bit-identical, so the run
    // proceeds as if the crash never happened.
    let mut crashing = faulty_config();
    crashing.hub_crashes = 2;
    let mut smooth = crashing.clone();
    smooth.hub_crashes = 0;

    for threads in [1usize, 4] {
        let crashed = run(&crashing, threads);
        let baseline = run(&smooth, threads);
        let label = format!("threads={threads}");

        // Crashes happened and produced snapshots (one cycle per shard).
        assert_eq!(
            crashed.hub_crashes,
            (crashed.shards.len() * crashing.hub_crashes) as u64,
            "{label}"
        );
        assert!(crashed.snapshot_bytes > 0, "{label}");
        assert_eq!(baseline.hub_crashes, 0, "{label}");

        // Everything else is unchanged.
        assert_eq!(
            crashed.measurements_total, baseline.measurements_total,
            "{label}"
        );
        assert_eq!(
            crashed.verifications_total, baseline.verifications_total,
            "{label}"
        );
        assert_eq!(
            crashed.collections_delivered, baseline.collections_delivered,
            "{label}"
        );
        assert_eq!(
            crashed.collections_ingested, baseline.collections_ingested,
            "{label}"
        );
        assert_eq!(crashed.retry_histogram, baseline.retry_histogram, "{label}");
        assert_eq!(crashed.hub_duplicates, baseline.hub_duplicates, "{label}");
        assert_eq!(crashed.history_entries, baseline.history_entries, "{label}");
        assert_eq!(crashed.simulated_busy, baseline.simulated_busy, "{label}");
        assert_eq!(crashed.all_healthy, baseline.all_healthy, "{label}");
        assert!(crashed.all_healthy, "{label}");
        // The restored hubs attest to the same fleet, and every shard
        // folded the same delivery bursts.
        assert_eq!(
            crashed.aggregation.root_digest, baseline.aggregation.root_digest,
            "{label}"
        );
        let bursts = |report: &FleetReport| -> Vec<(u64, u64)> {
            report
                .shards
                .iter()
                .map(|shard| (shard.hub_batches, shard.largest_batch))
                .collect()
        };
        assert_eq!(bursts(&crashed), bursts(&baseline), "{label}");
    }
}

#[test]
fn churn_under_retransmission_never_replays_stale_evidence() {
    // A device that leaves mid-backoff must not have its pending
    // retransmissions delivered after the fact: the retry timer notices the
    // epoch changed and discards the stale copy, and (checked by `run`) the
    // conservation ledger accounts for every scheduled attempt exactly once.
    // Loss heavy enough for ARQ chains to survive into their late, long
    // backoff windows — the ones wide enough for a churn departure to land
    // inside — across enough devices that several timers go stale.
    let mut config = FleetConfig::new(128, 3, 3, 256, 4, MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.55,
        ..NetworkConfig::IDEAL
    };
    config.retries = 10;
    config.churn = 0.6;
    config.seed = 13;

    let single = run(&config, 1);
    let threaded = run(&config, 4);

    for (report, label) in [(&single, "threads=1"), (&threaded, "threads=4")] {
        assert!(
            report.devices_churned > 0,
            "{label}: churn drew no churners"
        );
        assert!(
            report.stale_retries > 0,
            "{label}: no retry timer ever outlived its device"
        );
        assert!(
            report.all_healthy,
            "{label}: churn gaps must not read as compromise"
        );
    }

    assert_eq!(single.collections_delivered, threaded.collections_delivered);
    assert_eq!(single.stale_retries, threaded.stale_retries);
    assert_eq!(single.churn_losses, threaded.churn_losses);
    assert_eq!(single.exhausted_retries, threaded.exhausted_retries);
    assert_eq!(single.retry_histogram, threaded.retry_histogram);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.devices_churned, threaded.devices_churned);
}

#[test]
fn pending_events_are_bounded_by_traffic_not_run_length() {
    // Every queued event owns its payload, so the pending set is what the
    // fleet holds in flight. It is bounded by per-instant traffic (cohort
    // ticks, bursts, ARQ timers, churn and on-demand events): growing the
    // run 3× must not grow it 3×. `run` bounds it only on ideal networks;
    // this covers ARQ and churn.
    let mut short = FleetConfig::new(64, 2, 2, 256, 4, MacAlgorithm::HmacSha256);
    short.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.3,
        ..NetworkConfig::IDEAL
    };
    short.retries = 6;
    short.churn = 0.5;
    short.seed = 13;
    let mut long = short.clone();
    long.rounds = 6;

    let short_report = run(&short, 2);
    let long_report = run(&long, 2);
    assert!(short_report.queue.max_pending > 0);
    assert!(long_report.devices_churned > 0, "churn drew no churners");
    // 3× the rounds (and 3× the ARQ traffic) must not scale the pending
    // set: the bound is per-instant concurrency, which the longer run
    // repeats rather than stacks. Allow slack for fate-draw variation
    // between the two timelines, but reject anything near linear growth.
    assert!(
        long_report.queue.max_pending < short_report.queue.max_pending * 2,
        "pending events grew with run length: short={} long={}",
        short_report.queue.max_pending,
        long_report.queue.max_pending
    );
}
