//! Boundary conditions of the `phase_offset` staggering machinery: the
//! largest representable offset (one tick short of `T_M`), lenient windows
//! that straddle the period seam, and schedules driven through whole
//! collection horizons at those extremes.

use erasmus_core::{
    CollectionRequest, DeviceId, MeasurementScheduler, Prover, ProverConfig, ScheduleKind, Verifier,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};

const TM: SimDuration = SimDuration::from_secs(10);
const KEY: [u8; 32] = [0x42u8; 32];

/// The largest phase offset the validation admits: one nanosecond (one
/// simulated tick) short of the interval.
const MAX_OFFSET: SimDuration = SimDuration::from_nanos(10_000_000_000 - 1);

#[test]
fn offset_one_tick_below_interval_is_accepted_and_aligned() {
    let mut scheduler = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, MAX_OFFSET);
    // First due: T_M + (T_M − 1 ns) = one tick before 2·T_M.
    let first = SimTime::ZERO + TM + MAX_OFFSET;
    assert_eq!(scheduler.next_due(), first);
    // Every subsequent due time keeps the offset: k·T_M + (T_M − 1 ns).
    for k in 0..5u64 {
        let due = scheduler.next_due();
        assert_eq!(due, first + TM * k);
        assert_eq!(
            due.as_nanos() % TM.as_nanos(),
            MAX_OFFSET.as_nanos(),
            "due time drifted off phase at k = {k}"
        );
        scheduler.mark_completed(due);
    }
    // The catch-up path stays phase-aligned too.
    scheduler.skip_until(SimTime::from_secs(1000));
    assert_eq!(
        scheduler.next_due().as_nanos() % TM.as_nanos(),
        MAX_OFFSET.as_nanos()
    );
}

#[test]
fn offset_of_a_full_interval_is_rejected_by_config_validation() {
    let err = ProverConfig::builder()
        .measurement_interval(TM)
        .buffer_slots(4)
        .phase_offset(TM)
        .build();
    assert!(err.is_err(), "phase_offset == T_M must not validate");
    // One tick less is fine.
    assert!(ProverConfig::builder()
        .measurement_interval(TM)
        .buffer_slots(4)
        .phase_offset(MAX_OFFSET)
        .build()
        .is_ok());
}

/// Provisions a device at phase `offset` with a buffer of one round,
/// collects it at every round horizon `r·span + offset` and verifies each
/// response `delay(r)` later, as a slow network would deliver it. Returns
/// each round's `missing()` count; every gap-free report must be fully
/// valid.
fn missing_per_round(
    offset: SimDuration,
    rounds: usize,
    delay: impl Fn(usize) -> SimDuration,
) -> Vec<usize> {
    let measurements_per_round = 3usize;
    let config = ProverConfig::builder()
        .measurement_interval(TM)
        .buffer_slots(measurements_per_round)
        .phase_offset(offset)
        .build()
        .expect("valid config");
    let key = DeviceKey::from_bytes(KEY);
    let mut prover = Prover::new(
        DeviceId::new(9),
        DeviceProfile::msp430_8mhz(512),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(TM);

    let span = TM * measurements_per_round as u64;
    (1..=rounds)
        .map(|round| {
            let horizon = SimTime::ZERO + span * round as u64 + offset;
            let outcomes = prover.run_until(horizon).expect("measurements");
            assert_eq!(outcomes.len(), measurements_per_round, "round {round}");
            let response = prover
                .handle_collection(&CollectionRequest::latest(measurements_per_round), horizon);
            let report = verifier
                .verify_collection(&response, horizon + delay(round))
                .expect("report");
            if report.missing() == 0 {
                assert!(report.all_valid(), "round {round}: {:?}", report.verdict());
            }
            report.missing()
        })
        .collect()
}

#[test]
fn max_offset_device_still_yields_full_rounds() {
    // A device at either extreme offset must produce exactly
    // `measurements_per_round` measurements inside every collection window
    // `(r-1)·span + o .. r·span + o`, like any other stagger group, and a
    // delivery delay below `T_M` must never read as a gap: with each round
    // verified at `horizon + d`, `d` swinging between `T_M − 1 ns` and 0,
    // every report is gap-free and fully valid.
    let swing = |round: usize| {
        if round % 2 == 1 {
            TM - SimDuration::from_nanos(1)
        } else {
            SimDuration::ZERO
        }
    };
    for offset in [SimDuration::ZERO, MAX_OFFSET] {
        assert_eq!(
            missing_per_round(offset, 4, |_| SimDuration::ZERO),
            [0; 4],
            "on-time delivery, offset {offset}"
        );
        assert_eq!(
            missing_per_round(offset, 4, swing),
            [0; 4],
            "delay swinging below T_M, offset {offset}"
        );
        // A delay that grows by a full `T_M` between two rounds stretches
        // the verifier's coverage window over one more scheduled
        // measurement than the response carries.
        assert_eq!(
            missing_per_round(offset, 2, |round| TM * (round as u64 - 1)),
            [0, 1],
            "delay growing by T_M, offset {offset}"
        );
    }
}

#[test]
fn lenient_window_overlapping_the_period_seam() {
    // Phase 4 s, w = 2: the measurement nominally due at 14 s may slide to
    // 24 s — which *is* the next nominal due time. The deferral must not
    // eat the following window: completing at 24 s moves the schedule to
    // 34 s, still phase-aligned.
    let phase = SimDuration::from_secs(4);
    let mut scheduler = MeasurementScheduler::new(
        ScheduleKind::Lenient { window_factor: 2.0 },
        TM,
        &KEY,
        phase,
    );
    assert_eq!(scheduler.next_due(), SimTime::from_secs(14));
    let deferred = scheduler
        .defer(SimTime::from_secs(14))
        .expect("deferral granted");
    assert_eq!(deferred, SimTime::from_secs(24), "window end crosses seam");
    // The window is exhausted: no second deferral.
    assert!(scheduler.defer(SimTime::from_secs(20)).is_none());
    scheduler.mark_completed(SimTime::from_secs(24));
    assert_eq!(scheduler.next_due(), SimTime::from_secs(34));
    assert_eq!(scheduler.deferrals(), 1);
}

#[test]
fn lenient_seam_overlap_with_late_completion_mid_window() {
    // Completing *inside* the overlapped window (not at its end) must also
    // resume on the next nominal tick after the completion instant.
    let phase = SimDuration::from_secs(4);
    let mut scheduler = MeasurementScheduler::new(
        ScheduleKind::Lenient { window_factor: 3.0 },
        TM,
        &KEY,
        phase,
    );
    // Window for the t = 14 s measurement stretches to 14 + 2·T_M = 34 s,
    // overlapping the 24 s and 34 s nominal instants.
    let deferred = scheduler
        .defer(SimTime::from_secs(14))
        .expect("deferral granted");
    assert_eq!(deferred, SimTime::from_secs(34));
    scheduler.mark_completed(SimTime::from_secs(27));
    assert_eq!(scheduler.next_due(), SimTime::from_secs(34));
    scheduler.mark_completed(SimTime::from_secs(34));
    assert_eq!(scheduler.next_due(), SimTime::from_secs(44));
}

#[test]
fn max_offset_interacts_with_lenient_windows() {
    // The extreme offset combined with a deferral window: nominal due at
    // T_M + (T_M − 1 ns); window end at 2·T_M + (T_M − 1 ns).
    let mut scheduler = MeasurementScheduler::new(
        ScheduleKind::Lenient { window_factor: 2.0 },
        TM,
        &KEY,
        MAX_OFFSET,
    );
    let nominal = SimTime::ZERO + TM + MAX_OFFSET;
    assert_eq!(scheduler.next_due(), nominal);
    let deferred = scheduler.defer(nominal).expect("deferral granted");
    assert_eq!(deferred, nominal + TM);
    scheduler.mark_completed(deferred);
    // Next nominal window: first phase-aligned instant after 2·T_M − 1 ns +
    // T_M... i.e. 3·T_M + offset − T_M = 30 s + offset.
    assert_eq!(
        scheduler.next_due().as_nanos() % TM.as_nanos(),
        MAX_OFFSET.as_nanos()
    );
    assert!(scheduler.next_due() > deferred);
}
