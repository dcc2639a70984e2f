//! QoA integration tests: the analytical formulas of Section 3.1 against the
//! discrete-event scenario runner, and the Figure 1 timeline.

use erasmus::core::{
    InfectionSpec, MeasurementVerdict, QoaParams, Scenario, TamperStrategy, TimelineEvent,
};
use erasmus::sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

#[test]
fn figure1_timeline_is_reproduced() {
    let outcome = Scenario::new()
        .measurement_interval(SimDuration::from_secs(10))
        .collection_interval(SimDuration::from_secs(60))
        .duration(SimDuration::from_secs(300))
        .infection(InfectionSpec::mobile(
            SimTime::from_secs(12),
            SimDuration::from_secs(3),
        ))
        .infection(InfectionSpec::persistent(SimTime::from_secs(95)))
        .run()
        .expect("scenario runs");

    // Infection 1 (mobile, between measurements): undetected.
    assert!(!outcome.infections[0].detected());
    // Infection 2 (persistent): measured at t = 100, collected at t = 120.
    assert!(outcome.infections[1].detected());
    assert_eq!(
        outcome.infections[1].detected_at,
        Some(SimTime::from_secs(120))
    );

    // The timeline contains the expected event kinds.
    let count = |kind: fn(&TimelineEvent) -> bool| {
        outcome
            .timeline
            .iter()
            .filter(|entry| kind(&entry.event))
            .count()
    };
    assert_eq!(count(|e| matches!(e, TimelineEvent::Infection(_))), 2);
    assert_eq!(count(|e| matches!(e, TimelineEvent::Departure(_))), 1);
    assert!(count(|e| matches!(e, TimelineEvent::Collection(_))) >= 4);
    assert!(count(|e| matches!(e, TimelineEvent::Measurement { .. })) >= 29);

    // The collection at 120 s carries the evidence: the measurements at
    // 100, 110 and 120 s saw the persistent payload.
    let report = outcome
        .timeline
        .iter()
        .find_map(|entry| match &entry.event {
            TimelineEvent::Collection(Some(report)) if entry.time == SimTime::from_secs(120) => {
                Some(report)
            }
            _ => None,
        })
        .expect("a report at 120 s");
    for secs in [100, 110, 120] {
        let measured = report
            .measurements()
            .iter()
            .find(|vm| vm.measurement.timestamp() == SimTime::from_secs(secs))
            .expect("measurement in the report");
        assert_eq!(
            measured.verdict,
            MeasurementVerdict::Compromised,
            "t = {secs} s"
        );
    }
}

#[test]
fn detection_latency_is_bounded_by_tm_plus_tc_for_persistent_malware() {
    let t_m = SimDuration::from_secs(10);
    let t_c = SimDuration::from_secs(50);
    let qoa = QoaParams::new(t_m, t_c).expect("valid params");
    let bound = qoa.worst_case_detection_delay();

    let mut rng = SimRng::seed_from(31);
    for _ in 0..10 {
        let start = SimTime::ZERO
            + rng.gen_duration(SimDuration::from_secs(60), SimDuration::from_secs(150));
        let outcome = Scenario::new()
            .measurement_interval(t_m)
            .collection_interval(t_c)
            .duration(SimDuration::from_secs(400))
            .infection(InfectionSpec::persistent(start))
            .run()
            .expect("scenario runs");
        let infection = &outcome.infections[0];
        assert!(
            infection.detected(),
            "persistent malware starting at {start} must be detected"
        );
        let latency = infection.detection_latency().expect("latency");
        assert!(
            latency <= bound,
            "latency {latency} exceeds the worst-case bound {bound}"
        );
    }
}

#[test]
fn short_dwell_malware_is_missed_long_dwell_is_caught() {
    // Dwell much shorter than T_M and placed between measurement instants:
    // escapes. Dwell longer than T_M: always caught.
    let base = Scenario::new()
        .measurement_interval(SimDuration::from_secs(10))
        .collection_interval(SimDuration::from_secs(60))
        .duration(SimDuration::from_secs(240));

    let escaped = base
        .clone()
        .infection(InfectionSpec::mobile(
            SimTime::from_secs(71),
            SimDuration::from_secs(4),
        ))
        .run()
        .expect("scenario runs");
    assert!(!escaped.infections[0].detected());

    let caught = base
        .infection(InfectionSpec::mobile(
            SimTime::from_secs(71),
            SimDuration::from_secs(12),
        ))
        .run()
        .expect("scenario runs");
    assert!(caught.infections[0].detected());
}

#[test]
fn qoa_buffer_sizing_rule_matches_scenario_behaviour() {
    let t_m = SimDuration::from_secs(10);
    let t_c = SimDuration::from_secs(80);
    let qoa = QoaParams::new(t_m, t_c).expect("valid params");
    // The rule says 8 slots are enough; 4 are not.
    assert_eq!(qoa.required_buffer_slots(), 8);
    assert!(!qoa.loses_measurements_with(8));
    assert!(qoa.loses_measurements_with(4));

    // A clean scenario with enough slots raises no alarm…
    let ok = Scenario::new()
        .measurement_interval(t_m)
        .collection_interval(t_c)
        .buffer_slots(8)
        .history_per_collection(8)
        .duration(SimDuration::from_secs(400))
        .run()
        .expect("scenario runs");
    assert_eq!(ok.alarms(), 0);

    // …while an undersized buffer loses history, which surfaces as alarms
    // even though no malware is present (a deployment error, not an attack).
    let lossy = Scenario::new()
        .measurement_interval(t_m)
        .collection_interval(t_c)
        .buffer_slots(4)
        .history_per_collection(8)
        .duration(SimDuration::from_secs(400))
        .run()
        .expect("scenario runs");
    assert!(lossy.alarms() > 0);
}

#[test]
fn buffer_wiping_malware_is_always_detected_even_with_tiny_dwell() {
    // Hit-and-run malware that also wipes the store: the dwell is too short
    // to be measured, but the wipe itself is self-incriminating.
    let outcome = Scenario::new()
        .measurement_interval(SimDuration::from_secs(10))
        .collection_interval(SimDuration::from_secs(60))
        .duration(SimDuration::from_secs(240))
        .infection(
            InfectionSpec::mobile(SimTime::from_secs(75), SimDuration::from_secs(2))
                .with_tamper(TamperStrategy::ClearBuffer),
        )
        .run()
        .expect("scenario runs");
    assert!(outcome.infections[0].detected());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulated detection outcome of a single mobile infection is always
    /// consistent with the analytical model: malware that covers a
    /// measurement instant is detected, malware that misses all of them is
    /// not (when it leaves no other trace).
    #[test]
    fn simulated_detection_matches_measurement_coverage(
        start_secs in 65u64..175,
        dwell_secs in 1u64..25,
    ) {
        let t_m = 10u64;
        let outcome = Scenario::new()
            .measurement_interval(SimDuration::from_secs(t_m))
            .collection_interval(SimDuration::from_secs(60))
            .duration(SimDuration::from_secs(300))
            .infection(InfectionSpec::mobile(
                SimTime::from_secs(start_secs),
                SimDuration::from_secs(dwell_secs),
            ))
            .run()
            .expect("scenario runs");

        // Does the residency window contain a measurement instant? The
        // boundaries follow the event ordering of the scenario engine: any
        // measurement due exactly when the infection *arrives* is taken just
        // before the payload lands (clean), while one due exactly when the
        // malware *departs* is taken just before memory is restored
        // (incriminating). So detection requires a measurement instant in
        // the half-open window (start, start + dwell].
        let first_measurement_strictly_after_start = (start_secs / t_m + 1) * t_m;
        let covers_a_measurement =
            first_measurement_strictly_after_start <= start_secs + dwell_secs;
        prop_assert_eq!(
            outcome.infections[0].detected(),
            covers_a_measurement,
            "start {} dwell {}",
            start_secs,
            dwell_secs
        );
    }

    /// Freshness reported at collection time never exceeds T_M for a healthy
    /// regular schedule.
    #[test]
    fn freshness_is_bounded_by_tm(t_m_secs in 5u64..30) {
        let qoa = QoaParams::new(
            SimDuration::from_secs(t_m_secs),
            SimDuration::from_secs(t_m_secs * 6),
        ).expect("valid params");
        prop_assert_eq!(qoa.worst_case_freshness(), SimDuration::from_secs(t_m_secs));
        prop_assert!(qoa.expected_freshness() <= qoa.worst_case_freshness());
        prop_assert_eq!(qoa.recommended_history(), 6);
    }
}
