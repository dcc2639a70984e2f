//! End-to-end integration tests spanning the hardware substrate, the core
//! protocol engines and the verifier.

use erasmus::core::{
    AttestationVerdict, CollectionRequest, DeviceId, DeviceKey, MeasurementVerdict, Prover,
    ProverConfig, ScheduleKind, Verifier,
};
use erasmus::crypto::MacAlgorithm;
use erasmus::hw::{DeviceProfile, SecurityArchitecture};
use erasmus::sim::{SimDuration, SimTime};

fn provision(
    profile: DeviceProfile,
    alg: MacAlgorithm,
    t_m: SimDuration,
    slots: usize,
) -> (Prover, Verifier) {
    let key = DeviceKey::derive(b"end-to-end master seed", 99);
    let config = ProverConfig::builder()
        .mac_algorithm(alg)
        .measurement_interval(t_m)
        .buffer_slots(slots)
        .build()
        .expect("valid config");
    let prover =
        Prover::new(DeviceId::new(99), profile, key.clone(), config).expect("provisioning");
    let mut verifier = Verifier::new(key, alg);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(t_m);
    (prover, verifier)
}

#[test]
fn full_lifecycle_on_both_architectures_and_all_macs() {
    for profile in [
        DeviceProfile::msp430_8mhz(4 * 1024),
        DeviceProfile::imx6_sabre_lite(64 * 1024),
    ] {
        for alg in MacAlgorithm::ALL {
            let (mut prover, mut verifier) = provision(profile, alg, SimDuration::from_secs(30), 8);
            prover
                .run_until(SimTime::from_secs(240))
                .expect("measurements");
            assert_eq!(prover.measurements_taken(), 8);

            let response =
                prover.handle_collection(&CollectionRequest::latest(8), SimTime::from_secs(240));
            let report = verifier
                .verify_collection(&response, SimTime::from_secs(240))
                .expect("report");
            assert!(
                report.all_valid(),
                "{alg} on {}: {report}",
                profile.architecture()
            );
            assert_eq!(report.measurements().len(), 8);
        }
    }
}

#[test]
fn repeated_collections_cover_the_whole_history() {
    let (mut prover, mut verifier) = provision(
        DeviceProfile::msp430_8mhz(2 * 1024),
        MacAlgorithm::HmacSha256,
        SimDuration::from_secs(10),
        8,
    );
    // Collect every 60 s for 10 minutes; every collection must be healthy and
    // must contain exactly the 6 new measurements.
    for round in 1..=10u64 {
        let now = SimTime::from_secs(round * 60);
        prover.run_until(now).expect("measurements");
        let response = prover.handle_collection(&CollectionRequest::latest(6), now);
        let report = verifier.verify_collection(&response, now).expect("report");
        assert_eq!(
            report.verdict(),
            AttestationVerdict::AllHealthy,
            "round {round}"
        );
        assert_eq!(report.missing(), 0, "round {round}");
        assert_eq!(report.measurements().len(), 6);
    }
    assert_eq!(prover.measurements_taken(), 60);
}

#[test]
fn undersized_buffer_loses_history_and_the_verifier_notices() {
    // Buffer of 4 slots but a collection interval of 8·T_M: measurements get
    // overwritten before they are collected, which the verifier reports as a
    // gap (the deployment guidance T_C ≤ n·T_M is violated).
    let (mut prover, mut verifier) = provision(
        DeviceProfile::msp430_8mhz(1024),
        MacAlgorithm::HmacSha256,
        SimDuration::from_secs(10),
        4,
    );
    // Establish a baseline collection so gap detection has a reference point.
    prover
        .run_until(SimTime::from_secs(40))
        .expect("measurements");
    let response = prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
    verifier
        .verify_collection(&response, SimTime::from_secs(40))
        .expect("baseline");

    prover
        .run_until(SimTime::from_secs(120))
        .expect("measurements");
    assert!(prover.buffer().overwrites() > 0);
    let response = prover.handle_collection(&CollectionRequest::latest(8), SimTime::from_secs(120));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(120))
        .expect("report");
    assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
    assert!(report.missing() >= 4);
}

#[test]
fn erasmus_od_provides_maximal_freshness_between_scheduled_measurements() {
    let (mut prover, mut verifier) = provision(
        DeviceProfile::imx6_sabre_lite(64 * 1024),
        MacAlgorithm::KeyedBlake2s,
        SimDuration::from_secs(60),
        8,
    );
    prover
        .run_until(SimTime::from_secs(300))
        .expect("measurements");

    // Plain ERASMUS collection between measurements: freshness up to T_M.
    let response = prover.handle_collection(&CollectionRequest::latest(3), SimTime::from_secs(330));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(330))
        .expect("report");
    assert_eq!(report.freshness(), SimDuration::from_secs(30));

    // ERASMUS+OD at the same instant: the fresh measurement has zero age.
    let request = verifier.make_on_demand_request(3, SimTime::from_secs(331));
    let od_response = prover
        .handle_on_demand(&request, SimTime::from_secs(331))
        .expect("request accepted");
    let od_report = verifier
        .verify_on_demand(&request, &od_response, SimTime::from_secs(331))
        .expect("report");
    assert_eq!(od_report.freshness(), SimDuration::ZERO);
    assert!(od_report.all_valid());
    // And it costs the prover roughly the full measurement time (Table 2).
    assert!(od_response.prover_time > response.prover_time * 100);
}

#[test]
fn infection_between_collections_is_attributed_to_the_right_window() {
    let (mut prover, mut verifier) = provision(
        DeviceProfile::msp430_8mhz(2 * 1024),
        MacAlgorithm::HmacSha256,
        SimDuration::from_secs(10),
        16,
    );
    prover
        .run_until(SimTime::from_secs(60))
        .expect("measurements");
    let response = prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));
    assert!(verifier
        .verify_collection(&response, SimTime::from_secs(60))
        .expect("clean collection")
        .all_valid());

    // Persistent compromise at t = 73 s.
    prover
        .run_until(SimTime::from_secs(73))
        .expect("measurements");
    prover
        .mcu_mut()
        .write_app_memory(128, b"implant")
        .expect("infection");
    prover
        .run_until(SimTime::from_secs(120))
        .expect("measurements");

    let response = prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(120));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(120))
        .expect("report");
    assert_eq!(report.verdict(), AttestationVerdict::CompromiseDetected);
    // Measurements at 70 are healthy; 80..120 show the implant.
    let seconds_at = |verdict| -> Vec<u64> {
        report
            .measurements()
            .iter()
            .filter(|vm| vm.verdict == verdict)
            .map(|vm| vm.measurement.timestamp().as_secs_f64() as u64)
            .collect()
    };
    let healthy = seconds_at(MeasurementVerdict::Healthy);
    let compromised = seconds_at(MeasurementVerdict::Compromised);
    assert_eq!(healthy, vec![70]);
    assert_eq!(compromised, vec![120, 110, 100, 90, 80]);
}

#[test]
fn irregular_schedule_keeps_verification_working() {
    let key = DeviceKey::derive(b"irregular", 1);
    let config = ProverConfig::builder()
        .measurement_interval(SimDuration::from_secs(10))
        .buffer_slots(64)
        .schedule(ScheduleKind::Irregular {
            lower: SimDuration::from_secs(5),
            upper: SimDuration::from_secs(15),
        })
        .build()
        .expect("valid config");
    let mut prover = Prover::new(
        DeviceId::new(5),
        DeviceProfile::msp430_8mhz(1024),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());

    prover
        .run_until(SimTime::from_secs(300))
        .expect("measurements");
    let response =
        prover.handle_collection(&CollectionRequest::latest(64), SimTime::from_secs(300));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(300))
        .expect("report");
    assert!(report.all_valid());
    // Somewhere between 20 and 60 measurements fit in 300 s with bounds [5, 15).
    assert!(report.measurements().len() >= 20 && report.measurements().len() <= 60);
}

#[test]
fn profiles_expose_expected_architectures() {
    assert_eq!(
        DeviceProfile::msp430_8mhz(1024).architecture(),
        SecurityArchitecture::SmartPlus
    );
    assert_eq!(
        DeviceProfile::imx6_sabre_lite(1024).architecture(),
        SecurityArchitecture::Hydra
    );
}
