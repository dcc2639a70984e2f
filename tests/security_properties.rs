//! Security-property tests: unforgeability of measurements, tamper evidence,
//! key isolation, and the attacks the paper's assumptions rule out.

use erasmus::core::{
    AttestationVerdict, CollectionRequest, DeviceId, DeviceKey, Malware, MalwareBehavior,
    Measurement, MeasurementVerdict, OnDemandRequest, Prover, ProverConfig, TamperStrategy,
    Verifier,
};
use std::sync::Arc;

use erasmus::crypto::{Digest, MacAlgorithm, MacTag, Sha256};
use erasmus::hw::{DeviceProfile, Mcu};
use erasmus::sim::{SimDuration, SimTime};
use proptest::prelude::*;

const T_M: SimDuration = SimDuration::from_secs(10);

fn provision(seed: u64) -> (Prover, Verifier, DeviceKey) {
    let key = DeviceKey::derive(b"security properties", seed);
    let config = ProverConfig::builder()
        .measurement_interval(T_M)
        .buffer_slots(32)
        .build()
        .expect("valid config");
    let prover = Prover::new(
        DeviceId::new(seed),
        DeviceProfile::msp430_8mhz(2 * 1024),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key.clone(), MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(T_M);
    (prover, verifier, key)
}

#[test]
fn malware_cannot_read_the_device_key_region() {
    use erasmus::hw::{AccessKind, RegionKind, Subject};
    let (prover, _, _) = provision(1);
    // The rule table the device enforces: application code (and therefore any
    // malware running as the application) has no access to K.
    let mpu = prover.mcu().mpu();
    for access in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
        assert!(
            !mpu.is_allowed(Subject::Application, RegionKind::Key, access),
            "{access:?} on the key region must be denied to the application"
        );
    }
}

#[test]
fn measurements_survive_collection_replay_and_are_bound_to_the_device_key() {
    let (mut prover, mut verifier, _) = provision(2);
    prover
        .run_until(SimTime::from_secs(100))
        .expect("measurements");
    let response =
        prover.handle_collection(&CollectionRequest::latest(10), SimTime::from_secs(100));

    // A verifier for a *different* device (different key) rejects the whole
    // history as forged.
    let other_key = DeviceKey::derive(b"security properties", 3);
    let mut other_verifier = Verifier::new(other_key, MacAlgorithm::HmacSha256);
    let report = other_verifier
        .verify_collection(&response, SimTime::from_secs(100))
        .expect("report");
    assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
    assert!(report
        .measurements()
        .iter()
        .all(|vm| vm.verdict == MeasurementVerdict::Forged));

    // The right verifier accepts it.
    assert!(verifier
        .verify_collection(&response, SimTime::from_secs(100))
        .expect("report")
        .all_valid());
}

#[test]
fn physical_clock_rollback_enables_the_attack_the_rroc_prevents() {
    // Section 3.4: if the clock could be rolled back, malware could discard
    // the incriminating measurement and have a clean one recorded for the
    // same nominal instant. The RROC makes this impossible without physical
    // access; the simulation exposes a physical-attack hook to demonstrate
    // exactly what goes wrong.
    // Note the paper's caveat: the attack additionally assumes no collection
    // takes place while the malware is resident — so no baseline collection
    // happens here before the infection.
    let (mut prover, mut verifier, _) = provision(4);
    prover
        .run_until(SimTime::from_secs(20))
        .expect("measurements");

    // Malware arrives, is measured at t = 30 (incriminating), then rolls the
    // clock back, discards the evidence and waits for a "clean" re-measurement
    // of the same slot.
    let mut malware = Malware::new(
        MalwareBehavior::Mobile {
            dwell: SimDuration::from_secs(8),
        },
        TamperStrategy::DeleteIncriminating,
    );
    malware
        .infect(&mut prover, SimTime::from_secs(25))
        .expect("infect");
    prover
        .run_until(SimTime::from_secs(30))
        .expect("incriminating measurement");
    malware
        .depart(&mut prover, SimTime::from_secs(33))
        .expect("depart");

    // Physical attack: roll the clock back before t = 30 and re-measure.
    prover
        .mcu_mut()
        .rroc_mut_for_attack()
        .physical_rollback(SimTime::from_secs(29));
    prover
        .self_measure(SimTime::from_secs(30))
        .expect("clean re-measurement");
    prover.run_until(SimTime::from_secs(60)).expect("catch up");

    let response = prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(60))
        .expect("report");
    // With the clock rolled back the forged timeline looks complete and
    // healthy: the verifier is fooled. This is exactly why the RROC (which
    // cannot be rolled back by software) is part of the architecture.
    assert!(
        report.all_valid(),
        "demonstrates the attack the RROC requirement blocks: {report}"
    );
}

#[test]
fn without_clock_rollback_the_same_malware_is_caught() {
    let (mut prover, mut verifier, _) = provision(5);
    prover
        .run_until(SimTime::from_secs(20))
        .expect("measurements");
    // The verifier has already collected once, so it knows how many
    // measurements to expect per interval from here on.
    let baseline = prover.handle_collection(&CollectionRequest::latest(2), SimTime::from_secs(20));
    verifier
        .verify_collection(&baseline, SimTime::from_secs(20))
        .expect("baseline");
    let mut malware = Malware::new(
        MalwareBehavior::Mobile {
            dwell: SimDuration::from_secs(8),
        },
        TamperStrategy::DeleteIncriminating,
    );
    malware
        .infect(&mut prover, SimTime::from_secs(25))
        .expect("infect");
    prover
        .run_until(SimTime::from_secs(30))
        .expect("incriminating measurement");
    malware
        .depart(&mut prover, SimTime::from_secs(33))
        .expect("depart");
    prover.run_until(SimTime::from_secs(60)).expect("catch up");

    let response = prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));
    let report = verifier
        .verify_collection(&response, SimTime::from_secs(60))
        .expect("report");
    // The deleted slot shows up as a gap: tampering detected.
    assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
    assert!(report.missing() >= 1);
}

#[test]
fn on_demand_request_forgery_and_replay_are_rejected() {
    let (mut prover, mut verifier, key) = provision(6);
    prover
        .run_until(SimTime::from_secs(100))
        .expect("measurements");

    // Forged request under a guessed key.
    let forged = OnDemandRequest::new(
        DeviceKey::derive(b"attacker", 0).as_bytes(),
        MacAlgorithm::HmacSha256,
        SimTime::from_secs(101),
        4,
    );
    assert!(prover
        .handle_on_demand(&forged, SimTime::from_secs(101))
        .is_err());

    // Legitimate request works once…
    let request = verifier.make_on_demand_request(4, SimTime::from_secs(102));
    assert!(request.verify(key.as_bytes(), MacAlgorithm::HmacSha256));
    prover
        .handle_on_demand(&request, SimTime::from_secs(102))
        .expect("accepted");
    // …and replaying it later is rejected (anti-DoS/replay, SMART+ rule).
    assert!(prover
        .handle_on_demand(&request, SimTime::from_secs(140))
        .is_err());
}

#[test]
fn malware_on_one_device_never_reaches_a_sibling_sharing_its_image() {
    // Two devices provisioned the way a fleet shard provisions them: one
    // shared image, and one reference digest hashed once for both verifiers.
    let profile = DeviceProfile::msp430_8mhz(2 * 1024);
    let image = Mcu::zeroed_image(&profile);
    let reference = Sha256::digest(&image);
    let config = ProverConfig::builder()
        .measurement_interval(T_M)
        .buffer_slots(32)
        .build()
        .expect("valid config");
    let mut devices: Vec<(Prover, Verifier)> = (20..22)
        .map(|seed| {
            let key = DeviceKey::derive(b"security properties", seed);
            let prover = Prover::with_app_image(
                DeviceId::new(seed),
                profile,
                key.clone(),
                config.clone(),
                Arc::clone(&image),
            )
            .expect("provisioning");
            let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
            verifier.set_reference_digest(reference);
            verifier.set_expected_interval(T_M);
            (prover, verifier)
        })
        .collect();
    assert!(std::ptr::eq(
        devices[0].0.mcu().app_memory(),
        devices[1].0.mcu().app_memory()
    ));

    for (prover, _) in &mut devices {
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurements");
    }
    devices[0]
        .0
        .mcu_mut()
        .write_app_memory(64, b"implant")
        .expect("infection");
    for (prover, _) in &mut devices {
        prover
            .run_until(SimTime::from_secs(40))
            .expect("measurements");
    }
    assert!(
        image.iter().all(|&b| b == 0),
        "the shared image was written"
    );

    let verdicts: Vec<Vec<MeasurementVerdict>> = devices
        .iter_mut()
        .map(|(prover, verifier)| {
            let response =
                prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
            let report = verifier
                .verify_collection(&response, SimTime::from_secs(40))
                .expect("report");
            report.measurements().iter().map(|vm| vm.verdict).collect()
        })
        .collect();
    // Newest first: the infected device's two measurements since the write
    // are compromised, the two before it healthy; its sibling stays healthy.
    use MeasurementVerdict::{Compromised, Healthy};
    assert_eq!(verdicts[0], [Compromised, Compromised, Healthy, Healthy]);
    assert_eq!(verdicts[1], [Healthy; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No matter what bytes malware writes into the measurement store, it
    /// cannot fabricate evidence that verifies: a tampered entry is either
    /// flagged as forged or (if it deleted things) as missing.
    #[test]
    fn arbitrary_store_tampering_is_always_detected(
        slot in 0usize..8,
        timestamp_secs in 0u64..200,
        digest in proptest::collection::vec(any::<u8>(), 32),
        tag in proptest::collection::vec(any::<u8>(), 32),
    ) {
        let (mut prover, mut verifier, _) = provision(7);
        prover.run_until(SimTime::from_secs(80)).expect("measurements");
        // Baseline collection so gap detection is armed.
        let baseline = prover.handle_collection(&CollectionRequest::latest(8), SimTime::from_secs(80));
        verifier.verify_collection(&baseline, SimTime::from_secs(80)).expect("baseline");

        prover.run_until(SimTime::from_secs(160)).expect("measurements");
        let mut forged_digest = [0u8; 32];
        forged_digest.copy_from_slice(&digest);
        let forged = Measurement::from_parts(
            SimTime::from_secs(timestamp_secs),
            forged_digest,
            MacTag::new(tag),
        );
        let target_slot = slot % prover.buffer().capacity();
        prover.buffer_mut().tamper_replace(target_slot, forged);

        // The verifier asks for the full buffer, so the mangled entry is part
        // of the response no matter which slot it landed in.
        let response = prover.handle_collection(&CollectionRequest::all(), SimTime::from_secs(160));
        let report = verifier.verify_collection(&response, SimTime::from_secs(160)).expect("report");
        prop_assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
    }

    /// Whatever the malware payload and wherever it lands in memory, a
    /// measurement taken while it is resident flags the device as
    /// compromised.
    #[test]
    fn any_resident_payload_is_visible_to_the_next_measurement(
        payload in proptest::collection::vec(1u8..=255, 1..64),
        offset in 0usize..1024,
    ) {
        let (mut prover, mut verifier, _) = provision(8);
        prover.run_until(SimTime::from_secs(20)).expect("measurements");
        let offset = offset.min(prover.mcu().app_memory_len() - payload.len());
        prover.mcu_mut().write_app_memory(offset, &payload).expect("infection");
        prover.run_until(SimTime::from_secs(40)).expect("measurements");

        let response = prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let report = verifier.verify_collection(&response, SimTime::from_secs(40)).expect("report");
        prop_assert_eq!(report.verdict(), AttestationVerdict::CompromiseDetected);
    }
}
