//! Workspace smoke test: the `erasmus::prelude` quickstart path promised by
//! the facade crate's doc-comment (measure → collect → verify →
//! `report.all_valid()`) must keep working verbatim. If this test fails, the
//! README/crate-root example has rotted.

use erasmus::prelude::*;

#[test]
fn prelude_quickstart_path_measure_collect_verify() -> Result<(), erasmus::core::Error> {
    // A low-end prover that self-measures every 10 simulated seconds and
    // keeps the last 16 measurements in its rolling buffer.
    let profile = DeviceProfile::msp430_8mhz(10 * 1024);
    let config = ProverConfig::builder()
        .mac_algorithm(MacAlgorithm::HmacSha256)
        .measurement_interval(SimDuration::from_secs(10))
        .buffer_slots(16)
        .build()?;
    let key = DeviceKey::from_bytes([0x42; 32]);
    let mut prover = Prover::new(DeviceId::new(1), profile, key.clone(), config)?;
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);

    // Let the device run for a minute, then collect and verify its history.
    let mut clock = SimClock::new();
    for _ in 0..6 {
        clock.advance(SimDuration::from_secs(10));
        prover.self_measure(clock.now())?;
    }
    let response = prover.handle_collection(&CollectionRequest::latest(4), clock.now());
    let report = verifier.verify_collection(&response, clock.now())?;
    assert!(report.all_valid());
    assert_eq!(report.measurements().len(), 4);
    Ok(())
}

#[test]
fn prelude_exposes_the_documented_surface() {
    // Compile-time check that the prelude keeps re-exporting the types the
    // documentation tells users to reach for.
    fn assert_exists<T>() {}
    assert_exists::<AttestationVerdict>();
    assert_exists::<CollectionResponse>();
    assert_exists::<Measurement>();
    assert_exists::<MeasurementBuffer>();
    assert_exists::<QoaParams>();
    assert_exists::<SecurityArchitecture>();
    assert_exists::<Sha256>();
    assert_exists::<SimTime>();
}

#[test]
fn every_first_party_crate_root_forbids_unsafe_code() {
    // `forbid` rather than `deny`: no module below a root can lift it.
    let roots = [
        ("erasmus", include_str!("../src/lib.rs")),
        ("bench", include_str!("../crates/bench/src/lib.rs")),
        ("core", include_str!("../crates/core/src/lib.rs")),
        ("crypto", include_str!("../crates/crypto/src/lib.rs")),
        ("fuzz", include_str!("../crates/fuzz/src/lib.rs")),
        ("hw", include_str!("../crates/hw/src/lib.rs")),
        ("sim", include_str!("../crates/sim/src/lib.rs")),
        ("swarm", include_str!("../crates/swarm/src/lib.rs")),
    ];
    for (name, source) in roots {
        assert!(
            source.lines().any(|line| line == "#![forbid(unsafe_code)]"),
            "the {name} crate root is missing `#![forbid(unsafe_code)]`"
        );
    }
}
