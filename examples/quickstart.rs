//! Quickstart: provision one ERASMUS prover, let it self-measure on a
//! schedule, then collect and verify its history.
//!
//! Run with: `cargo run --example quickstart`

use erasmus::prelude::*;
use erasmus_core::DeviceKey;

fn main() -> Result<(), erasmus::core::Error> {
    // 1. Provision a low-end (SMART+/MSP430-class) device with 10 KiB of
    //    measured memory. The key is shared with the verifier out of band.
    let key = DeviceKey::from_bytes([0x42; 32]);
    let profile = DeviceProfile::msp430_8mhz(10 * 1024);
    let config = ProverConfig::builder()
        .mac_algorithm(MacAlgorithm::HmacSha256)
        .measurement_interval(SimDuration::from_secs(60)) // T_M = 1 minute
        .buffer_slots(16) // n = 16 rolling slots
        .build()?;
    let mut prover = Prover::new(DeviceId::new(1), profile, key.clone(), config)?;

    // 2. The verifier holds the same key, knows the healthy software image
    //    and the measurement interval.
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(SimDuration::from_secs(60));

    // 3. The device runs unattended for ten minutes, self-measuring every
    //    T_M. No verifier interaction happens during this phase.
    let now = SimTime::from_secs(600);
    let taken = prover.run_until(now)?;
    println!(
        "prover took {} self-measurements while unattended",
        taken.len()
    );
    println!(
        "total prover time spent measuring: {} (collection will cost almost nothing)",
        prover.total_busy_time()
    );

    // 4. The verifier shows up and collects the last 10 measurements — the
    //    collection phase involves no cryptography on the prover.
    let request = CollectionRequest::latest(10);
    let response = prover.handle_collection(&request, now);
    println!(
        "collection served in {} of prover time ({} measurements, {} bytes)",
        response.prover_time,
        response.measurements.len(),
        response.payload_bytes()
    );

    // 5. Verify the history: every MAC is checked, gaps are detected, and
    //    the memory digests are compared against the known-good image.
    let report = verifier.verify_collection(&response, now)?;
    println!("verdict: {}", report.verdict());
    println!("freshness of newest measurement: {}", report.freshness());
    for vm in report.measurements().iter().take(3) {
        println!("  {} -> {}", vm.measurement, vm.verdict);
    }
    assert!(report.all_valid());
    println!("device history is authentic and healthy");
    Ok(())
}
