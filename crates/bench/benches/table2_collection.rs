//! Table 2 bench: prover-side cost of the collection phase, ERASMUS vs
//! ERASMUS+OD, driven through the real protocol engines.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, Criterion};
use erasmus_bench::table2;
use erasmus_core::{CollectionRequest, DeviceId, Prover, ProverConfig, Verifier};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};

fn provisioned_prover(memory: usize) -> (Prover, Verifier) {
    let key = DeviceKey::from_bytes([0x42u8; 32]);
    let config = ProverConfig::builder()
        .mac_algorithm(MacAlgorithm::KeyedBlake2s)
        .measurement_interval(SimDuration::from_secs(60))
        .buffer_slots(16)
        .build()
        .expect("valid config");
    let mut prover = Prover::new(
        DeviceId::new(1),
        DeviceProfile::imx6_sabre_lite(memory),
        key.clone(),
        config,
    )
    .expect("provisioning");
    prover
        .run_until(SimTime::from_secs(480))
        .expect("measurements");
    (prover, Verifier::new(key, MacAlgorithm::KeyedBlake2s))
}

fn bench_table2(c: &mut Criterion) {
    println!("\n{}", table2::render());

    // Host-side cost of serving an ERASMUS collection (the simulated prover
    // time is reported by `repro table2`; this measures the engine itself).
    c.bench_function("table2/erasmus_collection_engine", |b| {
        let (mut prover, _) = provisioned_prover(table2::TABLE2_MEMORY_BYTES);
        let mut t = 481u64;
        b.iter(|| {
            t += 1;
            std::hint::black_box(
                prover.handle_collection(&CollectionRequest::latest(8), SimTime::from_secs(t)),
            )
        });
    });

    // The ERASMUS+OD path actually hashes the (1 MiB here, to keep the bench
    // fast) memory image and computes the MAC — real cryptographic work.
    c.bench_function("table2/erasmus_od_engine_1MiB", |b| {
        let (mut prover, mut verifier) = provisioned_prover(1024 * 1024);
        let mut t = 481u64;
        b.iter(|| {
            t += 1;
            let request = verifier.make_on_demand_request(8, SimTime::from_secs(t));
            std::hint::black_box(
                prover
                    .handle_on_demand(&request, SimTime::from_secs(t))
                    .expect("request accepted"),
            )
        });
    });
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
