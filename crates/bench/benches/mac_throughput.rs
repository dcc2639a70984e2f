//! Raw throughput of the from-scratch MAC implementations (the primitive
//! behind Figures 6 and 8): bytes per second of SHA-256, HMAC-SHA256,
//! SHA-1, HMAC-SHA1 and keyed BLAKE2s on the host, the re-keyed vs
//! precomputed key-schedule comparison on measurement-sized inputs, device
//! key derivation, and the verifier's check of a whole collection response
//! under each MAC.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_core::{CollectionRequest, DeviceId, Prover, ProverConfig, Verifier};
use erasmus_crypto::{Blake2s, Digest, HmacSha1, HmacSha256, MacAlgorithm, Sha1, Sha256};
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};

fn bench_mac_throughput(c: &mut Criterion) {
    let key = [0x42u8; 32];
    let mut group = c.benchmark_group("mac_throughput");
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));

        group.bench_with_input(BenchmarkId::new("SHA-256", size), &data, |b, data| {
            b.iter(|| std::hint::black_box(Sha256::digest(data)))
        });
        group.bench_with_input(BenchmarkId::new("HMAC-SHA256", size), &data, |b, data| {
            b.iter(|| std::hint::black_box(HmacSha256::mac(&key, data)))
        });
        group.bench_with_input(BenchmarkId::new("SHA-1", size), &data, |b, data| {
            b.iter(|| std::hint::black_box(Sha1::digest(data)))
        });
        group.bench_with_input(BenchmarkId::new("HMAC-SHA1", size), &data, |b, data| {
            b.iter(|| std::hint::black_box(HmacSha1::mac(&key, data)))
        });
        group.bench_with_input(BenchmarkId::new("Keyed BLAKE2s", size), &data, |b, data| {
            b.iter(|| std::hint::black_box(Blake2s::keyed_mac(&key, data)))
        });
    }
    group.finish();

    // Tag verification cost (constant-time comparison path).
    c.bench_function("mac_throughput/verify_1KiB", |b| {
        let data = vec![0x11u8; 1024];
        let tag = MacAlgorithm::HmacSha256.mac(&key, &data);
        b.iter(|| std::hint::black_box(MacAlgorithm::HmacSha256.verify(&key, &data, &tag)))
    });
}

/// The ERASMUS hot path MACs a 40-byte `(t, H(mem_t))` input per
/// measurement. Re-deriving the HMAC key schedule dominates at that size;
/// the precomputed `KeyedMac` midstate amortizes it to once per device.
/// The device keys themselves come from HMAC-DRBG at provisioning: one
/// generator per key (`derive`), or one generator instantiated for a
/// range of devices and cloned per device, as a fleet shard provisions
/// (`derive_range/64`); both are priced per device.
fn bench_key_schedule(c: &mut Criterion) {
    let key = [0x42u8; 32];
    // Timestamp + SHA-256 digest, as built by `Measurement::mac_input`.
    let mac_input = [0x5au8; 40];
    let mut group = c.benchmark_group("key_schedule");
    for alg in MacAlgorithm::ALL {
        group.bench_with_input(
            BenchmarkId::new("rekeyed", alg.to_string()),
            &mac_input,
            |b, input| b.iter(|| std::hint::black_box(alg.mac(&key, input))),
        );
        let keyed = alg.with_key(&key);
        group.bench_with_input(
            BenchmarkId::new("precomputed", alg.to_string()),
            &mac_input,
            |b, input| b.iter(|| std::hint::black_box(keyed.mac(input))),
        );
    }
    let mut device = 0u64;
    group.throughput(Throughput::Elements(1));
    group.bench_function("derive", |b| {
        b.iter(|| {
            device += 1;
            std::hint::black_box(DeviceKey::derive(b"erasmus-fleet", device))
        })
    });
    const RANGE: u64 = 64;
    group.throughput(Throughput::Elements(RANGE));
    group.bench_function("derive_range/64", |b| {
        b.iter(|| {
            let ids = device..device + RANGE;
            device += RANGE;
            for key in DeviceKey::derive_range(b"erasmus-fleet", ids) {
                std::hint::black_box(key);
            }
        })
    });
    group.finish();
}

/// `Verifier::verify_collection` of one 16-measurement response, priced
/// per measurement, under each MAC: one tag check per measurement.
fn bench_verify_collection(c: &mut Criterion) {
    const MEASUREMENTS: usize = 16;
    let mut group = c.benchmark_group("verify_collection");
    group.throughput(Throughput::Elements(MEASUREMENTS as u64));
    for alg in MacAlgorithm::ALL {
        let key = DeviceKey::from_bytes([0x42; 32]);
        let config = ProverConfig::builder()
            .mac_algorithm(alg)
            .measurement_interval(SimDuration::from_secs(10))
            .buffer_slots(MEASUREMENTS)
            .build()
            .expect("valid config");
        let mut prover = Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(64),
            key.clone(),
            config,
        )
        .expect("provisioning");
        let mut verifier = Verifier::new(key, alg);
        verifier.learn_reference_image(prover.mcu().app_memory());
        let now = SimTime::from_secs(10 * MEASUREMENTS as u64);
        prover.run_until(now).expect("measurements");
        let response = prover.handle_collection(&CollectionRequest::latest(MEASUREMENTS), now);
        group.bench_function(BenchmarkId::new("x16", alg.to_string()), |b| {
            b.iter(|| std::hint::black_box(verifier.verify_collection(&response, now)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mac_throughput,
    bench_key_schedule,
    bench_verify_collection
);
criterion_main!(benches);
