//! Raw throughput of the from-scratch MAC implementations (the primitive
//! behind Figures 6 and 8): bytes per second of SHA-256, HMAC-SHA256,
//! SHA-1, HMAC-SHA1 and keyed BLAKE2s on the host, the re-keyed vs
//! precomputed key-schedule comparison on measurement-sized inputs, the
//! scalar vs 4-lane vs 8-lane multi-buffer comparison behind the fleet's
//! lane-batched measurement path, and the verifier's check of a whole
//! collection response.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_core::{CollectionRequest, DeviceId, Prover, ProverConfig, Verifier};
use erasmus_crypto::{
    Blake2s, Blake2sx4, Blake2sx8, Digest, HmacSha1, HmacSha256, MacAlgorithm, MultiDigest, Sha1,
    Sha256, Sha256x4, Sha256x8,
};
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
    group.finish();
}

/// Scalar vs lane-interleaved hashing at measurement-like sizes: the
/// throughput is bytes hashed across *all* lanes, so the multi-buffer wins
/// show up directly as higher GiB/s at identical per-message work.
fn bench_multi_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_buffer");
    for size in [1024usize, 4 * 1024, 64 * 1024] {
        let images: Vec<Vec<u8>> = (0..8u8).map(|lane| vec![lane ^ 0xab; size]).collect();

        group.throughput(Throughput::Bytes(8 * size as u64));
        group.bench_with_input(BenchmarkId::new("SHA-256/scalar", size), &images, |b, m| {
            b.iter(|| {
                for image in m.iter() {
                    std::hint::black_box(Sha256::digest(image));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("SHA-256/x4", size), &images, |b, m| {
            b.iter(|| {
                for pair in m.chunks_exact(4) {
                    std::hint::black_box(Sha256x4::digest(std::array::from_fn(|i| &pair[i][..])));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("SHA-256/x8", size), &images, |b, m| {
            b.iter(|| {
                std::hint::black_box(Sha256x8::digest(std::array::from_fn(|i| &m[i][..])));
            })
        });

        group.bench_with_input(BenchmarkId::new("BLAKE2s/scalar", size), &images, |b, m| {
            b.iter(|| {
                for image in m.iter() {
                    std::hint::black_box(Blake2s::digest(image));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("BLAKE2s/x4", size), &images, |b, m| {
            b.iter(|| {
                for pair in m.chunks_exact(4) {
                    std::hint::black_box(Blake2sx4::digest(std::array::from_fn(|i| &pair[i][..])));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("BLAKE2s/x8", size), &images, |b, m| {
            b.iter(|| {
                std::hint::black_box(Blake2sx8::digest(std::array::from_fn(|i| &m[i][..])));
            })
        });
    }
    group.finish();
}

/// `Verifier::verify_collection` of one 16-measurement response, priced
/// per measurement. HMAC-SHA256 checks the tags 8 lanes wide (two passes);
/// HMAC-SHA1 has no lane core, so it checks them one at a time.
fn bench_verify_collection(c: &mut Criterion) {
    const MEASUREMENTS: usize = 16;
    let mut group = c.benchmark_group("verify_collection");
    group.throughput(Throughput::Elements(MEASUREMENTS as u64));
    for alg in [MacAlgorithm::HmacSha256, MacAlgorithm::HmacSha1] {
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
    bench_multi_buffer,
    bench_verify_collection
);
criterion_main!(benches);
