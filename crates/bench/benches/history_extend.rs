//! Per-entry cost of the compact verifier history: bounded ring ingest
//! (ring slot write + rollup update + SHA-256 chain extension) against a
//! ring large enough that nothing ever evicts.
//!
//! Three window shapes — 1, 8 and 64 retained entries — fed one entry at a
//! time through `observe`, in strictly increasing timestamp order.
//! `ring/N` holds resident state at N. Once warm, `ring/8` and `ring/64`
//! pay a second chain extension per entry, sealing the evicted one;
//! `ring/1` seals by copying the previous head. `no-eviction` retains the
//! whole stream, so it pays only the append-side extension plus the
//! growing window's allocator traffic. A separate `extend_digest`
//! benchmark prices the raw PCR-style hash-chain step on its own, and
//! `extend_digest_x8` its 8-lane twin, per lane, as the hub folds eight
//! devices' chains at once.
//!
//! `ingest/ring4-x16` is the hub's shape: 16-entry newest-first reports,
//! as a prover answers `latest 16`, folded into a `Ring(4)` through
//! `DeviceHistory::ingest`, which seals the evicted entries without hashing
//! them again.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_core::{
    extend_digest, extend_digest_x8, CollectionReport, CollectionRequest, DeviceHistory, DeviceId,
    HistoryEntry, HistoryMode, MeasurementVerdict, Prover, ProverConfig, Verifier,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};

/// Entries ingested per iteration: enough that the warm-up (filling the
/// window) is noise and the steady-state eviction path dominates.
const STREAM_LEN: u64 = 4_096;

/// Entries per report in the `ingest` case, and reports per iteration.
const REPORT_LEN: u64 = 16;
const REPORTS: u64 = 64;

/// `REPORTS` consecutive `latest REPORT_LEN` collections from one device,
/// verified once, newest first as the prover sends them.
fn newest_first_reports() -> Vec<CollectionReport> {
    let key = DeviceKey::from_bytes([0x44; 32]);
    let config = ProverConfig::builder()
        .measurement_interval(SimDuration::from_secs(10))
        .buffer_slots(REPORT_LEN as usize)
        .build()
        .expect("valid config");
    let mut prover = Prover::new(
        DeviceId::new(1),
        DeviceProfile::msp430_8mhz(64),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    (1..=REPORTS)
        .map(|round| {
            let now = SimTime::from_secs(10 * REPORT_LEN * round);
            prover.run_until(now).expect("measurements");
            let request = CollectionRequest::latest(REPORT_LEN as usize);
            let response = prover.handle_collection(&request, now);
            verifier.verify_collection(&response, now).expect("report")
        })
        .collect()
}

fn entry(sequence: u64) -> HistoryEntry {
    HistoryEntry {
        timestamp: SimTime::from_secs(10 * sequence),
        verdict: MeasurementVerdict::Healthy,
        collected_at: SimTime::from_secs(10 * sequence + 5),
    }
}

fn bench_history_extend(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_extend");
    group.throughput(Throughput::Elements(STREAM_LEN));

    for &capacity in &[1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("ring", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut history =
                        DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(capacity));
                    for sequence in 0..STREAM_LEN {
                        history.observe(entry(sequence));
                    }
                    std::hint::black_box(*history.head_digest())
                });
            },
        );
    }

    // The retain-everything baseline: same stream into a ring whose
    // capacity covers it, so the eviction path never runs. Running it at
    // the same stream length makes the per-entry numbers directly
    // comparable.
    group.bench_function("no-eviction", |b| {
        b.iter(|| {
            let mut history =
                DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(STREAM_LEN as usize));
            for sequence in 0..STREAM_LEN {
                history.observe(entry(sequence));
            }
            std::hint::black_box(*history.head_digest())
        });
    });

    let reports = newest_first_reports();
    group.throughput(Throughput::Elements(REPORTS * REPORT_LEN));
    group.bench_function("ingest/ring4-x16", |b| {
        b.iter(|| {
            let mut history = DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(4));
            for report in &reports {
                history.ingest(report);
            }
            std::hint::black_box(*history.head_digest())
        });
    });

    // The raw chain step: one SHA-256 over (digest || entry fields). This
    // is the floor for ring ingest — everything above it is ring
    // bookkeeping.
    group.throughput(Throughput::Elements(1));
    group.bench_function("extend_digest", |b| {
        let mut digest = [0u8; 32];
        let mut sequence = 0u64;
        b.iter(|| {
            let e = entry(sequence);
            sequence += 1;
            digest = extend_digest(
                &digest,
                e.timestamp.as_nanos(),
                0,
                e.collected_at.as_nanos(),
            );
            std::hint::black_box(digest)
        });
    });

    // The same step on 8 independent chains in one lane-interleaved pass,
    // priced per chain step.
    group.throughput(Throughput::Elements(8));
    group.bench_function("extend_digest_x8", |b| {
        let mut digests = [[0u8; 32]; 8];
        let mut sequence = 0u64;
        b.iter(|| {
            let e = entry(sequence);
            sequence += 1;
            digests = extend_digest_x8(
                &digests,
                std::array::from_fn(|lane| e.timestamp.as_nanos() + lane as u64),
                [0; 8],
                [e.collected_at.as_nanos(); 8],
            );
            std::hint::black_box(digests)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_history_extend);
criterion_main!(benches);
