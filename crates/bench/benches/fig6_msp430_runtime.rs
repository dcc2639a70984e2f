//! Figure 6 bench: measurement run-time vs memory size on the MSP430-class
//! profile — the cost-model series plus real measurement computation on the
//! host for the same memory sizes.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_bench::runtime;
use erasmus_core::Measurement;
use erasmus_crypto::MacAlgorithm;

fn bench_fig6(c: &mut Criterion) {
    println!(
        "\n{}",
        runtime::render(
            "Figure 6: Measurement run-time on MSP430 @ 8 MHz",
            &runtime::figure6(),
            1024,
            "KB",
        )
    );

    // Host-side: actually compute measurements over the Figure 6 memory
    // sizes with both MACs, showing the same linear shape.
    let mut group = c.benchmark_group("fig6/measurement_computation");
    let key = [0x42u8; 32];
    for kb in [2usize, 6, 10] {
        let memory = vec![0xa5u8; kb * 1024];
        group.throughput(Throughput::Bytes(memory.len() as u64));
        for alg in [MacAlgorithm::HmacSha256, MacAlgorithm::KeyedBlake2s] {
            group.bench_with_input(
                BenchmarkId::new(alg.paper_name(), format!("{kb}KB")),
                &memory,
                |b, memory| {
                    b.iter(|| {
                        std::hint::black_box(Measurement::compute(
                            &key,
                            alg,
                            erasmus_sim::SimTime::from_secs(1),
                            memory,
                        ))
                    })
                },
            );
        }
    }
    group.finish();

    c.bench_function("fig6/cost_model_series", |b| {
        b.iter(|| std::hint::black_box(runtime::figure6()))
    });
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
