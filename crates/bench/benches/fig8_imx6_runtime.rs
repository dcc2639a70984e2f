//! Figure 8 bench: measurement run-time vs memory size on the i.MX6-class
//! profile.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_bench::runtime;
use erasmus_core::Measurement;
use erasmus_crypto::MacAlgorithm;

fn bench_fig8(c: &mut Criterion) {
    println!(
        "\n{}",
        runtime::render(
            "Figure 8: Measurement run-time on i.MX6 Sabre Lite @ 1 GHz",
            &runtime::figure8(),
            1024 * 1024,
            "MB",
        )
    );

    // Host-side measurement computation over megabyte-scale images (2 MiB
    // keeps a single iteration fast while preserving the linear trend).
    let mut group = c.benchmark_group("fig8/measurement_computation");
    group.sample_size(10);
    let key = [0x42u8; 32];
    for mb in [1usize, 2] {
        let memory = vec![0x5au8; mb * 1024 * 1024];
        group.throughput(Throughput::Bytes(memory.len() as u64));
        for alg in [MacAlgorithm::HmacSha256, MacAlgorithm::KeyedBlake2s] {
            group.bench_with_input(
                BenchmarkId::new(alg.paper_name(), format!("{mb}MB")),
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

    c.bench_function("fig8/cost_model_series", |b| {
        b.iter(|| std::hint::black_box(runtime::figure8()))
    });
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
