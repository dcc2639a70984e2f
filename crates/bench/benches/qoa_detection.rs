//! QoA bench: Monte-Carlo detection-probability scenarios (the simulation
//! behind the Figure 1 / Section 3.1 discussion).

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, Criterion};
use erasmus_bench::{fig1, qoa_sweep};
use erasmus_core::{InfectionSpec, Scenario};
use erasmus_sim::{SimDuration, SimTime};

fn bench_qoa(c: &mut Criterion) {
    println!("\n{}", fig1::render());
    println!(
        "\n{}",
        qoa_sweep::render(&qoa_sweep::default_sweep(40, 2024))
    );

    c.bench_function("qoa/figure1_scenario", |b| {
        b.iter(|| std::hint::black_box(fig1::run()))
    });

    c.bench_function("qoa/single_mobile_infection_scenario", |b| {
        b.iter(|| {
            std::hint::black_box(
                Scenario::builder()
                    .measurement_interval(SimDuration::from_secs(10))
                    .collection_interval(SimDuration::from_secs(60))
                    .duration(SimDuration::from_secs(300))
                    .infection(InfectionSpec::mobile(
                        SimTime::from_secs(73),
                        SimDuration::from_secs(8),
                    ))
                    .run()
                    .expect("scenario runs"),
            )
        })
    });

    c.bench_function("qoa/detection_sweep_small", |b| {
        b.iter(|| std::hint::black_box(qoa_sweep::default_sweep(5, 7)))
    });
}

criterion_group!(benches, bench_qoa);
criterion_main!(benches);
