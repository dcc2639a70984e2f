//! Scheduling ablation bench: regular vs irregular schedules against
//! schedule-aware malware (Section 3.5) and lenient scheduling (Section 5).

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, Criterion};
use erasmus_bench::scheduling;
use erasmus_core::ScheduleKind;
use erasmus_sim::SimDuration;

fn bench_scheduling(c: &mut Criterion) {
    println!("\n{}", scheduling::render(10, 2024));

    c.bench_function("scheduling/schedule_aware_malware_regular", |b| {
        b.iter(|| {
            std::hint::black_box(scheduling::schedule_aware_malware_detection(
                ScheduleKind::Regular,
                2,
                7,
            ))
        })
    });

    c.bench_function("scheduling/schedule_aware_malware_irregular", |b| {
        b.iter(|| {
            std::hint::black_box(scheduling::schedule_aware_malware_detection(
                ScheduleKind::Irregular {
                    lower: SimDuration::from_secs(5),
                    upper: SimDuration::from_secs(15),
                },
                2,
                7,
            ))
        })
    });

    c.bench_function("scheduling/lenient_windows", |b| {
        b.iter(|| std::hint::black_box(scheduling::lenient_scheduling(&[1.0, 2.0, 3.0])))
    });
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
