//! Table 1 bench: composing the executable-size model for every
//! (architecture, mode, MAC) cell, and printing the reproduced table.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, Criterion};
use erasmus_bench::table1;
use erasmus_hw::CodeSizeModel;

fn bench_table1(c: &mut Criterion) {
    // Print the reproduced table once so `cargo bench` output doubles as the
    // experiment record.
    println!("\n{}", table1::render());

    c.bench_function("table1/compose_all_cells", |b| {
        let model = CodeSizeModel::calibrated();
        b.iter(|| std::hint::black_box(model.table1()));
    });

    c.bench_function("table1/render", |b| {
        b.iter(|| std::hint::black_box(table1::render()));
    });
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
