//! Event-queue comparison: the calendar queue the engine runs on (rotating
//! wheel of time buckets) vs the `BinaryHeap` oracle it replaced, at the
//! pending-set sizes a fleet shard actually holds.
//!
//! Two workload shapes, mirroring the property-test distributions:
//!
//! * **uniform** — arrival times spread over one wheel revolution (~17 s),
//!   the steady-state shape of a staggered fleet schedule;
//! * **bursty** — arrivals collapsed onto 8 instants, the same-instant
//!   cohort shape the coalescing path produces, where the heap pays
//!   log(n) per tie and the calendar queue pays for one bucket sort.
//!
//! Two operations per (queue, shape, size):
//!
//! * **hold** — steady state: one pop + one push per iteration with the
//!   pending count pinned at N. This is the per-event scheduling cost at
//!   depth N — the number that must beat the heap at ≥ 100k pending.
//! * **drain** — build the full pending set, then pop it dry: amortized
//!   cost of a whole shard timeline at that depth.

#![deny(clippy::disallowed_types)]

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use erasmus_sim::{CalendarQueue, HeapEventQueue, ScheduledEvent, SimDuration, SimRng, SimTime};

/// One wheel revolution is ~17.2 s; keep draws inside it so the uniform
/// shape exercises the wheel, not the overflow list.
const SPAN_NANOS: u64 = 17_000_000_000;

/// Deterministic arrival offsets for `count` events of the given shape.
fn offsets(count: usize, bursty: bool, seed: u64) -> Vec<SimDuration> {
    let mut rng = SimRng::seed_from(seed);
    (0..count)
        .map(|_| {
            let nanos = if bursty {
                rng.gen_range(0, 8) * 250_000_000
            } else {
                rng.gen_range(0, SPAN_NANOS)
            };
            SimDuration::from_nanos(nanos)
        })
        .collect()
}

fn shape_name(bursty: bool) -> &'static str {
    if bursty {
        "bursty"
    } else {
        "uniform"
    }
}

/// The push/pop surface both queues share, so one bench body drives each.
trait Queue: Default {
    const NAME: &'static str;
    fn push(&mut self, time: SimTime, payload: u64);
    fn pop(&mut self) -> Option<ScheduledEvent<u64>>;
}

impl Queue for CalendarQueue<u64> {
    const NAME: &'static str = "calendar";
    fn push(&mut self, time: SimTime, payload: u64) {
        CalendarQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<ScheduledEvent<u64>> {
        CalendarQueue::pop(self)
    }
}

impl Queue for HeapEventQueue<u64> {
    const NAME: &'static str = "heap";
    fn push(&mut self, time: SimTime, payload: u64) {
        HeapEventQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<ScheduledEvent<u64>> {
        HeapEventQueue::pop(self)
    }
}

fn bench_queue<Q: Queue>(
    group: &mut BenchmarkGroup<'_>,
    count: usize,
    bursty: bool,
    offsets: &[SimDuration],
) {
    let id = format!("{}/{}", Q::NAME, shape_name(bursty));

    // Steady-state per-event cost at depth `count`.
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new(format!("hold/{id}"), count),
        offsets,
        |b, offsets| {
            let mut queue = Q::default();
            for (i, &offset) in offsets.iter().enumerate() {
                queue.push(SimTime::ZERO + offset, i as u64);
            }
            let mut cursor = 0usize;
            b.iter(|| {
                let event = queue.pop().expect("queue is held at depth N");
                // Reschedule one revolution out, keeping the shape: the
                // offset stream replays against the popped event's own
                // time base.
                let offset = offsets[cursor % offsets.len()];
                cursor += 1;
                queue.push(
                    event.time + SimDuration::from_nanos(SPAN_NANOS) + offset,
                    event.payload,
                );
                std::hint::black_box(event.sequence)
            });
        },
    );

    // Build-then-drain: N pushes + N pops per iteration.
    group.throughput(Throughput::Elements(count as u64));
    group.bench_with_input(
        BenchmarkId::new(format!("drain/{id}"), count),
        offsets,
        |b, offsets| {
            b.iter(|| {
                let mut queue = Q::default();
                for (i, &offset) in offsets.iter().enumerate() {
                    queue.push(SimTime::ZERO + offset, i as u64);
                }
                let mut last = 0u64;
                while let Some(event) = queue.pop() {
                    last = event.payload;
                }
                std::hint::black_box(last)
            });
        },
    );
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    for &count in &[1_000usize, 100_000, 1_000_000] {
        // A 1M-deep drain pushes and pops two million events per
        // iteration; trim the sample count so the group stays minutes,
        // not hours.
        group.sample_size(if count >= 1_000_000 { 10 } else { 50 });
        for bursty in [false, true] {
            let offsets = offsets(count, bursty, 0xca1e_da12 ^ count as u64);
            bench_queue::<CalendarQueue<u64>>(&mut group, count, bursty, &offsets);
            bench_queue::<HeapEventQueue<u64>>(&mut group, count, bursty, &offsets);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
