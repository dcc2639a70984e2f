//! Section 6 bench: swarm attestation coverage and round duration under
//! mobility — ERASMUS collection vs the on-demand (SEDA-style) baseline.

#![deny(clippy::disallowed_types)]

use criterion::{criterion_group, criterion_main, Criterion};
use erasmus_bench::swarm_mobility;
use erasmus_sim::{SimRng, SimTime};
use erasmus_swarm::{MobilityModel, MobilitySimulator, Swarm, SwarmConfig, Topology};

fn bench_swarm(c: &mut Criterion) {
    println!(
        "\n{}",
        swarm_mobility::render(&swarm_mobility::default_sweep(2024))
    );

    c.bench_function("swarm/erasmus_collection_24_devices", |b| {
        let mut rng = SimRng::seed_from(1);
        let topology = Topology::random_connected(24, 3.0, &mut rng);
        let mut swarm = Swarm::new(SwarmConfig::default(), topology, b"bench").expect("swarm");
        swarm.run_until(SimTime::from_secs(60)).expect("run");
        b.iter(|| std::hint::black_box(swarm.erasmus_collection(0, SimTime::from_secs(60), 6)))
    });

    c.bench_function("swarm/on_demand_round_24_devices", |b| {
        let mut rng = SimRng::seed_from(2);
        let topology = Topology::random_connected(24, 3.0, &mut rng);
        let mut swarm = Swarm::new(SwarmConfig::default(), topology, b"bench").expect("swarm");
        swarm.run_until(SimTime::from_secs(60)).expect("run");
        let mut t = 61u64;
        b.iter(|| {
            t += 1;
            let mut mobility = MobilitySimulator::new(MobilityModel::Static, SimRng::seed_from(t));
            std::hint::black_box(swarm.on_demand_attestation(
                0,
                SimTime::from_secs(t),
                &mut mobility,
            ))
        })
    });

    c.bench_function("swarm/mobility_sweep_small", |b| {
        b.iter(|| std::hint::black_box(swarm_mobility::sweep(12, &[0.0, 0.4], 5)))
    });
}

criterion_group!(benches, bench_swarm);
criterion_main!(benches);
