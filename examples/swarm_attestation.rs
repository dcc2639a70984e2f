//! Swarm attestation under mobility (Section 6).
//!
//! A fleet of 24 devices self-measures on its own schedule. The verifier,
//! attached to device 0, runs two collective protocols:
//!
//! * an ERASMUS collection (LISA-α style relay of stored measurements) —
//!   finishes in tens of milliseconds, so even a highly mobile swarm is
//!   covered almost completely;
//! * an on-demand (SEDA-style) round — every device computes a fresh
//!   measurement, the topology must hold still for seconds, and mobility
//!   eats into coverage.
//!
//! Run with: `cargo run --example swarm_attestation`

use erasmus::sim::{SimDuration, SimRng, SimTime};
use erasmus::swarm::{
    MobilityModel, MobilitySimulator, QosaLevel, StaggeredSchedule, Swarm, Topology,
};

fn main() -> Result<(), erasmus::swarm::SwarmError> {
    let mut rng = SimRng::seed_from(2024);
    let topology = Topology::random_connected(24, 3.0, &mut rng);
    let mut swarm = Swarm::new(topology, b"example fleet")?;

    // Let the fleet run unattended; every device self-measures on its own
    // T_M = 10 s schedule. Half-way through, one device gets compromised —
    // the subsequent self-measurements capture the infected memory.
    swarm.run_until(SimTime::from_secs(30))?;
    swarm.infect_device(17, SimTime::from_secs(35))?;
    swarm.run_until(SimTime::from_secs(60))?;

    // --- ERASMUS swarm collection -----------------------------------------
    let collection = swarm.erasmus_collection(0, SimTime::from_secs(60), 6)?;
    println!("=== ERASMUS swarm collection ===");
    println!("round duration: {}", collection.duration);
    println!("coverage: {:.0}%", collection.coverage() * 100.0);
    println!(
        "binary QoSA: {}",
        collection.report.summary(QosaLevel::Binary)
    );
    println!(
        "list QoSA:   {}",
        collection.report.summary(QosaLevel::List)
    );

    // --- on-demand (SEDA-style) baseline under high mobility ---------------
    let model = MobilityModel::churn(SimDuration::from_millis(100), 0.6);
    let mut mobility = MobilitySimulator::new(model, SimRng::seed_from(7));
    let on_demand = swarm.on_demand_attestation(0, SimTime::from_secs(61), &mut mobility)?;
    println!("\n=== on-demand swarm round (high mobility) ===");
    println!("round duration: {}", on_demand.duration);
    println!("coverage: {:.0}%", on_demand.coverage() * 100.0);
    println!(
        "unreachable devices: {:?}",
        on_demand.unreachable.iter().collect::<Vec<_>>()
    );

    // --- availability: staggered measurement schedule ----------------------
    let schedule = StaggeredSchedule::new(swarm.len(), 6, SimDuration::from_secs(10));
    println!("\n=== staggered measurement schedule ===");
    println!(
        "at most {} of {} devices ({:.0}%) measure at the same instant",
        schedule.max_concurrent(),
        schedule.devices(),
        schedule.max_busy_fraction() * 100.0
    );
    println!(
        "device 0 first measures at {}, device 3 at {}",
        schedule.first_measurement(0),
        schedule.first_measurement(3)
    );

    assert!(collection.coverage() >= on_demand.coverage());
    assert_eq!(collection.report.unhealthy_devices(), vec![17]);
    Ok(())
}
