//! Swarm integration tests spanning the core protocol engines, the topology
//! and mobility substrate and the QoSA reporting (Section 6).

use erasmus::sim::{SimDuration, SimRng, SimTime};
use erasmus::swarm::{
    DeviceStatus, MobilityModel, MobilitySimulator, QosaLevel, StaggeredSchedule, Swarm,
    SwarmError, Topology,
};
use proptest::prelude::*;

fn fleet(topology: Topology) -> Swarm {
    Swarm::new(topology, b"integration fleet").expect("swarm builds")
}

#[test]
fn grid_swarm_full_collection_roundtrip() {
    let mut swarm = fleet(Topology::grid(4, 4));
    swarm
        .run_until(SimTime::from_secs(60))
        .expect("self-measurements");
    let outcome = swarm
        .erasmus_collection(0, SimTime::from_secs(60), 6)
        .expect("collection");
    assert_eq!(outcome.coverage(), 1.0);
    assert!(outcome.report.swarm_healthy());
    assert_eq!(outcome.report.summary(QosaLevel::Binary), "swarm healthy");
    assert_eq!(outcome.report.len(), 16);
    // The whole round is fast: the prover-side work is just reading buffers
    // and relaying packets.
    assert!(outcome.duration < SimDuration::from_secs(1));
}

#[test]
fn compromised_and_partitioned_devices_show_up_in_qosa() {
    let mut swarm = fleet(Topology::ring(10));
    swarm.run_until(SimTime::from_secs(30)).expect("run");
    swarm
        .infect_device(4, SimTime::from_secs(31))
        .expect("infect");
    swarm.run_until(SimTime::from_secs(60)).expect("run");
    // Partition device 7 completely.
    swarm.topology_mut().remove_link(6, 7);
    swarm.topology_mut().remove_link(7, 8);

    let outcome = swarm
        .erasmus_collection(0, SimTime::from_secs(60), 6)
        .expect("collection");
    assert_eq!(outcome.report.status(4), Some(DeviceStatus::Compromised));
    assert_eq!(outcome.report.status(7), Some(DeviceStatus::Unreachable));
    assert_eq!(outcome.report.unhealthy_devices(), vec![4, 7]);
    assert!(!outcome.report.swarm_healthy());
    assert!((outcome.coverage() - 0.9).abs() < 1e-9);
    let full = outcome.report.summary(QosaLevel::Full);
    assert!(full.contains("device 4: Compromised"));
    assert!(full.contains("device 7: Unreachable"));
}

#[test]
fn erasmus_collection_tolerates_mobility_better_than_on_demand() {
    let mut rng = SimRng::seed_from(97);
    let topology = Topology::random_connected(30, 3.0, &mut rng);
    let mut swarm = fleet(topology);
    swarm.run_until(SimTime::from_secs(60)).expect("run");

    let erasmus = swarm
        .erasmus_collection(0, SimTime::from_secs(60), 6)
        .expect("collection");

    let model = MobilityModel::churn(SimDuration::from_millis(100), 0.7);
    let mut mobility = MobilitySimulator::new(model, SimRng::seed_from(13));
    let on_demand = swarm
        .on_demand_attestation(0, SimTime::from_secs(61), &mut mobility)
        .expect("attestation");

    assert!(erasmus.coverage() > 0.95);
    assert!(erasmus.coverage() >= on_demand.coverage());
    assert!(on_demand.duration > erasmus.duration * 10);
    // The on-demand round burns real computation on every device.
    assert!(on_demand.total_prover_time > erasmus.total_prover_time * 100);
}

#[test]
fn staggered_schedule_limits_concurrent_measurement_load() {
    let swarm_size = 40;
    let schedule = StaggeredSchedule::new(swarm_size, 8, SimDuration::from_secs(40));
    assert_eq!(schedule.max_concurrent(), 5);
    assert!(schedule.max_busy_fraction() <= 0.125 + 1e-9);
    // Offsets partition the devices: every device gets exactly one group,
    // and groups are disjoint.
    let mut seen = vec![false; swarm_size];
    for group in 0..schedule.groups() {
        for device in schedule.devices_in_group(group) {
            assert!(!seen[device], "device {device} appears in two groups");
            seen[device] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn swarm_errors_are_reported_per_device() {
    let mut swarm = fleet(Topology::ring(4));
    assert!(matches!(
        swarm.erasmus_collection(9, SimTime::from_secs(10), 2),
        Err(SwarmError::UnknownDevice { index: 9, size: 4 })
    ));
    assert!(matches!(
        swarm.prover(17),
        Err(SwarmError::UnknownDevice { .. })
    ));
    assert!(matches!(
        swarm.infect_device(17, SimTime::from_secs(1)),
        Err(SwarmError::UnknownDevice { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any connected topology, an ERASMUS collection from any root covers
    /// the whole swarm and reports it healthy when nothing is infected.
    #[test]
    fn any_connected_topology_gets_full_coverage(
        nodes in 2usize..20,
        degree in 2u32..5,
        root_pick in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let topology = Topology::random_connected(nodes, degree as f64, &mut rng);
        prop_assume!(topology.is_connected());
        let root = root_pick % nodes;
        let mut swarm = fleet(topology);
        swarm.run_until(SimTime::from_secs(30)).expect("run");
        let outcome = swarm.erasmus_collection(root, SimTime::from_secs(30), 3).expect("collection");
        prop_assert_eq!(outcome.coverage(), 1.0);
        prop_assert!(outcome.report.swarm_healthy());
    }

    /// Infecting any single device is always localized: exactly that device
    /// is flagged, the rest stay healthy.
    #[test]
    fn single_infection_is_localized(nodes in 3usize..12, victim_pick in 0usize..12) {
        let victim = victim_pick % nodes;
        let mut swarm = fleet(Topology::full_mesh(nodes));
        swarm.run_until(SimTime::from_secs(20)).expect("run");
        swarm.infect_device(victim, SimTime::from_secs(21)).expect("infect");
        swarm.run_until(SimTime::from_secs(40)).expect("run");
        let outcome = swarm.erasmus_collection(0, SimTime::from_secs(40), 4).expect("collection");
        prop_assert_eq!(outcome.report.unhealthy_devices(), vec![victim]);
        prop_assert_eq!(outcome.report.count(DeviceStatus::Compromised), 1);
        prop_assert_eq!(outcome.report.count(DeviceStatus::Healthy), nodes - 1);
    }
}
