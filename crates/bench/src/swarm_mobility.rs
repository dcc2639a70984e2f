//! Section 6: swarm attestation coverage under mobility — ERASMUS-based
//! collection versus an on-demand (SEDA-style) baseline.

use erasmus_sim::{SimDuration, SimRng, SimTime};
use erasmus_swarm::{MobilityModel, MobilitySimulator, Swarm, Topology};

/// One point of the coverage-vs-mobility curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityPoint {
    /// Per-device link-rewire probability per 100 ms epoch.
    pub churn_probability: f64,
    /// Coverage achieved by the ERASMUS collection.
    pub erasmus_coverage: f64,
    /// Coverage achieved by the on-demand round.
    pub on_demand_coverage: f64,
    /// Wall-clock duration of the ERASMUS collection round (seconds).
    pub erasmus_duration_secs: f64,
    /// Wall-clock duration of the on-demand round (seconds).
    pub on_demand_duration_secs: f64,
}

/// Number of independent repetitions averaged into each sweep point.
const REPETITIONS: u64 = 5;

/// Sweeps churn probabilities for a swarm of `size` devices, averaging each
/// point over `REPETITIONS` (5) independent topologies and mobility traces.
pub fn sweep(size: usize, churn_probabilities: &[f64], seed: u64) -> Vec<MobilityPoint> {
    churn_probabilities
        .iter()
        .map(|&churn| {
            let mut acc = MobilityPoint {
                churn_probability: churn,
                erasmus_coverage: 0.0,
                on_demand_coverage: 0.0,
                erasmus_duration_secs: 0.0,
                on_demand_duration_secs: 0.0,
            };
            for rep in 0..REPETITIONS {
                let mut rng = SimRng::seed_from(seed.wrapping_add(rep * 7919));
                let topology = Topology::random_connected(size, 3.0, &mut rng);
                let mut swarm = Swarm::new(topology, b"mobility sweep").expect("swarm builds");
                swarm
                    .run_until(SimTime::from_secs(60))
                    .expect("self-measurements");

                let erasmus = swarm
                    .erasmus_collection(0, SimTime::from_secs(60), 6)
                    .expect("collection");

                let model = if churn == 0.0 {
                    MobilityModel::Static
                } else {
                    MobilityModel::churn(SimDuration::from_millis(100), churn)
                };
                let mut mobility =
                    MobilitySimulator::new(model, SimRng::seed_from(seed ^ ((rep + 1) * 0x5a5a)));
                let on_demand = swarm
                    .on_demand_attestation(0, SimTime::from_secs(61), &mut mobility)
                    .expect("attestation");

                acc.erasmus_coverage += erasmus.coverage();
                acc.on_demand_coverage += on_demand.coverage();
                acc.erasmus_duration_secs += erasmus.duration.as_secs_f64();
                acc.on_demand_duration_secs += on_demand.duration.as_secs_f64();
            }
            let n = REPETITIONS as f64;
            acc.erasmus_coverage /= n;
            acc.on_demand_coverage /= n;
            acc.erasmus_duration_secs /= n;
            acc.on_demand_duration_secs /= n;
            acc
        })
        .collect()
}

/// The default sweep used by `repro swarm`: 24 devices, churn from 0 to 0.8.
pub fn default_sweep(seed: u64) -> Vec<MobilityPoint> {
    sweep(24, &[0.0, 0.1, 0.2, 0.4, 0.6, 0.8], seed)
}

/// Renders the sweep as a table.
pub fn render(points: &[MobilityPoint]) -> String {
    let mut out = String::from(
        "Swarm attestation under mobility (24 devices, random connected topology)\n\
         churn/epoch | ERASMUS coverage | on-demand coverage | ERASMUS round | on-demand round\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<11.2} | {:>16.2} | {:>18.2} | {:>13} | {:>15}\n",
            p.churn_probability,
            p.erasmus_coverage,
            p.on_demand_coverage,
            crate::fmt_seconds(p.erasmus_duration_secs),
            crate::fmt_seconds(p.on_demand_duration_secs),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_swarm_gives_full_coverage_to_both() {
        let points = sweep(16, &[0.0], 3);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].erasmus_coverage, 1.0);
        assert_eq!(points[0].on_demand_coverage, 1.0);
    }

    #[test]
    fn high_mobility_degrades_on_demand_only() {
        let points = sweep(24, &[0.0, 0.6], 11);
        let static_point = points[0];
        let mobile_point = points[1];
        assert!(mobile_point.erasmus_coverage > 0.95);
        assert!(
            mobile_point.on_demand_coverage < static_point.on_demand_coverage,
            "on-demand coverage should drop under churn: {} vs {}",
            mobile_point.on_demand_coverage,
            static_point.on_demand_coverage
        );
        assert!(mobile_point.erasmus_coverage > mobile_point.on_demand_coverage);
    }

    #[test]
    fn erasmus_round_is_far_shorter() {
        let points = sweep(16, &[0.2], 5);
        let p = points[0];
        // The on-demand round is dominated by the fresh measurement (~2.8 s on
        // the MSP430 profile); the ERASMUS collection round is tens of
        // milliseconds of relaying.
        assert!(
            p.on_demand_duration_secs / p.erasmus_duration_secs > 20.0,
            "ratio {}",
            p.on_demand_duration_secs / p.erasmus_duration_secs
        );
        assert!(p.erasmus_duration_secs < 0.2);
        assert!(p.on_demand_duration_secs > 2.0);
    }

    #[test]
    fn render_has_one_row_per_point() {
        let points = sweep(8, &[0.0, 0.5], 2);
        let text = render(&points);
        assert_eq!(text.lines().count(), 2 + points.len());
    }
}
