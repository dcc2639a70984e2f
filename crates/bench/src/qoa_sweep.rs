//! QoA detection-probability sweep: analytical formula versus Monte-Carlo
//! simulation of mobile malware with varying dwell times.

use erasmus_core::{InfectionSpec, QoaParams, Scenario};
use erasmus_sim::{SimDuration, SimRng, SimTime};

/// One point of the detection-probability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionPoint {
    /// Malware dwell time.
    pub dwell: SimDuration,
    /// Analytical detection probability for ERASMUS (`min(1, dwell / T_M)`).
    pub erasmus_analytical: f64,
    /// Analytical detection probability for on-demand RA checking every
    /// `T_C` (`min(1, dwell / T_C)`).
    pub on_demand_analytical: f64,
    /// Monte-Carlo estimate for ERASMUS from full scenario runs.
    pub erasmus_simulated: f64,
}

/// Runs the sweep: for each dwell time, `trials` scenarios with a single
/// mobile infection arriving at a random phase.
pub fn sweep(
    measurement_interval: SimDuration,
    collection_interval: SimDuration,
    dwells: &[SimDuration],
    trials: usize,
    seed: u64,
) -> Vec<DetectionPoint> {
    let qoa = QoaParams::new(measurement_interval, collection_interval)
        .expect("sweep parameters are valid");
    let mut rng = SimRng::seed_from(seed);
    let duration = collection_interval * 3;

    dwells
        .iter()
        .map(|&dwell| {
            let mut detected = 0usize;
            for _ in 0..trials {
                // Arrival uniform over one full collection window, after the
                // first collection so the baseline is established.
                let arrival =
                    collection_interval + rng.gen_duration(SimDuration::ZERO, collection_interval);
                let outcome = Scenario::new()
                    .measurement_interval(measurement_interval)
                    .collection_interval(collection_interval)
                    .duration(duration)
                    .infection(InfectionSpec::mobile(SimTime::ZERO + arrival, dwell))
                    .run()
                    .expect("scenario runs");
                if outcome.infections[0].detected() {
                    detected += 1;
                }
            }
            DetectionPoint {
                dwell,
                erasmus_analytical: qoa.mobile_detection_probability(dwell),
                on_demand_analytical: qoa.on_demand_detection_probability(dwell),
                erasmus_simulated: detected as f64 / trials as f64,
            }
        })
        .collect()
}

/// The default sweep used by `repro qoa`: `T_M = 10 s`, `T_C = 120 s`, dwell
/// times from 1 s to 15 s.
pub fn default_sweep(trials: usize, seed: u64) -> Vec<DetectionPoint> {
    let dwells: Vec<SimDuration> = [1u64, 2, 4, 6, 8, 10, 15]
        .iter()
        .map(|&s| SimDuration::from_secs(s))
        .collect();
    sweep(
        SimDuration::from_secs(10),
        SimDuration::from_secs(120),
        &dwells,
        trials,
        seed,
    )
}

/// Renders the sweep as a table.
pub fn render(points: &[DetectionPoint]) -> String {
    let mut out = String::from(
        "QoA: mobile-malware detection probability (T_M = 10 s, T_C = 120 s)\n\
         dwell      | ERASMUS (analytic) | ERASMUS (simulated) | on-demand (analytic)\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<10} | {:>18.3} | {:>19.3} | {:>20.3}\n",
            p.dwell.to_string(),
            p.erasmus_analytical,
            p.erasmus_simulated,
            p.on_demand_analytical,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_tracks_analytical_curve() {
        // Small trial count keeps the test fast; tolerance is generous.
        let points = default_sweep(20, 7);
        for p in &points {
            assert!(
                (p.erasmus_simulated - p.erasmus_analytical).abs() < 0.3,
                "dwell {}: simulated {} vs analytic {}",
                p.dwell,
                p.erasmus_simulated,
                p.erasmus_analytical
            );
        }
        // Dwell ≥ T_M is always detected, analytically and in simulation.
        let saturated = points.last().expect("point");
        assert_eq!(saturated.erasmus_analytical, 1.0);
        assert_eq!(saturated.erasmus_simulated, 1.0);
    }

    #[test]
    fn erasmus_dominates_on_demand_everywhere() {
        let points = default_sweep(5, 3);
        for p in &points {
            assert!(p.erasmus_analytical >= p.on_demand_analytical);
        }
        // And strictly dominates for short dwell times.
        assert!(points[0].erasmus_analytical > points[0].on_demand_analytical);
    }

    #[test]
    fn render_lists_every_dwell() {
        let points = default_sweep(2, 1);
        let text = render(&points);
        assert_eq!(text.lines().count(), 2 + points.len());
        assert!(text.contains("15.000s"));
    }
}
