//! Figure 1: the QoA timeline — mobile malware that comes and goes between
//! measurements escapes; persistent malware is measured and then detected at
//! the next collection.

use erasmus_core::{InfectionSpec, Scenario, ScenarioOutcome};
use erasmus_sim::{SimDuration, SimTime};

/// The two infections of Figure 1 on a `T_M = 10 s`, `T_C = 60 s` timeline.
///
/// * infection 1: mobile, enters at `t = 12 s` and leaves at `t = 15 s`
///   (between the measurements at 10 s and 20 s) — undetected;
/// * infection 2: persistent, enters at `t = 95 s` — measured at 100 s and
///   detected at the collection at 120 s.
pub fn run() -> ScenarioOutcome {
    Scenario::new()
        .measurement_interval(SimDuration::from_secs(10))
        .collection_interval(SimDuration::from_secs(60))
        .duration(SimDuration::from_secs(300))
        .infection(InfectionSpec::mobile(
            SimTime::from_secs(12),
            SimDuration::from_secs(3),
        ))
        .infection(InfectionSpec::persistent(SimTime::from_secs(95)))
        .run()
        .expect("the Figure 1 scenario always runs")
}

/// Renders the timeline and the per-infection outcome.
pub fn render() -> String {
    let outcome = run();
    let mut out = String::from(
        "Figure 1: QoA illustration (T_M = 10 s, T_C = 60 s)\n\
         infection 1: mobile,   enters t=12 s, leaves t=15 s\n\
         infection 2: persistent, enters t=95 s\n\n",
    );
    for entry in &outcome.timeline {
        out.push_str(&format!("{entry}\n"));
    }
    out.push('\n');
    for (index, infection) in outcome.infections.iter().enumerate() {
        match infection.detected_at {
            Some(at) => out.push_str(&format!(
                "infection {index}: DETECTED at t={:.0} s (latency {})\n",
                at.as_secs_f64(),
                infection.detection_latency().expect("latency exists")
            )),
            None => out.push_str(&format!("infection {index}: UNDETECTED\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure1_outcomes() {
        let outcome = run();
        assert!(!outcome.infections[0].detected(), "infection 1 must escape");
        assert!(
            outcome.infections[1].detected(),
            "infection 2 must be detected"
        );
        assert_eq!(
            outcome.infections[1].detection_latency(),
            Some(SimDuration::from_secs(25))
        );
    }

    #[test]
    fn render_shows_both_verdicts() {
        let text = render();
        assert!(text.contains("infection 0: UNDETECTED"));
        assert!(text.contains("infection 1: DETECTED"));
        assert!(text.contains("measurement"));
        assert!(text.contains("collection"));
    }
}
