//! Buffer-sizing ablation: how the rolling-buffer size `n` interacts with
//! the collection period `T_C` (Section 3.2's rule `T_C ≤ n · T_M`).

use erasmus_core::{QoaParams, Scenario};
use erasmus_sim::SimDuration;

/// One row of the buffer-sizing ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSizingPoint {
    /// Rolling-buffer slots `n`.
    pub buffer_slots: usize,
    /// Whether the analytical rule predicts measurement loss.
    pub rule_predicts_loss: bool,
    /// Measurements overwritten before collection in the simulated run.
    pub alarms: u64,
    /// Total measurements taken in the run.
    pub measurements: u64,
}

/// Runs a clean (malware-free) deployment with `T_M` = 10 s, `T_C` = 80 s for
/// each buffer size and reports whether history was lost.
pub fn sweep(buffer_sizes: &[usize]) -> Vec<BufferSizingPoint> {
    let t_m = SimDuration::from_secs(10);
    let t_c = SimDuration::from_secs(80);
    let qoa = QoaParams::new(t_m, t_c).expect("valid params");

    buffer_sizes
        .iter()
        .map(|&n| {
            let outcome = Scenario::new()
                .measurement_interval(t_m)
                .collection_interval(t_c)
                .buffer_slots(n)
                .history_per_collection(qoa.recommended_history())
                .duration(SimDuration::from_secs(480))
                .run()
                .expect("scenario runs");
            BufferSizingPoint {
                buffer_slots: n,
                rule_predicts_loss: qoa.loses_measurements_with(n),
                alarms: outcome.alarms(),
                measurements: outcome.measurements_taken(),
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn render() -> String {
    let mut out = String::from(
        "Buffer sizing ablation (T_M = 10 s, T_C = 80 s, rule: T_C <= n * T_M -> n >= 8)\n\
         n slots | rule predicts loss | false alarms from lost history | measurements\n",
    );
    for p in sweep(&[4, 6, 8, 12, 16]) {
        out.push_str(&format!(
            "{:<7} | {:>18} | {:>30} | {:>12}\n",
            p.buffer_slots,
            if p.rule_predicts_loss { "yes" } else { "no" },
            p.alarms,
            p.measurements,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_and_simulation_agree() {
        for point in sweep(&[4, 8, 16]) {
            if point.rule_predicts_loss {
                assert!(
                    point.alarms > 0,
                    "n = {} should lose history",
                    point.buffer_slots
                );
            } else {
                assert_eq!(
                    point.alarms, 0,
                    "n = {} should not lose history",
                    point.buffer_slots
                );
            }
        }
    }

    #[test]
    fn render_covers_the_threshold() {
        let text = render();
        assert!(text.contains("n >= 8"));
        assert!(text.lines().count() >= 7);
    }
}
