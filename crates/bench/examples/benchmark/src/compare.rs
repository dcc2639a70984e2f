//! `benchmark compare A.jsonl B.jsonl`: two sets of runs, per workload and
//! end-to-end metric, judged against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats;

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {entry:?}")),
            }
        })
        .collect()
}

/// Samples per workload and metric, pooled over every run in a results
/// log.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn read_samples(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("{}:{}", path.display(), number + 1);
        let doc = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: no workload"))?;
        let reps = doc
            .get("reps")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{at}: no reps"))?;
        let entry = samples.entry(workload.to_owned()).or_default();
        for (metric, values) in reps {
            let values = values
                .as_array()
                .ok_or_else(|| format!("{at}: {metric} is not a list"))?;
            entry
                .entry(metric.clone())
                .or_default()
                .extend(values.iter().filter_map(Json::as_f64));
        }
    }
    Ok(samples)
}

/// The verdict on B against A for one metric, and B's relative change.
/// `unresolved` when either side's spread (IQR over median) exceeds the
/// bound; otherwise `worse` or `better` when the medians differ by more
/// than the bound, and `same` when they do not.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let (Some(med_a), Some(med_b), Some(spread_a), Some(spread_b)) = (
        stats::median(a),
        stats::median(b),
        stats::relative_spread(a),
        stats::relative_spread(b),
    ) else {
        return ("missing", 0.0);
    };
    let change = if med_a == 0.0 {
        0.0
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let label = if spread_a.max(spread_b) > bound.bound {
        "unresolved"
    } else if worse_by > bound.bound {
        "worse"
    } else if worse_by < -bound.bound {
        "better"
    } else {
        "same"
    };
    (label, change)
}

/// Prints the comparison table; returns whether every verdict is `same`
/// or `better`.
pub fn compare(bounds: &[Bound], a: &Samples, b: &Samples) -> bool {
    println!(
        "{:<12} {:<12} {:>9} {:>21} {:>4} {:>9} {:>21} {:>4} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "n",
        "B median",
        "B quartiles",
        "n",
        "change",
        "bound"
    );
    let describe = |values: &[f64]| {
        let median = stats::median(values).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(values).unwrap_or((0.0, 0.0));
        (
            significant(median),
            format!("[{}, {}]", significant(q1), significant(q3)),
            values.len(),
        )
    };
    let mut acceptable = true;
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let a_values = a_metrics.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let b_values = b_metrics.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let (label, change) = verdict(bound, a_values, b_values);
            acceptable &= matches!(label, "same" | "better");
            let (a_med, a_q, a_n) = describe(a_values);
            let (b_med, b_q, b_n) = describe(b_values);
            println!(
                "{workload:<12} {:<12} {a_med:>9} {a_q:>21} {a_n:>4} {b_med:>9} {b_q:>21} \
                 {b_n:>4} {:>+7.2}% {:>5.1}%  {label}",
                bound.name,
                change * 100.0,
                bound.bound * 100.0
            );
        }
    }
    acceptable
}

/// `value` to six significant digits (whole numbers from 100 000 up).
fn significant(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (5 - magnitude).clamp(0, 6) as usize)
}
