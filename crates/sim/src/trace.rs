//! Append-only trace of simulation events.

use std::fmt;

use crate::time::SimTime;

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When it happened.
    pub time: SimTime,
    /// Category label, e.g. `"measurement"`, `"collection"`, `"infection"`.
    pub kind: String,
    /// Free-form description.
    pub detail: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<14} {}",
            self.time.as_secs_f64(),
            self.kind,
            self.detail
        )
    }
}

/// An append-only, time-stamped event log.
///
/// The scenario runner records measurements, collections, infections and
/// departures here; the `repro fig1` harness prints it back as the paper's
/// Figure 1 timeline.
///
/// # Example
///
/// ```
/// use erasmus_sim::{SimTime, Trace};
///
/// let mut trace = Trace::new();
/// trace.record(SimTime::from_secs(10), "measurement", "slot 0");
/// trace.record(SimTime::from_secs(60), "collection", "k=6");
/// assert_eq!(trace.of_kind("measurement").count(), 1);
/// assert_eq!(trace.to_string().lines().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn record(&mut self, time: SimTime, kind: impl Into<String>, detail: impl Into<String>) {
        self.entries.push(TraceEntry {
            time,
            kind: kind.into(),
            detail: detail.into(),
        });
    }

    /// Iterator over entries of a given kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |entry| entry.kind == kind)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.entries {
            writeln!(f, "{entry}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut trace = Trace::new();
        assert!(trace.entries.is_empty());
        trace.record(SimTime::from_secs(1), "measurement", "m1");
        trace.record(SimTime::from_secs(2), "infection", "mobile malware enters");
        trace.record(SimTime::from_secs(3), "measurement", "m2");
        assert_eq!(trace.entries.len(), 3);
        assert_eq!(trace.of_kind("measurement").count(), 2);
        assert_eq!(trace.of_kind("collection").count(), 0);
    }

    #[test]
    fn display_contains_all_entries() {
        let mut trace = Trace::new();
        trace.record(SimTime::from_secs(1), "measurement", "first");
        trace.record(SimTime::from_secs(2), "collection", "second");
        let text = trace.to_string();
        assert!(text.contains("measurement"));
        assert!(text.contains("second"));
    }
}
