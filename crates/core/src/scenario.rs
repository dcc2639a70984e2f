//! Scenario runner: a full ERASMUS deployment on one timeline.
//!
//! A scenario wires together a prover, a verifier, a collection schedule and
//! a set of infections, runs them on the discrete-event engine and reports
//! which infections were detected, how quickly, and the typed timeline of
//! everything that happened. This is the machinery behind the Figure 1
//! timeline, the QoA detection-probability experiments and several
//! integration tests.

use std::fmt;

use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{Engine, SimDuration, SimTime};

use crate::config::ProverConfig;
use crate::error::Error;
use crate::ids::DeviceId;
use crate::malware::{Malware, MalwareBehavior, TamperStrategy};
use crate::measurement::Measurement;
use crate::protocol::CollectionRequest;
use crate::prover::Prover;
use crate::report::{AttestationVerdict, CollectionReport, MeasurementVerdict};
use crate::verifier::Verifier;

/// Specification of one infection in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfectionSpec {
    /// When the malware enters the prover.
    pub start: SimTime,
    /// How long it stays; `None` means persistent.
    pub dwell: Option<SimDuration>,
    /// What it does to the measurement store when leaving.
    pub tamper: TamperStrategy,
}

impl InfectionSpec {
    /// A mobile infection that enters at `start` and dwells for `dwell`.
    pub fn mobile(start: SimTime, dwell: SimDuration) -> Self {
        Self {
            start,
            dwell: Some(dwell),
            tamper: TamperStrategy::None,
        }
    }

    /// A persistent infection starting at `start`.
    pub fn persistent(start: SimTime) -> Self {
        Self {
            start,
            dwell: None,
            tamper: TamperStrategy::None,
        }
    }

    /// Sets the tampering strategy.
    pub fn with_tamper(mut self, tamper: TamperStrategy) -> Self {
        self.tamper = tamper;
        self
    }
}

/// What happened to one infection by the end of the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfectionOutcome {
    /// The specification that produced it.
    pub spec: InfectionSpec,
    /// When a collection first exposed it (via a compromised measurement or
    /// tampering evidence attributable to its residency window), if one did.
    pub detected_at: Option<SimTime>,
}

impl InfectionOutcome {
    /// Whether any collection exposed it.
    pub fn detected(&self) -> bool {
        self.detected_at.is_some()
    }

    /// Time from infection to detection, if detected.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        self.detected_at
            .map(|at| at.saturating_duration_since(self.spec.start))
    }
}

/// What happened at one instant of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineEvent {
    /// The prover stored a self-measurement in rolling-buffer slot `slot`.
    Measurement {
        /// The buffer slot it went into.
        slot: usize,
        /// The measurement itself.
        measurement: Measurement,
    },
    /// The verifier collected and verified the prover's latest history;
    /// `None` is an empty response, itself evidence of tampering.
    Collection(Option<CollectionReport>),
    /// The infection with this index (in specification order) entered.
    Infection(usize),
    /// The infection with this index left.
    Departure(usize),
}

/// One event of a scenario's timeline.
///
/// It renders as one line of the Figure 1 timeline: the time, a label
/// (`measurement`, `collection`, `infection` or `departure`) and the
/// event's detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub event: TimelineEvent,
}

impl fmt::Display for TimelineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self.event {
            TimelineEvent::Measurement { .. } => "measurement",
            TimelineEvent::Collection(_) => "collection",
            TimelineEvent::Infection(_) => "infection",
            TimelineEvent::Departure(_) => "departure",
        };
        write!(f, "[{:>12.6}s] {label:<14} ", self.time.as_secs_f64())?;
        match &self.event {
            TimelineEvent::Measurement { slot, measurement } => {
                write!(f, "slot {slot} ({measurement})")
            }
            TimelineEvent::Collection(Some(report)) => write!(f, "{report}"),
            TimelineEvent::Collection(None) => f.write_str("no measurements returned"),
            TimelineEvent::Infection(index) => write!(f, "infection {index} enters"),
            TimelineEvent::Departure(index) => write!(f, "infection {index} leaves"),
        }
    }
}

/// Aggregate result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-infection results, in specification order.
    pub infections: Vec<InfectionOutcome>,
    /// Total prover time spent on attestation work.
    pub prover_busy_time: SimDuration,
    /// Everything that happened, in time order.
    pub timeline: Vec<TimelineEntry>,
}

impl ScenarioOutcome {
    /// Number of self-measurements the prover took.
    pub fn measurements_taken(&self) -> u64 {
        self.count(|event| matches!(event, TimelineEvent::Measurement { .. }))
    }

    /// Number of collections the verifier performed.
    pub fn collections(&self) -> u64 {
        self.count(|event| matches!(event, TimelineEvent::Collection(_)))
    }

    /// Number of collections whose verdict indicated compromise or
    /// tampering, empty responses included.
    pub fn alarms(&self) -> u64 {
        self.count(|event| match event {
            TimelineEvent::Collection(report) => report
                .as_ref()
                .is_none_or(|report| report.verdict().indicates_compromise()),
            _ => false,
        })
    }

    fn count(&self, kind: impl Fn(&TimelineEvent) -> bool) -> u64 {
        self.timeline
            .iter()
            .filter(|entry| kind(&entry.event))
            .count() as u64
    }
}

/// One ERASMUS deployment: its six settings, and [`Scenario::run`].
///
/// # Example
///
/// The Figure 1 situation: a mobile infection that comes and goes between
/// measurements stays undetected, while a persistent infection is caught at
/// the next collection.
///
/// ```
/// use erasmus_core::{InfectionSpec, Scenario};
/// use erasmus_sim::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), erasmus_core::Error> {
/// let outcome = Scenario::new()
///     .measurement_interval(SimDuration::from_secs(10))
///     .collection_interval(SimDuration::from_secs(60))
///     .duration(SimDuration::from_secs(300))
///     .infection(InfectionSpec::mobile(SimTime::from_secs(12), SimDuration::from_secs(3)))
///     .infection(InfectionSpec::persistent(SimTime::from_secs(95)))
///     .run()?;
/// assert!(!outcome.infections[0].detected(), "hit-and-run malware escapes");
/// assert!(outcome.infections[1].detected(), "persistent malware is caught");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    measurement_interval: SimDuration,
    buffer_slots: Option<usize>,
    collection_interval: SimDuration,
    history_per_collection: Option<usize>,
    duration: SimDuration,
    infections: Vec<InfectionSpec>,
}

/// What the scenario engine schedules. Self-measurements have no event:
/// every event, and the end of the run, first catches the prover up on the
/// measurements due by then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScenarioEvent {
    Collection,
    InfectionStart(usize),
    InfectionEnd(usize),
}

/// Application memory of the scenario prover, in bytes.
const MEMORY_BYTES: usize = 1024;
/// The MAC every scenario measurement is keyed with.
const MAC: MacAlgorithm = MacAlgorithm::HmacSha256;
/// The key shared by the scenario prover and its verifier.
const KEY: [u8; 32] = [0x5a; 32];

impl Default for Scenario {
    fn default() -> Self {
        Self {
            measurement_interval: SimDuration::from_secs(10),
            buffer_slots: None,
            collection_interval: SimDuration::from_secs(60),
            history_per_collection: None,
            duration: SimDuration::from_secs(600),
            infections: Vec::new(),
        }
    }
}

impl Scenario {
    /// A scenario with defaults: `T_M` = 10 s, `T_C` = 60 s, a 10-minute
    /// run and no infections.
    ///
    /// The prover is fixed: an MSP430 @ 8 MHz profile with 1 KiB of
    /// memory, measuring with HMAC-SHA256 on the regular schedule under
    /// the all-`0x5a` key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the measurement interval `T_M`.
    pub fn measurement_interval(mut self, interval: SimDuration) -> Self {
        self.measurement_interval = interval;
        self
    }

    /// Sets the collection interval `T_C`.
    pub fn collection_interval(mut self, interval: SimDuration) -> Self {
        self.collection_interval = interval;
        self
    }

    /// Overrides the number of measurements fetched per collection
    /// (defaults to `⌈T_C / T_M⌉`).
    pub fn history_per_collection(mut self, k: usize) -> Self {
        self.history_per_collection = Some(k);
        self
    }

    /// Overrides the rolling-buffer size (defaults to enough slots that no
    /// measurement is lost at the configured `T_C`).
    pub fn buffer_slots(mut self, slots: usize) -> Self {
        self.buffer_slots = Some(slots);
        self
    }

    /// Sets the total simulated duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Adds one infection.
    pub fn infection(mut self, spec: InfectionSpec) -> Self {
        self.infections.push(spec);
        self
    }

    /// Validates the settings and runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid interval, buffer or
    /// duration choices and propagates hardware errors; a fully default
    /// scenario never fails.
    pub fn run(&self) -> Result<ScenarioOutcome, Error> {
        // Measurements per collection window, `⌈T_C / T_M⌉`.
        let per_collection = (self.collection_interval.as_nanos() as f64
            / self.measurement_interval.as_nanos().max(1) as f64)
            .ceil() as usize;
        let config = ProverConfig::builder()
            .mac_algorithm(MAC)
            .measurement_interval(self.measurement_interval)
            .buffer_slots(self.buffer_slots.unwrap_or((per_collection + 2).max(4)))
            .build()?;
        if self.duration.is_zero() {
            return Err(Error::InvalidConfig {
                parameter: "duration",
                reason: "scenario duration must be non-zero".to_owned(),
            });
        }
        if self.collection_interval.is_zero() {
            return Err(Error::InvalidConfig {
                parameter: "collection_interval",
                reason: "T_C must be non-zero".to_owned(),
            });
        }

        let key = DeviceKey::from_bytes(KEY);
        let mut prover = Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(MEMORY_BYTES),
            key.clone(),
            config,
        )?;
        let mut verifier = Verifier::new(key, MAC);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(self.measurement_interval);

        let k = self.history_per_collection.unwrap_or(per_collection).max(1);
        let request = CollectionRequest::latest(k);

        let (mut malware, mut outcomes): (Vec<Malware>, Vec<InfectionOutcome>) = self
            .infections
            .iter()
            .map(|&spec| {
                let behavior = match spec.dwell {
                    Some(dwell) => MalwareBehavior::Mobile { dwell },
                    None => MalwareBehavior::Persistent,
                };
                let outcome = InfectionOutcome {
                    spec,
                    detected_at: None,
                };
                (Malware::new(behavior, spec.tamper), outcome)
            })
            .unzip();

        let mut timeline = Vec::new();
        let mut engine: Engine<ScenarioEvent> = Engine::new();
        let end = SimTime::ZERO + self.duration;

        // Seed the timeline.
        engine.schedule_at(
            SimTime::ZERO + self.collection_interval,
            ScenarioEvent::Collection,
        );
        for (index, spec) in self.infections.iter().enumerate() {
            engine.schedule_at(spec.start, ScenarioEvent::InfectionStart(index));
            if let Some(dwell) = spec.dwell {
                engine.schedule_at(spec.start + dwell, ScenarioEvent::InfectionEnd(index));
            }
        }

        while let Some(event) = engine.next_event() {
            let now = event.time;
            // The run ends at `duration`: an event after it (an infection
            // that starts too late) neither fires nor lets the prover
            // measure past the end.
            if now > end {
                break;
            }
            // The measurements due by now precede the event on the timeline.
            catch_up(&mut prover, &mut timeline, now)?;
            let event = match event.payload {
                ScenarioEvent::Collection => {
                    let response = prover.handle_collection(&request, now);
                    let report = match verifier.verify_collection(&response, now) {
                        Ok(report) => Some(report),
                        Err(Error::NoMeasurements) => None,
                        Err(other) => return Err(other),
                    };
                    attribute_detection(report.as_ref(), &malware, &mut outcomes, now);
                    let next = now + self.collection_interval;
                    if next <= end {
                        engine.schedule_at(next, ScenarioEvent::Collection);
                    }
                    TimelineEvent::Collection(report)
                }
                ScenarioEvent::InfectionStart(index) => {
                    malware[index].infect(&mut prover, now)?;
                    TimelineEvent::Infection(index)
                }
                ScenarioEvent::InfectionEnd(index) => {
                    malware[index].depart(&mut prover, now)?;
                    TimelineEvent::Departure(index)
                }
            };
            timeline.push(TimelineEntry { time: now, event });
        }
        // The measurements due after the last event, up to the end.
        catch_up(&mut prover, &mut timeline, end)?;

        Ok(ScenarioOutcome {
            infections: outcomes,
            prover_busy_time: prover.total_busy_time(),
            timeline,
        })
    }
}

/// Takes the prover's measurements due by `until`, recording each on the
/// timeline at its own timestamp.
fn catch_up(
    prover: &mut Prover,
    timeline: &mut Vec<TimelineEntry>,
    until: SimTime,
) -> Result<(), Error> {
    for outcome in prover.run_until(until)? {
        timeline.push(TimelineEntry {
            time: outcome.measurement.timestamp(),
            event: TimelineEvent::Measurement {
                slot: outcome.slot,
                measurement: outcome.measurement,
            },
        });
    }
    Ok(())
}

/// Attributes a collection's evidence to the infections not yet detected.
///
/// An empty response (`None`) exposes every buffer-wiping infection that
/// has struck. A report whose verdict indicates compromise exposes the
/// infections whose residency overlaps an incriminating measurement and,
/// for a tampering verdict, any infection that tampered.
fn attribute_detection(
    report: Option<&CollectionReport>,
    malware: &[Malware],
    outcomes: &mut [InfectionOutcome],
    now: SimTime,
) {
    let exposes = |m: &Malware| match report {
        None => m.tamper_strategy() == TamperStrategy::ClearBuffer && m.infected_at().is_some(),
        Some(report) => {
            let Some((start, until)) = m.residency(now) else {
                return false;
            };
            let verdict = report.verdict();
            let measured = report.measurements().iter().any(|vm| {
                vm.verdict != MeasurementVerdict::Healthy
                    && (start..=until).contains(&vm.measurement.timestamp())
            });
            let tampered = verdict == AttestationVerdict::TamperingDetected
                && m.tamper_strategy() != TamperStrategy::None;
            verdict.indicates_compromise() && (measured || tampered)
        }
    };
    for (m, outcome) in malware.iter().zip(outcomes) {
        if !outcome.detected() && exposes(m) {
            outcome.detected_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenario_raises_no_alarm() {
        let outcome = Scenario::new()
            .duration(SimDuration::from_secs(300))
            .run()
            .expect("scenario runs");
        assert_eq!(outcome.alarms(), 0);
        assert_eq!(outcome.collections(), 5);
        assert!(outcome.measurements_taken() >= 29);
        assert!(outcome.infections.is_empty());
    }

    #[test]
    fn figure1_mobile_escapes_persistent_detected() {
        let outcome = Scenario::new()
            .measurement_interval(SimDuration::from_secs(10))
            .collection_interval(SimDuration::from_secs(60))
            .duration(SimDuration::from_secs(300))
            .infection(InfectionSpec::mobile(
                SimTime::from_secs(12),
                SimDuration::from_secs(3),
            ))
            .infection(InfectionSpec::persistent(SimTime::from_secs(95)))
            .run()
            .expect("scenario runs");
        assert!(!outcome.infections[0].detected());
        assert!(outcome.infections[1].detected());
        let latency = outcome.infections[1].detection_latency().expect("latency");
        // Detected at the next collection after the first incriminating
        // measurement: infection at 95 s, measured at 100 s, collected at 120 s.
        assert_eq!(latency, SimDuration::from_secs(25));
        assert!(outcome.alarms() >= 1);
    }

    #[test]
    fn mobile_malware_spanning_a_measurement_is_detected() {
        let outcome = Scenario::new()
            .measurement_interval(SimDuration::from_secs(10))
            .collection_interval(SimDuration::from_secs(60))
            .duration(SimDuration::from_secs(180))
            .infection(InfectionSpec::mobile(
                SimTime::from_secs(15),
                SimDuration::from_secs(10),
            ))
            .run()
            .expect("scenario runs");
        assert!(
            outcome.infections[0].detected(),
            "dwell 10 s ≥ T_M window remainder covers t = 20 s"
        );
    }

    #[test]
    fn buffer_clearing_malware_is_caught_by_gap_detection() {
        let outcome = Scenario::new()
            .measurement_interval(SimDuration::from_secs(10))
            .collection_interval(SimDuration::from_secs(60))
            .duration(SimDuration::from_secs(240))
            .infection(
                InfectionSpec::mobile(SimTime::from_secs(70), SimDuration::from_secs(5))
                    .with_tamper(TamperStrategy::ClearBuffer),
            )
            .run()
            .expect("scenario runs");
        assert!(
            outcome.infections[0].detected(),
            "deleting history is self-incriminating"
        );
        assert!(outcome.alarms() >= 1);
    }

    #[test]
    fn an_empty_response_exposes_the_buffer_wipe() {
        // The wipe at 12 s leaves nothing between the measurement at 10 s
        // and the collection at 15 s, so that collection gets an empty
        // response; every later one is clean again.
        let outcome = Scenario::new()
            .measurement_interval(SimDuration::from_secs(10))
            .collection_interval(SimDuration::from_secs(15))
            .duration(SimDuration::from_secs(60))
            .infection(
                InfectionSpec::mobile(SimTime::from_secs(11), SimDuration::from_secs(1))
                    .with_tamper(TamperStrategy::ClearBuffer),
            )
            .run()
            .expect("scenario runs");
        assert_eq!(
            outcome.infections[0].detected_at,
            Some(SimTime::from_secs(15))
        );
        let empty = outcome
            .timeline
            .iter()
            .find(|entry| entry.event == TimelineEvent::Collection(None))
            .expect("an empty collection");
        assert_eq!(empty.time, SimTime::from_secs(15));
        assert_eq!(outcome.alarms(), 1);
        assert_eq!(
            empty.to_string(),
            "[   15.000000s] collection     no measurements returned"
        );
    }

    #[test]
    fn timeline_lines_render_label_and_detail() {
        let outcome = Scenario::new()
            .duration(SimDuration::from_secs(60))
            .infection(InfectionSpec::mobile(
                SimTime::from_secs(12),
                SimDuration::from_secs(3),
            ))
            .run()
            .expect("scenario runs");
        let lines: Vec<String> = outcome.timeline.iter().map(ToString::to_string).collect();
        assert_eq!(
            lines[..3],
            [
                "[   10.000000s] measurement    slot 1 (M(t=10.000s, H=0x5f70bf18.., tag=ace8ef1e..))",
                "[   12.000000s] infection      infection 0 enters",
                "[   15.000000s] departure      infection 0 leaves",
            ]
        );
        assert_eq!(
            lines.last().map(String::as_str),
            Some(
                "[   60.000000s] collection     device-1: all healthy \
                 (6 measurements, 0 missing, freshness 0ns)"
            )
        );
    }

    #[test]
    fn a_run_that_ends_between_collections_still_measures_to_the_end() {
        let outcome = Scenario::new()
            .duration(SimDuration::from_secs(295))
            .run()
            .expect("scenario runs");
        assert_eq!(outcome.collections(), 4);
        assert_eq!(outcome.measurements_taken(), 29);
        let last = outcome.timeline.last().expect("timeline");
        assert_eq!(last.time, SimTime::from_secs(290));
        assert!(matches!(last.event, TimelineEvent::Measurement { .. }));
    }

    #[test]
    fn scenario_builder_validation() {
        let invalid =
            |scenario: Scenario| matches!(scenario.run(), Err(Error::InvalidConfig { .. }));
        assert!(invalid(Scenario::new().duration(SimDuration::ZERO)));
        assert!(invalid(
            Scenario::new().collection_interval(SimDuration::ZERO)
        ));
        assert!(invalid(
            Scenario::new().measurement_interval(SimDuration::ZERO)
        ));
    }

    #[test]
    fn events_after_the_duration_never_fire() {
        // T_M = 10 s over 300 s: the last measurement due is at 300 s. An
        // infection entering at 400 s lies past the end of the run.
        let outcome = Scenario::new()
            .duration(SimDuration::from_secs(300))
            .infection(InfectionSpec::persistent(SimTime::from_secs(400)))
            .run()
            .expect("scenario runs");
        assert!(!outcome.infections[0].detected());
        assert!(!outcome
            .timeline
            .iter()
            .any(|entry| matches!(entry.event, TimelineEvent::Infection(_))));
        assert_eq!(outcome.measurements_taken(), 30);
        assert_eq!(outcome.collections(), 5);
    }

    #[test]
    fn outcome_accessors() {
        let outcome = Scenario::new()
            .duration(SimDuration::from_secs(120))
            .infection(InfectionSpec::persistent(SimTime::from_secs(5)))
            .run()
            .expect("scenario runs");
        assert_eq!(outcome.infections.len(), 1);
        assert!(outcome.prover_busy_time > SimDuration::ZERO);
    }
}
