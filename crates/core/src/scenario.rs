//! Scenario runner: a full ERASMUS deployment on one timeline.
//!
//! A scenario wires together a prover, a verifier, a collection schedule and
//! a set of infections, runs them on the discrete-event engine and reports
//! which infections were detected and how quickly. This is the machinery
//! behind the Figure 1 timeline, the QoA detection-probability experiments
//! and several integration tests.

use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{Engine, SimDuration, SimTime, Trace};

use crate::config::ProverConfig;
use crate::error::Error;
use crate::ids::DeviceId;
use crate::malware::{Malware, MalwareBehavior, TamperStrategy};
use crate::protocol::CollectionRequest;
use crate::prover::Prover;
use crate::report::AttestationVerdict;
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
    /// Whether any collection exposed it (via a compromised measurement or
    /// tampering evidence attributable to its residency window).
    pub detected: bool,
    /// When the verifier first learned about it.
    pub detected_at: Option<SimTime>,
}

impl InfectionOutcome {
    /// Time from infection to detection, if detected.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        self.detected_at
            .map(|at| at.saturating_duration_since(self.spec.start))
    }
}

/// Aggregate result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-infection results, in specification order.
    pub infections: Vec<InfectionOutcome>,
    /// Number of self-measurements the prover took.
    pub measurements_taken: u64,
    /// Number of collections the verifier performed.
    pub collections: u64,
    /// Number of collections whose verdict indicated compromise or
    /// tampering.
    pub alarms: u64,
    /// Total prover time spent on attestation work.
    pub prover_busy_time: SimDuration,
    /// Timeline of everything that happened.
    pub trace: Trace,
}

/// Builder/driver for one scenario.
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
/// let outcome = Scenario::builder()
///     .measurement_interval(SimDuration::from_secs(10))
///     .collection_interval(SimDuration::from_secs(60))
///     .duration(SimDuration::from_secs(300))
///     .infection(InfectionSpec::mobile(SimTime::from_secs(12), SimDuration::from_secs(3)))
///     .infection(InfectionSpec::persistent(SimTime::from_secs(95)))
///     .run()?;
/// assert!(!outcome.infections[0].detected, "hit-and-run malware escapes");
/// assert!(outcome.infections[1].detected, "persistent malware is caught");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ProverConfig,
    collection_interval: SimDuration,
    history_per_collection: Option<usize>,
    duration: SimDuration,
    infections: Vec<InfectionSpec>,
}

/// Internal event type driving the scenario engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScenarioEvent {
    Measurement,
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

impl Scenario {
    /// Starts building a scenario with defaults: `T_M` = 10 s, `T_C` = 60
    /// s, a 10-minute run and no infections.
    ///
    /// The prover is fixed: an MSP430 @ 8 MHz profile with 1 KiB of
    /// memory, measuring with HMAC-SHA256 on the regular schedule under
    /// the all-`0x5a` key.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates configuration and hardware errors; a fully default
    /// scenario never fails.
    pub fn run(&self) -> Result<ScenarioOutcome, Error> {
        let key = DeviceKey::from_bytes(KEY);
        let mut prover = Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(MEMORY_BYTES),
            key.clone(),
            self.config.clone(),
        )?;
        let mut verifier = Verifier::new(key, MAC);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(self.config.measurement_interval());

        let k = self
            .history_per_collection
            .unwrap_or_else(|| {
                (self.collection_interval.as_nanos() as f64
                    / self.config.measurement_interval().as_nanos() as f64)
                    .ceil() as usize
            })
            .max(1);

        let mut malware: Vec<Malware> = self
            .infections
            .iter()
            .map(|spec| {
                let behavior = match spec.dwell {
                    Some(dwell) => MalwareBehavior::Mobile { dwell },
                    None => MalwareBehavior::Persistent,
                };
                Malware::new(behavior, spec.tamper)
            })
            .collect();
        let mut outcomes: Vec<InfectionOutcome> = self
            .infections
            .iter()
            .map(|spec| InfectionOutcome {
                spec: *spec,
                detected: false,
                detected_at: None,
            })
            .collect();

        let mut trace = Trace::new();
        let mut engine: Engine<ScenarioEvent> = Engine::new();
        let end = SimTime::ZERO + self.duration;

        // Seed the timeline.
        engine.schedule_at(
            SimTime::ZERO + self.config.measurement_interval(),
            ScenarioEvent::Measurement,
        );
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

        let mut collections = 0u64;
        let mut alarms = 0u64;

        while let Some(event) = engine.next_event_before(end) {
            let now = event.time;
            // Every event first lets the prover catch up on scheduled
            // measurements, recording them in the trace.
            let run_and_trace =
                |prover: &mut Prover, trace: &mut Trace, until: SimTime| -> Result<(), Error> {
                    for outcome in prover.run_until(until)? {
                        trace.record(
                            outcome.measurement.timestamp(),
                            "measurement",
                            format!("slot {} ({})", outcome.slot, outcome.measurement),
                        );
                    }
                    Ok(())
                };
            match event.payload {
                ScenarioEvent::Measurement => {
                    // Let the prover's own scheduler decide the exact instants
                    // (it may be irregular); this event is just the heartbeat.
                    run_and_trace(&mut prover, &mut trace, now)?;
                    let next = prover
                        .next_measurement_due()
                        .max(now + SimDuration::from_nanos(1));
                    if next <= end {
                        engine.schedule_at(next, ScenarioEvent::Measurement);
                    }
                }
                ScenarioEvent::Collection => {
                    run_and_trace(&mut prover, &mut trace, now)?;
                    let request = CollectionRequest::latest(k);
                    let response = prover.handle_collection(&request, now);
                    collections += 1;
                    match verifier.verify_collection(&response, now) {
                        Ok(report) => {
                            trace.record(now, "collection", report.to_string());
                            if report.verdict().indicates_compromise() {
                                alarms += 1;
                                self.attribute_detection(
                                    &report.verdict(),
                                    &report,
                                    &malware,
                                    &mut outcomes,
                                    now,
                                );
                            }
                        }
                        Err(Error::NoMeasurements) => {
                            // An empty history where one was expected is
                            // itself evidence of tampering.
                            trace.record(now, "collection", "no measurements returned".to_owned());
                            alarms += 1;
                            for (index, m) in malware.iter().enumerate() {
                                if m.tamper_strategy() == TamperStrategy::ClearBuffer
                                    && !outcomes[index].detected
                                    && m.infected_at().is_some()
                                {
                                    outcomes[index].detected = true;
                                    outcomes[index].detected_at = Some(now);
                                }
                            }
                        }
                        Err(other) => return Err(other),
                    }
                    let next = now + self.collection_interval;
                    if next <= end {
                        engine.schedule_at(next, ScenarioEvent::Collection);
                    }
                }
                ScenarioEvent::InfectionStart(index) => {
                    run_and_trace(&mut prover, &mut trace, now)?;
                    malware[index].infect(&mut prover, now)?;
                    trace.record(now, "infection", format!("infection {index} enters"));
                }
                ScenarioEvent::InfectionEnd(index) => {
                    run_and_trace(&mut prover, &mut trace, now)?;
                    malware[index].depart(&mut prover, now)?;
                    trace.record(now, "departure", format!("infection {index} leaves"));
                }
            }
        }

        Ok(ScenarioOutcome {
            infections: outcomes,
            measurements_taken: prover.measurements_taken(),
            collections,
            alarms,
            prover_busy_time: prover.total_busy_time(),
            trace,
        })
    }

    /// Attributes a detection to the infections whose residency overlaps the
    /// incriminating measurements (or, for tampering verdicts, to any
    /// infection that tampered).
    fn attribute_detection(
        &self,
        verdict: &AttestationVerdict,
        report: &crate::report::CollectionReport,
        malware: &[Malware],
        outcomes: &mut [InfectionOutcome],
        now: SimTime,
    ) {
        use crate::report::MeasurementVerdict;
        let incriminating: Vec<SimTime> = report
            .measurements()
            .iter()
            .filter(|vm| vm.verdict != MeasurementVerdict::Healthy)
            .map(|vm| vm.measurement.timestamp())
            .collect();

        for (index, m) in malware.iter().enumerate() {
            if outcomes[index].detected {
                continue;
            }
            let Some((start, until)) = m.residency(now) else {
                continue;
            };
            let overlaps_measurement = incriminating.iter().any(|&t| t >= start && t <= until);
            let tampered = *verdict == AttestationVerdict::TamperingDetected
                && m.tamper_strategy() != TamperStrategy::None;
            if overlaps_measurement || tampered {
                outcomes[index].detected = true;
                outcomes[index].detected_at = Some(now);
            }
        }
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config_builder_interval: SimDuration,
    buffer_slots: Option<usize>,
    collection_interval: SimDuration,
    history_per_collection: Option<usize>,
    duration: SimDuration,
    infections: Vec<InfectionSpec>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self {
            config_builder_interval: SimDuration::from_secs(10),
            buffer_slots: None,
            collection_interval: SimDuration::from_secs(60),
            history_per_collection: None,
            duration: SimDuration::from_secs(600),
            infections: Vec::new(),
        }
    }
}

impl ScenarioBuilder {
    /// Sets the measurement interval `T_M`.
    pub fn measurement_interval(mut self, interval: SimDuration) -> Self {
        self.config_builder_interval = interval;
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

    /// Validates the configuration and builds the scenario, then runs it.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from [`ProverConfig`] validation and any
    /// error produced during the run.
    pub fn run(self) -> Result<ScenarioOutcome, Error> {
        self.build()?.run()
    }

    /// Validates the configuration and builds the scenario without running
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid interval/buffer choices.
    pub fn build(self) -> Result<Scenario, Error> {
        let default_slots = (self.collection_interval.as_nanos() as f64
            / self.config_builder_interval.as_nanos().max(1) as f64)
            .ceil() as usize
            + 2;
        let config = ProverConfig::builder()
            .mac_algorithm(MAC)
            .measurement_interval(self.config_builder_interval)
            .buffer_slots(self.buffer_slots.unwrap_or(default_slots.max(4)))
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
        Ok(Scenario {
            config,
            collection_interval: self.collection_interval,
            history_per_collection: self.history_per_collection,
            duration: self.duration,
            infections: self.infections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenario_raises_no_alarm() {
        let outcome = Scenario::builder()
            .duration(SimDuration::from_secs(300))
            .run()
            .expect("scenario runs");
        assert_eq!(outcome.alarms, 0);
        assert_eq!(outcome.collections, 5);
        assert!(outcome.measurements_taken >= 29);
        assert!(outcome.infections.is_empty());
        assert!(outcome.trace.of_kind("measurement").count() as u64 == outcome.measurements_taken);
    }

    #[test]
    fn figure1_mobile_escapes_persistent_detected() {
        let outcome = Scenario::builder()
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
        assert!(!outcome.infections[0].detected);
        assert!(outcome.infections[1].detected);
        let latency = outcome.infections[1].detection_latency().expect("latency");
        // Detected at the next collection after the first incriminating
        // measurement: infection at 95 s, measured at 100 s, collected at 120 s.
        assert_eq!(latency, SimDuration::from_secs(25));
        assert!(outcome.alarms >= 1);
    }

    #[test]
    fn mobile_malware_spanning_a_measurement_is_detected() {
        let outcome = Scenario::builder()
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
            outcome.infections[0].detected,
            "dwell 10 s ≥ T_M window remainder covers t = 20 s"
        );
    }

    #[test]
    fn buffer_clearing_malware_is_caught_by_gap_detection() {
        let outcome = Scenario::builder()
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
            outcome.infections[0].detected,
            "deleting history is self-incriminating"
        );
        assert!(outcome.alarms >= 1);
    }

    #[test]
    fn scenario_builder_validation() {
        assert!(Scenario::builder()
            .duration(SimDuration::ZERO)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .collection_interval(SimDuration::ZERO)
            .build()
            .is_err());
        assert!(Scenario::builder()
            .measurement_interval(SimDuration::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn outcome_accessors() {
        let outcome = Scenario::builder()
            .duration(SimDuration::from_secs(120))
            .infection(InfectionSpec::persistent(SimTime::from_secs(5)))
            .run()
            .expect("scenario runs");
        assert_eq!(outcome.infections.len(), 1);
        assert!(outcome.prover_busy_time > SimDuration::ZERO);
    }
}
