//! The ERASMUS prover: a device that periodically measures itself.

use std::sync::Arc;

use erasmus_crypto::KeyedMac;
use erasmus_hw::{DeviceKey, DeviceProfile, Mcu};
use erasmus_sim::{SimDuration, SimTime};

use crate::buffer::MeasurementBuffer;
use crate::config::ProverConfig;
use crate::error::Error;
use crate::ids::DeviceId;
use crate::measurement::Measurement;
use crate::protocol::{CollectionRequest, CollectionResponse, OnDemandRequest, OnDemandResponse};
use crate::schedule::MeasurementScheduler;

/// How far in the past a verifier request timestamp may lie before the
/// prover rejects it as stale (SMART+ freshness check).
const REQUEST_FRESHNESS_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Allowed forward clock skew between verifier and prover.
const REQUEST_MAX_SKEW: SimDuration = SimDuration::from_secs(5);

/// The result of one self-measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementOutcome {
    /// The measurement that was recorded.
    pub measurement: Measurement,
    /// Which rolling-buffer slot it went into.
    pub slot: usize,
    /// How long the prover was busy computing it.
    pub duration: SimDuration,
}

/// An ERASMUS prover device.
///
/// The prover wraps a simulated [`Mcu`] and implements the two phases of the
/// protocol:
///
/// * **measurement phase** — [`Prover::self_measure`] /
///   [`Prover::run_until`] compute `M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>`
///   inside the trusted attestation context and store it in the rolling
///   buffer (insecure storage);
/// * **collection phase** — [`Prover::handle_collection`] serves the latest
///   `k` measurements with *no* cryptographic work, and
///   [`Prover::handle_on_demand`] implements the authenticated
///   ERASMUS+OD / on-demand path.
///
/// # Example
///
/// ```
/// use erasmus_core::{CollectionRequest, DeviceId, Prover, ProverConfig};
/// use erasmus_hw::{DeviceKey, DeviceProfile};
/// use erasmus_sim::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), erasmus_core::Error> {
/// let config = ProverConfig::builder()
///     .measurement_interval(SimDuration::from_secs(10))
///     .buffer_slots(8)
///     .build()?;
/// let mut prover = Prover::new(
///     DeviceId::new(1),
///     DeviceProfile::msp430_8mhz(1024),
///     DeviceKey::from_bytes([1; 32]),
///     config,
/// )?;
/// // Let the scheduled measurements up to t = 60 s happen.
/// let taken = prover.run_until(SimTime::from_secs(60))?;
/// assert_eq!(taken.len(), 6);
/// let response = prover.handle_collection(&CollectionRequest::latest(3), SimTime::from_secs(60));
/// assert_eq!(response.measurements.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Prover {
    id: DeviceId,
    mcu: Mcu,
    buffer: MeasurementBuffer,
    scheduler: MeasurementScheduler,
    /// Precomputed MAC key schedule, derived once at provisioning: the
    /// ipad/opad (or BLAKE2s key-block) absorption happens here, not per
    /// measurement — mirroring how SMART+/HYDRA-style firmware holds `K`.
    keyed: KeyedMac,
    last_request_seen: Option<SimTime>,
    /// What one self-measurement costs this device. The profile, memory
    /// size and MAC are fixed for the prover's life, so `new` prices it
    /// once.
    measurement_cost: SimDuration,
    busy_time: SimDuration,
    measurements_taken: u64,
}

impl Prover {
    /// Provisions a prover: installs the key into the device ROM, configures
    /// the measurement schedule and allocates the rolling buffer. The device
    /// boots with a zeroed application memory of its own; this is
    /// [`Prover::with_app_image`] with [`Mcu::zeroed_image`].
    ///
    /// # Errors
    ///
    /// Infallible for valid [`ProverConfig`]s (the config was validated by
    /// its builder) and the image built here, but returns `Result` for the
    /// provisioning-time checks of [`Prover::with_app_image`].
    pub fn new(
        id: DeviceId,
        profile: DeviceProfile,
        key: DeviceKey,
        config: ProverConfig,
    ) -> Result<Self, Error> {
        let image = Mcu::zeroed_image(&profile);
        Self::with_app_image(id, profile, key, config, image)
    }

    /// Provisions a prover like [`Prover::new`], booting the device with
    /// the application `image`. Devices provisioned from clones of one
    /// `Arc` share its bytes until a device writes its memory, which gives
    /// that device its own copy ([`Mcu::with_app_image`]); every
    /// measurement hashes the device's current bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Hardware`] with
    /// [`erasmus_hw::HwError::ImageSizeMismatch`] if `image` is not exactly
    /// the profile's application-memory size.
    pub fn with_app_image(
        id: DeviceId,
        profile: DeviceProfile,
        key: DeviceKey,
        config: ProverConfig,
        image: Arc<[u8]>,
    ) -> Result<Self, Error> {
        let scheduler = MeasurementScheduler::new_with_phase(
            config.schedule().clone(),
            config.measurement_interval(),
            key.as_bytes(),
            config.phase_offset(),
        );
        let buffer = MeasurementBuffer::new(config.buffer_slots(), config.measurement_interval());
        let keyed = config.mac_algorithm().with_key(key.as_bytes());
        let mcu = Mcu::with_app_image(profile, key, image)?;
        let measurement_cost = mcu
            .cost_model()
            .measurement(mcu.app_memory_len(), config.mac_algorithm());
        Ok(Self {
            id,
            mcu,
            buffer,
            scheduler,
            keyed,
            last_request_seen: None,
            measurement_cost,
            busy_time: SimDuration::ZERO,
            measurements_taken: 0,
        })
    }

    /// The device identifier.
    pub fn device_id(&self) -> DeviceId {
        self.id
    }

    /// The underlying simulated device.
    pub fn mcu(&self) -> &Mcu {
        &self.mcu
    }

    /// Mutable access to the device — this is the *untrusted* surface that
    /// application code and malware use (writing application memory,
    /// advancing time). The key stays out of reach.
    pub fn mcu_mut(&mut self) -> &mut Mcu {
        &mut self.mcu
    }

    /// The rolling measurement buffer (insecure storage, read-only view).
    pub fn buffer(&self) -> &MeasurementBuffer {
        &self.buffer
    }

    /// Mutable access to the rolling buffer. Malware uses this to delete or
    /// mangle stored measurements; it still cannot forge valid ones.
    pub fn buffer_mut(&mut self) -> &mut MeasurementBuffer {
        &mut self.buffer
    }

    /// Current device time (RROC reading).
    pub fn now(&self) -> SimTime {
        self.mcu.rroc_now()
    }

    /// When the next self-measurement is due.
    pub fn next_measurement_due(&self) -> SimTime {
        self.scheduler.next_due()
    }

    /// Total time the prover has spent on attestation work (measurements and
    /// collections) — the "real-time burden" the paper argues ERASMUS keeps
    /// off the collection path.
    pub fn total_busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of self-measurements taken so far.
    pub fn measurements_taken(&self) -> u64 {
        self.measurements_taken
    }

    /// Number of measurements deferred/aborted for time-critical tasks.
    pub fn aborted_measurements(&self) -> u64 {
        self.scheduler.deferrals()
    }

    /// Takes one self-measurement at time `now` (advancing the device clock
    /// there first) regardless of the schedule. The scheduled path is
    /// [`Prover::run_until`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Hardware`] if the MPU or secure boot refuse entry to
    /// the trusted measurement context.
    pub fn self_measure(&mut self, now: SimTime) -> Result<MeasurementOutcome, Error> {
        self.mcu.advance_time_to(now);
        let keyed = &self.keyed;
        let measurement = self.mcu.run_trusted(|ctx| {
            Measurement::from_digest_keyed(keyed, ctx.now(), ctx.memory_digest())
        })?;
        let duration = self.measurement_cost;
        self.busy_time += duration;
        self.measurements_taken += 1;
        let slot = self.buffer.store(measurement.clone());
        self.scheduler.mark_completed(now);
        Ok(MeasurementOutcome {
            measurement,
            slot,
            duration,
        })
    }

    /// Takes one self-measurement on each of `N` provers at time `now`,
    /// all or nothing: the trusted-entry gate (MPU rules and secure boot)
    /// is checked on every device before any device measures, then each
    /// device measures through [`Prover::self_measure`]`(now)`. Per device,
    /// the outcome, the stored measurement and the cost-model charge are
    /// exactly those of that call.
    ///
    /// Only the fleet benchmark's traced replica of the fleet runtime
    /// (`crates/bench/examples/benchmark/src/pipeline.rs`) calls this. The
    /// runtime itself measures each device through `self_measure`, and
    /// ROADMAP item 2 deletes the replica and this function with it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Hardware`] if any device refuses entry to the
    /// trusted measurement context; no measurement is stored on any device
    /// in that case.
    pub fn self_measure_batch<const N: usize>(
        mut provers: [&mut Prover; N],
        now: SimTime,
    ) -> Result<[MeasurementOutcome; N], Error> {
        for prover in provers.iter_mut() {
            prover.mcu.advance_time_to(now);
        }
        for prover in provers.iter() {
            prover.mcu.trusted_entry_allowed()?;
        }
        let mut outcomes: [Option<MeasurementOutcome>; N] = [const { None }; N];
        for (prover, outcome) in provers.into_iter().zip(outcomes.iter_mut()) {
            *outcome = Some(prover.self_measure(now)?);
        }
        Ok(outcomes.map(|outcome| outcome.expect("every device measured")))
    }

    /// Performs every scheduled self-measurement due up to and including
    /// `horizon`, in order, and advances the device clock to `horizon`.
    ///
    /// # Errors
    ///
    /// Returns the first hardware error encountered; measurements taken
    /// before the failure remain stored.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<Vec<MeasurementOutcome>, Error> {
        let mut outcomes = Vec::new();
        while self.scheduler.next_due() <= horizon {
            let due = self.scheduler.next_due();
            outcomes.push(self.self_measure(due)?);
        }
        self.mcu.advance_time_to(horizon);
        Ok(outcomes)
    }

    /// Fast-forwards the device to `now` without taking the measurements
    /// that were due meanwhile: the device was powered off or away from the
    /// fleet (churn), so that evidence simply does not exist. The schedule
    /// stays phase-aligned; the verifier will see the gap as missing
    /// measurements, which is the honest outcome.
    pub fn skip_missed_measurements(&mut self, now: SimTime) {
        self.mcu.advance_time_to(now);
        self.scheduler.skip_until(now);
    }

    /// Requests deferral of the pending measurement because a time-critical
    /// task is running (Section 5). Returns the new due time if the
    /// schedule's lenient window allows it.
    pub fn defer_measurement(&mut self, now: SimTime) -> Option<SimTime> {
        self.scheduler.defer(now)
    }

    /// Serves an ERASMUS collection request (Figure 2): read the latest `k`
    /// measurements from the buffer and send them. No cryptography, no
    /// request authentication, no state change.
    pub fn handle_collection(
        &mut self,
        request: &CollectionRequest,
        now: SimTime,
    ) -> CollectionResponse {
        self.mcu.advance_time_to(now);
        let k = request.k.min(self.buffer.capacity());
        let measurements = self.buffer.latest(k);
        let payload: usize = measurements.iter().map(Measurement::wire_size).sum();
        let prover_time = self
            .mcu
            .cost_model()
            .erasmus_collection(measurements.len(), payload);
        self.busy_time += prover_time;
        CollectionResponse {
            device: self.id,
            measurements,
            prover_time,
        }
    }

    /// Serves an authenticated on-demand / ERASMUS+OD request (Figure 4):
    /// check freshness, verify the request MAC, compute a fresh measurement
    /// `M_0`, and return it together with the latest `k` buffered
    /// measurements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RequestRejected`] when the request is stale, replayed
    /// or fails MAC verification, and [`Error::Hardware`] if the trusted
    /// context cannot be entered.
    pub fn handle_on_demand(
        &mut self,
        request: &OnDemandRequest,
        now: SimTime,
    ) -> Result<OnDemandResponse, Error> {
        self.mcu.advance_time_to(now);
        let now = self.mcu.rroc_now();

        // Freshness: the request timestamp must be recent and strictly newer
        // than any previously accepted request (anti-replay).
        if request.treq > now + REQUEST_MAX_SKEW {
            return Err(Error::RequestRejected {
                reason: "request timestamp is in the future".to_owned(),
            });
        }
        if now.saturating_duration_since(request.treq) > REQUEST_FRESHNESS_WINDOW {
            return Err(Error::RequestRejected {
                reason: "request timestamp is stale".to_owned(),
            });
        }
        if let Some(last) = self.last_request_seen {
            if request.treq <= last {
                return Err(Error::RequestRejected {
                    reason: "request timestamp replays or reorders a previous request".to_owned(),
                });
            }
        }

        // Authenticate the request and compute the fresh measurement inside
        // the trusted context, both through the precomputed key schedule.
        let keyed = &self.keyed;
        let (request_ok, fresh) = self.mcu.run_trusted(|ctx| {
            let ok = request.verify_keyed(keyed);
            let fresh = if ok {
                Some(Measurement::from_digest_keyed(
                    keyed,
                    ctx.now(),
                    ctx.memory_digest(),
                ))
            } else {
                None
            };
            (ok, fresh)
        })?;
        // The prover pays for the request check whether or not it succeeds.
        let cost = self.mcu.cost_model();
        let mut prover_time = cost.verify_request(self.keyed.algorithm());
        if !request_ok {
            self.busy_time += prover_time;
            return Err(Error::RequestRejected {
                reason: "request MAC verification failed".to_owned(),
            });
        }
        let fresh = fresh.expect("fresh measurement exists when the request verified");
        self.last_request_seen = Some(request.treq);
        self.measurements_taken += 1;
        self.buffer.store(fresh.clone());

        let k = request.k.min(self.buffer.capacity());
        let history: Vec<Measurement> = self
            .buffer
            .latest(k + 1)
            .into_iter()
            .filter(|m| m != &fresh)
            .take(k)
            .collect();

        let payload = fresh.wire_size() + history.iter().map(Measurement::wire_size).sum::<usize>();
        prover_time += self.measurement_cost + cost.erasmus_collection(history.len(), payload);
        self.busy_time += prover_time;

        Ok(OnDemandResponse {
            device: self.id,
            fresh,
            history,
            prover_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKind;
    use erasmus_crypto::MacAlgorithm;
    use erasmus_hw::{CostModel, MpuConfig};

    const KEY_BYTES: [u8; 32] = [0x11u8; 32];

    fn prover_with(config: ProverConfig) -> Prover {
        Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(2048),
            DeviceKey::from_bytes(KEY_BYTES),
            config,
        )
        .expect("provisioning succeeds")
    }

    /// An on-demand request tagged under `key` with HMAC-SHA256.
    fn request(key: &[u8], treq: SimTime, k: usize) -> OnDemandRequest {
        OnDemandRequest::new_keyed(&MacAlgorithm::HmacSha256.with_key(key), treq, k)
    }

    fn default_prover() -> Prover {
        prover_with(
            ProverConfig::builder()
                .measurement_interval(SimDuration::from_secs(10))
                .buffer_slots(8)
                .build()
                .expect("valid config"),
        )
    }

    #[test]
    fn scheduled_measurements_follow_t_m() {
        let mut prover = default_prover();
        let outcomes = prover
            .run_until(SimTime::from_secs(45))
            .expect("measurements");
        assert_eq!(outcomes.len(), 4); // t = 10, 20, 30, 40
        assert_eq!(prover.measurements_taken(), 4);
        assert_eq!(prover.buffer().len(), 4);
        assert_eq!(prover.now(), SimTime::from_secs(45));
        assert_eq!(prover.next_measurement_due(), SimTime::from_secs(50));
        // All stored measurements verify under the device key.
        let keyed = MacAlgorithm::HmacSha256.with_key(&KEY_BYTES);
        for m in prover.buffer().all() {
            assert!(m.verify_keyed(&keyed));
        }
    }

    #[test]
    fn collection_returns_latest_first_and_clamps_k() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(60))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(3), SimTime::from_secs(61));
        assert_eq!(response.measurements.len(), 3);
        assert_eq!(response.measurements[0].timestamp(), SimTime::from_secs(60));
        assert_eq!(response.device, DeviceId::new(1));

        // k larger than the buffer is clamped to n.
        let response = prover.handle_collection(&CollectionRequest::all(), SimTime::from_secs(62));
        assert_eq!(response.measurements.len(), 6);
    }

    #[test]
    fn collection_is_cheap_measurement_is_not() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(30))
            .expect("measurements");
        let before = prover.total_busy_time();
        let response =
            prover.handle_collection(&CollectionRequest::latest(3), SimTime::from_secs(31));
        let collection_cost = prover.total_busy_time() - before;
        assert_eq!(collection_cost, response.prover_time);
        // One measurement on this profile takes ~1.4 s; the collection path
        // must be orders of magnitude cheaper (Table 2's "factor of 3,000" is
        // on the i.MX6 profile and is exercised by the bench).
        let one_measurement = prover
            .mcu()
            .cost_model()
            .measurement(2048, MacAlgorithm::HmacSha256);
        assert!(one_measurement.as_secs_f64() / collection_cost.as_secs_f64() > 500.0);
    }

    #[test]
    fn on_demand_request_happy_path() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(30))
            .expect("measurements");
        let request = request(&KEY_BYTES, SimTime::from_secs(31), 2);
        let response = prover
            .handle_on_demand(&request, SimTime::from_secs(31))
            .expect("request accepted");
        assert_eq!(response.fresh.timestamp(), SimTime::from_secs(31));
        assert!(response
            .fresh
            .verify_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY_BYTES)));
        assert_eq!(response.history.len(), 2);
        // History excludes the fresh measurement itself.
        assert!(response.history.iter().all(|m| m != &response.fresh));
    }

    #[test]
    fn on_demand_rejects_bad_mac_stale_and_replayed_requests() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(100))
            .expect("measurements");

        // Wrong key → MAC failure.
        let forged = request(&[0u8; 32], SimTime::from_secs(101), 1);
        assert!(matches!(
            prover.handle_on_demand(&forged, SimTime::from_secs(101)),
            Err(Error::RequestRejected { .. })
        ));

        // Stale timestamp.
        let stale = request(&KEY_BYTES, SimTime::from_secs(10), 1);
        assert!(matches!(
            prover.handle_on_demand(&stale, SimTime::from_secs(101)),
            Err(Error::RequestRejected { .. })
        ));

        // Future timestamp beyond allowed skew.
        let future = request(&KEY_BYTES, SimTime::from_secs(500), 1);
        assert!(matches!(
            prover.handle_on_demand(&future, SimTime::from_secs(101)),
            Err(Error::RequestRejected { .. })
        ));

        // Valid request accepted once…
        let good = request(&KEY_BYTES, SimTime::from_secs(101), 1);
        prover
            .handle_on_demand(&good, SimTime::from_secs(101))
            .expect("accepted");
        // …and rejected when replayed.
        assert!(matches!(
            prover.handle_on_demand(&good, SimTime::from_secs(102)),
            Err(Error::RequestRejected { .. })
        ));
    }

    #[test]
    fn batch_measurement_is_bit_identical_to_scalar() {
        for alg in [MacAlgorithm::HmacSha256, MacAlgorithm::KeyedBlake2s] {
            let config = ProverConfig::builder()
                .measurement_interval(SimDuration::from_secs(10))
                .buffer_slots(8)
                .mac_algorithm(alg)
                .build()
                .expect("valid config");
            let make = |seed: u8| {
                let mut prover = Prover::new(
                    DeviceId::new(seed as u64),
                    DeviceProfile::msp430_8mhz(2048),
                    DeviceKey::from_bytes([seed; 32]),
                    config.clone(),
                )
                .expect("provisioning succeeds");
                prover
                    .mcu_mut()
                    .write_app_memory(0, &[seed ^ 0x3c; 64])
                    .expect("image");
                prover
            };
            // Scalar reference fleet and batch fleet with identical state.
            let mut scalar: Vec<Prover> = (0u8..4).map(make).collect();
            let mut batched: Vec<Prover> = (0u8..4).map(make).collect();
            let now = SimTime::from_secs(10);
            let scalar_outcomes: Vec<MeasurementOutcome> = scalar
                .iter_mut()
                .map(|p| p.self_measure(now).expect("scalar measures"))
                .collect();
            let mut lanes: Vec<&mut Prover> = batched.iter_mut().collect();
            let mut drain = lanes.drain(..);
            let batch_outcomes = Prover::self_measure_batch::<4>(
                std::array::from_fn(|_| drain.next().expect("four lanes")),
                now,
            )
            .expect("batch measures");
            drop(drain);
            for (lane, (a, b)) in scalar_outcomes.iter().zip(&batch_outcomes).enumerate() {
                assert_eq!(a, b, "{alg} lane {lane}");
            }
            for (a, b) in scalar.iter().zip(&batched) {
                assert_eq!(a.measurements_taken(), b.measurements_taken());
                assert_eq!(a.total_busy_time(), b.total_busy_time());
                assert_eq!(a.next_measurement_due(), b.next_measurement_due());
                assert_eq!(a.buffer().len(), b.buffer().len());
            }
        }
    }

    #[test]
    fn every_measurement_charges_the_cost_model_price() {
        // `Prover::new` prices a measurement once; k measurements, scalar
        // or batched, must charge exactly k times the cost model's price.
        const K: u64 = 3;
        let profiles: [fn(usize) -> DeviceProfile; 2] =
            [DeviceProfile::msp430_8mhz, DeviceProfile::imx6_sabre_lite];
        for make_profile in profiles {
            for alg in MacAlgorithm::ALL {
                for len in [0usize, 64, 1024, 10 * 1024] {
                    let profile = make_profile(len);
                    let price = CostModel::new(&profile).measurement(len, alg);
                    let config = ProverConfig::builder()
                        .measurement_interval(SimDuration::from_secs(10))
                        .buffer_slots(8)
                        .mac_algorithm(alg)
                        .build()
                        .expect("valid config");
                    let make = |seed: u8| {
                        Prover::new(
                            DeviceId::new(seed.into()),
                            profile,
                            DeviceKey::from_bytes([seed; 32]),
                            config.clone(),
                        )
                        .expect("provisioning succeeds")
                    };
                    let mut scalar = make(0);
                    let [mut a, mut b] = [make(1), make(2)];
                    for tick in 1..=K {
                        let now = SimTime::from_secs(10 * tick);
                        scalar.self_measure(now).expect("scalar measures");
                        Prover::self_measure_batch::<2>([&mut a, &mut b], now)
                            .expect("batch measures");
                    }
                    let label = format!("{} {alg} {len} B", profile.name());
                    for prover in [&scalar, &a, &b] {
                        assert_eq!(prover.total_busy_time(), price * K, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_measurement_is_all_or_nothing_on_hardware_fault() {
        let mut healthy = default_prover();
        let mut broken = default_prover();
        broken.mcu_mut().set_mpu(MpuConfig::deny_all());
        let result =
            Prover::self_measure_batch::<2>([&mut healthy, &mut broken], SimTime::from_secs(10));
        assert!(matches!(result, Err(Error::Hardware(_))));
        // The healthy device stored nothing and was not charged.
        assert_eq!(healthy.measurements_taken(), 0);
        assert_eq!(healthy.buffer().len(), 0);
        assert_eq!(healthy.total_busy_time(), SimDuration::ZERO);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_prover_fits_in_464_bytes_and_its_scheduler_in_72() {
        use std::mem::size_of;
        let prover = size_of::<Prover>();
        let scheduler = size_of::<MeasurementScheduler>();
        assert!(
            prover <= 464,
            "a Prover grew to {prover} bytes (bound 464): Mcu {} B, \
             MeasurementBuffer {} B, MeasurementScheduler {scheduler} B, KeyedMac {} B; \
             share or box what is the same on every device",
            size_of::<Mcu>(),
            size_of::<MeasurementBuffer>(),
            size_of::<KeyedMac>(),
        );
        assert!(
            scheduler <= 72,
            "a MeasurementScheduler grew to {scheduler} bytes (bound 72): ScheduleKind {} B; \
             the irregular schedule's HmacDrbg must stay boxed",
            size_of::<ScheduleKind>(),
        );
    }

    #[test]
    fn an_image_of_the_wrong_size_fails_provisioning() {
        let config = ProverConfig::builder()
            .measurement_interval(SimDuration::from_secs(10))
            .buffer_slots(8)
            .build()
            .expect("valid config");
        let result = Prover::with_app_image(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(2048),
            DeviceKey::from_bytes(KEY_BYTES),
            config,
            Arc::from(vec![0u8; 1024]),
        );
        assert!(matches!(
            result,
            Err(Error::Hardware(erasmus_hw::HwError::ImageSizeMismatch {
                expected: 2048,
                actual: 1024
            }))
        ));
    }

    #[test]
    fn memory_changes_show_up_in_measurements() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(10))
            .expect("measurement");
        let clean = prover
            .buffer()
            .most_recent()
            .expect("measurement")
            .digest()
            .to_vec();
        prover
            .mcu_mut()
            .write_app_memory(0, b"malware!")
            .expect("infection");
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurement");
        let infected = prover
            .buffer()
            .most_recent()
            .expect("measurement")
            .digest()
            .to_vec();
        assert_ne!(clean, infected);
    }

    #[test]
    fn skip_missed_measurements_leaves_a_gap() {
        let mut prover = default_prover();
        prover
            .run_until(SimTime::from_secs(25))
            .expect("measurements");
        assert_eq!(prover.measurements_taken(), 2); // t = 10, 20
        prover.skip_missed_measurements(SimTime::from_secs(65));
        // Due times 30..60 never fired; the schedule resumes on phase.
        assert_eq!(prover.measurements_taken(), 2);
        assert_eq!(prover.next_measurement_due(), SimTime::from_secs(70));
        assert_eq!(prover.now(), SimTime::from_secs(65));
        let outcomes = prover
            .run_until(SimTime::from_secs(75))
            .expect("measurements");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].measurement.timestamp(), SimTime::from_secs(70));
    }

    #[test]
    fn lenient_schedule_deferral_counts() {
        let mut prover = prover_with(
            ProverConfig::builder()
                .measurement_interval(SimDuration::from_secs(10))
                .buffer_slots(8)
                .schedule(ScheduleKind::Lenient { window_factor: 2.0 })
                .build()
                .expect("valid config"),
        );
        assert_eq!(prover.next_measurement_due(), SimTime::from_secs(10));
        let deferred = prover
            .defer_measurement(SimTime::from_secs(9))
            .expect("deferral");
        assert_eq!(deferred, SimTime::from_secs(20));
        assert_eq!(prover.aborted_measurements(), 1);
        // Regular schedules never defer.
        let mut regular = default_prover();
        assert!(regular.defer_measurement(SimTime::from_secs(9)).is_none());
        assert_eq!(regular.aborted_measurements(), 0);
    }

    #[test]
    fn broken_mpu_blocks_measurements() {
        let mut prover = default_prover();
        prover.mcu_mut().set_mpu(MpuConfig::deny_all());
        assert!(matches!(
            prover.self_measure(SimTime::from_secs(10)),
            Err(Error::Hardware(_))
        ));
    }

    #[test]
    fn irregular_schedule_produces_measurements_within_bounds() {
        let mut prover = prover_with(
            ProverConfig::builder()
                .measurement_interval(SimDuration::from_secs(10))
                .buffer_slots(32)
                .schedule(ScheduleKind::Irregular {
                    lower: SimDuration::from_secs(5),
                    upper: SimDuration::from_secs(15),
                })
                .build()
                .expect("valid config"),
        );
        let outcomes = prover
            .run_until(SimTime::from_secs(200))
            .expect("measurements");
        assert!(!outcomes.is_empty());
        let mut prev = SimTime::ZERO;
        for outcome in &outcomes {
            let gap = outcome
                .measurement
                .timestamp()
                .saturating_duration_since(prev);
            assert!(gap >= SimDuration::from_secs(5) && gap < SimDuration::from_secs(15));
            prev = outcome.measurement.timestamp();
        }
    }
}
