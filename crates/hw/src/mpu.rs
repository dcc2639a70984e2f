//! Execution-aware memory protection rules.
//!
//! SMART hard-wires access-control rules in the MCU memory backbone;
//! TrustLite generalizes them into an Execution-Aware MPU; HYDRA enforces
//! the same policy in software via seL4 capabilities. All three reduce to
//! the same abstract statement: *the device key is readable only while the
//! attestation code is executing, and the attestation code itself is
//! immutable*. [`MpuConfig`] captures that rule table.

use crate::error::HwError;
use crate::mem::RegionKind;

/// Who is performing an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subject {
    /// The ROM-resident (SMART+) or PrAtt (HYDRA) attestation code.
    AttestationCode,
    /// Untrusted application code — including any malware present.
    Application,
    /// A DMA-capable peripheral or the network interface.
    Peripheral,
}

impl Subject {
    /// Human-readable name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Subject::AttestationCode => "attestation-code",
            Subject::Application => "application",
            Subject::Peripheral => "peripheral",
        }
    }
}

/// The kind of access being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read bytes.
    Read,
    /// Write bytes.
    Write,
    /// Fetch and execute instructions.
    Execute,
}

impl AccessKind {
    /// Human-readable name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        }
    }
}

/// A single allow-rule: `subject` may perform `access` on `region`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpuRule {
    /// Who is allowed.
    pub subject: Subject,
    /// On which region.
    pub region: RegionKind,
    /// Which access kind.
    pub access: AccessKind,
}

// The subjects, regions and access kinds in declaration order.
const SUBJECTS: [Subject; 3] = [
    Subject::AttestationCode,
    Subject::Application,
    Subject::Peripheral,
];
const REGIONS: [RegionKind; 5] = [
    RegionKind::Rom,
    RegionKind::Key,
    RegionKind::Application,
    RegionKind::MeasurementStore,
    RegionKind::Peripheral,
];
const ACCESSES: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Execute];

/// All 45 (subject, region, access) triples, in declaration order.
fn triples() -> impl Iterator<Item = MpuRule> {
    SUBJECTS.into_iter().flat_map(|subject| {
        REGIONS.into_iter().flat_map(move |region| {
            ACCESSES
                .into_iter()
                .map(move |access| MpuRule::allow(subject, region, access))
        })
    })
}

impl MpuRule {
    /// Creates an allow-rule.
    pub const fn allow(subject: Subject, region: RegionKind, access: AccessKind) -> Self {
        Self {
            subject,
            region,
            access,
        }
    }

    /// This rule's bit in the allow-mask: `subject·15 + region·3 + access`,
    /// each part an explicit index that follows declaration order.
    const fn bit(self) -> u64 {
        let subject = match self.subject {
            Subject::AttestationCode => 0,
            Subject::Application => 1,
            Subject::Peripheral => 2,
        };
        let region = match self.region {
            RegionKind::Rom => 0,
            RegionKind::Key => 1,
            RegionKind::Application => 2,
            RegionKind::MeasurementStore => 3,
            RegionKind::Peripheral => 4,
        };
        let access = match self.access {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Execute => 2,
        };
        1 << (subject * 15 + region * 3 + access)
    }
}

/// The SMART+ rule table of Figure 5 (see [`MpuConfig::smart_plus`]).
const SMART_PLUS_RULES: [MpuRule; 15] = {
    use AccessKind::{Execute, Read, Write};
    [
        MpuRule::allow(Subject::AttestationCode, RegionKind::Rom, Execute),
        MpuRule::allow(Subject::AttestationCode, RegionKind::Rom, Read),
        MpuRule::allow(Subject::AttestationCode, RegionKind::Key, Read),
        MpuRule::allow(Subject::AttestationCode, RegionKind::Application, Read),
        MpuRule::allow(Subject::AttestationCode, RegionKind::MeasurementStore, Read),
        MpuRule::allow(
            Subject::AttestationCode,
            RegionKind::MeasurementStore,
            Write,
        ),
        MpuRule::allow(Subject::AttestationCode, RegionKind::Peripheral, Read),
        MpuRule::allow(Subject::Application, RegionKind::Application, Read),
        MpuRule::allow(Subject::Application, RegionKind::Application, Write),
        MpuRule::allow(Subject::Application, RegionKind::Application, Execute),
        MpuRule::allow(Subject::Application, RegionKind::Rom, Read),
        MpuRule::allow(Subject::Application, RegionKind::MeasurementStore, Read),
        MpuRule::allow(Subject::Application, RegionKind::MeasurementStore, Write),
        MpuRule::allow(Subject::Application, RegionKind::Peripheral, Read),
        MpuRule::allow(Subject::Peripheral, RegionKind::MeasurementStore, Read),
    ]
};

/// The one rule HYDRA adds to SMART+ (see [`MpuConfig::hydra`]).
const HYDRA_PERIPHERAL_WRITE: MpuRule = MpuRule::allow(
    Subject::AttestationCode,
    RegionKind::Peripheral,
    AccessKind::Write,
);

/// A default-deny access-rule table.
///
/// The table is a fixed allow-mask with one bit per (subject, region,
/// access) triple, 3 × 5 × 3 = 45 of them, the way SMART+ wires its rules
/// into the memory backbone: it needs no heap, it is `Copy`, and a check is
/// one AND. Since only the allow-set is stored, two configurations compare
/// equal when they allow the same triples, whatever the order of, or the
/// duplicates in, the rule lists they were built from.
///
/// # Example
///
/// ```
/// use erasmus_hw::{AccessKind, MpuConfig, Subject};
/// use erasmus_hw::RegionKind;
///
/// let mpu = MpuConfig::smart_plus();
/// // Attestation code may read the key…
/// assert!(mpu.check(Subject::AttestationCode, RegionKind::Key, AccessKind::Read).is_ok());
/// // …the application (and thus malware) may not.
/// assert!(mpu.check(Subject::Application, RegionKind::Key, AccessKind::Read).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MpuConfig {
    /// A rule is allowed when its bit (`MpuRule::bit`) is set.
    allowed: u64,
}

impl MpuConfig {
    /// Creates an empty (deny-everything) configuration.
    pub fn deny_all() -> Self {
        Self { allowed: 0 }
    }

    /// Creates a configuration from explicit rules.
    pub fn new(rules: Vec<MpuRule>) -> Self {
        Self::from_rules(&rules)
    }

    fn from_rules(rules: &[MpuRule]) -> Self {
        Self {
            allowed: rules.iter().fold(0, |mask, rule| mask | rule.bit()),
        }
    }

    /// The SMART+ rule table of Figure 5:
    ///
    /// * attestation code: execute ROM, read key, read application memory,
    ///   read/write the measurement store, read peripherals (RROC, timer);
    /// * application: read/write application memory and the measurement
    ///   store, read ROM and peripherals — but never the key;
    /// * peripherals (network interface): read the measurement store so that
    ///   collection responses can be transmitted without invoking the
    ///   attestation code.
    pub fn smart_plus() -> Self {
        Self::from_rules(&SMART_PLUS_RULES)
    }

    /// The HYDRA capability assignment of Figure 7. The shape is the same as
    /// SMART+ — the attestation process has exclusive access to `K` — with
    /// the addition that the attestation process may also *write* the RROC
    /// peripherals, because HYDRA builds its reliable clock in software from
    /// a hardware counter (Section 4.2).
    pub fn hydra() -> Self {
        // PrAtt code lives in RAM but is writable only by itself (enforced by
        // seL4 capabilities); modelled as attestation-code write access to ROM
        // being *absent* and application write access to ROM being absent too,
        // which the smart_plus table already guarantees by default-deny.
        Self {
            allowed: Self::smart_plus().allowed | HYDRA_PERIPHERAL_WRITE.bit(),
        }
    }

    /// The allowed rules, decoded from the mask in (subject, region, access)
    /// declaration order, each once.
    pub fn rules(&self) -> Vec<MpuRule> {
        triples()
            .filter(|rule| self.allowed & rule.bit() != 0)
            .collect()
    }

    /// Returns whether `subject` may perform `access` on `region`.
    pub fn is_allowed(&self, subject: Subject, region: RegionKind, access: AccessKind) -> bool {
        self.allowed & MpuRule::allow(subject, region, access).bit() != 0
    }

    /// Checks an access, returning an [`HwError::AccessViolation`] when it is
    /// not allowed.
    ///
    /// # Errors
    ///
    /// Returns an error when no allow-rule matches (default deny).
    pub fn check(
        &self,
        subject: Subject,
        region: RegionKind,
        access: AccessKind,
    ) -> Result<(), HwError> {
        if self.is_allowed(subject, region, access) {
            Ok(())
        } else {
            Err(HwError::AccessViolation {
                subject: subject.name().to_owned(),
                region: region.name().to_owned(),
                access: access.name().to_owned(),
            })
        }
    }
}

impl std::fmt::Debug for MpuConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpuConfig")
            .field("rules", &self.rules())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The mask answers every triple exactly as a linear scan of the rule
    /// list it was built from would.
    fn assert_mask_matches(config: &MpuConfig, list: &[MpuRule]) {
        for triple in triples() {
            assert_eq!(
                config.is_allowed(triple.subject, triple.region, triple.access),
                list.contains(&triple),
                "{triple:?}"
            );
        }
    }

    #[test]
    fn stock_masks_match_their_rule_lists() {
        let mut hydra = SMART_PLUS_RULES.to_vec();
        hydra.push(HYDRA_PERIPHERAL_WRITE);
        assert_mask_matches(&MpuConfig::smart_plus(), &SMART_PLUS_RULES);
        assert_mask_matches(&MpuConfig::hydra(), &hydra);
        assert_mask_matches(&MpuConfig::deny_all(), &[]);
        assert_eq!(MpuConfig::smart_plus().rules().len(), 15);
        assert_eq!(MpuConfig::hydra().rules().len(), 16);
        for config in [
            MpuConfig::smart_plus(),
            MpuConfig::hydra(),
            MpuConfig::deny_all(),
        ] {
            assert_eq!(MpuConfig::new(config.rules()), config);
        }
    }

    proptest! {
        /// Random rule lists, in any order and with duplicates: the mask
        /// agrees with the list on all 45 triples, `rules()` decodes each
        /// allowed triple once in declaration order and round-trips, and a
        /// reordered, duplicated list builds an equal configuration.
        #[test]
        fn mask_matches_random_rule_lists(
            picks in proptest::collection::vec((0usize..3, 0usize..5, 0usize..3), 0..60),
        ) {
            let list: Vec<MpuRule> = picks
                .iter()
                .map(|&(s, r, a)| MpuRule::allow(SUBJECTS[s], REGIONS[r], ACCESSES[a]))
                .collect();
            let config = MpuConfig::new(list.clone());
            assert_mask_matches(&config, &list);

            let decoded = config.rules();
            let expected: Vec<MpuRule> = triples().filter(|t| list.contains(t)).collect();
            prop_assert_eq!(&decoded, &expected);
            prop_assert_eq!(MpuConfig::new(decoded), config);

            let mut shuffled: Vec<MpuRule> = list.iter().rev().copied().collect();
            shuffled.extend_from_slice(&list);
            prop_assert_eq!(MpuConfig::new(shuffled), config);
        }
    }

    #[test]
    fn default_deny() {
        let mpu = MpuConfig::deny_all();
        assert!(mpu
            .check(
                Subject::Application,
                RegionKind::Application,
                AccessKind::Read
            )
            .is_err());
        assert!(mpu.rules().is_empty());
    }

    #[test]
    fn smart_plus_key_isolation() {
        let mpu = MpuConfig::smart_plus();
        // Only the attestation code reads K.
        assert!(mpu.is_allowed(Subject::AttestationCode, RegionKind::Key, AccessKind::Read));
        assert!(!mpu.is_allowed(Subject::Application, RegionKind::Key, AccessKind::Read));
        assert!(!mpu.is_allowed(Subject::Peripheral, RegionKind::Key, AccessKind::Read));
        // Nobody writes K or ROM at runtime.
        for subject in [
            Subject::AttestationCode,
            Subject::Application,
            Subject::Peripheral,
        ] {
            assert!(!mpu.is_allowed(subject, RegionKind::Key, AccessKind::Write));
            assert!(!mpu.is_allowed(subject, RegionKind::Rom, AccessKind::Write));
        }
    }

    #[test]
    fn smart_plus_measurement_store_is_insecure() {
        // The paper stores measurements in *unprotected* memory: the
        // application (and malware) may read and write them freely.
        let mpu = MpuConfig::smart_plus();
        assert!(mpu.is_allowed(
            Subject::Application,
            RegionKind::MeasurementStore,
            AccessKind::Read
        ));
        assert!(mpu.is_allowed(
            Subject::Application,
            RegionKind::MeasurementStore,
            AccessKind::Write
        ));
    }

    #[test]
    fn smart_plus_attestation_code_reads_app_memory() {
        let mpu = MpuConfig::smart_plus();
        assert!(mpu.is_allowed(
            Subject::AttestationCode,
            RegionKind::Application,
            AccessKind::Read
        ));
        assert!(mpu.is_allowed(
            Subject::AttestationCode,
            RegionKind::Peripheral,
            AccessKind::Read
        ));
    }

    #[test]
    fn hydra_extends_smart_plus() {
        let smart = MpuConfig::smart_plus();
        let hydra = MpuConfig::hydra();
        // Everything SMART+ allows, HYDRA allows too.
        for rule in smart.rules() {
            assert!(hydra.is_allowed(rule.subject, rule.region, rule.access));
        }
        // HYDRA's software clock needs peripheral write access for PrAtt.
        assert!(hydra.is_allowed(
            Subject::AttestationCode,
            RegionKind::Peripheral,
            AccessKind::Write
        ));
        assert!(!smart.is_allowed(
            Subject::AttestationCode,
            RegionKind::Peripheral,
            AccessKind::Write
        ));
        // But the application still cannot touch the key.
        assert!(!hydra.is_allowed(Subject::Application, RegionKind::Key, AccessKind::Read));
    }

    #[test]
    fn check_reports_subject_and_region() {
        let mpu = MpuConfig::smart_plus();
        let err = mpu
            .check(Subject::Application, RegionKind::Key, AccessKind::Read)
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("application"));
        assert!(message.contains("key"));
        assert!(message.contains("read"));
    }
}
