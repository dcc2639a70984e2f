//! The simulated device (MCU / SoC).

use std::sync::Arc;

use erasmus_sim::SimTime;

use crate::cost::CostModel;
use crate::error::HwError;
use crate::key::DeviceKey;
use crate::mem::{MemoryMap, RegionKind};
use crate::mpu::{AccessKind, MpuConfig, Subject};
use crate::profile::{DeviceProfile, SecurityArchitecture};
use crate::rom::Rom;
use crate::rroc::Rroc;
use crate::secure_boot::SecureBoot;

/// A simulated prover device.
///
/// The `Mcu` composes the pieces the paper's security argument rests on:
///
/// * application memory — what gets measured, and what malware modifies;
/// * a [`Rom`] holding the attestation code and the device key `K`;
/// * an [`MpuConfig`] that only lets the attestation code read `K`;
/// * a [`Rroc`] providing tamper-proof timestamps;
/// * a [`CostModel`] so operations consume realistic simulated time.
///
/// Untrusted code (the application, and therefore malware) can read and
/// write application memory freely; the key is only reachable inside
/// [`Mcu::run_trusted`], which models entering the ROM-resident / PrAtt
/// attestation code atomically.
///
/// Inline, a device holds its key, clock, MPU table and a copy of its
/// profile. What is the same on every device is shared or derived:
/// the attestation image is one process-wide copy (see [`Rom`]), the
/// memory map is rebuilt from the profile on request
/// ([`Mcu::memory_map`]), and the application memory is an `Arc<[u8]>`
/// that devices provisioned from one image share
/// ([`Mcu::with_app_image`]) until they write it: the first write through
/// [`Mcu::write_app_memory`] gives the device its own copy, so no write is
/// ever seen by another device. A cloned `Mcu` behaves the same way: it
/// shares the bytes until either side writes.
///
/// # Example
///
/// ```
/// use erasmus_hw::{DeviceKey, DeviceProfile, Mcu};
///
/// let mut mcu = Mcu::new(DeviceProfile::msp430_8mhz(1024), DeviceKey::from_bytes([1; 32]));
/// // Malware scribbles over application memory…
/// mcu.write_app_memory(0, b"evil payload")?;
/// // …which the next trusted measurement will observe.
/// let digest = mcu.run_trusted(|ctx| ctx.memory_digest())?;
/// assert_eq!(digest.len(), 32);
/// # Ok::<(), erasmus_hw::HwError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mcu {
    profile: DeviceProfile,
    mpu: MpuConfig,
    rom: Rom,
    rroc: Rroc,
    secure_boot: Option<SecureBoot>,
    /// Copy-on-write: shared with the devices built from the same image
    /// until this device writes it.
    app_memory: Arc<[u8]>,
}

/// Size of the measurement store in the memory map. Its exact size does not
/// affect any experiment (the rolling buffer lives in erasmus-core).
const MEASUREMENT_STORE_BYTES: usize = 4 * 1024;

impl Mcu {
    /// Builds a device from a profile and its provisioned key, with a fresh
    /// zeroed application memory of its own: [`Mcu::with_app_image`] with
    /// [`Mcu::zeroed_image`].
    pub fn new(profile: DeviceProfile, key: DeviceKey) -> Self {
        Self::with_app_image(profile, key, Self::zeroed_image(&profile))
            .expect("a zeroed image has the profile's size")
    }

    /// A zeroed application image of `profile`'s memory size, in one
    /// allocation: what [`Mcu::new`] boots a device with, and what a fleet
    /// of blank devices can share through [`Mcu::with_app_image`].
    pub fn zeroed_image(profile: &DeviceProfile) -> Arc<[u8]> {
        std::iter::repeat_n(0u8, profile.app_memory_bytes()).collect()
    }

    /// Builds a device from a profile, its provisioned key and the
    /// application `image` it boots with.
    ///
    /// The device shares `image` with every other holder of the same `Arc`
    /// and copies it on its first write. The MPU rule table and (for HYDRA)
    /// secure-boot reference are derived from the profile's architecture.
    /// The ROM carries the synthetic [`crate::ATTESTATION_CODE_SIZE`]-byte
    /// attestation image: one process-wide copy, built and hashed on first
    /// use and shared by every device, with this device's `key` attached.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::ImageSizeMismatch`] if `image` is not exactly
    /// [`DeviceProfile::app_memory_bytes`] long.
    pub fn with_app_image(
        profile: DeviceProfile,
        key: DeviceKey,
        image: Arc<[u8]>,
    ) -> Result<Self, HwError> {
        if image.len() != profile.app_memory_bytes() {
            return Err(HwError::ImageSizeMismatch {
                expected: profile.app_memory_bytes(),
                actual: image.len(),
            });
        }
        let rom = Rom::attestation(key);
        let (mpu, secure_boot) = match profile.architecture() {
            SecurityArchitecture::SmartPlus => (MpuConfig::smart_plus(), None),
            SecurityArchitecture::Hydra => (MpuConfig::hydra(), Some(SecureBoot::provision(&rom))),
        };
        Ok(Self {
            app_memory: image,
            profile,
            mpu,
            rom,
            rroc: Rroc::new(),
            secure_boot,
        })
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The device's cost model: a copy of the profile, so no allocation.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(&self.profile)
    }

    /// The memory map (Figure 5 / Figure 7 layout), built from the
    /// profile's architecture and memory size on each call.
    pub fn memory_map(&self) -> MemoryMap {
        let app_size = self.profile.app_memory_bytes();
        match self.profile.architecture() {
            SecurityArchitecture::SmartPlus => {
                MemoryMap::smart_plus_layout(app_size, MEASUREMENT_STORE_BYTES)
                    .expect("smart+ layout never overlaps")
            }
            SecurityArchitecture::Hydra => {
                MemoryMap::hydra_layout(app_size, MEASUREMENT_STORE_BYTES)
                    .expect("hydra layout never overlaps")
            }
        }
    }

    /// The MPU / capability rule table.
    pub fn mpu(&self) -> &MpuConfig {
        &self.mpu
    }

    /// The ROM image (attestation code); the key is not exposed here.
    pub fn rom(&self) -> &Rom {
        &self.rom
    }

    /// The secure-boot verifier, present on HYDRA-class devices.
    pub fn secure_boot(&self) -> Option<&SecureBoot> {
        self.secure_boot.as_ref()
    }

    /// Current RROC reading. Reading the clock is allowed to everyone; only
    /// writing is restricted (there is no API for that at all).
    pub fn rroc_now(&self) -> SimTime {
        self.rroc.now()
    }

    /// Advances device time to `target` (no-op if already past it).
    pub fn advance_time_to(&mut self, target: SimTime) -> SimTime {
        self.rroc.advance_to(target)
    }

    /// Mutable access to the RROC, exposed only so negative tests can model
    /// the physical clock-rollback attack of Section 3.4.
    pub fn rroc_mut_for_attack(&mut self) -> &mut Rroc {
        &mut self.rroc
    }

    /// Size of the application memory in bytes.
    pub fn app_memory_len(&self) -> usize {
        self.app_memory.len()
    }

    /// Read-only view of application memory (untrusted access — allowed).
    pub fn app_memory(&self) -> &[u8] {
        &self.app_memory
    }

    /// Writes `data` into application memory at `offset` as untrusted code
    /// (the application itself, or malware).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfBounds`] if the write does not fit, or
    /// [`HwError::AccessViolation`] if the MPU forbids application writes
    /// (never the case with the stock rule tables).
    pub fn write_app_memory(&mut self, offset: usize, data: &[u8]) -> Result<(), HwError> {
        self.mpu.check(
            Subject::Application,
            RegionKind::Application,
            AccessKind::Write,
        )?;
        let end = offset.checked_add(data.len()).ok_or(HwError::OutOfBounds {
            offset,
            len: data.len(),
            region_size: self.app_memory.len(),
        })?;
        if end > self.app_memory.len() {
            return Err(HwError::OutOfBounds {
                offset,
                len: data.len(),
                region_size: self.app_memory.len(),
            });
        }
        Arc::make_mut(&mut self.app_memory)[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Runs `body` inside the trusted attestation context (ROM code on
    /// SMART+, the PrAtt process on HYDRA).
    ///
    /// The closure receives a [`TrustedContext`] giving read access to the
    /// key, the application memory and the RROC — the three things the
    /// measurement code needs. The MPU table is consulted first, so a
    /// mis-configured device (e.g. [`MpuConfig::deny_all`]) refuses to
    /// produce measurements, mirroring how the hardware would fault.
    ///
    /// On HYDRA the secure-boot check must have passed at provisioning time;
    /// this is re-validated on every entry to catch tests that tamper with
    /// the ROM image.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::AccessViolation`] if the rule table does not allow
    /// the attestation code to read the key and application memory, or
    /// [`HwError::SecureBootFailure`] if the HYDRA image check fails.
    pub fn run_trusted<F, R>(&self, body: F) -> Result<R, HwError>
    where
        F: FnOnce(&TrustedContext<'_>) -> R,
    {
        self.trusted_entry_allowed()?;
        let ctx = TrustedContext {
            key: self.rom.key(),
            app_memory: &self.app_memory,
            now: self.rroc.now(),
        };
        Ok(body(&ctx))
    }

    /// Checks whether the trusted attestation context *could* be entered:
    /// the MPU and secure-boot gate of [`Mcu::run_trusted`]. Multi-device
    /// callers use this to make a batch of measurements all-or-nothing:
    /// every device is gated before any device measures.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Mcu::run_trusted`].
    pub fn trusted_entry_allowed(&self) -> Result<(), HwError> {
        self.mpu
            .check(Subject::AttestationCode, RegionKind::Key, AccessKind::Read)?;
        self.mpu.check(
            Subject::AttestationCode,
            RegionKind::Application,
            AccessKind::Read,
        )?;
        self.mpu.check(
            Subject::AttestationCode,
            RegionKind::Peripheral,
            AccessKind::Read,
        )?;
        if let Some(boot) = &self.secure_boot {
            boot.verify(&self.rom)?;
        }
        Ok(())
    }

    /// Replaces the MPU configuration. Exists so tests can demonstrate what
    /// breaks when the access rules are wrong; production code keeps the
    /// architecture defaults.
    pub fn set_mpu(&mut self, mpu: MpuConfig) {
        self.mpu = mpu;
    }
}

/// Read-only view handed to code running inside the trusted measurement
/// context.
#[derive(Debug)]
pub struct TrustedContext<'a> {
    key: &'a DeviceKey,
    app_memory: &'a [u8],
    now: SimTime,
}

impl TrustedContext<'_> {
    /// The device key bytes (only reachable here).
    pub fn key_bytes(&self) -> &[u8] {
        self.key.as_bytes()
    }

    /// The application memory image to be measured.
    pub fn memory(&self) -> &[u8] {
        self.app_memory
    }

    /// RROC reading at entry into the trusted code.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Convenience: SHA-256 digest of the application memory, `H(mem_t)`,
    /// returned on the stack.
    pub fn memory_digest(&self) -> [u8; 32] {
        use erasmus_crypto::{Digest, Sha256};
        Sha256::digest(self.app_memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::MacAlgorithm;

    fn device() -> Mcu {
        Mcu::new(
            DeviceProfile::msp430_8mhz(1024),
            DeviceKey::from_bytes([7; 32]),
        )
    }

    #[test]
    fn construction_reflects_architecture() {
        let smart = device();
        assert!(smart.secure_boot().is_none());
        assert_eq!(smart.app_memory_len(), 1024);
        assert_eq!(
            smart
                .memory_map()
                .region(RegionKind::Application)
                .map(|r| r.size),
            Some(1024)
        );

        let hydra = Mcu::new(
            DeviceProfile::imx6_sabre_lite(2048),
            DeviceKey::from_bytes([7; 32]),
        );
        assert!(hydra.secure_boot().is_some());
        assert_eq!(hydra.profile().architecture(), SecurityArchitecture::Hydra);
    }

    #[test]
    fn devices_share_one_attestation_image() {
        let a = device();
        let b = Mcu::new(
            DeviceProfile::msp430_8mhz(1024),
            DeviceKey::from_bytes([8; 32]),
        );
        assert!(std::ptr::eq(a.rom().code(), b.rom().code()));
        assert_eq!(a.rom().code_size(), crate::ATTESTATION_CODE_SIZE);
        // The digest of the 5 KiB synthetic image: a repeating counter
        // modulo 251.
        let digest: String = a
            .rom()
            .code_digest()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "2d3fb9161493509e3fa3f5472d8a284ee687f64524f0925be67e132ef43f43e0"
        );

        let hydra = Mcu::new(
            DeviceProfile::imx6_sabre_lite(2048),
            DeviceKey::from_bytes([9; 32]),
        );
        let boot = hydra.secure_boot().expect("HYDRA has secure boot");
        assert!(boot.verify(hydra.rom()).is_ok());
        let foreign = Rom::new(DeviceKey::from_bytes([9; 32]), b"other code".to_vec());
        assert!(matches!(
            boot.verify(&foreign),
            Err(HwError::SecureBootFailure { .. })
        ));
    }

    #[test]
    fn devices_share_one_image_until_they_write_it() {
        let image: Arc<[u8]> = vec![0x5a; 1024].into();
        let pristine = image.to_vec();
        let build = |seed: u8| {
            Mcu::with_app_image(
                DeviceProfile::msp430_8mhz(1024),
                DeviceKey::from_bytes([seed; 32]),
                Arc::clone(&image),
            )
            .expect("the image fits")
        };
        let (mut writer, sibling) = (build(1), build(2));
        assert!(std::ptr::eq(writer.app_memory(), &image[..]));

        writer.write_app_memory(0, b"implant").expect("write");
        assert_eq!(&writer.app_memory()[..7], b"implant");
        assert_eq!(&writer.app_memory()[7..], &pristine[7..]);

        // The sibling and the image itself never see the write.
        assert_eq!(sibling.app_memory(), &pristine[..]);
        assert_eq!(&image[..], &pristine[..]);
        assert!(std::ptr::eq(sibling.app_memory(), &image[..]));
        // Each trusted measurement hashes its own device's bytes.
        let digest = |mcu: &Mcu| mcu.run_trusted(|ctx| ctx.memory_digest()).expect("digest");
        let clean = digest(&sibling);
        assert_ne!(digest(&writer), clean);

        // A device's own copy is written in place from then on.
        let own = writer.app_memory().as_ptr();
        writer.write_app_memory(8, b"again").expect("write");
        assert_eq!(writer.app_memory().as_ptr(), own);
        assert_eq!(&image[..], &pristine[..]);
    }

    #[test]
    fn a_cloned_device_stays_independent_after_a_write() {
        let mut original = device();
        original.write_app_memory(0, b"before").expect("write");
        let mut copy = original.clone();
        assert!(std::ptr::eq(original.app_memory(), copy.app_memory()));

        copy.write_app_memory(0, b"after!").expect("write");
        assert_eq!(&original.app_memory()[..6], b"before");
        assert_eq!(&copy.app_memory()[..6], b"after!");
        original.write_app_memory(100, b"x").expect("write");
        assert_eq!(original.app_memory()[100], b'x');
        assert_eq!(copy.app_memory()[100], 0);
    }

    #[test]
    fn an_image_of_the_wrong_length_is_refused() {
        for len in [0, 1023, 1025] {
            let err = Mcu::with_app_image(
                DeviceProfile::msp430_8mhz(1024),
                DeviceKey::from_bytes([7; 32]),
                vec![0u8; len].into(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                HwError::ImageSizeMismatch {
                    expected: 1024,
                    actual: len
                }
            );
        }
    }

    #[test]
    fn untrusted_writes_are_bounded() {
        let mut mcu = device();
        assert!(mcu.write_app_memory(0, &[1, 2, 3]).is_ok());
        assert_eq!(&mcu.app_memory()[..3], &[1, 2, 3]);
        let err = mcu.write_app_memory(1020, &[0; 10]).unwrap_err();
        assert!(matches!(err, HwError::OutOfBounds { .. }));
    }

    #[test]
    fn trusted_context_exposes_key_memory_and_clock() {
        let mut mcu = device();
        mcu.advance_time_to(SimTime::from_secs(42));
        mcu.write_app_memory(0, b"state").expect("write");
        let (tag, now) = mcu
            .run_trusted(|ctx| {
                assert_eq!(ctx.key_bytes(), &[7u8; 32]);
                (
                    MacAlgorithm::HmacSha256.mac(ctx.key_bytes(), ctx.memory()),
                    ctx.now(),
                )
            })
            .expect("trusted execution");
        assert_eq!(tag.len(), 32);
        assert_eq!(now, SimTime::from_secs(42));
    }

    #[test]
    fn memory_digest_changes_when_memory_changes() {
        let mut mcu = device();
        let before = mcu.run_trusted(|ctx| ctx.memory_digest()).expect("digest");
        mcu.write_app_memory(100, b"malware").expect("write");
        let after = mcu.run_trusted(|ctx| ctx.memory_digest()).expect("digest");
        assert_ne!(before, after);
    }

    #[test]
    fn deny_all_mpu_blocks_trusted_execution() {
        let mut mcu = device();
        mcu.set_mpu(MpuConfig::deny_all());
        let err = mcu.run_trusted(|_| ()).unwrap_err();
        assert!(matches!(err, HwError::AccessViolation { .. }));
    }

    #[test]
    fn trusted_entry_allowed_is_the_run_trusted_gate() {
        let mut mcu = device();
        mcu.trusted_entry_allowed().expect("entry allowed");
        mcu.run_trusted(|_| ()).expect("closure entry allowed");
        // The check is gated by the same MPU rule table.
        mcu.set_mpu(MpuConfig::deny_all());
        let err = mcu.trusted_entry_allowed().unwrap_err();
        assert!(matches!(err, HwError::AccessViolation { .. }));
        assert!(matches!(
            mcu.run_trusted(|_| ()),
            Err(HwError::AccessViolation { .. })
        ));
    }

    #[test]
    fn rroc_only_moves_forward_through_public_api() {
        let mut mcu = device();
        mcu.advance_time_to(SimTime::from_secs(10));
        mcu.advance_time_to(SimTime::from_secs(5)); // no-op
        assert_eq!(mcu.rroc_now(), SimTime::from_secs(10));
        mcu.advance_time_to(SimTime::from_secs(20));
        assert_eq!(mcu.rroc_now(), SimTime::from_secs(20));
    }

    #[test]
    fn cost_model_is_derived_from_profile() {
        let mcu = device();
        let cost = mcu.cost_model();
        assert_eq!(cost.profile().clock_hz(), 8_000_000);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_device_fits_in_232_bytes() {
        use std::mem::size_of;
        let mcu = size_of::<Mcu>();
        assert!(
            mcu <= 232,
            "an Mcu grew to {mcu} bytes (bound 232): DeviceProfile {} B, MpuConfig {} B, \
             Rom {} B, Rroc {} B, Option<SecureBoot> {} B; \
             share what is the same on every device",
            size_of::<DeviceProfile>(),
            size_of::<MpuConfig>(),
            size_of::<Rom>(),
            size_of::<Rroc>(),
            size_of::<Option<SecureBoot>>(),
        );
    }
}
