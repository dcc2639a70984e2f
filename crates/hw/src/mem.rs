//! Memory map and regions of the simulated device.

use crate::error::HwError;

/// What a memory region is used for.
///
/// The variants mirror the memory organization shown in Figure 5 (SMART+)
/// and Figure 7 (HYDRA) of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// ROM holding the attestation code (and, on SMART+, the key `K`).
    Rom,
    /// The device key storage.
    Key,
    /// Application RAM / flash: the memory that gets measured.
    Application,
    /// Insecure storage holding the rolling measurement buffer.
    MeasurementStore,
    /// Memory-mapped peripherals (RROC, timers, network interface).
    Peripheral,
}

impl RegionKind {
    /// Human-readable name used in error messages and dumps.
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Rom => "rom",
            RegionKind::Key => "key",
            RegionKind::Application => "application",
            RegionKind::MeasurementStore => "measurement-store",
            RegionKind::Peripheral => "peripheral",
        }
    }
}

/// A contiguous region of the device address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Region role.
    pub kind: RegionKind,
    /// Start address.
    pub base: usize,
    /// Size in bytes.
    pub size: usize,
}

impl MemoryRegion {
    /// Creates a region.
    pub fn new(kind: RegionKind, base: usize, size: usize) -> Self {
        Self { kind, base, size }
    }

    /// Exclusive end address.
    pub fn end(&self) -> usize {
        self.base + self.size
    }

    /// Whether `addr` lies inside the region.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Whether two regions overlap.
    pub fn overlaps(&self, other: &MemoryRegion) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

/// The full memory map of a device.
///
/// # Example
///
/// ```
/// use erasmus_hw::{MemoryMap, MemoryRegion, RegionKind};
///
/// let map = MemoryMap::smart_plus_layout(10 * 1024, 16 * 72)?;
/// assert!(map.region(RegionKind::Rom).is_some());
/// assert!(map.region(RegionKind::Application).is_some());
/// # Ok::<(), erasmus_hw::HwError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    regions: Vec<MemoryRegion>,
}

impl MemoryMap {
    /// Builds a map from explicit regions.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OverlappingRegions`] if any two regions overlap.
    pub fn new(regions: Vec<MemoryRegion>) -> Result<Self, HwError> {
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                if a.overlaps(b) {
                    return Err(HwError::OverlappingRegions {
                        first: a.kind.name().to_owned(),
                        second: b.kind.name().to_owned(),
                    });
                }
            }
        }
        Ok(Self { regions })
    }

    /// The canonical SMART+ layout of Figure 5: ROM (attestation code + K),
    /// application memory, the measurement store and the peripheral window.
    ///
    /// # Errors
    ///
    /// Returns an error if the computed layout overlaps, which only happens
    /// with absurdly large sizes.
    pub fn smart_plus_layout(app_size: usize, store_size: usize) -> Result<Self, HwError> {
        const ROM_BASE: usize = 0x0000;
        const ROM_SIZE: usize = 6 * 1024;
        const KEY_SIZE: usize = 32;
        let key_base = ROM_BASE + ROM_SIZE;
        let app_base = key_base + KEY_SIZE;
        let store_base = app_base + app_size;
        let periph_base = store_base + store_size;
        Self::new(vec![
            MemoryRegion::new(RegionKind::Rom, ROM_BASE, ROM_SIZE),
            MemoryRegion::new(RegionKind::Key, key_base, KEY_SIZE),
            MemoryRegion::new(RegionKind::Application, app_base, app_size),
            MemoryRegion::new(RegionKind::MeasurementStore, store_base, store_size),
            MemoryRegion::new(RegionKind::Peripheral, periph_base, 256),
        ])
    }

    /// The HYDRA layout of Figure 7: no ROM code beyond the secure-boot
    /// stub; the key and attestation code live in RAM owned by `PrAtt`.
    ///
    /// # Errors
    ///
    /// Returns an error if the computed layout overlaps.
    pub fn hydra_layout(app_size: usize, store_size: usize) -> Result<Self, HwError> {
        const BOOT_ROM_SIZE: usize = 32 * 1024;
        const PRATT_SIZE: usize = 256 * 1024;
        const KEY_SIZE: usize = 32;
        let key_base = BOOT_ROM_SIZE + PRATT_SIZE;
        let app_base = key_base + KEY_SIZE;
        let store_base = app_base + app_size;
        let periph_base = store_base + store_size;
        Self::new(vec![
            MemoryRegion::new(RegionKind::Rom, 0, BOOT_ROM_SIZE),
            MemoryRegion::new(RegionKind::Key, key_base, KEY_SIZE),
            MemoryRegion::new(RegionKind::Application, app_base, app_size),
            MemoryRegion::new(RegionKind::MeasurementStore, store_base, store_size),
            MemoryRegion::new(RegionKind::Peripheral, periph_base, 4096),
        ])
    }

    /// All regions in the map.
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.regions
    }

    /// The first region of the given kind, if present.
    pub fn region(&self, kind: RegionKind) -> Option<&MemoryRegion> {
        self.regions.iter().find(|r| r.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_geometry() {
        let region = MemoryRegion::new(RegionKind::Application, 100, 50);
        assert_eq!(region.end(), 150);
        assert!(region.contains(100));
        assert!(region.contains(149));
        assert!(!region.contains(150));
        assert!(!region.contains(99));
    }

    #[test]
    fn overlap_detection() {
        let a = MemoryRegion::new(RegionKind::Rom, 0, 100);
        let b = MemoryRegion::new(RegionKind::Application, 50, 100);
        let c = MemoryRegion::new(RegionKind::Application, 100, 100);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn map_rejects_overlaps() {
        let err = MemoryMap::new(vec![
            MemoryRegion::new(RegionKind::Rom, 0, 100),
            MemoryRegion::new(RegionKind::Key, 50, 10),
        ])
        .unwrap_err();
        assert!(matches!(err, HwError::OverlappingRegions { .. }));
    }

    #[test]
    fn smart_plus_layout_has_all_regions() {
        let map = MemoryMap::smart_plus_layout(10 * 1024, 1024).expect("layout");
        for kind in [
            RegionKind::Rom,
            RegionKind::Key,
            RegionKind::Application,
            RegionKind::MeasurementStore,
            RegionKind::Peripheral,
        ] {
            assert!(map.region(kind).is_some(), "missing {kind:?}");
        }
        assert_eq!(
            map.region(RegionKind::Application).map(|r| r.size),
            Some(10 * 1024)
        );
        assert!(map.regions().iter().map(|r| r.size).sum::<usize>() > 10 * 1024);
    }

    #[test]
    fn hydra_layout_has_all_regions() {
        let map = MemoryMap::hydra_layout(10 * 1024 * 1024, 64 * 1024).expect("layout");
        assert_eq!(
            map.region(RegionKind::Application).map(|r| r.size),
            Some(10 * 1024 * 1024)
        );
        assert!(map.region(RegionKind::Rom).map(|r| r.size).unwrap() >= 32 * 1024);
    }

    #[test]
    fn region_kind_names() {
        assert_eq!(RegionKind::Rom.name(), "rom");
        assert_eq!(RegionKind::MeasurementStore.name(), "measurement-store");
    }
}
