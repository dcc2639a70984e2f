//! The benchmark's workloads and the correctness gate every run passes.
//!
//! This is a batch simulator with no arrival process: each workload is one
//! closed batch — a fleet of the stated size driven through
//! `fleet::run_threaded` on [`THREADS`] worker threads. Why each workload
//! exists is recorded in `BENCHMARK.json` and the README.

use erasmus_bench::fleet::{FleetConfig, FleetReport};
use erasmus_core::HistoryMode;
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::{NetworkConfig, SimDuration};

use crate::pipeline::Totals;

/// Worker threads of every run: the 2-core development host's core count.
pub const THREADS: usize = 2;

/// The seed the fault workload's golden outputs were recorded at. The
/// lossless workloads draw nothing from the seed, so their goldens hold
/// at every seed.
pub const GOLDEN_SEED: u64 = 42;

/// Outputs a correct run reproduces exactly.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    pub measurements_total: u64,
    pub verifications_total: u64,
    pub history_entries: u64,
    pub history_resident: u64,
    pub history_evictions: u64,
    pub root_digest: &'static str,
    pub simulated_busy_ns: u64,
    pub collections_delivered: u64,
    pub collections_dropped: u64,
    pub on_demand_p50_ns: u64,
    pub on_demand_p99_ns: u64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub provers: usize,
    pub memory_bytes: usize,
    pub algorithm: MacAlgorithm,
    pub measurements_per_round: usize,
    pub rounds: usize,
    pub lanes: usize,
    pub ring_capacity: usize,
    /// Whether the run injects network faults, churn, on-demand traffic
    /// and hub crashes (the `faults` workload).
    pub faulty: bool,
    pub golden: Golden,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet-ring4",
        provers: 20_000,
        memory_bytes: 1024,
        algorithm: MacAlgorithm::HmacSha256,
        measurements_per_round: 4,
        rounds: 2,
        lanes: 1,
        ring_capacity: 4,
        faulty: false,
        golden: Golden {
            measurements_total: 160_000,
            verifications_total: 160_000,
            history_entries: 160_000,
            history_resident: 80_000,
            history_evictions: 80_000,
            root_digest: "c32f69a4a1d1e61ac5d19f87e1b755b41b60f1b506cc88b67974fa7151c92c4a",
            simulated_busy_ns: 116_558_880_000_000,
            collections_delivered: 40_000,
            collections_dropped: 0,
            on_demand_p50_ns: 0,
            on_demand_p99_ns: 0,
        },
    },
    Workload {
        name: "hub-ingest",
        provers: 10_000,
        memory_bytes: 64,
        algorithm: MacAlgorithm::HmacSha256,
        measurements_per_round: 16,
        rounds: 8,
        lanes: 8,
        ring_capacity: 4,
        faulty: false,
        golden: Golden {
            measurements_total: 1_280_000,
            verifications_total: 1_280_000,
            history_entries: 1_280_000,
            history_resident: 40_000,
            history_evictions: 1_240_000,
            root_digest: "7a59cb82db4bc47e885b991156066d48dcfd602acee079e5b17af70a1ec72918",
            simulated_busy_ns: 95_972_640_000_000,
            collections_delivered: 80_000,
            collections_dropped: 0,
            on_demand_p50_ns: 0,
            on_demand_p99_ns: 0,
        },
    },
    Workload {
        name: "faults",
        provers: 14_000,
        memory_bytes: 256,
        algorithm: MacAlgorithm::HmacSha1,
        measurements_per_round: 4,
        rounds: 8,
        lanes: 1,
        ring_capacity: 64,
        faulty: true,
        golden: Golden {
            measurements_total: 444_379,
            verifications_total: 446_180,
            history_entries: 443_612,
            history_resident: 443_612,
            history_evictions: 0,
            root_digest: "f28be40d4cd9b5bc31953e6a1938401ea56c3d33b03be49fc1ee781b64fa1e1e",
            simulated_busy_ns: 82_350_430_565_000,
            collections_delivered: 110_933,
            collections_dropped: 1_067,
            on_demand_p50_ns: 50_097_175,
            on_demand_p99_ns: 58_337_201,
        },
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

impl Workload {
    /// The fleet configuration of this workload at `seed`.
    pub fn config(&self, seed: u64) -> FleetConfig {
        let mut config = self.lossless_config(seed);
        if self.faulty {
            config.network = NetworkConfig {
                base_latency: SimDuration::from_millis(20),
                jitter: SimDuration::from_millis(10),
                loss: 0.05,
                duplicate: 0.02,
                reorder: 0.02,
                corrupt: 0.01,
            };
            config.retries = 3;
            config.churn = 0.05;
            config.on_demand = self.provers / 20;
            config.hub_crashes = 2;
        }
        config
    }

    /// The same fleet on an ideal network with no churn, on-demand traffic
    /// or crashes — the shape the traced pipeline can re-compose. For the
    /// lossless workloads this is [`Workload::config`] itself.
    pub fn lossless_config(&self, seed: u64) -> FleetConfig {
        let mut config = FleetConfig::new(
            self.provers,
            self.measurements_per_round,
            self.rounds,
            self.memory_bytes,
            4,
            self.algorithm,
        );
        config.seed = seed;
        config.lanes = self.lanes;
        config.history = HistoryMode::Ring(self.ring_capacity);
        config
    }

    /// Whether the golden outputs apply at `seed`.
    pub fn golden_applies(&self, seed: u64) -> bool {
        !self.faulty || seed == GOLDEN_SEED
    }
}

/// The totals and root digest of a `run_threaded` report, in the shape
/// the traced pipeline reproduces.
pub fn totals(report: &FleetReport) -> Totals {
    Totals {
        devices: report.devices_tracked as u64,
        measurements: report.measurements_total,
        verifications: report.verifications_total,
        history_entries: report.history_entries,
        history_resident: report.history_resident,
        history_evictions: report.history_evictions,
        chains_verified: report.chains_verified,
        simulated_busy_ns: report.simulated_busy.as_nanos(),
        root_digest: report.aggregation.root_digest.clone(),
    }
}

/// Every way `report` fails the correctness gate for `workload` at
/// `seed`; empty when it passes.
///
/// At every seed the run must conserve what the fleet ledger conserves and
/// verify every device's chain. Where the goldens apply, the totals,
/// retention counts, root digest, simulated prover time, delivery split
/// and on-demand latency percentiles must also match them exactly.
pub fn check(workload: &Workload, seed: u64, report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |what: &str, actual: String, expected: String| {
        if actual != expected {
            failures.push(format!("{what}: got {actual}, expected {expected}"));
        }
    };

    expect(
        "delivered + dropped",
        (report.collections_delivered + report.collections_dropped).to_string(),
        report.collections_attempted.to_string(),
    );
    expect(
        "evictions + resident",
        (report.history_evictions + report.history_resident).to_string(),
        report.history_entries.to_string(),
    );
    expect(
        "aggregation root entries",
        report.aggregation.root_entries.to_string(),
        report.history_entries.to_string(),
    );
    expect(
        "coalesced + singleton events",
        (report.coalesced_events + report.singleton_events).to_string(),
        report.events_scheduled.to_string(),
    );
    expect(
        "chains verified",
        report.chains_verified.to_string(),
        report.devices_tracked.to_string(),
    );
    expect("all healthy", report.all_healthy.to_string(), "true".into());
    if !workload.faulty {
        expect(
            "devices tracked",
            report.devices_tracked.to_string(),
            workload.provers.to_string(),
        );
    }

    if workload.golden_applies(seed) {
        let golden = &workload.golden;
        let pairs: [(&str, u64, u64); 10] = [
            (
                "measurements_total",
                report.measurements_total,
                golden.measurements_total,
            ),
            (
                "verifications_total",
                report.verifications_total,
                golden.verifications_total,
            ),
            (
                "history_entries",
                report.history_entries,
                golden.history_entries,
            ),
            (
                "history_resident",
                report.history_resident,
                golden.history_resident,
            ),
            (
                "history_evictions",
                report.history_evictions,
                golden.history_evictions,
            ),
            (
                "simulated_busy_ns",
                report.simulated_busy.as_nanos(),
                golden.simulated_busy_ns,
            ),
            (
                "collections_delivered",
                report.collections_delivered,
                golden.collections_delivered,
            ),
            (
                "collections_dropped",
                report.collections_dropped,
                golden.collections_dropped,
            ),
            (
                "on_demand_p50_ns",
                report.on_demand_p50.as_nanos(),
                golden.on_demand_p50_ns,
            ),
            (
                "on_demand_p99_ns",
                report.on_demand_p99.as_nanos(),
                golden.on_demand_p99_ns,
            ),
        ];
        for (what, actual, expected) in pairs {
            expect(what, actual.to_string(), expected.to_string());
        }
        expect(
            "root_digest",
            report.aggregation.root_digest.clone(),
            golden.root_digest.to_owned(),
        );
    }
    failures
}
