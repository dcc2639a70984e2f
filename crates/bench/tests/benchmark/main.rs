//! Tests of the repository benchmark (`crates/bench/examples/benchmark`).
//!
//! The benchmark is a package of its own; its modules are compiled here
//! through `#[path]` so they run against the same workspace crates. Not
//! every helper is used by a test, hence the `dead_code` allowance.

#![allow(dead_code)]

#[path = "../../examples/benchmark/src/child.rs"]
mod child;
#[path = "../../examples/benchmark/src/compare.rs"]
mod compare;
#[path = "../../examples/benchmark/src/json.rs"]
mod json;
#[path = "../../examples/benchmark/src/pipeline.rs"]
mod pipeline;
#[path = "../../examples/benchmark/src/stats.rs"]
mod stats;
#[path = "../../examples/benchmark/src/trace.rs"]
mod trace;
#[path = "../../examples/benchmark/src/workloads.rs"]
mod workloads;

use std::time::Instant;

use erasmus_bench::fleet::{self, FleetConfig};
use erasmus_core::HistoryMode;
use erasmus_crypto::MacAlgorithm;

use child::ChildOutput;
use json::Json;
use workloads::Workload;

/// A `fleet-ring4`-shaped fleet: 1 KiB images, 4 × 2 schedule, ring of 4.
fn ring4_shaped(provers: usize, lanes: usize) -> FleetConfig {
    let mut config = FleetConfig::new(provers, 4, 2, 1024, 4, MacAlgorithm::HmacSha256);
    config.lanes = lanes;
    config.history = HistoryMode::Ring(4);
    config
}

/// A `hub-ingest`-shaped fleet: 64-byte images, 16-entry collections into
/// a ring of 4, so evictions dominate.
fn ingest_shaped(provers: usize, lanes: usize) -> FleetConfig {
    let mut config = FleetConfig::new(provers, 16, 3, 64, 4, MacAlgorithm::HmacSha256);
    config.lanes = lanes;
    config.history = HistoryMode::Ring(4);
    config
}

fn workload(name: &str) -> Workload {
    *workloads::find(name).expect("known workload")
}

#[test]
fn pipeline_reproduces_run_threaded_totals_and_root_digest() {
    // 90 devices over 2 shards and 4 stagger groups leave cohorts of 11–12:
    // 8-lane jobs with 4-lane and scalar remainders at lanes 8.
    for config in [
        ring4_shaped(90, 1),
        ring4_shaped(90, 8),
        ingest_shaped(90, 1),
        ingest_shaped(90, 8),
    ] {
        for threads in [1, 2] {
            let expected = workloads::totals(&fleet::run_threaded(&config, threads));
            for traced in [false, true] {
                let outcome = pipeline::run(&config, threads, traced);
                assert_eq!(
                    outcome.totals, expected,
                    "lanes {} threads {threads} traced {traced}",
                    config.lanes
                );
                assert_eq!(outcome.counts.verify_failed, 0);
                assert_eq!(outcome.counts.ingest_rejects, 0);
            }
        }
    }
}

#[test]
fn pipeline_chunks_bursts_larger_than_one_frame() {
    // One stagger group on one shard: every device answers at the same
    // instant, so the burst spans two frames.
    let mut config = FleetConfig::new(1100, 1, 1, 64, 1, MacAlgorithm::HmacSha256);
    config.history = HistoryMode::Ring(4);
    let expected = workloads::totals(&fleet::run_threaded(&config, 1));
    let outcome = pipeline::run(&config, 1, true);
    assert_eq!(outcome.totals, expected);
    let stats = trace::breakdown(&outcome.tracers);
    let ingest = trace::stat(&stats, trace::Layer::IngestFrame);
    assert_eq!(ingest.calls, 2);
    assert_eq!(ingest.items, 1100);
}

#[test]
fn traced_self_times_and_unattributed_add_up_to_the_wall() {
    let output = child::traced_pipeline(&ingest_shaped(40, 8), None);
    assert!(output.failures.is_empty(), "{:?}", output.failures);
    let value = |name: &str| output.metrics[name].value;
    let attributed: f64 = trace::Layer::TRACED
        .iter()
        .map(|layer| value(&format!("{}.self_s", layer.name())))
        .sum();
    let wall = value("trace.wall_s");
    assert!((attributed + value("trace.unattributed_s") - wall).abs() < 1e-6);
    assert!(value("trace.unattributed_s") >= 0.0);
    // Every layer ran, and the counts match the fleet's shape.
    for layer in trace::Layer::TRACED {
        assert!(value(&format!("{}.calls", layer.name())) > 0.0, "{layer:?}");
    }
    assert_eq!(
        value("core.prover.self_measure.items"),
        (40 * 16 * 3) as f64
    );
    assert_eq!(value("core.hub.ingest_frame.items"), (40 * 3) as f64);
    assert_eq!(
        value("core.prover.self_measure.bytes_hashed"),
        (40 * 16 * 3 * 64) as f64
    );
}

#[test]
fn the_gate_passes_matching_goldens_and_names_each_mismatch() {
    let mut tiny = workload("fleet-ring4");
    tiny.provers = 20;
    let report = fleet::run_threaded(&tiny.config(7), workloads::THREADS);
    tiny.golden = workloads::Golden {
        measurements_total: report.measurements_total,
        verifications_total: report.verifications_total,
        history_entries: report.history_entries,
        history_resident: report.history_resident,
        history_evictions: report.history_evictions,
        root_digest: Box::leak(report.aggregation.root_digest.clone().into_boxed_str()),
        simulated_busy_ns: report.simulated_busy.as_nanos(),
        collections_delivered: report.collections_delivered,
        collections_dropped: report.collections_dropped,
        on_demand_p50_ns: report.on_demand_p50.as_nanos(),
        on_demand_p99_ns: report.on_demand_p99.as_nanos(),
    };
    assert_eq!(workloads::check(&tiny, 7, &report), Vec::<String>::new());

    tiny.golden.history_evictions += 1;
    tiny.golden.root_digest = "00";
    let failures = workloads::check(&tiny, 7, &report);
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures[0].starts_with("history_evictions"));
    assert!(failures[1].starts_with("root_digest"));

    // The fault workload's goldens apply at their seed only; the lossless
    // workloads draw nothing from the seed.
    let faults = workload("faults");
    assert!(faults.golden_applies(workloads::GOLDEN_SEED));
    assert!(!faults.golden_applies(7));
    assert!(tiny.golden_applies(7));
}

fn tiny_outputs(name: &str) -> (Workload, ChildOutput, ChildOutput, ChildOutput) {
    let mut tiny = workload(name);
    tiny.provers = 24;
    tiny.rounds = 2;
    let lossless = tiny.lossless_config(42);
    let traced = child::traced_pipeline(&lossless, None);
    let plain = child::plain_pipeline(&lossless);
    let run = child::timed_run(&tiny, 42, Instant::now());
    (tiny, traced, plain, run)
}

fn is_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut pairs: Vec<(String, String)> = doc
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let end_to_end: Vec<(String, String)> = {
        let mut pairs: Vec<_> = child::END_TO_END
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        pairs.sort();
        pairs
    };
    assert!(end_to_end.len() <= 16);
    assert_eq!(end_to_end, declared("end_to_end"));

    let mut names_per_workload = Vec::new();
    for name in ["fleet-ring4", "hub-ingest", "faults"] {
        let (tiny, traced, plain, run) = tiny_outputs(name);
        let (metrics, _) = child::per_layer(&tiny, &traced, &plain, &run);
        for (e2e, _) in child::END_TO_END {
            assert!(run.metrics.contains_key(e2e), "{name}: run lacks {e2e}");
            assert!(
                !metrics.contains_key(e2e),
                "{name}: {e2e} leaked into per-layer"
            );
        }
        let pairs: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, metric)| (name.clone(), metric.unit.clone()))
            .collect();
        for (metric, _) in &pairs {
            assert!(is_metric_name(metric), "{metric}");
        }
        assert!(pairs.len() <= 128);
        names_per_workload.push(pairs);
    }
    assert_eq!(names_per_workload[0], names_per_workload[1]);
    assert_eq!(names_per_workload[0], names_per_workload[2]);
    assert_eq!(names_per_workload[0], declared("per_layer"));
}

#[test]
fn child_output_round_trips_through_its_json_line() {
    let (_, traced, _, run) = tiny_outputs("hub-ingest");
    for output in [traced, run] {
        let line = output.to_json();
        assert!(!line.contains('\n'));
        let parsed = ChildOutput::parse(&line).expect("parses");
        assert_eq!(parsed.totals, output.totals);
        assert_eq!(parsed.failures, output.failures);
        assert_eq!(parsed.metrics.len(), output.metrics.len());
        for (name, metric) in &output.metrics {
            assert_eq!(parsed.metrics[name].unit, metric.unit);
            assert_eq!(parsed.metrics[name].value, metric.value, "{name}");
        }
    }
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // Reference values from Python's `statistics.median` and
    // `statistics.quantiles(values, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::median(&ten), Some(5.5));
    assert_eq!(stats::quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    // Two samples: Python's clamping extrapolates past the data.
    assert_eq!(stats::quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(
        stats::quartiles(&[10.0, 12.0, 11.0, 15.0, 9.0]),
        Some((9.5, 13.5))
    );
    assert_eq!(stats::median(&[]), None);
    assert_eq!(stats::quartiles(&[]), None);
    assert_eq!(stats::quartiles(&[4.0]), Some((4.0, 4.0)));
    assert_eq!(stats::relative_spread(&ten), Some(5.5 / 5.5));
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let bound = compare::Bound {
        name: "run_s".to_owned(),
        lower_is_better: true,
        bound: 0.05,
    };
    let base = [10.0, 10.1, 10.0, 9.9, 10.05];
    let shift = |factor: f64| base.map(|v| v * factor);
    assert_eq!(compare::verdict(&bound, &base, &shift(1.01)).0, "same");
    assert_eq!(compare::verdict(&bound, &base, &shift(1.10)).0, "worse");
    assert_eq!(compare::verdict(&bound, &base, &shift(0.90)).0, "better");
    let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
    assert_eq!(compare::verdict(&bound, &base, &noisy).0, "unresolved");
    let higher = compare::Bound {
        lower_is_better: false,
        ..bound
    };
    assert_eq!(compare::verdict(&higher, &base, &shift(1.10)).0, "better");
    assert_eq!(compare::verdict(&higher, &base, &[]).0, "missing");
}

#[test]
fn proc_status_fields_parse_in_bytes() {
    let status = "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\n\
                  VmRSS:\t   65536 kB\nThreads:\t3\n";
    assert_eq!(
        stats::status_field_bytes(status, "VmHWM"),
        Some(123_456 * 1024)
    );
    assert_eq!(
        stats::status_field_bytes(status, "VmRSS"),
        Some(65_536 * 1024)
    );
    assert_eq!(stats::status_field_bytes(status, "VmSwap"), None);
    // A field that is not in kB, or only shares a prefix, is not read.
    assert_eq!(stats::status_field_bytes(status, "Threads"), None);
    assert_eq!(stats::status_field_bytes(status, "Vm"), None);
    assert_eq!(
        stats::status_field_bytes("VmRSS:\tmany kB\n", "VmRSS"),
        None
    );
    if cfg!(target_os = "linux") {
        assert!(stats::self_status_bytes("VmRSS").is_some_and(|bytes| bytes > 0));
    }
}

#[test]
fn json_parser_reads_what_the_benchmark_writes() {
    let doc =
        Json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"é\n"}}"#).expect("parses");
    assert_eq!(
        doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
        Some(4)
    );
    assert_eq!(
        doc.get("a")
            .and_then(Json::as_array)
            .and_then(|a| a[1].as_f64()),
        Some(-2500.0)
    );
    assert_eq!(
        doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"é\n")
    );
    assert_eq!(
        Json::parse(&json::quote("tab\tquote\"")).ok(),
        Some(Json::String("tab\tquote\"".into()))
    );
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1, 2] 3").is_err());
    assert!(Json::parse("\"open").is_err());
    assert_eq!(json::number(f64::NAN), "0");
}
