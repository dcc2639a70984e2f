//! The measurements each child process takes, and how the parent turns
//! them into the reported metrics.
//!
//! Every measured run happens in a fresh child process, one at a time, so
//! `VmHWM` and `VmRSS` belong to that run alone and no run inherits
//! another's heap. A child prints one [`ChildOutput`] line.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use erasmus_bench::fleet::{self, FleetConfig, FleetReport};

use crate::json::{self, Json};
use crate::pipeline::{self, Totals};
use crate::stats::{self, MIB};
use crate::trace::{self, Layer};
use crate::workloads::{self, Workload, THREADS};

/// The end-to-end metrics, with their units, as `BENCHMARK.json` lists
/// them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("meas_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, Metric>;

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &str) {
    metrics.insert(
        name.to_owned(),
        Metric {
            value,
            unit: unit.to_owned(),
        },
    );
}

/// `numerator / denominator`, 0 for an empty denominator.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// What one child process measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChildOutput {
    pub metrics: Metrics,
    pub totals: Totals,
    /// Correctness-gate failures; empty for a correct run.
    pub failures: Vec<String>,
}

impl ChildOutput {
    /// The one-line JSON form a child prints.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, metric)| metric_json(name, metric))
            .collect();
        let totals: Vec<String> = self
            .totals
            .fields()
            .into_iter()
            .map(|(name, value)| format!("{}: {}", json::quote(name), json::quote(&value)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"metrics\": {{{}}}, \"totals\": {{{}}}, \"failures\": [{}]}}",
            metrics.join(", "),
            totals.join(", "),
            failures.join(", ")
        )
    }

    /// Parses a line printed by [`ChildOutput::to_json`].
    pub fn parse(line: &str) -> Result<ChildOutput, String> {
        let doc = Json::parse(line)?;
        let mut output = ChildOutput::default();
        for (name, metric) in doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("missing metrics")?
        {
            let value = metric.get("value").and_then(Json::as_f64);
            let unit = metric.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("malformed metric {name}"));
            };
            put(&mut output.metrics, name, value, unit);
        }
        let totals = doc
            .get("totals")
            .and_then(Json::as_object)
            .ok_or("missing totals")?;
        let count = |name: &str| -> Result<u64, String> {
            totals
                .get(name)
                .and_then(Json::as_str)
                .and_then(|text| text.parse().ok())
                .ok_or_else(|| format!("missing total {name}"))
        };
        output.totals = Totals {
            devices: count("devices")?,
            measurements: count("measurements_total")?,
            verifications: count("verifications_total")?,
            history_entries: count("history_entries")?,
            history_resident: count("history_resident")?,
            history_evictions: count("history_evictions")?,
            chains_verified: count("chains_verified")?,
            simulated_busy_ns: count("simulated_busy_ns")?,
            root_digest: totals
                .get("root_digest")
                .and_then(Json::as_str)
                .ok_or("missing root digest")?
                .to_owned(),
        };
        output.failures = doc
            .get("failures")
            .and_then(Json::as_array)
            .ok_or("missing failures")?
            .iter()
            .map(|failure| failure.as_str().unwrap_or("?").to_owned())
            .collect();
        Ok(output)
    }
}

/// `"name": {"value": v, "unit": "u"}`, the result-line form of a metric.
pub fn metric_json(name: &str, metric: &Metric) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        json::number(metric.value),
        json::quote(&metric.unit)
    )
}

/// A timed `run_threaded` of the workload: set-up (input generation and a
/// warm-up quick fleet), the timed call, the correctness gate, and every
/// metric the report and `/proc` give.
///
/// `started` is the process's first instant, so `setup_s` covers
/// everything from process start to the timed call.
pub fn timed_run(workload: &Workload, seed: u64, started: Instant) -> ChildOutput {
    let config = workload.config(seed);
    std::hint::black_box(fleet::run_threaded(
        &FleetConfig::quick(workload.algorithm),
        THREADS,
    ));
    let setup = started.elapsed();
    let timed = Instant::now();
    let report = std::hint::black_box(fleet::run_threaded(&config, THREADS));
    let run_s = timed.elapsed().as_secs_f64();

    let failures = workloads::check(workload, seed, &report);
    let mut metrics = Metrics::new();
    put(&mut metrics, "setup_s", setup.as_secs_f64(), "s");
    put(&mut metrics, "run_s", run_s, "s");
    put(
        &mut metrics,
        "meas_per_s",
        report.verifications_total as f64 / run_s,
        "1/s",
    );
    put(
        &mut metrics,
        "peak_rss_mb",
        stats::self_status_bytes("VmHWM").unwrap_or(0) as f64 / MIB,
        "MiB",
    );
    report_metrics(&mut metrics, &report, !failures.is_empty());
    ChildOutput {
        metrics,
        totals: workloads::totals(&report),
        failures,
    }
}

/// The per-layer metrics `run_threaded` already counts, read off its
/// report: the shard runtime's own wall slices, event-engine and pool
/// counters, hub state, and the fault ledger.
fn report_metrics(metrics: &mut Metrics, report: &FleetReport, failed: bool) {
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let wall = [
        ("bench.fleet.measure_wall_s", secs(report.measure_wall)),
        ("bench.fleet.verify_wall_s", secs(report.verify_wall)),
        ("bench.fleet.ingest_wall_s", secs(report.wire_ingest_wall)),
        ("bench.fleet.encode_wall_s", secs(report.encode_wall)),
    ];
    for (name, value) in wall {
        put(metrics, name, value, "s");
    }
    let counts = [
        ("sim.engine.queue_pushes", report.queue.pushes),
        (
            "sim.engine.queue_overflow_pushes",
            report.queue.overflow_pushes,
        ),
        ("sim.engine.queue_max_pending", report.queue.max_pending),
        ("sim.engine.events_coalesced", report.coalesced_events),
        ("sim.pool.high_water", report.event_pool_high_water),
        ("net.collect_retransmits", report.collect_retransmits),
        ("net.collect_exhausted", report.exhausted_retries),
        ("net.churn_losses", report.churn_losses),
        ("net.stale_retries", report.stale_retries),
        ("net.reorders", report.reorders),
        ("net.frame_retransmits", report.frame_retransmits),
        ("net.frame_duplicates", report.frame_duplicates),
        ("core.hub.duplicates_dropped", report.hub_duplicates),
        ("core.hub.crash_recoveries", report.hub_crashes),
        ("core.encoding.corrupt_rejects", report.corrupt_decode_drops),
        ("core.verifier.tamper_rejects", report.corrupt_tamper_drops),
        ("od.attempted", report.on_demand_attempted),
        ("od.completed", report.on_demand_completed),
    ];
    for (name, value) in counts {
        put(metrics, name, value as f64, "count");
    }
    put(
        metrics,
        "core.encoding.snapshot_bytes",
        report.snapshot_bytes as f64,
        "B",
    );
    put(
        metrics,
        "core.hub.resident_state_mb",
        report.resident_state_bytes as f64 / MIB,
        "MiB",
    );
    put(
        metrics,
        "net.collect_useful_ratio",
        ratio(
            report.collections_delivered as f64,
            (report.collections_attempted + report.collect_retransmits) as f64,
        ),
        "ratio",
    );
    put(
        metrics,
        "net.frame_useful_ratio",
        ratio(
            report.wire_frames as f64,
            (report.wire_frames + report.frame_retransmits + report.frame_duplicates) as f64,
        ),
        "ratio",
    );
    let op_fail_frac = if failed {
        1.0
    } else {
        ratio(
            (report.collections_dropped + report.on_demand_attempted - report.on_demand_completed)
                as f64,
            (report.collections_attempted + report.on_demand_attempted) as f64,
        )
    };
    put(metrics, "op_fail_frac", op_fail_frac, "ratio");
}

/// The untraced pipeline on the workload's lossless configuration: its
/// wall and the `VmRSS` growth across provisioning and shard loops.
pub fn plain_pipeline(config: &FleetConfig) -> ChildOutput {
    let outcome = pipeline::run(config, THREADS, false);
    let mut metrics = Metrics::new();
    put(
        &mut metrics,
        "trace.untraced_wall_s",
        outcome.wall.as_secs_f64(),
        "s",
    );
    put(
        &mut metrics,
        "mem.provision_mb",
        outcome.provision_rss as f64 / MIB,
        "MiB",
    );
    put(
        &mut metrics,
        "mem.shard_loop_mb",
        outcome.shard_loop_rss as f64 / MIB,
        "MiB",
    );
    ChildOutput {
        metrics,
        totals: outcome.totals,
        failures: Vec::new(),
    }
}

/// The traced pipeline: per-layer self times along the critical path,
/// fleet-wide calls, items and CPU time per item, the counts taken at the
/// layer boundaries, and the wall they add up to. The spans go to
/// `spans_path` when one is given.
pub fn traced_pipeline(config: &FleetConfig, spans_path: Option<&Path>) -> ChildOutput {
    let outcome = pipeline::run(config, THREADS, true);
    let mut failures = Vec::new();
    if let Some(path) = spans_path {
        if let Err(error) = trace::write_spans(path, &outcome.tracers) {
            failures.push(format!("cannot write {}: {error}", path.display()));
        }
    }
    let stats = trace::breakdown(&outcome.tracers);
    let mut metrics = Metrics::new();
    let mut attributed_ns = 0u64;
    for layer in Layer::TRACED {
        let stat = trace::stat(&stats, layer);
        attributed_ns += stat.critical_self_ns;
        for (field, value, unit) in [
            ("self_s", stat.critical_self_ns as f64 / 1e9, "s"),
            ("calls", stat.calls as f64, "count"),
            ("items", stat.items as f64, "count"),
            (
                "ns_per_item",
                ratio(stat.total_self_ns as f64, stat.items as f64),
                "ns",
            ),
        ] {
            put(
                &mut metrics,
                &format!("{}.{field}", layer.name()),
                value,
                unit,
            );
        }
    }
    let counts = outcome.counts;
    let extra = [
        (
            "core.prover.self_measure.bytes_hashed",
            counts.bytes_hashed,
            "B",
        ),
        (
            "core.prover.self_measure.lane_jobs",
            counts.lane_jobs,
            "count",
        ),
        ("core.encoding.encode_batch.bytes", counts.frame_bytes, "B"),
        (
            "core.hub.ingest_frame.evictions",
            outcome.totals.history_evictions,
            "count",
        ),
        (
            "core.hub.ingest_frame.rejects",
            counts.ingest_rejects,
            "count",
        ),
        (
            "core.verifier.verify_frame_response.failed",
            counts.verify_failed,
            "count",
        ),
    ];
    for (name, value, unit) in extra {
        put(&mut metrics, name, value as f64, unit);
    }
    let wall = outcome.wall.as_secs_f64();
    put(&mut metrics, "trace.wall_s", wall, "s");
    put(
        &mut metrics,
        "trace.unattributed_s",
        wall - attributed_ns as f64 / 1e9,
        "s",
    );
    if counts.verify_failed + counts.ingest_rejects > 0 {
        failures.push(format!(
            "pipeline: {} verification failures, {} ingest rejects",
            counts.verify_failed, counts.ingest_rejects
        ));
    }
    ChildOutput {
        metrics,
        totals: outcome.totals,
        failures,
    }
}

/// One traced round's per-layer metrics: the traced and plain pipelines'
/// metrics, the run's report-derived metrics, and the two differences
/// between the runs — tracing overhead and the runtime work no public
/// call covers. Also checks that the three runs agree: both pipelines on
/// the same totals and digest, and — when the workload is lossless, so
/// the pipeline re-composes the very same run — the pipeline on the
/// run's.
pub fn per_layer(
    workload: &Workload,
    traced: &ChildOutput,
    plain: &ChildOutput,
    run: &ChildOutput,
) -> (Metrics, Vec<String>) {
    let mut metrics = traced.metrics.clone();
    metrics.extend(plain.metrics.clone());
    for (name, metric) in &run.metrics {
        if !END_TO_END.iter().any(|(e2e, _)| e2e == name) {
            metrics.insert(name.clone(), metric.clone());
        }
    }
    let value =
        |source: &ChildOutput, name: &str| source.metrics.get(name).map_or(0.0, |m| m.value);
    let untraced = value(plain, "trace.untraced_wall_s");
    put(
        &mut metrics,
        "trace.overhead_s",
        value(traced, "trace.wall_s") - untraced,
        "s",
    );
    put(
        &mut metrics,
        "bench.fleet.runtime_s",
        value(run, "run_s") - untraced,
        "s",
    );

    let mut failures = Vec::new();
    for (source, output) in [("traced", traced), ("plain", plain), ("run", run)] {
        failures.extend(output.failures.iter().map(|f| format!("{source}: {f}")));
    }
    if traced.totals != plain.totals {
        failures.push(format!(
            "traced pipeline {:?} differs from the untraced pipeline {:?}",
            traced.totals, plain.totals
        ));
    }
    if !workload.faulty && traced.totals != run.totals {
        failures.push(format!(
            "traced pipeline {:?} differs from run_threaded {:?}",
            traced.totals, run.totals
        ));
    }
    (metrics, failures)
}
