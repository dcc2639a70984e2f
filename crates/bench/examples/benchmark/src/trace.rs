//! Spans around the calls into each layer, kept in memory while the run
//! lasts and turned into per-layer self times afterwards.
//!
//! Layers are named after the modules whose public functions the span
//! wraps. A span's self time is its duration minus the time its child
//! spans cover; only `core.hub.ingest_frame` has children (the
//! `core.verifier.verify_frame_response` calls its verify closure makes).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A timed layer. [`Layer::ShardLoop`] is the benchmark's own loop around
/// a shard, not a layer of the program: its self time is harness work and
/// counts as unattributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    KeyDerive,
    ProverNew,
    VerifierProvision,
    SelfMeasure,
    HandleCollection,
    EncodeBatch,
    IngestFrame,
    VerifyFrameResponse,
    HubMerge,
    AggregateFromHub,
    VerifiedChains,
    ShardLoop,
}

impl Layer {
    /// Every layer of the program, in pipeline order.
    pub const TRACED: [Layer; 11] = [
        Layer::KeyDerive,
        Layer::ProverNew,
        Layer::VerifierProvision,
        Layer::SelfMeasure,
        Layer::HandleCollection,
        Layer::EncodeBatch,
        Layer::IngestFrame,
        Layer::VerifyFrameResponse,
        Layer::HubMerge,
        Layer::AggregateFromHub,
        Layer::VerifiedChains,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::KeyDerive => "hw.key.derive",
            Layer::ProverNew => "core.prover.new",
            Layer::VerifierProvision => "core.verifier.provision",
            Layer::SelfMeasure => "core.prover.self_measure",
            Layer::HandleCollection => "core.prover.handle_collection",
            Layer::EncodeBatch => "core.encoding.encode_batch",
            Layer::IngestFrame => "core.hub.ingest_frame",
            Layer::VerifyFrameResponse => "core.verifier.verify_frame_response",
            Layer::HubMerge => "core.hub.merge",
            Layer::AggregateFromHub => "swarm.aggregate.from_hub",
            Layer::VerifiedChains => "core.hub.verified_chains",
            Layer::ShardLoop => "bench.fleet.shard_loop",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Work items the call handled (devices, measurements, responses, …).
    pub items: u64,
}

/// Handle of an open span; a no-op handle when tracing is off.
#[must_use = "a span must be closed"]
pub struct SpanId(Option<usize>);

/// One thread's span recorder. Disabled (no clock reads, no storage) when
/// built without an origin.
pub struct Tracer {
    origin: Option<Instant>,
    /// The shard this tracer's thread drives; `None` for the serial
    /// phases on the main thread.
    pub shard: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Option<Instant>, shard: Option<usize>) -> Self {
        Self {
            origin,
            shard,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn open(&mut self, layer: Layer) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            start_ns: nanos_since(origin),
            end_ns: 0,
            parent: self.open.last().copied(),
            items: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn close(&mut self, id: SpanId, items: u64) {
        let (Some(index), Some(origin)) = (id.0, self.origin) else {
            return;
        };
        let end_ns = nanos_since(origin);
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Duration of this tracer's shard loop, if it recorded one.
    fn loop_ns(&self) -> Option<u64> {
        self.spans
            .iter()
            .find(|span| span.layer == Layer::ShardLoop)
            .map(|span| span.end_ns - span.start_ns)
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Self time on the critical path: the serial phases plus the slowest
    /// shard. These add up, with the unattributed rest, to the wall.
    pub critical_self_ns: u64,
    /// Self time summed over every thread (CPU time in the layer).
    pub total_self_ns: u64,
    /// Calls and work items over the whole fleet.
    pub calls: u64,
    pub items: u64,
}

/// Folds the spans of the serial tracer and every shard tracer into
/// per-layer totals, indexed like [`Layer`]. The critical shard is the one
/// whose loop ran longest.
pub fn breakdown(tracers: &[Tracer]) -> Vec<LayerStat> {
    let critical = tracers
        .iter()
        .filter(|tracer| tracer.shard.is_some())
        .max_by_key(|tracer| tracer.loop_ns().unwrap_or(0))
        .and_then(|tracer| tracer.shard);
    let mut stats = vec![LayerStat::default(); Layer::ShardLoop.index() + 1];
    for tracer in tracers {
        let on_critical_path = tracer.shard.is_none() || tracer.shard == critical;
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in tracer.spans.iter().zip(child_ns) {
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(children);
            let stat = &mut stats[span.layer.index()];
            stat.total_self_ns += self_ns;
            if on_critical_path {
                stat.critical_self_ns += self_ns;
            }
            stat.calls += 1;
            stat.items += span.items;
        }
    }
    stats
}

/// The stat of one layer out of a [`breakdown`].
pub fn stat(stats: &[LayerStat], layer: Layer) -> LayerStat {
    stats[layer.index()]
}

/// Writes every span as JSON: `layers` names the layer indices, and each
/// span is `[layer, start_ns, end_ns, parent, shard, items]`, with
/// `parent` a global span index and -1 for none, `shard` -1 for the serial
/// phases.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = Layer::TRACED
        .iter()
        .chain(&[Layer::ShardLoop])
        .map(|layer| crate::json::quote(layer.name()))
        .collect();
    write!(
        out,
        "{{\"layers\": [{}],\n\"columns\": [\"layer\", \"start_ns\", \"end_ns\", \"parent\", \
         \"shard\", \"items\"],\n\"spans\": [",
        names.join(", ")
    )?;
    let mut offset = 0usize;
    let mut first = true;
    for tracer in tracers {
        let shard = tracer.shard.map_or(-1, |shard| shard as i64);
        for span in &tracer.spans {
            let parent = span.parent.map_or(-1, |parent| (offset + parent) as i64);
            write!(
                out,
                "{}\n[{}, {}, {}, {}, {}, {}]",
                if first { "" } else { "," },
                span.layer.index(),
                span.start_ns,
                span.end_ns,
                parent,
                shard,
                span.items
            )?;
            first = false;
        }
        offset += tracer.spans.len();
    }
    writeln!(out, "]}}")?;
    out.flush()
}
