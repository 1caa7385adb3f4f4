//! Per-layer accounting of a traced run.
//!
//! Write-side figures are means per traced snapshot write: the measured
//! writes of `nyx_insitu`/`warpx_temporal`, and the set-up plotfile writes
//! of the read workloads. Read-side storage and decode figures are means
//! per traced read operation: a query on the read workloads, the
//! readback that checks each snapshot on the write workloads. A layer a
//! workload never calls reads 0. The `wall.*` figures are the untraced
//! first third of the run: wall-clock latency and throughput of the
//! headline operation, unbounded because the host's CPU steal moves them.

use crate::report::{Metric, Outcome, Sample};
use crate::stats::{percentile, sorted};
use crate::trace::{
    covered_ms, Span, STORAGE_FINALIZE, STORAGE_FLUSH, STORAGE_READ, STORAGE_WRITE,
};
use amric::prelude::WriteReport;

/// Sums and counts behind the per-layer metrics.
#[derive(Default, Debug)]
pub struct Layers {
    // Write side, summed over traced snapshot writes.
    writes: u64,
    write_wall_ms: f64,
    pub(crate) plan_ms: f64,
    pub(crate) extract_ms: f64,
    pub(crate) kept_cells: u64,
    pub(crate) level_cells: u64,
    pub(crate) encode_ms: f64,
    pub(crate) encode_bytes: u64,
    prep_ms: f64,
    compute_ms: f64,
    skew_ms: f64,
    unattributed_ms: f64,
    storage_write_ms: f64,
    storage_write_calls: u64,
    storage_write_bytes: u64,
    storage_finalize_ms: f64,
    container_bytes: u64,
    payload_bytes: u64,
    pub(crate) delta_chunks: u64,
    pub(crate) chunks: u64,
    // Read side, summed over traced read operations.
    reads: u64,
    storage_read_ms: f64,
    storage_read_calls: u64,
    storage_read_bytes: u64,
    pub(crate) decode_ms: f64,
    pub(crate) decode_bytes: f64,
    // Query engine and server, over the traced queries.
    pub(crate) queries: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) chunks_decoded: u64,
    pub(crate) decoded_bytes: u64,
    pub(crate) returned_bytes: u64,
    pub(crate) engine_ms: Vec<f64>,
    pub(crate) overhead_ms: Vec<f64>,
    pub(crate) scans: u64,
    pub(crate) scan_slabs: u64,
    pub(crate) response_bytes: u64,
    pub(crate) error_frames: u64,
    // Headline-operation latency with tracing off (the run's first
    // third) and on, and the untraced phase's throughput.
    untraced_op_ms: Vec<f64>,
    traced_op_ms: Vec<f64>,
    untraced_ops_per_s: f64,
}

fn ms_of<'a>(spans: impl IntoIterator<Item = &'a Span>) -> f64 {
    spans.into_iter().map(Span::ms).sum()
}

impl Layers {
    /// Fold one traced snapshot write: `span` is the timed write call,
    /// `kids` the storage calls it made.
    pub fn add_write(&mut self, span: &Span, kids: &[Span], report: &WriteReport, container: u64) {
        let wall = span.ms();
        let rank_ms = |r: usize| {
            (
                report.prep_seconds[r] * 1e3,
                report.ledgers[r].measured_compute_s * 1e3,
            )
        };
        let slowest = (0..report.nranks)
            .max_by(|&a, &b| {
                let (pa, ca) = rank_ms(a);
                let (pb, cb) = rank_ms(b);
                (pa + ca).total_cmp(&(pb + cb))
            })
            .unwrap_or(0);
        let (prep, compute) = rank_ms(slowest);
        let computes: Vec<f64> = (0..report.nranks).map(|r| rank_ms(r).1).collect();
        let skew = computes.iter().cloned().fold(f64::MIN, f64::max)
            - computes.iter().cloned().fold(f64::MAX, f64::min);
        let writes: Vec<&Span> = kids.iter().filter(|s| s.name == STORAGE_WRITE).collect();
        let write_ms = covered_ms(writes.iter().copied());
        let finalize_ms = ms_of(
            kids.iter()
                .filter(|s| s.name == STORAGE_FINALIZE || s.name == STORAGE_FLUSH),
        );
        self.writes += 1;
        self.write_wall_ms += wall;
        self.prep_ms += prep;
        self.compute_ms += compute;
        self.skew_ms += skew.max(0.0);
        self.storage_write_ms += write_ms;
        self.storage_write_calls += writes.len() as u64;
        self.storage_write_bytes += writes.iter().map(|s| s.bytes).sum::<u64>();
        self.storage_finalize_ms += finalize_ms;
        self.unattributed_ms += wall - prep - compute - write_ms - finalize_ms;
        self.container_bytes += container;
        self.payload_bytes += report.stored_bytes;
    }

    /// Split the run's samples at `trace_from_s` into the untraced and the
    /// traced phase.
    pub fn add_phases(&mut self, out: &Outcome, trace_from_s: f64) {
        let (untraced, traced): (Vec<&Sample>, Vec<&Sample>) =
            out.samples.iter().partition(|s| s.at_s < trace_from_s);
        let headline = |v: &[&Sample]| {
            v.iter()
                .filter(|s| s.op == out.headline)
                .map(|s| s.ms)
                .collect()
        };
        self.untraced_op_ms = headline(&untraced);
        self.traced_op_ms = headline(&traced);
        self.untraced_ops_per_s = untraced.len() as f64 / trace_from_s.max(1e-9);
    }

    /// Fold one traced read operation's storage calls.
    pub fn add_read(&mut self, kids: &[Span]) {
        let reads: Vec<&Span> = kids.iter().filter(|s| s.name == STORAGE_READ).collect();
        self.reads += 1;
        self.storage_read_ms += ms_of(reads.iter().copied());
        self.storage_read_calls += reads.len() as u64;
        self.storage_read_bytes += reads.iter().map(|s| s.bytes).sum::<u64>();
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mb_per_s = |bytes: f64, ms: f64| {
            if ms > 0.0 {
                bytes / 1e6 / (ms / 1e3)
            } else {
                0.0
            }
        };
        let (w, r, q) = (self.writes, self.reads, self.queries);
        let p = |v: &[f64], q: f64| percentile(&sorted(v.to_vec()), q);
        let overhead = if self.untraced_op_ms.is_empty() || self.traced_op_ms.is_empty() {
            0.0
        } else {
            p(&self.traced_op_ms, 0.5) - p(&self.untraced_op_ms, 0.5)
        };
        vec![
            Metric::new("amric.preprocess.plan_ms", per(self.plan_ms, w), "ms"),
            Metric::new("amric.preprocess.extract_ms", per(self.extract_ms, w), "ms"),
            Metric::new(
                "amric.preprocess.kept_cell_share",
                share(self.kept_cells, self.level_cells),
                "ratio",
            ),
            Metric::new("amric.pipeline.encode_ms", per(self.encode_ms, w), "ms"),
            Metric::new(
                "amric.pipeline.encode_mb_per_s",
                mb_per_s(self.encode_bytes as f64, self.encode_ms),
                "MB/s",
            ),
            Metric::new("amric.writer.wall_ms", per(self.write_wall_ms, w), "ms"),
            Metric::new("amric.writer.prep_ms", per(self.prep_ms, w), "ms"),
            Metric::new(
                "amric.writer.rank_compute_ms",
                per(self.compute_ms, w),
                "ms",
            ),
            Metric::new("rankpar.rank_skew_ms", per(self.skew_ms, w), "ms"),
            Metric::new(
                "amric.writer.unattributed_ms",
                per(self.unattributed_ms, w),
                "ms",
            ),
            Metric::new(
                "h5lite.storage.write_ms",
                per(self.storage_write_ms, w),
                "ms",
            ),
            Metric::new(
                "h5lite.storage.write_calls",
                per(self.storage_write_calls as f64, w),
                "count",
            ),
            Metric::new(
                "h5lite.storage.write_bytes",
                per(self.storage_write_bytes as f64, w),
                "B",
            ),
            Metric::new(
                "h5lite.storage.finalize_ms",
                per(self.storage_finalize_ms, w),
                "ms",
            ),
            Metric::new(
                "h5lite.container_overhead_share",
                if self.container_bytes == 0 {
                    0.0
                } else {
                    self.container_bytes.saturating_sub(self.payload_bytes) as f64
                        / self.container_bytes as f64
                },
                "ratio",
            ),
            Metric::new(
                "amric.temporal.delta_chunk_share",
                share(self.delta_chunks, self.chunks),
                "ratio",
            ),
            Metric::new("h5lite.storage.read_ms", per(self.storage_read_ms, r), "ms"),
            Metric::new(
                "h5lite.storage.read_calls",
                per(self.storage_read_calls as f64, r),
                "count",
            ),
            Metric::new(
                "h5lite.storage.read_bytes",
                per(self.storage_read_bytes as f64, r),
                "B",
            ),
            Metric::new("amric.pipeline.decode_ms", per(self.decode_ms, r), "ms"),
            Metric::new(
                "amric.pipeline.decode_mb_per_s",
                mb_per_s(self.decode_bytes, self.decode_ms),
                "MB/s",
            ),
            Metric::new(
                "amr_query.cache.hit_rate",
                share(self.cache_hits, self.cache_hits + self.cache_misses),
                "ratio",
            ),
            Metric::new(
                "amr_query.cache.evictions",
                per(self.cache_evictions as f64, q),
                "count",
            ),
            Metric::new(
                "amr_query.chunks_decoded_per_query",
                per(self.chunks_decoded as f64, q),
                "count",
            ),
            Metric::new(
                "amr_query.decoded_per_returned_byte",
                share(self.decoded_bytes, self.returned_bytes),
                "ratio",
            ),
            Metric::new("amr_query.engine_ms_p50", p(&self.engine_ms, 0.5), "ms"),
            Metric::new("amr_serve.overhead_ms_p50", p(&self.overhead_ms, 0.5), "ms"),
            Metric::new(
                "amr_serve.overhead_ms_p99",
                p(&self.overhead_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "amr_serve.slabs_per_scan",
                share(self.scan_slabs, self.scans),
                "count",
            ),
            Metric::new(
                "amr_serve.response_bytes_per_query",
                share(self.response_bytes, self.queries),
                "B",
            ),
            Metric::new("amr_serve.error_frames", self.error_frames as f64, "count"),
            Metric::new("trace.overhead_ms_p50", overhead, "ms"),
            Metric::new("wall.op_ms_p50", p(&self.untraced_op_ms, 0.5), "ms"),
            Metric::new("wall.op_ms_p90", p(&self.untraced_op_ms, 0.9), "ms"),
            Metric::new("wall.ops_per_s", self.untraced_ops_per_s, "1/s"),
        ]
    }
}
