//! What a run reports: the end-to-end metrics (tracing off) or the
//! per-layer metrics (tracing on), printed as the JSON last line.

use crate::layers::Layers;
use crate::stats::{median, percentile, sorted};

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything a workload measured in one run.
#[derive(Default, Debug)]
pub struct Outcome {
    /// CPU time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Every operation of the measured phase, in completion order.
    pub samples: Vec<Sample>,
    /// The workload's headline operation: a snapshot write, an ROI
    /// (`analysis_spill`) or a point sample (`serve_hot`).
    pub headline: Op,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    /// CPU time (every thread) the program spent on the measured
    /// operations, the benchmark's own checks excluded.
    pub op_cpu_s: f64,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// Raw bytes ÷ container bytes over the distinct containers checked.
    pub compression_ratio: f64,
    /// Lowest PSNR over every (level, field) checked.
    pub psnr_db_min: f64,
    /// Resident high-water mark of the measured phase.
    pub peak_rss_mib: f64,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
    /// Per-layer accounting (traced runs only).
    pub layers: Option<Layers>,
}

/// Kind of a timed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Op {
    /// One snapshot write.
    #[default]
    Write,
    /// One point sample.
    Point,
    /// One region of interest.
    Roi,
}

/// One timed operation of the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, seconds since the measured phase began.
    pub at_s: f64,
    /// Latency as the caller saw it.
    pub ms: f64,
    /// What was timed.
    pub op: Op,
}

impl Outcome {
    /// Latencies of the operations of one kind.
    pub fn latencies_ms(&self, op: Op) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.ms)
            .collect()
    }

    /// Record one checked operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Times are CPU
    /// times: this host's other guests steal CPU in bursts that move wall
    /// times by up to 2.7× for minutes at a time, and Linux leaves stolen
    /// time out of a process's CPU time. Wall-clock latency is printed in
    /// the notes and reported by the traced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new(
                "cpu_ms_per_op",
                self.op_cpu_s * 1e3 / self.samples.len().max(1) as f64,
                "ms",
            ),
            Metric::new("compression_ratio", self.compression_ratio, "ratio"),
            Metric::new("psnr_db_min", self.psnr_db_min, "dB"),
            Metric::new("peak_rss_mb", self.peak_rss_mib, "MiB"),
        ]
    }

    /// Whole-phase wall-clock p50 and p90 (ms) of the headline operation.
    pub fn wall(&self) -> (f64, f64) {
        let op = sorted(self.latencies_ms(self.headline));
        (percentile(&op, 0.5), percentile(&op, 0.9))
    }

    /// The metrics this run prints: per-layer when traced, else
    /// end-to-end.
    pub fn metrics(&self) -> Vec<Metric> {
        match &self.layers {
            Some(l) => l.metrics(),
            None => self.end_to_end(),
        }
    }
}

/// The JSON last line of a run.
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Metrics printed.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Report of an outcome.
    pub fn of(o: &Outcome) -> Report {
        Report {
            attempted: o.attempted.max(1),
            failed: o.failed,
            metrics: o.metrics(),
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// One-line JSON object; values keep every digit (`{}` of an `f64`
    /// round-trips), non-finite values print as 0.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = Report {
            attempted: 4,
            failed: 1,
            metrics: vec![
                Metric::new("a", 1.25, "ms"),
                Metric::new("b", f64::NAN, "s"),
            ],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert_eq!(r.failed_share(), 0.25);
    }
}
