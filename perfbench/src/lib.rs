//! Repository benchmark for the AMRIC reproduction.
//!
//! Four workloads drive the workspace's public APIs: an in-situ Nyx
//! snapshot write (`nyx_insitu`), a temporal WarpX series
//! (`warpx_temporal`), a cache-spilling analysis reader
//! (`analysis_spill`) and a cache-hot query server (`serve_hot`). Every
//! output is checked; a traced run adds a per-layer breakdown measured
//! from outside the program (see `WORKLOADS.md`).

pub mod inputs;
pub mod layers;
pub mod read;
pub mod report;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod write;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub use inputs::Size;
pub use report::{Outcome, Report};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Nyx-like hierarchy written snapshot after snapshot with
    /// `write_amric_to` onto `FileStorage`.
    NyxInsitu,
    /// Smooth WarpX-like series written through `TemporalSession`.
    WarpxTemporal,
    /// Point/ROI mix through `QueryEngine` with a spilling chunk cache.
    AnalysisSpill,
    /// Point/ROI mix against an in-process `amr-serve` server, cache hot.
    ServeHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::NyxInsitu,
        Workload::WarpxTemporal,
        Workload::AnalysisSpill,
        Workload::ServeHot,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NyxInsitu => "nyx_insitu",
            Workload::WarpxTemporal => "warpx_temporal",
            Workload::AnalysisSpill => "analysis_spill",
            Workload::ServeHot => "serve_hot",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input and request stream derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Corrupt one checked value (a reconstructed cell or a query answer)
    /// to prove the correctness gate counts it.
    pub inject_fault: bool,
    /// Directory for containers and traces (created if missing).
    pub out_dir: PathBuf,
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::NyxInsitu => write::run(opts, false),
        Workload::WarpxTemporal => write::run(opts, true),
        Workload::AnalysisSpill => read::run_analysis(opts),
        Workload::ServeHot => read::run_serve(opts),
    }
}

/// Run one set-up repetition and record its CPU time in `setup_s`.
///
/// A run sets up once, measures, then repeats the set-up for the median:
/// the heap the extra repetitions leave behind (25–45 MiB that
/// `malloc_trim` cannot return) would otherwise count into the measured
/// phase's peak RSS.
pub fn set_up<T>(
    setup_s: &mut Vec<f64>,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let cpu0 = stats::cpu_seconds(stats::CpuScope::Process);
    let out = f()?;
    setup_s.push(stats::cpu_seconds(stats::CpuScope::Process) - cpu0);
    Ok(out)
}

/// A per-run scratch directory under the output directory, removed with
/// everything in it when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create a fresh directory unique to this process and call.
    pub fn new(out_dir: &Path) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("work-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// Path of a file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
