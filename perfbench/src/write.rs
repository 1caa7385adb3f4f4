//! The write workloads: `nyx_insitu` (spatial AMRIC, `write_amric_to`)
//! and `warpx_temporal` (`TemporalSession`, keyframe every
//! [`WARPX_STEPS`] snapshots). Each cycles through timesteps built in
//! set-up, one container per snapshot on `FileStorage`.

use crate::inputs::{self, App, BF, REL_EB, WARPX_STEPS};
use crate::layers::Layers;
use crate::report::{Op, Outcome, Sample};
use crate::stats;
use crate::trace::{Closed, TimingStorage, Tracer};
use crate::verify::{self, Decoded};
use crate::{set_up, Options, WorkDir};
use amr_mesh::prelude::*;
use amric::prelude::*;
use amric::writer::field_dataset;
use h5lite::{FileStorage, H5Reader, H5Writer, Storage};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sz_codec::prelude::*;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The in-situ configuration: AMRIC SZ_L/R with serial per-rank encode.
pub fn amric_config() -> AmricConfig {
    AmricConfig::lr(REL_EB).with_workers(1)
}

/// How snapshots are encoded.
pub enum Encoder {
    /// Spatial AMRIC (`write_amric_to`).
    Spatial(AmricConfig),
    /// Temporal series (`TemporalSession::write_to`).
    Temporal(Box<TemporalSession>),
}

impl Encoder {
    /// Encoder of a workload.
    pub fn new(temporal: bool) -> Encoder {
        if temporal {
            Encoder::Temporal(Box::new(
                TemporalSession::new(TemporalSessionConfig::new(REL_EB), BF)
                    .with_keyframe_interval(WARPX_STEPS as u64),
            ))
        } else {
            Encoder::Spatial(amric_config())
        }
    }
}

/// A storage backend for `path`, timed when `tracer` is given.
fn storage(
    file: h5lite::H5Result<FileStorage>,
    tracer: Option<&Arc<Tracer>>,
) -> h5lite::H5Result<Box<dyn Storage>> {
    let inner: Box<dyn Storage> = Box::new(file?);
    Ok(match tracer {
        Some(t) => Box::new(TimingStorage::new(inner, Arc::clone(t))),
        None => inner,
    })
}

/// Open a finished container for reading, through the timing wrapper
/// when tracing.
pub fn open_reader(path: &Path, tracer: Option<&Arc<Tracer>>) -> Result<H5Reader, String> {
    storage(FileStorage::open(path), tracer)
        .and_then(H5Reader::from_storage)
        .map_err(|e| format!("open {}: {e}", path.display()))
}

/// One timed snapshot write: from creating the container to finishing
/// it. Returns the wall time (ms), the result, and — when traced — the
/// enclosing span with its storage children.
pub fn timed_write(
    enc: &mut Encoder,
    path: &Path,
    h: &AmrHierarchy,
    tracer: Option<&Arc<Tracer>>,
    request: u64,
) -> (f64, Result<WriteReport, String>, Closed) {
    let open = tracer.map(|t| t.open("amric.write", request));
    let t0 = Instant::now();
    let res = storage(FileStorage::create(path), tracer)
        .and_then(H5Writer::with_storage)
        .and_then(|w| {
            let w = Arc::new(w);
            match enc {
                Encoder::Spatial(cfg) => write_amric_to(w, h, cfg, BF),
                Encoder::Temporal(s) => s.write_to(w, h),
            }
        });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let spans = tracer.zip(open).map(|(t, o)| t.close(o));
    (
        ms,
        res.map_err(|e| format!("write {}: {e}", path.display())),
        spans,
    )
}

/// Replay the preprocess and encode layers on the snapshot just written
/// and check they reproduce it: the unit plans must equal the ones the
/// reader reconstructs, and (spatial writes) each re-encoded chunk must
/// equal the stored chunk byte for byte. Returns false on a mismatch.
pub fn replay_write(h: &AmrHierarchy, stored: &H5Reader, spatial: bool, acc: &mut Layers) -> bool {
    let Ok(meta) = read_plotfile_meta(stored) else {
        return false;
    };
    let cfg = amric_config();
    let nl = h.num_levels();
    let nranks = h.level(0).data.distribution().nranks();
    let stored_plans = meta.unit_plans();
    let mut ok = stored_plans.len() == nl;
    let (mut scratch, mut out) = (AmricScratch::default(), Vec::new());
    for (l, stored_plan) in stored_plans.iter().enumerate().take(nl) {
        let level = &h.level(l).data;
        let finer = (l + 1 < nl).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
        let unit = unit_edge_for_level(BF, l, nl);
        let t = Instant::now();
        let plans: Vec<Vec<UnitRef>> = (0..nranks)
            .map(|r| plan_units(level, finer, unit, r, cfg.remove_redundancy))
            .collect();
        acc.plan_ms += t.elapsed().as_secs_f64() * 1e3;
        ok &= &plans == stored_plan;
        acc.kept_cells += plans
            .iter()
            .flatten()
            .map(|u| u.region.num_cells())
            .sum::<u64>();
        acc.level_cells += level.num_cells();
        for f in 0..h.field_names().len() {
            let t = Instant::now();
            let units: Vec<Vec<Buffer3>> =
                plans.iter().map(|p| extract_units(level, p, f)).collect();
            acc.extract_ms += t.elapsed().as_secs_f64() * 1e3;
            let (lo, hi) = units
                .iter()
                .flatten()
                .flat_map(|b| b.data())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let eb = absolute_bound(REL_EB, if hi > lo { hi - lo } else { 0.0 });
            let name = field_dataset(l, f);
            if let Ok(idx) = stored.chunk_index_or_scan(&name) {
                acc.chunks += idx.entries.len() as u64;
                acc.delta_chunks +=
                    idx.entries.iter().filter(|e| e.reference.is_some()).count() as u64;
            }
            for (r, u) in units.iter().enumerate() {
                out.clear();
                let t = Instant::now();
                compress_field_units_with_bound_into(
                    u,
                    &cfg,
                    unit as usize,
                    eb,
                    &mut scratch,
                    &mut out,
                );
                acc.encode_ms += t.elapsed().as_secs_f64() * 1e3;
                acc.encode_bytes += u.iter().map(|b| b.data().len() as u64 * 8).sum::<u64>();
                if spatial && lo <= hi {
                    ok &= stored.read_chunk_raw(&name, r).is_ok_and(|raw| raw == out);
                }
            }
        }
    }
    ok
}

/// Per-run state of the correctness gate.
struct Gate {
    /// Fingerprint of each timestep's first container.
    digests: Vec<Option<u64>>,
    /// Decoded state of the previous snapshot of the temporal chain.
    chain: Option<TemporalReadState>,
    raw_bytes: u64,
    container_bytes: u64,
    psnr_db_min: f64,
    fault: bool,
}

impl Gate {
    /// Check a snapshot written for `step`. Spatial: the first container
    /// of each timestep is decoded and checked against the bound, and a
    /// repeat must store the same payload bytes (`decode` decodes repeats
    /// too, for traced runs). Temporal: every snapshot is decoded through
    /// the reference chain; a repeat that decodes to other values than
    /// the first write is checked against the bound itself. Repeats may
    /// differ because each delta stream records the id of the snapshot it
    /// references, which can tip the writer's delta-or-spatial size
    /// choice. Ratio and PSNR come from the first write of each timestep,
    /// so they repeat exactly from run to run.
    fn check(
        &mut self,
        r: &H5Reader,
        h: &AmrHierarchy,
        step: usize,
        temporal: bool,
        decode: bool,
        container: u64,
    ) -> Result<Option<Decoded>, String> {
        let first = self.digests[step].is_none();
        if !first && !temporal && !decode {
            return match verify::digest(r)? == self.digests[step].unwrap_or_default() {
                true => Ok(None),
                false => Err(format!("timestep {step}: repeat stored different bytes")),
            };
        }
        let dec = if temporal {
            let prev = if step == 0 { None } else { self.chain.as_ref() };
            let (dec, state) = verify::decode_temporal(r, prev)?;
            self.chain = Some(state);
            dec
        } else {
            verify::decode_spatial(r)?
        };
        if !first && self.digests[step] == Some(dec.digest) {
            return Ok(Some(dec)); // identical to the checked first write
        }
        if !first && !temporal {
            return Err(format!("timestep {step}: repeat stored different bytes"));
        }
        let bc = verify::check_bound(h, &dec, REL_EB, std::mem::take(&mut self.fault))?;
        if first {
            self.digests[step] = Some(dec.digest);
            self.raw_bytes += h.snapshot_bytes();
            self.container_bytes += container;
            self.psnr_db_min = self.psnr_db_min.min(bc.psnr_db_min);
        }
        if bc.violations > 0 {
            return Err(format!(
                "timestep {step}: {} cells outside eb·range",
                bc.violations
            ));
        }
        Ok(Some(dec))
    }
}

/// Run `nyx_insitu` (`temporal = false`) or `warpx_temporal`.
pub fn run(opts: &Options, temporal: bool) -> Result<Outcome, String> {
    let work = WorkDir::new(&opts.out_dir)?;
    let tracer = opts.trace.then(|| Arc::new(Tracer::default()));
    let mut out = Outcome::default();
    let setup = || {
        let steps = if temporal {
            inputs::warpx_steps(opts.seed, opts.size)
        } else {
            inputs::nyx_steps(opts.seed, opts.size)
        };
        // Warm-up write: page cache, allocator and codec tables.
        let warm = work.file("warmup.h5l");
        timed_write(&mut Encoder::new(temporal), &warm, &steps[0], None, 0).1?;
        Ok(steps)
    };
    let steps = set_up(&mut out.setup_s, setup)?;

    let n = steps.len();
    let mut gate = Gate {
        digests: vec![None; n],
        chain: None,
        raw_bytes: 0,
        container_bytes: 0,
        psnr_db_min: verify::PSNR_CAP_DB,
        fault: opts.inject_fault,
    };
    let mut enc = Encoder::new(temporal);
    let mut layers = Layers::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    // A traced run measures its first third untraced, for the overhead.
    let trace_from = budget / 3;
    stats::reset_peak_rss();
    let start = Instant::now();
    let mut i = 0usize;
    while i < n || start.elapsed() < budget {
        let step = i % n;
        let h = &steps[step];
        let path = work.file(&format!("snapshot_{step}.h5l"));
        let traced = tracer.as_ref().filter(|_| start.elapsed() >= trace_from);
        let (cpu_ms, (ms, res, spans)) =
            stats::cpu_ms(|| timed_write(&mut enc, &path, h, traced, i as u64));
        out.op_cpu_s += cpu_ms / 1e3;
        out.samples.push(Sample {
            at_s: start.elapsed().as_secs_f64(),
            ms,
            op: Op::Write,
        });
        let checked = res.and_then(|report| {
            let container = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let open = traced.map(|t| t.open("amric.readback", i as u64));
            let r = open_reader(&path, traced);
            let dec =
                r.and_then(|r| gate.check(&r, h, step, temporal, tracer.is_some(), container));
            let read = traced.zip(open).map(|(t, o)| t.close(o));
            let dec = dec?;
            if let (Some((span, kids)), Some((_, read_kids))) = (&spans, &read) {
                layers.add_write(span, kids, &report, container);
                layers.add_read(read_kids);
                if let Some(d) = &dec {
                    layers.decode_ms += d.decode_ms;
                    layers.decode_bytes += d.decoded_bytes as f64;
                }
                if !replay_write(h, &open_reader(&path, None)?, !temporal, &mut layers) {
                    return Err(format!("timestep {step}: replay differs from the write"));
                }
            }
            Ok(())
        });
        if let Err(e) = &checked {
            if out.failed < 3 {
                out.notes.push(format!("failure: {e}"));
            }
        }
        out.count(checked.is_ok());
        i += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_rss_mib = stats::peak_rss_mib();
    for _ in 1..SETUP_REPS {
        set_up(&mut out.setup_s, setup)?;
    }
    out.compression_ratio = gate.raw_bytes as f64 / gate.container_bytes.max(1) as f64;
    out.psnr_db_min = gate.psnr_db_min;

    let raw_mb = gate.raw_bytes as f64 / n as f64 / 1e6;
    let (p50, p90) = out.wall();
    let app = if temporal { App::WarpX } else { App::Nyx };
    let cfg = inputs::run_config(app, opts.size, inputs::WRITE_RANKS);
    out.notes.push(format!(
        "{}: {} writes of {} distinct snapshots ({:.2} MB raw each, coarse {:?}, {} levels, {} ranks, serial encode), \
         write_ms_p50 {:.3} ms, write_ms_p90 {:.3} ms (n={}), compression_ratio {:.3}, psnr_db_min {:.3} dB",
        opts.workload.name(),
        i,
        n,
        raw_mb,
        cfg.coarse_dims,
        cfg.num_levels,
        cfg.nranks,
        p50,
        p90,
        out.samples.len(),
        out.compression_ratio,
        out.psnr_db_min,
    ));
    if let Some(t) = &tracer {
        out.notes.push(format!("trace: {} spans recorded", t.len()));
        write_trace(opts, t);
        layers.add_phases(&out, trace_from.as_secs_f64());
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Write a traced run's spans as JSON lines under the output directory.
pub fn write_trace(opts: &Options, tracer: &Tracer) {
    let dir = opts.out_dir.join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| tracer.write_jsonl(&path)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
