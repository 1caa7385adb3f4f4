//! The read workloads over two Nyx plotfiles written in set-up:
//! `analysis_spill` (one thread, `QueryEngine` over a shared chunk cache
//! smaller than the decoded working set) and `serve_hot` (an in-process
//! `amr-serve` server on loopback TCP, two client connections, cache
//! holding the whole working set). Every answer is compared with a full
//! reference decode made in set-up.

use crate::inputs::{self, Size, PLOTFILE_RANKS, REL_EB};
use crate::layers::Layers;
use crate::report::{Op, Outcome, Sample};
use crate::stats::{self, CpuScope, Rng};
use crate::trace::Tracer;
use crate::verify::{self, Decoded};
use crate::write::{
    self, amric_config, open_reader, replay_write, timed_write, Encoder, SETUP_REPS,
};
use crate::{set_up, Options, WorkDir};
use amr_mesh::prelude::*;
use amr_query::{ChunkStore, LevelSelect, QueryEngine};
use amr_serve::{AdmissionConfig, Client, ServeConfig, Server, WireSelect};
use amric::codec::decompress_auto;
use amric::writer::field_dataset;
use h5lite::H5Reader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sz_codec::prelude::*;

/// Share of ROIs in the `analysis_spill` mix (the rest are points).
pub const ANALYSIS_ROI_PCT: u64 = 20;
/// Share of ROIs in the `serve_hot` mix.
pub const SERVE_ROI_PCT: u64 = 10;
/// Chunk-cache budget of `analysis_spill`, shared by both plotfiles;
/// below their decoded working set (19.4 MiB at full size), so the cache
/// spills.
pub fn spill_cache_bytes(size: Size) -> u64 {
    match size {
        Size::Full => 8 << 20,
        Size::Tiny => 128 << 10,
    }
}
/// Client connections of `serve_hot`.
pub const SERVE_CLIENTS: usize = 2;
/// Queries issued before `analysis_spill` measures, so the cache holds
/// its steady-state mix.
pub const WARMUP_QUERIES: usize = 400;

/// Server configuration of `serve_hot`: a shared cache that holds both
/// plotfiles, and a scan threshold every ROI exceeds, so ROIs are sliced
/// into slabs through the fair gate.
pub fn serve_config(size: Size) -> ServeConfig {
    let (scan_threshold_bytes, scan_slab_bytes) = match size {
        Size::Full => (32 << 10, 128 << 10),
        Size::Tiny => (1 << 10, 4 << 10),
    };
    ServeConfig {
        cache_bytes: 128 << 20,
        max_open_files: 16,
        workers: 1,
        admission: AdmissionConfig {
            max_request_bytes: 1 << 30,
            scan_threshold_bytes,
            scan_slots: 1,
            scan_slab_bytes,
        },
    }
}

/// One request of the read mixes. Points are in finest-level cells, ROI
/// corners in level-0 cells (inclusive); ROIs cover every level.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// Finest-available sample at a cell.
    Point {
        /// Plotfile index.
        file: usize,
        /// Field index.
        field: usize,
        /// Cell in finest-level index space.
        p: [i64; 3],
    },
    /// Multi-level region of interest.
    Roi {
        /// Plotfile index.
        file: usize,
        /// Field index.
        field: usize,
        /// Low corner (level 0).
        lo: [i64; 3],
        /// High corner (level 0, inclusive).
        hi: [i64; 3],
    },
}

impl Query {
    fn file(&self) -> usize {
        match *self {
            Query::Point { file, .. } | Query::Roi { file, .. } => file,
        }
    }

    fn field(&self) -> usize {
        match *self {
            Query::Point { field, .. } | Query::Roi { field, .. } => field,
        }
    }

    fn op(&self) -> Op {
        match self {
            Query::Point { .. } => Op::Point,
            Query::Roi { .. } => Op::Roi,
        }
    }
}

/// One level of an ROI answer.
#[derive(Clone, Debug)]
pub struct LevelData {
    level: usize,
    lo: [i64; 3],
    hi: [i64; 3],
    data: Vec<f64>,
}

/// An answer, in one form for the engine and the wire.
#[derive(Clone, Debug)]
pub enum Answer {
    /// `(level, cell, value)` of a point sample.
    Point(Option<(usize, [i64; 3], f64)>),
    /// Per-level regions of an ROI.
    Roi(Vec<LevelData>),
}

fn corners(b: &IntBox) -> ([i64; 3], [i64; 3]) {
    let v = |p: &IntVect| [p.get(0), p.get(1), p.get(2)];
    (v(&b.lo), v(&b.hi))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Answer {
    /// Bit-exact equality.
    pub fn same(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Point(a), Answer::Point(b)) => match (a, b) {
                (None, None) => true,
                (Some((la, ca, va)), Some((lb, cb, vb))) => {
                    la == lb && ca == cb && va.to_bits() == vb.to_bits()
                }
                _ => false,
            },
            (Answer::Roi(a), Answer::Roi(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        x.level == y.level
                            && x.lo == y.lo
                            && x.hi == y.hi
                            && same_bits(&x.data, &y.data)
                    })
            }
            _ => false,
        }
    }

    /// Value bytes the answer carries.
    pub fn bytes(&self) -> u64 {
        match self {
            Answer::Point(p) => 8 * p.is_some() as u64,
            Answer::Roi(levels) => levels.iter().map(|l| 8 * l.data.len() as u64).sum(),
        }
    }

    /// Corrupt one value (the negative test).
    pub fn perturb(&mut self) {
        match self {
            Answer::Point(Some((_, _, v))) => *v += 1.0,
            Answer::Point(None) => *self = Answer::Point(Some((0, [0; 3], 0.0))),
            Answer::Roi(levels) => match levels.iter_mut().find(|l| !l.data.is_empty()) {
                Some(l) => l.data[0] += 1.0,
                None => levels.clear(),
            },
        }
    }
}

/// The full reference decode of one plotfile, and the expected answer to
/// any query derived from it.
pub struct Reference {
    dec: Decoded,
}

impl Reference {
    /// Wrap a full decode.
    pub fn new(dec: Decoded) -> Reference {
        Reference { dec }
    }

    fn meta(&self) -> &amric::reader::PlotfileMeta {
        &self.dec.meta
    }

    /// Level-0 domain.
    pub fn domain(&self) -> IntBox {
        self.meta().levels[0].domain
    }

    /// Finest-level domain.
    pub fn finest_domain(&self) -> IntBox {
        self.meta().levels[self.meta().num_levels() - 1].domain
    }

    /// Decoded bytes of every chunk (the working set of a full read).
    pub fn decoded_bytes(&self) -> u64 {
        self.dec.decoded_bytes
    }

    /// `(level, rank, unit)` holding a finest-level cell, finest level
    /// first — the query engine's point semantics.
    fn locate(&self, p: [i64; 3]) -> Option<(usize, usize, usize, IntVect)> {
        let meta = self.meta();
        let n = meta.num_levels();
        let finest = meta.refine_factor(n - 1);
        let p = IntVect::new(p[0], p[1], p[2]);
        (0..n).rev().find_map(|l| {
            let cell = p.coarsened(finest / meta.refine_factor(l));
            if !meta.levels[l].domain.contains(&cell) {
                return None;
            }
            self.dec.plans[l]
                .iter()
                .enumerate()
                .find_map(|(rank, plan)| {
                    plan.iter()
                        .position(|u| u.region.contains(&cell))
                        .map(|ui| (l, rank, ui, cell))
                })
        })
    }

    /// Per-level regions an ROI resolves to.
    fn regions(&self, lo: [i64; 3], hi: [i64; 3]) -> Vec<(usize, IntBox)> {
        let meta = self.meta();
        let roi = IntBox::new(
            IntVect::new(lo[0], lo[1], lo[2]),
            IntVect::new(hi[0], hi[1], hi[2]),
        );
        (0..meta.num_levels())
            .filter_map(|l| {
                roi.refined(meta.refine_factor(l))
                    .intersection(&meta.levels[l].domain)
                    .map(|r| (l, r))
            })
            .collect()
    }

    /// The expected answer.
    pub fn expect(&self, q: &Query) -> Answer {
        match *q {
            Query::Point { field, p, .. } => {
                Answer::Point(self.locate(p).map(|(l, rank, ui, cell)| {
                    let u = &self.dec.plans[l][rank][ui].region;
                    let buf = &self.dec.units[l][field][rank][ui];
                    let d = |a: usize| (cell.get(a) - u.lo.get(a)) as usize;
                    (
                        l,
                        [cell.get(0), cell.get(1), cell.get(2)],
                        buf.get(d(0), d(1), d(2)),
                    )
                }))
            }
            Query::Roi { field, lo, hi, .. } => Answer::Roi(
                self.regions(lo, hi)
                    .into_iter()
                    .map(|(l, region)| {
                        let sz = region.size();
                        let dims =
                            Dims3::new(sz.get(0) as usize, sz.get(1) as usize, sz.get(2) as usize);
                        let mut out = Buffer3::zeros(dims);
                        for (rank, plan) in self.dec.plans[l].iter().enumerate() {
                            for (u, buf) in plan.iter().zip(&self.dec.units[l][field][rank]) {
                                let Some(ov) = u.region.intersection(&region) else {
                                    continue;
                                };
                                for p in ov.iter_points() {
                                    let s = |a: usize| (p.get(a) - u.region.lo.get(a)) as usize;
                                    let t = |a: usize| (p.get(a) - region.lo.get(a)) as usize;
                                    out.set(t(0), t(1), t(2), buf.get(s(0), s(1), s(2)));
                                }
                            }
                        }
                        let (lo, hi) = corners(&region);
                        LevelData {
                            level: l,
                            lo,
                            hi,
                            data: out.into_vec(),
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// `(level, rank)` chunks a query reads.
    pub fn touched(&self, q: &Query) -> Vec<(usize, usize)> {
        match *q {
            Query::Point { p, .. } => self
                .locate(p)
                .map(|(l, r, _, _)| (l, r))
                .into_iter()
                .collect(),
            Query::Roi { lo, hi, .. } => self
                .regions(lo, hi)
                .into_iter()
                .flat_map(|(l, region)| {
                    self.dec.plans[l]
                        .iter()
                        .enumerate()
                        .filter(move |(_, plan)| plan.iter().any(|u| u.region.intersects(&region)))
                        .map(move |(r, _)| (l, r))
                })
                .collect(),
        }
    }

    /// Whether `units` equal the reference decode of chunk `(l, f, r)`.
    pub fn chunk_matches(&self, l: usize, f: usize, r: usize, units: &[Buffer3]) -> bool {
        let want = &self.dec.units[l][f][r];
        want.len() == units.len()
            && want
                .iter()
                .zip(units)
                .all(|(a, b)| same_bits(a.data(), b.data()))
    }
}

/// Draw the next request of a mix with `roi_pct` % ROIs.
pub fn next_query(rng: &mut Rng, roi_pct: u64, refs: &[Reference], size: Size) -> Query {
    let file = rng.below(refs.len());
    let field = rng.below(refs[file].meta().field_names.len());
    if (rng.next_u64() % 100) < roi_pct {
        let dom = refs[file].domain();
        let (emin, emax) = match size {
            Size::Full => (4, 12),
            Size::Tiny => (2, 6),
        };
        let mut lo = [0; 3];
        let mut hi = [0; 3];
        for a in 0..3 {
            let n = dom.size().get(a);
            let e = rng.range(emin, emax).min(n);
            lo[a] = dom.lo.get(a) + rng.range(0, n - e);
            hi[a] = lo[a] + e - 1;
        }
        Query::Roi {
            file,
            field,
            lo,
            hi,
        }
    } else {
        let dom = refs[file].finest_domain();
        let p = [0, 1, 2].map(|a| rng.range(dom.lo.get(a), dom.hi.get(a)));
        Query::Point { file, field, p }
    }
}

/// Answer a query through a `QueryEngine`.
pub fn engine_answer(e: &QueryEngine, q: &Query) -> Result<Answer, String> {
    match *q {
        Query::Point { field, p, .. } => {
            e.point_sample(field, IntVect::new(p[0], p[1], p[2]))
                .map(|s| {
                    Answer::Point(s.map(|s| {
                        (
                            s.level,
                            [s.cell.get(0), s.cell.get(1), s.cell.get(2)],
                            s.value,
                        )
                    }))
                })
        }
        Query::Roi { field, lo, hi, .. } => {
            let roi = IntBox::new(
                IntVect::new(lo[0], lo[1], lo[2]),
                IntVect::new(hi[0], hi[1], hi[2]),
            );
            e.roi(field, roi, LevelSelect::All).map(|v| {
                Answer::Roi(
                    v.levels
                        .into_iter()
                        .map(|l| {
                            let (lo, hi) = corners(&l.region);
                            LevelData {
                                level: l.level,
                                lo,
                                hi,
                                data: l.data.into_vec(),
                            }
                        })
                        .collect(),
                )
            })
        }
    }
    .map_err(|e| e.to_string())
}

/// Answer a query over the wire.
fn client_answer(c: &mut Client, handles: &[u32], q: &Query) -> Result<Answer, String> {
    let h = handles[q.file()];
    match *q {
        Query::Point { field, p, .. } => c
            .point(h, field as u32, p)
            .map(|s| Answer::Point(s.map(|(l, cell, v)| (l as usize, cell, v)))),
        Query::Roi { field, lo, hi, .. } => {
            c.roi(h, field as u32, lo, hi, WireSelect::All).map(|v| {
                Answer::Roi(
                    v.levels
                        .into_iter()
                        .map(|w| LevelData {
                            level: w.level as usize,
                            lo: w.lo,
                            hi: w.hi,
                            data: w.data,
                        })
                        .collect(),
                )
            })
        }
    }
    .map_err(|e| e.to_string())
}

/// The two plotfiles, written and fully decoded in set-up.
struct Plotfiles {
    paths: Vec<PathBuf>,
    refs: Vec<Reference>,
    raw_bytes: u64,
    container_bytes: u64,
    psnr_db_min: f64,
}

impl Plotfiles {
    /// Write both plotfiles (traced when `tracer` is given), decode them
    /// in full and check the bound.
    fn build(
        opts: &Options,
        work: &WorkDir,
        tracer: Option<&Arc<Tracer>>,
        layers: &mut Layers,
    ) -> Result<Plotfiles, String> {
        let mut pf = Plotfiles {
            paths: Vec::new(),
            refs: Vec::new(),
            raw_bytes: 0,
            container_bytes: 0,
            psnr_db_min: verify::PSNR_CAP_DB,
        };
        let mut enc = Encoder::Spatial(amric_config());
        for (i, h) in inputs::plotfile_hierarchies(opts.size).iter().enumerate() {
            let path = work.file(&format!("plotfile_{i}.h5l"));
            let (_, res, spans) = timed_write(&mut enc, &path, h, tracer, i as u64);
            let report = res?;
            let container = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let stored = open_reader(&path, None)?;
            if let Some((span, kids)) = spans {
                layers.add_write(&span, &kids, &report, container);
                if !replay_write(h, &stored, true, layers) {
                    return Err(format!("plotfile {i}: replay differs from the write"));
                }
            }
            let dec = verify::decode_spatial(&stored)?;
            let bc = verify::check_bound(h, &dec, REL_EB, false)?;
            if bc.violations > 0 {
                return Err(format!(
                    "plotfile {i}: {} cells outside eb·range",
                    bc.violations
                ));
            }
            pf.raw_bytes += h.snapshot_bytes();
            pf.container_bytes += container;
            pf.psnr_db_min = pf.psnr_db_min.min(bc.psnr_db_min);
            pf.refs.push(Reference::new(dec));
            pf.paths.push(path);
        }
        Ok(pf)
    }

    fn working_set_bytes(&self) -> u64 {
        self.refs.iter().map(Reference::decoded_bytes).sum()
    }

    fn fill(&self, out: &mut Outcome) {
        out.compression_ratio = self.raw_bytes as f64 / self.container_bytes.max(1) as f64;
        out.psnr_db_min = self.psnr_db_min;
    }

    fn sizes(&self) -> String {
        format!(
            "2 Nyx plotfiles, {:.2} MB raw each, {:.2} MB stored in total, decoded working set {:.2} MiB, \
             {PLOTFILE_RANKS} chunks per (level, field)",
            self.raw_bytes as f64 / 2e6,
            self.container_bytes as f64 / 1e6,
            self.working_set_bytes() as f64 / (1 << 20) as f64,
        )
    }

    /// Engines with a private cache holding everything: the warmed
    /// direct engine each replay runs on.
    fn direct_engines(&self) -> Result<Vec<QueryEngine>, String> {
        self.paths
            .iter()
            .zip(&self.refs)
            .map(|(p, r)| {
                let e = QueryEngine::open(p)
                    .map_err(|e| e.to_string())?
                    .with_workers(1)
                    .with_cache_bytes(1 << 30);
                for f in 0..r.meta().field_names.len() {
                    e.roi(f, r.domain(), LevelSelect::All)
                        .map_err(|e| e.to_string())?;
                }
                Ok(e)
            })
            .collect()
    }
}

/// Decode again, outside the timed call, the chunks a traced query
/// missed: `missed` of the query's `touched` chunks were decoded, so the
/// replay's time and bytes are scaled by `missed / touched`. Returns
/// false when a replayed chunk differs from the reference.
fn replay_decode(
    reader: &H5Reader,
    reference: &Reference,
    q: &Query,
    missed: u64,
    layers: &mut Layers,
) -> bool {
    let touched = reference.touched(q);
    if missed == 0 || touched.is_empty() {
        return true;
    }
    let field = q.field();
    let (mut ms, mut bytes, mut ok) = (0.0, 0u64, true);
    for &(l, r) in &touched {
        let t = Instant::now();
        let units = reader
            .read_chunk_raw(&field_dataset(l, field), r)
            .map_err(|e| e.to_string())
            .and_then(|raw| decompress_auto(&raw).map_err(|e| e.to_string()));
        ms += t.elapsed().as_secs_f64() * 1e3;
        match units {
            Ok(u) => {
                bytes += u.iter().map(|b| 8 * b.data().len() as u64).sum::<u64>();
                ok &= reference.chunk_matches(l, field, r, &u);
            }
            Err(_) => ok = false,
        }
    }
    let scale = missed as f64 / touched.len() as f64;
    layers.decode_ms += ms * scale;
    layers.decode_bytes += bytes as f64 * scale;
    ok
}

/// Sum of the cache and decode counters of a set of engines.
fn engine_totals(engines: &[QueryEngine]) -> [u64; 5] {
    engines.iter().fold([0; 5], |acc, e| {
        let s = e.stats();
        [
            acc[0] + s.cache.hits,
            acc[1] + s.cache.misses,
            acc[2] + s.cache.evictions,
            acc[3] + s.chunks_decoded,
            acc[4] + s.decoded_bytes,
        ]
    })
}

/// Run `analysis_spill`.
pub fn run_analysis(opts: &Options) -> Result<Outcome, String> {
    let work = WorkDir::new(&opts.out_dir)?;
    let tracer = opts.trace.then(|| Arc::new(Tracer::default()));
    let mut out = Outcome {
        headline: Op::Roi,
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let setup = |layers: &mut Layers| {
        if let Some(t) = &tracer {
            t.set_enabled(true); // the set-up writes are traced
        }
        let pf = Plotfiles::build(opts, &work, tracer.as_ref(), layers)?;
        let store = Arc::new(ChunkStore::new(spill_cache_bytes(opts.size)));
        let engines = pf
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let e = QueryEngine::from_reader(open_reader(p, tracer.as_ref())?)
                    .map_err(|e| e.to_string())?;
                Ok(e.with_workers(1)
                    .with_shared_cache(Arc::clone(&store), i as u64))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(t) = &tracer {
            t.set_enabled(false);
        }
        let mut rng = Rng::new(opts.seed, 100);
        for _ in 0..WARMUP_QUERIES {
            let q = next_query(&mut rng, ANALYSIS_ROI_PCT, &pf.refs, opts.size);
            engine_answer(&engines[q.file()], &q)?;
        }
        Ok((pf, engines))
    };
    let (pf, engines) = set_up(&mut out.setup_s, || setup(&mut layers))?;
    pf.fill(&mut out);
    let (direct, plain) = if tracer.is_some() {
        let plain = pf
            .paths
            .iter()
            .map(|p| open_reader(p, None))
            .collect::<Result<Vec<_>, String>>()?;
        (pf.direct_engines()?, plain)
    } else {
        (Vec::new(), Vec::new())
    };

    let budget = Duration::from_secs_f64(opts.seconds);
    let trace_from = budget / 3;
    let mut rng = Rng::new(opts.seed, 1);
    let mut fault = opts.inject_fault;
    let mut totals_at_trace = None;
    stats::reset_peak_rss();
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed() < budget {
        let q = next_query(&mut rng, ANALYSIS_ROI_PCT, &pf.refs, opts.size);
        let engine = &engines[q.file()];
        let traced = tracer.as_ref().filter(|_| start.elapsed() >= trace_from);
        if let Some(t) = traced {
            if totals_at_trace.is_none() {
                t.set_enabled(true);
                totals_at_trace = Some(engine_totals(&engines));
            }
        }
        let open = traced.map(|t| t.open("amr_query.query", out.attempted));
        let decoded_before = engine.stats().chunks_decoded;
        let (cpu_ms, (ms, res)) = stats::cpu_ms(|| {
            let t0 = Instant::now();
            let res = engine_answer(engine, &q);
            (t0.elapsed().as_secs_f64() * 1e3, res)
        });
        out.op_cpu_s += cpu_ms / 1e3;
        let spans = traced.zip(open).map(|(t, o)| t.close(o));
        out.samples.push(Sample {
            at_s: start.elapsed().as_secs_f64(),
            ms,
            op: q.op(),
        });
        let expected = pf.refs[q.file()].expect(&q);
        let mut ok = match res {
            Ok(mut a) => {
                if std::mem::take(&mut fault) {
                    a.perturb();
                }
                let ok = a.same(&expected);
                if let Some((_, kids)) = &spans {
                    layers.add_read(kids);
                    layers.queries += 1;
                    layers.returned_bytes += a.bytes();
                }
                ok
            }
            Err(e) => {
                if out.failed < 3 {
                    out.notes.push(format!("failure: {e}"));
                }
                false
            }
        };
        if traced.is_some() {
            let missed = engine.stats().chunks_decoded - decoded_before;
            ok &= replay_decode(
                &plain[q.file()],
                &pf.refs[q.file()],
                &q,
                missed,
                &mut layers,
            );
            let t = Instant::now();
            let again = engine_answer(&direct[q.file()], &q);
            let engine_ms = t.elapsed().as_secs_f64() * 1e3;
            ok &= again.is_ok_and(|a| a.same(&expected));
            if q.op() == Op::Roi {
                layers.engine_ms.push(engine_ms);
                layers.overhead_ms.push(ms - engine_ms);
            }
        }
        out.count(ok);
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_rss_mib = stats::peak_rss_mib();
    let end = engine_totals(&engines);
    if let Some(t0) = totals_at_trace {
        layers.cache_hits = end[0] - t0[0];
        layers.cache_misses = end[1] - t0[1];
        layers.cache_evictions = end[2] - t0[2];
        layers.chunks_decoded = end[3] - t0[3];
        layers.decoded_bytes = end[4] - t0[4];
    }
    let hits = end[0] as f64 / (end[0] + end[1]).max(1) as f64;
    drop((engines, direct, plain));
    for _ in 1..SETUP_REPS {
        set_up(&mut out.setup_s, || setup(&mut layers))?;
    }
    out.notes.push(format!("analysis_spill: {}", pf.sizes()));
    out.notes.push(read_summary(
        "1 thread, closed loop",
        &out,
        &format!(
            "cache budget {} MiB, hit rate {hits:.3} over warm-up and measured phase",
            spill_cache_bytes(opts.size) >> 20
        ),
    ));
    if let Some(t) = &tracer {
        write::write_trace(opts, t);
        layers.add_phases(&out, trace_from.as_secs_f64());
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Human-readable latency line of a read workload.
fn read_summary(clients: &str, out: &Outcome, extra: &str) -> String {
    let p = stats::sorted(out.latencies_ms(Op::Point));
    let r = stats::sorted(out.latencies_ms(Op::Roi));
    format!(
        "{clients}: point_ms_p50 {:.4} ms, point_ms_p99 {:.4} ms (n={}), roi_ms_p50 {:.4} ms, roi_ms_p90 {:.4} ms (n={}), \
         queries_per_s {:.1}; {extra}",
        stats::percentile(&p, 0.5),
        stats::percentile(&p, 0.99),
        p.len(),
        stats::percentile(&r, 0.5),
        stats::percentile(&r, 0.9),
        r.len(),
        out.samples.len() as f64 / out.measured_s.max(1e-9),
    )
}

/// What one `serve_hot` client measured.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    returned_bytes: u64,
    engine_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    /// CPU time this client spent checking answers and replaying them.
    check_cpu_s: f64,
}

/// Shared inputs of the `serve_hot` client threads.
struct ServeCtx<'a> {
    addr: std::net::SocketAddr,
    paths: Vec<String>,
    refs: &'a [Reference],
    direct: &'a [QueryEngine],
    tracer: Option<&'a Arc<Tracer>>,
    fault: &'a AtomicBool,
    seed: u64,
    size: Size,
    start: Instant,
    trace_from: Duration,
    budget: Duration,
}

/// One closed-loop client connection.
fn serve_client(ctx: &ServeCtx<'_>, id: u64) -> Result<ClientRun, String> {
    let mut client = Client::connect_tcp(ctx.addr).map_err(|e| e.to_string())?;
    let handles = ctx
        .paths
        .iter()
        .map(|p| client.open(p).map(|o| o.handle))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|e| e.to_string())?;
    let mut rng = Rng::new(ctx.seed, 10 + id);
    let mut run = ClientRun::default();
    while run.attempted == 0 || ctx.start.elapsed() < ctx.budget {
        let q = next_query(&mut rng, SERVE_ROI_PCT, ctx.refs, ctx.size);
        let traced = ctx.tracer.filter(|_| ctx.start.elapsed() >= ctx.trace_from);
        let open = traced.map(|t| t.open("amr_serve.request", id << 48 | run.attempted));
        let t0 = Instant::now();
        let res = client_answer(&mut client, &handles, &q);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let check_from = stats::cpu_seconds(CpuScope::Thread);
        if let (Some(t), Some(o)) = (traced, open) {
            t.close(o);
        }
        run.samples.push(Sample {
            at_s: ctx.start.elapsed().as_secs_f64(),
            ms,
            op: q.op(),
        });
        let expected = ctx.refs[q.file()].expect(&q);
        let mut ok = match res {
            Ok(mut a) => {
                if ctx.fault.swap(false, Ordering::Relaxed) {
                    a.perturb();
                }
                if traced.is_some() {
                    run.returned_bytes += a.bytes();
                }
                a.same(&expected)
            }
            Err(e) => {
                if run.failed < 3 {
                    run.notes.push(format!("failure: {e}"));
                }
                false
            }
        };
        if traced.is_some() {
            let t = Instant::now();
            let again = engine_answer(&ctx.direct[q.file()], &q);
            let engine_ms = t.elapsed().as_secs_f64() * 1e3;
            ok &= again.is_ok_and(|a| a.same(&expected));
            if q.op() == Op::Point {
                run.engine_ms.push(engine_ms);
                run.overhead_ms.push(ms - engine_ms);
            }
        }
        run.attempted += 1;
        run.failed += u64::from(!ok);
        run.check_cpu_s += stats::cpu_seconds(CpuScope::Thread) - check_from;
    }
    Ok(run)
}

/// Server-side counters `serve_hot` reports, from the Stats snapshot.
fn server_counters(server: &Server) -> [u64; 10] {
    let s = server.state().stats_report();
    [
        s.requests,
        s.errors,
        s.scan_queries,
        s.scan_slabs,
        s.response_bytes,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.files.iter().map(|f| f.chunks_decoded).sum(),
        s.files.iter().map(|f| f.decoded_bytes).sum(),
    ]
}

fn stop(server: Server) {
    server.state().request_shutdown();
    server.shutdown_and_join();
}

/// Run `serve_hot`.
pub fn run_serve(opts: &Options) -> Result<Outcome, String> {
    let work = WorkDir::new(&opts.out_dir)?;
    let tracer = opts.trace.then(|| Arc::new(Tracer::default()));
    let mut out = Outcome {
        headline: Op::Point,
        ..Outcome::default()
    };
    let mut layers = Layers::default();
    let setup = |layers: &mut Layers| {
        let pf = Plotfiles::build(opts, &work, tracer.as_ref(), layers)?;
        let mut server = Server::new(serve_config(opts.size));
        let warm = server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())
            .and_then(|addr| {
                // Cache warm-up: every field of both files, whole domain.
                let mut c = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
                for (p, r) in pf.paths.iter().zip(&pf.refs) {
                    let h = c
                        .open(&p.to_string_lossy())
                        .map_err(|e| e.to_string())?
                        .handle;
                    let (lo, hi) = corners(&r.domain());
                    for f in 0..r.meta().field_names.len() {
                        c.roi(h, f as u32, lo, hi, WireSelect::All)
                            .map_err(|e| e.to_string())?;
                    }
                }
                Ok(addr)
            });
        match warm {
            Ok(addr) => Ok((pf, server, addr)),
            Err(e) => {
                stop(server);
                Err(e)
            }
        }
    };
    let (pf, server, addr) = set_up(&mut out.setup_s, || setup(&mut layers))?;
    pf.fill(&mut out);
    let direct = if tracer.is_some() {
        pf.direct_engines()?
    } else {
        Vec::new()
    };
    let fault = AtomicBool::new(opts.inject_fault);
    let budget = Duration::from_secs_f64(opts.seconds);
    let before = server_counters(&server);
    stats::reset_peak_rss();
    let cpu0 = stats::cpu_seconds(CpuScope::Process);
    let start = Instant::now();
    let ctx = ServeCtx {
        addr,
        paths: pf
            .paths
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect(),
        refs: &pf.refs,
        direct: &direct,
        tracer: tracer.as_ref(),
        fault: &fault,
        seed: opts.seed,
        size: opts.size,
        start,
        trace_from: budget / 3,
        budget,
    };
    let (runs, at_trace) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS as u64)
            .map(|id| {
                let ctx = &ctx;
                s.spawn(move || serve_client(ctx, id))
            })
            .collect();
        let at_trace = tracer.as_ref().map(|_| {
            std::thread::sleep(ctx.trace_from.saturating_sub(start.elapsed()));
            server_counters(&server)
        });
        let runs: Vec<Result<ClientRun, String>> = clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (runs, at_trace)
    });
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_rss_mib = stats::peak_rss_mib();
    out.op_cpu_s = stats::cpu_seconds(CpuScope::Process) - cpu0;
    let after = server_counters(&server);
    stop(server);
    for _ in 1..SETUP_REPS {
        let (_, server, _) = set_up(&mut out.setup_s, || setup(&mut layers))?;
        stop(server);
    }

    for run in runs {
        let run = run?;
        out.samples.extend(run.samples);
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.notes.extend(run.notes);
        layers.returned_bytes += run.returned_bytes;
        layers.engine_ms.extend(run.engine_ms);
        layers.overhead_ms.extend(run.overhead_ms);
        out.op_cpu_s -= run.check_cpu_s;
    }
    out.samples.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let d = |i: usize| after[i] - before[i];
    let cfg = serve_config(opts.size);
    out.notes.push(format!("serve_hot: {}", pf.sizes()));
    out.notes.push(read_summary(
        &format!("{SERVE_CLIENTS} client connections, closed loop, loopback TCP"),
        &out,
        &format!(
            "server: {} requests, {} scans in {} slabs, {} error frames, cache {} hits / {} misses; \
             cache {} MiB, scan threshold {} KiB, slab {} KiB, {} scan slot",
            d(0),
            d(2),
            d(3),
            d(1),
            d(5),
            d(6),
            cfg.cache_bytes >> 20,
            cfg.admission.scan_threshold_bytes >> 10,
            cfg.admission.scan_slab_bytes >> 10,
            cfg.admission.scan_slots,
        ),
    ));
    if let (Some(t), Some(mid)) = (&tracer, at_trace) {
        let dt = |i: usize| after[i] - mid[i];
        layers.queries = dt(0);
        layers.error_frames = dt(1);
        layers.scans = dt(2);
        layers.scan_slabs = dt(3);
        layers.response_bytes = dt(4);
        layers.cache_hits = dt(5);
        layers.cache_misses = dt(6);
        layers.cache_evictions = dt(7);
        layers.chunks_decoded = dt(8);
        layers.decoded_bytes = dt(9);
        layers.add_phases(&out, ctx.trace_from.as_secs_f64());
        write::write_trace(opts, t);
        out.layers = Some(layers);
    }
    Ok(out)
}
