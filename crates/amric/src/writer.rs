//! The in-situ AMRIC writer (paper §3.3): field-major data layout, one
//! global chunk sized to the largest rank, the size-aware SZ filter, and
//! collective writes through the h5lite container.
//!
//! Per level and field, every rank stages its surviving unit blocks into a
//! single buffer (the layout change of §3.3 Solution 1 — same-field data
//! grouped together instead of AMReX's per-box field interleaving), the
//! global chunk size is the max staged size over ranks (§3.3 Solution 2),
//! and each rank contributes exactly one chunk whose *actual* length rides
//! in the chunk metadata so no padding is ever compressed.
//!
//! Every snapshot writer — spatial, temporal and the AMReX baselines —
//! runs on the one write driver in this module: a shared rank skeleton
//! plus the AMRIC field loop of the spatial and temporal writers. Storage
//! and codec failures come back as typed errors on every rank, in
//! lockstep, and before the container is finished.

use crate::config::AmricConfig;
use crate::pipeline::{
    compress_field_units_resolved_into, compress_field_units_resolved_pooled,
    decompress_field_units, AmricScratch, ResolvedBound,
};
use crate::preprocess::{
    extract_units, plan_bounding_box, plan_units, unit_edge_for_level, PlanExtent, UnitRef,
};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use rankpar::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use sz_codec::codec::CodecId;
use sz_codec::CodecError;

/// Filter id for the AMRIC application-defined filter (outside h5lite's
/// built-in registry, like a dynamically loaded HDF5 plugin).
pub const FILTER_AMRIC: u32 = 100;

/// The AMRIC chunk filter: the chunk payload is a concatenation of cubic
/// unit blocks of edge `unit_edge`; encode runs the full §3.1–3.2
/// pipeline on them. Encoding appends into the caller's buffer through
/// the thread-local (= per-rank) scratch pool, so the per-chunk hot path
/// allocates no fresh output `Vec` and no fresh quantization scratch.
#[derive(Clone, Copy, Debug)]
pub struct AmricFieldFilter {
    /// Pipeline configuration.
    pub cfg: AmricConfig,
    /// Unit-block edge for the level being written.
    pub unit_edge: usize,
    /// Error bound, resolved by the writer from the *global* (all-rank)
    /// range of the field on this level — standard SZ REL semantics over
    /// the whole dataset. Quiet ranks therefore quantize to
    /// near-constants, which is where WarpX's huge ratios come from.
    /// [`ResolvedBound::Fixed`] is the paper path (byte-identical to the
    /// pre-policy writer); [`ResolvedBound::Adaptive`] spends the budget
    /// per unit block.
    pub bound: ResolvedBound,
}

impl AmricFieldFilter {
    /// Filter with one uniform absolute bound — the pre-policy
    /// constructor shape, used throughout the fixed-bound suites.
    pub fn fixed(cfg: AmricConfig, unit_edge: usize, abs_eb: f64) -> Self {
        AmricFieldFilter {
            cfg,
            unit_edge,
            bound: ResolvedBound::Fixed(abs_eb),
        }
    }

    /// Cut the chunk payload into its cubic unit blocks, rejecting chunks
    /// whose length is not a multiple of the unit volume (typed error,
    /// never a panic — the PR 2 regression contract).
    fn cut_units(&self, chunk: &[f64]) -> H5Result<Vec<sz_codec::Buffer3>> {
        let e3 = self.unit_edge * self.unit_edge * self.unit_edge;
        if e3 == 0 || !chunk.len().is_multiple_of(e3) {
            return Err(H5Error::Codec(CodecError::dims(format!(
                "chunk of {} elems is not a multiple of unit {}³",
                chunk.len(),
                self.unit_edge
            ))));
        }
        Ok(chunk
            .chunks_exact(e3)
            .map(|u| sz_codec::Buffer3::from_vec(sz_codec::Dims3::cube(self.unit_edge), u.to_vec()))
            .collect())
    }
}

impl ChunkFilter for AmricFieldFilter {
    fn id(&self) -> u32 {
        FILTER_AMRIC
    }

    fn client_data(&self) -> Vec<u8> {
        vec![self.unit_edge as u8]
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        let units = self.cut_units(chunk)?;
        compress_field_units_resolved_pooled(&units, &self.cfg, self.unit_edge, self.bound, out);
        Ok(())
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        let units = decompress_field_units(bytes)?;
        let mut out = Vec::with_capacity(n_elems);
        for u in units {
            out.extend_from_slice(u.data());
        }
        if out.len() < n_elems {
            return Err(H5Error::Format(format!(
                "AMRIC chunk decoded {} elems, need {n_elems}",
                out.len()
            )));
        }
        out.truncate(n_elems);
        Ok(out)
    }
}

/// The per-field encoder [`write_field_parallel`] runs on its pool
/// workers, each with its own explicit [`AmricScratch`].
pub trait FieldEncoder: Send + Sync {
    /// What a chunk's encode hands back beside its bytes: the temporal
    /// writer's decoded state; `()` for the spatial filter.
    type Retained: Send;

    /// The filter recorded for the dataset.
    fn filter(&self) -> &dyn ChunkFilter;

    /// Encode one staged chunk into the empty buffer `out`. The bytes
    /// depend only on the chunk and the encoder, never on scratch
    /// history, so parallel output is identical to serial.
    fn encode_chunk(
        &self,
        chunk: &[f64],
        scratch: &mut AmricScratch,
        out: &mut Vec<u8>,
    ) -> H5Result<Self::Retained>;
}

impl FieldEncoder for AmricFieldFilter {
    type Retained = ();

    fn filter(&self) -> &dyn ChunkFilter {
        self
    }

    fn encode_chunk(
        &self,
        chunk: &[f64],
        scratch: &mut AmricScratch,
        out: &mut Vec<u8>,
    ) -> H5Result<()> {
        let units = self.cut_units(chunk)?;
        compress_field_units_resolved_into(
            &units,
            &self.cfg,
            self.unit_edge,
            self.bound,
            scratch,
            out,
        );
        Ok(())
    }
}

/// Outcome of one snapshot write: per-rank cost ledgers plus size
/// accounting.
#[derive(Clone, Debug)]
pub struct WriteReport {
    /// World size the snapshot was written with.
    pub nranks: usize,
    /// Per-rank storage-event ledgers (includes measured encode seconds).
    pub ledgers: Vec<IoLedger>,
    /// Per-rank measured pre-processing seconds (staging, planning,
    /// layout).
    pub prep_seconds: Vec<f64>,
    /// Raw snapshot bytes (all levels × fields × cells × 8, including
    /// redundant coarse data — what a no-compression write stores).
    pub orig_bytes: u64,
    /// Stored payload bytes of the field datasets.
    pub stored_bytes: u64,
}

impl WriteReport {
    /// End-to-end compression ratio of the snapshot.
    pub fn compression_ratio(&self) -> f64 {
        self.orig_bytes as f64 / self.stored_bytes.max(1) as f64
    }

    /// Modeled (prep, io) seconds for the slowest rank under a PFS model.
    pub fn modeled_seconds(&self, params: &PfsParams) -> (f64, f64) {
        let prep = self.prep_seconds.iter().cloned().fold(0.0, f64::max);
        let io = job_seconds(&self.ledgers, params, self.nranks);
        (prep, io)
    }
}

/// Encode a u64 list as f64s (exact below 2⁵³) for metadata datasets.
pub(crate) fn ints_to_f64(vals: impl IntoIterator<Item = u64>) -> Vec<f64> {
    vals.into_iter().map(|v| v as f64).collect()
}

/// Write hierarchy-structure metadata (domains, boxes, owners, field
/// names) — the plotfile header AMReX also stores uncompressed.
fn write_metadata(writer: &H5Writer, h: &AmrHierarchy, extra: &[u64]) -> H5Result<()> {
    let nranks = h.level(0).data.distribution().nranks() as u64;
    let mut header: Vec<u64> = vec![h.num_levels() as u64, h.field_names().len() as u64, nranks];
    header.extend_from_slice(extra);
    for l in 0..h.num_levels() {
        let level = h.level(l);
        let n = level.domain.size();
        header.push(n.get(0) as u64);
        header.push(n.get(1) as u64);
        header.push(n.get(2) as u64);
        header.push(level.data.box_array().len() as u64);
        header.push(if l + 1 < h.num_levels() {
            h.ref_ratio(l) as u64
        } else {
            0
        });
    }
    let header_f = ints_to_f64(header);
    writer.write_dataset("meta/header", &header_f, header_f.len().max(1), &NoFilter)?;
    // Field names as UTF-8 bytes, each byte one f64.
    let mut names = Vec::new();
    for n in h.field_names() {
        names.push(n.len() as u64);
        names.extend(n.as_bytes().iter().map(|&b| b as u64));
    }
    let names_f = ints_to_f64(names);
    writer.write_dataset(
        "meta/field_names",
        &names_f,
        names_f.len().max(1),
        &NoFilter,
    )?;
    for l in 0..h.num_levels() {
        let level = h.level(l);
        let mut boxes = Vec::new();
        for (i, b) in level.data.box_array().iter().enumerate() {
            for d in 0..3 {
                boxes.push(b.lo.get(d) as u64);
            }
            for d in 0..3 {
                boxes.push(b.hi.get(d) as u64);
            }
            boxes.push(level.data.distribution().owner(i) as u64);
        }
        let boxes_f = ints_to_f64(boxes);
        writer.write_dataset(
            &format!("meta/level_{l}/boxes"),
            &boxes_f,
            boxes_f.len().max(1),
            &NoFilter,
        )?;
    }
    Ok(())
}

/// Dataset name for one level/field pair (fields addressed by index so
/// arbitrary names cannot collide with the path syntax). Public because
/// the read side — including the `amr-query` planner — addresses chunks
/// through the same naming.
pub fn field_dataset(level: usize, field: usize) -> String {
    format!("level_{level}/field_{field}")
}

/// One field's fully-staged write work for [`write_field_parallel`]: the
/// rank's chunks, the resolved encoder, and the collective chunk geometry.
/// All metadata (global chunk size, absolute bound) is pre-computed, so
/// compression can run on pool workers while earlier fields' collective
/// writes are still in flight — the paper's one-pass write.
#[derive(Clone, Debug)]
pub struct FieldWriteJob<E = AmricFieldFilter> {
    /// Dataset name (identical on every rank).
    pub name: String,
    /// This rank's chunks (the AMRIC layout stages exactly one per field;
    /// empty when no rank on the level holds data).
    pub chunks: Vec<ChunkData>,
    /// Collective chunk size in elements (max over ranks, pre-agreed).
    pub chunk_elems: usize,
    /// Resolved encoder (global absolute bound baked in).
    pub filter: E,
    /// Standard vs size-aware filter semantics.
    pub mode: FilterMode,
}

/// Per-worker compression state of the field pipeline: an explicit
/// [`AmricScratch`] (quantization-stream buffers) plus the padding
/// staging buffer. One per pool worker — workers never contend on hot
/// buffers, and nothing rides on thread-local state.
#[derive(Default)]
struct FieldEncodeScratch {
    scratch: AmricScratch,
    pad: Vec<f64>,
}

/// Per-field accumulation while its frames stream to storage: receipt,
/// records already on disk, the batch awaiting its extent, and what the
/// encoder retained from each chunk.
struct FieldProgress<R> {
    receipt: CollectiveReceipt,
    records: Vec<ChunkRecord>,
    batch: Vec<EncodedFrame>,
    retained: Vec<R>,
}

impl<R> FieldProgress<R> {
    fn new() -> Self {
        FieldProgress {
            receipt: CollectiveReceipt {
                dataset_creates: 1,
                ..Default::default()
            },
            records: Vec::new(),
            batch: Vec::new(),
            retained: Vec::new(),
        }
    }

    /// Write the batched frames into one pre-reserved contiguous extent.
    fn flush(&mut self, writer: &H5Writer) -> H5Result<()> {
        let written = write_frame_extent(writer, &self.batch, &mut self.receipt, &mut self.records);
        self.batch.clear();
        written
    }
}

/// Batch-submission write API: compress every field's chunks on a
/// rank-local pool of `workers` threads and issue the collective writes
/// in field order, **overlapped** — while field `f`'s frames are inside
/// the collective commit (and peers may still be compressing), the pool
/// is already compressing fields `f+1, f+2, …` into the bounded
/// reassembly window. `workers <= 1` degrades to the serial reference
/// path with identical output bytes and identical collective sequence.
///
/// Frames stream to storage as they drain: each batch of `max(workers,
/// 2)` frames lands in one pre-reserved extent and only its small
/// [`ChunkRecord`]s are kept until the field's collective commit, so
/// memory in flight is bounded by the batch plus the reassembly window
/// regardless of how many chunks a field stages.
///
/// Returns, per field, this rank's receipt and what the encoder retained
/// from each of the rank's chunks.
///
/// Every rank must pass the same field list (names, `chunk_elems`,
/// modes). The collective contract on errors: a rank whose compression or
/// chunk write fails keeps participating in the remaining fields'
/// collectives with an abort vote, so peers fail together instead of
/// deadlocking; the typed error surfaces on every rank.
pub fn write_field_parallel<E: FieldEncoder>(
    comm: &Communicator,
    writer: &H5Writer,
    jobs: &[FieldWriteJob<E>],
    workers: usize,
) -> H5Result<Vec<(CollectiveReceipt, Vec<E::Retained>)>> {
    // Flatten to (field, chunk) items so the pool load-balances across
    // fields regardless of how many chunks each one stages. A zero-chunk
    // field gets one empty item, so its collective runs in order too.
    let items: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(f, j)| (0..j.chunks.len().max(1)).map(move |c| (f, c)))
        .collect();

    let batch_size = workers.max(2);
    let mut committed = Vec::with_capacity(jobs.len());
    // `written` = number of fields whose collective has *occurred*
    // (successfully or as a joint abort); the error path below must keep
    // the remaining fields' collectives running to stay in lockstep.
    let mut written = 0usize;
    let mut progress = FieldProgress::new();

    let pool_result: Result<(), H5Error> = rankpar::pool::for_each_ordered(
        &items,
        workers,
        // Double buffer: one batch in the writer's hands, one compressing.
        (2 * workers).max(2),
        FieldEncodeScratch::default,
        |state, _i, &(f, c)| {
            let job = &jobs[f];
            let Some(chunk) = job.chunks.get(c) else {
                return Ok(None);
            };
            writer.count_filter_call();
            let t0 = Instant::now();
            let (data, logical_elems) =
                staged_chunk(chunk, job.chunk_elems, job.mode, &mut state.pad)?;
            let mut bytes = Vec::new();
            let retained = job
                .filter
                .encode_chunk(data, &mut state.scratch, &mut bytes)?;
            let frame = EncodedFrame {
                bytes,
                logical_elems,
                encode_seconds: t0.elapsed().as_secs_f64(),
            };
            Ok(Some((frame, retained)))
        },
        |_i, encoded| {
            // Items arrive in submission order, so this one belongs to the
            // first unwritten field.
            let job = &jobs[written];
            if let Some((frame, retained)) = encoded {
                progress.receipt.filter_calls += 1;
                progress.receipt.encode_seconds += frame.encode_seconds;
                progress.batch.push(frame);
                progress.retained.push(retained);
            }
            // Stream batches to storage so resident frames stay bounded
            // by the batch, not the field's chunk count.
            let field_done = progress.retained.len() == job.chunks.len();
            if field_done || progress.batch.len() >= batch_size {
                progress.flush(writer)?;
            }
            if field_done {
                let done = std::mem::replace(&mut progress, FieldProgress::new());
                written += 1; // the collective happens now, success or not
                let receipt = collective_finalize(
                    comm,
                    writer,
                    &job.name,
                    done.records,
                    job.chunk_elems,
                    job.filter.filter(),
                    job.mode,
                    None,
                    done.receipt,
                )?;
                committed.push((receipt, done.retained));
            }
            Ok(())
        },
    );

    if let Err(e) = pool_result {
        // Stay in lockstep: peers will run every remaining field's
        // collective, so this rank must too — with an abort vote.
        for job in &jobs[written..] {
            let _ = collective_write_frames(
                comm,
                writer,
                &job.name,
                None,
                job.chunk_elems,
                job.filter.filter(),
                job.mode,
            );
        }
        return Err(e);
    }
    Ok(committed)
}

/// Write one snapshot with the full AMRIC pipeline. Returns the per-rank
/// cost report. The blocking factor `bf` must match the hierarchy's fine
/// grids (it drives unit sizes via [`unit_edge_for_level`]).
pub fn write_amric(
    path: impl AsRef<std::path::Path>,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
) -> H5Result<WriteReport> {
    write_amric_to(Arc::new(H5Writer::create(path)?), h, cfg, bf)
}

/// [`write_amric`] into a sharded container at `path` (a directory)
/// spread over `shards` shard files — concurrent rank writers and later
/// parallel prefetch hit independent shards.
pub fn write_amric_sharded(
    path: impl AsRef<std::path::Path>,
    shards: usize,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
) -> H5Result<WriteReport> {
    write_amric_to(
        Arc::new(H5Writer::create_sharded(path, shards)?),
        h,
        cfg,
        bf,
    )
}

/// The backend-agnostic AMRIC pipeline: runs the rank collectives against
/// an already-created writer (any [`h5lite::Storage`] backend) and
/// finishes the container.
pub fn write_amric_to(
    writer: Arc<H5Writer>,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
) -> H5Result<WriteReport> {
    let (report, _) = write_amric_fields(&writer, h, bf, cfg)?;
    writer.finish()?;
    Ok(report)
}

/// One rank of a snapshot write, as the rank skeleton hands it to a
/// writer's per-rank body.
pub(crate) struct Rank {
    pub comm: Communicator,
    pub ledger: IoLedger,
    /// Measured preparation seconds (planning, extraction, staging).
    pub prep_s: f64,
    /// First failed rank-0-only write, returned after the barrier.
    deferred: Option<H5Error>,
}

impl Rank {
    /// Run `f`, counting its time as preparation.
    pub fn prep<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.prep_s += t0.elapsed().as_secs_f64();
        out
    }

    /// A write only rank 0 makes. Its failure is returned after the
    /// closing barrier, so rank 0 never leaves the collective sequence
    /// early and no peer deadlocks.
    pub fn on_root(&mut self, write: impl FnOnce() -> H5Result<()>) {
        if self.comm.rank() == 0 {
            if let Err(e) = write() {
                self.deferred.get_or_insert(e);
            }
        }
    }
}

/// The rank skeleton every snapshot writer runs on: each rank runs
/// `body`, rank 0 writes the plotfile metadata (`meta/header` carrying
/// `meta_extra`, field names, boxes), every rank meets the closing
/// barrier, and the ranks' ledgers and prep times become the
/// [`WriteReport`]. Returns it with the body outputs in rank order; the
/// caller finishes the container.
///
/// `body` must fail in lockstep (collective abort votes). Of the ranks'
/// errors, a rank's own cause wins over a peer's abort notice.
pub(crate) fn write_ranks<T: Send>(
    writer: &H5Writer,
    h: &AmrHierarchy,
    meta_extra: [u64; 2],
    body: impl Fn(&mut Rank) -> H5Result<T> + Sync,
) -> H5Result<(WriteReport, Vec<T>)> {
    let nranks = h.level(0).data.distribution().nranks();
    let mut per_rank = run_ranks(nranks, |comm| {
        let mut rank = Rank {
            comm,
            ledger: IoLedger::default(),
            prep_s: 0.0,
            deferred: None,
        };
        let out = body(&mut rank);
        rank.on_root(|| write_metadata(writer, h, &meta_extra));
        rank.comm.barrier();
        match rank.deferred {
            Some(e) => Err(e),
            None => out.map(|out| (rank.ledger, rank.prep_s, out)),
        }
    });
    // A rank's own error sorts before a peer's abort notice, and errors
    // before results; the sort is stable, so success keeps rank order.
    per_rank.sort_by_key(|r| match r {
        Err(H5Error::PeerAborted) => 1,
        Err(_) => 0,
        Ok(_) => 2,
    });
    let ranks = per_rank.into_iter().collect::<H5Result<Vec<_>>>()?;
    let ledgers: Vec<IoLedger> = ranks.iter().map(|r| r.0).collect();
    let report = WriteReport {
        nranks,
        stored_bytes: ledgers.iter().map(|l| l.bytes_written).sum(),
        ledgers,
        prep_seconds: ranks.iter().map(|r| r.1).collect(),
        orig_bytes: h.snapshot_bytes(),
    };
    Ok((report, ranks.into_iter().map(|r| r.2).collect()))
}

/// What a writer plugs into the AMRIC field loop: the spatial writer
/// ([`AmricConfig`]) and the temporal session differ only here.
pub(crate) trait FieldScheme: Sync {
    /// Per-(rank, level) state, built during planning.
    type Level;
    type Encoder: FieldEncoder;
    /// Envelope codec id the chunk index records.
    const CODEC: CodecId;
    fn remove_redundancy(&self) -> bool;
    fn mode(&self) -> FilterMode;
    fn workers(&self) -> usize;
    fn level(&self, rank: usize, l: usize, units: &[UnitRef]) -> Self::Level;
    /// Encoder of field `f`, its bound resolved against the global `range`.
    fn encoder(&self, level: &Self::Level, f: usize, unit_edge: usize, range: f64)
        -> Self::Encoder;
    /// Snapshot id a rank's chunks on a level predict from, given what
    /// its fields' encodes retained (`[field][chunk]`).
    fn reference(&self, _retained: &[Vec<Retained<Self>>]) -> Option<u64> {
        None
    }
}

/// What a scheme's encoder retains per chunk.
pub(crate) type Retained<S> = <<S as FieldScheme>::Encoder as FieldEncoder>::Retained;

impl FieldScheme for AmricConfig {
    type Level = ();
    type Encoder = AmricFieldFilter;
    const CODEC: CodecId = CodecId::AmricPipeline;

    fn remove_redundancy(&self) -> bool {
        self.remove_redundancy
    }

    fn mode(&self) -> FilterMode {
        if self.size_aware_filter {
            FilterMode::SizeAware
        } else {
            FilterMode::Standard
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn level(&self, _rank: usize, _l: usize, _units: &[UnitRef]) {}

    /// Constant (range-0) fields fall back to the raw relative value —
    /// same contract as `resolve_abs_eb`, so quiet ranks get a
    /// well-defined, non-degenerate bound. Under an adaptive policy both
    /// tight and loose resolve against the same global range.
    fn encoder(&self, _level: &(), _f: usize, unit_edge: usize, range: f64) -> AmricFieldFilter {
        AmricFieldFilter {
            cfg: *self,
            unit_edge,
            bound: ResolvedBound::from_policy(self.bound, self.rel_eb, range),
        }
    }
}

/// One rank's `[level]` results of the AMRIC field loop.
pub(crate) type RankLevels<S> = Vec<LevelWrite<Retained<S>>>;

/// Per-(rank, level) result of the AMRIC field loop.
pub(crate) struct LevelWrite<R> {
    /// Bounding box of the rank's units (the chunk-index extent).
    pub extent: Option<PlanExtent>,
    pub plan: Vec<UnitRef>,
    /// `[field][chunk]`: what the encoder retained.
    pub retained: Vec<Vec<R>>,
}

/// The AMRIC field loop (paper §3.3) on the rank skeleton: per level and
/// field, stage the rank's units field-major, resolve the bound against
/// the global range and size the global chunk to the largest rank; then
/// encode and write the level's fields in order through
/// [`write_field_parallel`]. Ends with each field's chunk index and
/// returns the `[rank][level]` results; the caller finishes the container.
pub(crate) fn write_amric_fields<S: FieldScheme>(
    writer: &H5Writer,
    h: &AmrHierarchy,
    bf: i64,
    scheme: &S,
) -> H5Result<(WriteReport, Vec<RankLevels<S>>)> {
    let num_levels = h.num_levels();
    let nfields = h.field_names().len();
    let meta_extra = [bf as u64, u64::from(scheme.remove_redundancy())];
    let (report, per_rank) = write_ranks(writer, h, meta_extra, |rank| {
        let r = rank.comm.rank();
        let mut levels = Vec::with_capacity(num_levels);
        for l in 0..num_levels {
            let level = &h.level(l).data;
            let finer =
                (l + 1 < num_levels).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
            let unit = unit_edge_for_level(bf, l, num_levels);
            let (plan, state) = rank.prep(|| {
                let plan = plan_units(level, finer, unit, r, scheme.remove_redundancy());
                let state = scheme.level(r, l, &plan);
                (plan, state)
            });
            // Pass 1 — stage every field and agree on its write metadata
            // (global bound + global chunk size) in one deterministic
            // collective sequence. With the metadata known up front,
            // pass 2 can overlap compression with the writes (the
            // paper's one-pass write).
            let mut jobs = Vec::with_capacity(nfields);
            for f in 0..nfields {
                // Stage field-major (§3.3 Solution 1): this rank's units of
                // one field, concatenated.
                let staged = rank.prep(|| {
                    let bufs = extract_units(level, &plan, f);
                    let mut staged = Vec::with_capacity(bufs.iter().map(|b| b.dims().len()).sum());
                    for b in &bufs {
                        staged.extend_from_slice(b.data());
                    }
                    staged
                });
                let (lo, hi) = staged
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                let ranges = rank.comm.allgather((lo, hi));
                let glo = ranges.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
                let ghi = ranges.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
                let range = if ghi > glo { ghi - glo } else { 0.0 };
                // Global chunk = biggest rank (§3.3 Solution 2).
                let chunk_elems = rank.comm.allreduce_max(staged.len() as u64) as usize;
                let chunks = if chunk_elems == 0 {
                    Vec::new()
                } else {
                    vec![ChunkData::full(staged)]
                };
                jobs.push(FieldWriteJob {
                    name: field_dataset(l, f),
                    chunks,
                    chunk_elems: chunk_elems.max(1),
                    filter: scheme.encoder(&state, f, unit as usize, range),
                    mode: scheme.mode(),
                });
            }
            // Pass 2 — compress on the rank-local pool, write in field
            // order.
            let fields = write_field_parallel(&rank.comm, writer, &jobs, scheme.workers())?;
            let mut retained = Vec::with_capacity(nfields);
            for (receipt, kept) in fields {
                fold_receipt(&mut rank.ledger, &receipt);
                retained.push(kept);
            }
            levels.push(LevelWrite {
                extent: plan_bounding_box(&plan),
                plan,
                retained,
            });
        }
        Ok(levels)
    })?;

    // The chunk index lets the `amr-query` planner prune chunks against a
    // region of interest without decoding anything.
    for l in 0..num_levels {
        // A level where no rank kept any cells registers zero chunks;
        // otherwise every rank contributed exactly one.
        let entries: Vec<ChunkIndexEntry> = if per_rank.iter().all(|r| r[l].extent.is_none()) {
            Vec::new()
        } else {
            per_rank
                .iter()
                .map(|r| {
                    let entry = ChunkIndexEntry::new(S::CODEC as u32, r[l].extent);
                    match scheme.reference(&r[l].retained) {
                        Some(id) => entry.with_reference(id),
                        None => entry,
                    }
                })
                .collect()
        };
        for f in 0..nfields {
            writer.set_chunk_index(&field_dataset(l, f), ChunkIndex::new(entries.clone()))?;
        }
    }
    Ok((report, per_rank))
}

/// Fold a collective receipt into a rank ledger (encode time counts as
/// measured compute inside the I/O phase, matching the paper's breakdown).
pub(crate) fn fold_receipt(ledger: &mut IoLedger, r: &CollectiveReceipt) {
    ledger.filter_calls += r.filter_calls;
    ledger.write_calls += r.write_calls;
    ledger.bytes_written += r.bytes_written;
    ledger.dataset_creates += r.dataset_creates;
    ledger.add_measured_compute(r.encode_seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_apps::prelude::*;

    /// Run the full pipeline into an in-memory container and reopen it —
    /// no filesystem, nothing to leak on panic.
    fn write_mem(h: &AmrHierarchy, cfg: &AmricConfig, bf: i64) -> (WriteReport, H5Reader) {
        let (w, mem) = H5Writer::in_memory();
        let report = write_amric_to(Arc::new(w), h, cfg, bf).unwrap();
        (report, H5Reader::from_storage(Box::new(mem)).unwrap())
    }

    fn small_nyx() -> AmrHierarchy {
        let s = NyxScenario::new(11);
        let cfg = AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        };
        build_hierarchy(&s, &cfg, 0.0)
    }

    #[test]
    fn amric_write_produces_compressed_file() {
        let h = small_nyx();
        let (report, r) = write_mem(&h, &AmricConfig::lr(1e-3), 8);
        assert_eq!(report.nranks, 2);
        assert!(
            report.compression_ratio() > 2.0,
            "CR {}",
            report.compression_ratio()
        );
        // One filter call per (rank-with-data, level, field).
        let total_filters: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        assert!(total_filters <= 2 * 2 * 6);
        assert!(r.dataset_names().contains(&"level_0/field_0"));
        assert!(r.dataset_names().contains(&"meta/header"));
    }

    #[test]
    fn interp_variant_writes() {
        let h = small_nyx();
        let (report, _) = write_mem(&h, &AmricConfig::interp(1e-3), 8);
        assert!(report.compression_ratio() > 2.0);
    }

    #[test]
    fn filter_roundtrip_standalone() {
        // Bound = rel bound × data range used below.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3 * 3.2);
        let mut chunk = Vec::new();
        for u in 0..5 {
            for i in 0..64 {
                chunk.push((u * 64 + i) as f64 * 0.01);
            }
        }
        let enc = filter.encode(&chunk).unwrap();
        let dec = filter.decode(&enc, chunk.len()).unwrap();
        let range = chunk.len() as f64 * 0.01;
        for (o, r) in chunk.iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-3 * range + 1e-12);
        }
    }

    #[test]
    fn filter_rejects_non_unit_multiple_chunks() {
        // Regression: a chunk whose length is not a multiple of the unit
        // volume must surface as a typed error, not an assert panic.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let chunk = vec![0.0; 63]; // 4³ = 64 ∤ 63
        let err = filter.encode(&chunk).unwrap_err();
        assert!(
            matches!(err.as_codec(), Some(CodecError::DimsMismatch { .. })),
            "{err:?}"
        );
        let mut out = vec![0xAAu8; 3];
        assert!(filter.encode_into(&chunk, &mut out).is_err());
        // A zero unit edge is equally rejected (no division-by-zero path).
        let zero = AmricFieldFilter {
            unit_edge: 0,
            ..filter
        };
        assert!(zero.encode(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn parallel_write_is_byte_identical_to_serial() {
        // The tentpole invariant at the writer level: every dataset's
        // stored chunk bytes match between the serial path and the
        // overlapped pool path, for both codec families.
        let h = small_nyx();
        for (tag, cfg) in [
            ("lr", AmricConfig::lr(1e-3)),
            ("interp", AmricConfig::interp(1e-3)),
        ] {
            let (rs, a) = write_mem(&h, &cfg, 8);
            let (rp, b) = write_mem(&h, &cfg.with_workers(4), 8);
            assert_eq!(rs.stored_bytes, rp.stored_bytes, "{tag}");
            assert_eq!(a.dataset_names(), b.dataset_names(), "{tag}");
            for name in a.dataset_names() {
                let (ma, mb) = (a.meta(name).unwrap(), b.meta(name).unwrap());
                assert_eq!(ma.chunks.len(), mb.chunks.len(), "{tag}/{name}");
                for i in 0..ma.chunks.len() {
                    assert_eq!(
                        a.read_chunk_raw(name, i).unwrap(),
                        b.read_chunk_raw(name, i).unwrap(),
                        "{tag}/{name} chunk {i} bytes differ"
                    );
                }
            }
        }
    }

    #[test]
    fn field_jobs_with_leading_and_trailing_empty_fields() {
        // Zero-chunk fields before, between, and after chunked fields
        // must all register (the flush logic has to ride them along).
        let (writer, mem) = H5Writer::in_memory();
        let writer = Arc::new(writer);
        let w = Arc::clone(&writer);
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let receipts = rankpar::run_ranks(2, move |comm| {
            let mk = |f: usize, chunks: Vec<ChunkData>| FieldWriteJob {
                name: format!("f{f}"),
                chunks,
                chunk_elems: 128,
                filter,
                mode: FilterMode::SizeAware,
            };
            let data: Vec<f64> = (0..128).map(|i| (i as f64 * 0.03).sin()).collect();
            let jobs = vec![
                mk(0, Vec::new()),
                mk(1, vec![ChunkData::full(data.clone())]),
                mk(2, Vec::new()),
                mk(3, vec![ChunkData::full(data)]),
                mk(4, Vec::new()),
            ];
            write_field_parallel(&comm, &w, &jobs, 3).unwrap()
        });
        for r in &receipts {
            assert_eq!(r.len(), 5);
        }
        writer.finish().unwrap();
        let rd = H5Reader::from_storage(Box::new(mem)).unwrap();
        assert_eq!(rd.dataset_names(), vec!["f0", "f1", "f2", "f3", "f4"]);
        assert_eq!(rd.meta("f0").unwrap().chunks.len(), 0);
        assert_eq!(rd.meta("f1").unwrap().chunks.len(), 2);
    }

    #[test]
    fn multi_chunk_field_streams_batches_and_matches_serial() {
        // A field staging many chunks per rank: frames must stream to
        // storage in batches (bounded memory) and still produce the same
        // stored chunk bytes, in rank-major chunk order, as workers=1.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let chunk = |rank: usize, c: usize| {
            ChunkData::full(
                (0..128)
                    .map(|i| ((rank * 2048 + c * 128 + i) as f64 * 0.011).sin())
                    .collect(),
            )
        };
        let write = |workers: usize| {
            let (writer, mem) = H5Writer::in_memory();
            let writer = Arc::new(writer);
            let w = Arc::clone(&writer);
            let receipts = rankpar::run_ranks(2, move |comm| {
                let jobs = vec![FieldWriteJob {
                    name: "many".into(),
                    chunks: (0..11).map(|c| chunk(comm.rank(), c)).collect(),
                    chunk_elems: 128,
                    filter,
                    mode: FilterMode::SizeAware,
                }];
                write_field_parallel(&comm, &w, &jobs, workers).unwrap()
            });
            writer.finish().unwrap();
            (receipts, H5Reader::from_storage(Box::new(mem)).unwrap())
        };
        let (r1, a) = write(1);
        let (r4, b) = write(4);
        for (rs, rp) in r1.iter().zip(&r4) {
            assert_eq!(rs[0].0.filter_calls, 11);
            assert_eq!(rp[0].0.filter_calls, 11);
            assert_eq!(rs[0].0.bytes_written, rp[0].0.bytes_written);
        }
        let (ma, mb) = (a.meta("many").unwrap(), b.meta("many").unwrap());
        assert_eq!(ma.chunks.len(), 22);
        assert_eq!(mb.chunks.len(), 22);
        for i in 0..22 {
            assert_eq!(
                a.read_chunk_raw("many", i).unwrap(),
                b.read_chunk_raw("many", i).unwrap(),
                "chunk {i}"
            );
            assert_eq!(ma.chunks[i].logical_elems, mb.chunks[i].logical_elems);
        }
    }

    #[test]
    fn modeled_seconds_monotone_in_scale() {
        let h = small_nyx();
        let (report, _) = write_mem(&h, &AmricConfig::lr(1e-3), 8);
        let params = PfsParams::default();
        let (_, io) = report.modeled_seconds(&params);
        assert!(io > 0.0);
    }
}
