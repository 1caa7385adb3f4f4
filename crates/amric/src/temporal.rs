//! Cross-snapshot temporal compression sessions — threading the
//! `sz_codec::temporal` delta family through the AMRIC write/read paths.
//!
//! A [`TemporalSession`] writes a *series* of snapshots. Each one runs
//! the same AMRIC field loop as [`crate::writer::write_amric_to`] (same
//! planning, staging, global bound and chunk size, collective writes and
//! typed errors), with its own per-field encoder on a one-worker pool.
//! Each rank maps every unit against the previous snapshot's plan **by
//! region identity** (same level, same rank, same index-space box): units
//! whose region survived regridding delta-code against the previous
//! snapshot's *decoded* values; units whose region changed level or
//! layout fall back to the spatial-only path inside the same stream.
//! Mapped streams are additionally **size-gated**: a surviving region only
//! proves the layout held still, so each (level, rank, field) stream is
//! encoded both ways and the smaller one ships — temporal output is never
//! larger than spatial-only output, even under dynamics violent enough
//! that residuals cost more than the field itself. The session retains
//! the decoded state of everything it writes, as returned by the codec
//! while encoding: delta units reconstruct as they are quantized, and
//! spatial units keep the reconstruction the SZ_L/R encoder builds for
//! its own prediction. So the next snapshot predicts from exactly what
//! any reader will reconstruct, and error never accumulates across steps.
//!
//! Reference linkage is recorded twice, at different granularities:
//!
//! * the per-chunk **chunk index** entry carries the reference snapshot
//!   id ([`h5lite::ChunkIndexEntry::reference`]) so random access — the
//!   `amr-query` planner — can resolve which prior file a delta chunk
//!   needs without decoding anything, and
//! * the small `meta/temporal` dataset stores
//!   `[snapshot_id, reference_id]` for the whole file (0 = none).
//!
//! `decompress_auto` keeps working stream-by-stream: spatial-only
//! temporal streams are self-contained, and delta streams fail with a
//! typed error naming the missing reference rather than decoding wrong
//! data (see the `sz_codec::temporal` module docs).

use crate::pipeline::AmricScratch;
use crate::preprocess::UnitRef;
use crate::reader::{read_plotfile_meta, Plotfile};
use crate::writer::{
    field_dataset, write_amric_fields, FieldEncoder, FieldScheme, Retained, WriteReport,
};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use sz_codec::codec::CodecId;
use sz_codec::quantizer::absolute_bound;
use sz_codec::temporal::{TemporalCodec, TemporalConfig, TemporalReference};
use sz_codec::{Buffer3, Codec, CodecError, Dims3};

/// Filter id for the temporal delta filter (registered like the AMRIC
/// filter, outside h5lite's built-in registry).
pub const FILTER_TEMPORAL: u32 = 101;

/// Chunk-filter face of the temporal family — carries the dataset
/// metadata (filter id, unit edge) and decodes **self-contained** chunks
/// for generic readers. Delta chunks need their reference and are decoded
/// by [`read_temporal_hierarchy`], which resolves references per rank.
#[derive(Clone, Copy, Debug)]
pub struct TemporalFieldFilter {
    /// Unit-block edge for the level being written.
    pub unit_edge: usize,
}

impl ChunkFilter for TemporalFieldFilter {
    fn id(&self) -> u32 {
        FILTER_TEMPORAL
    }

    fn client_data(&self) -> Vec<u8> {
        vec![self.unit_edge as u8]
    }

    fn encode_into(&self, _chunk: &[f64], _out: &mut Vec<u8>) -> H5Result<()> {
        // The session encodes through the codec directly (it needs the
        // decoded state back); the filter only describes the dataset.
        Err(H5Error::Format(
            "TemporalFieldFilter encodes through TemporalSession".into(),
        ))
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        let units = TemporalCodec::decoder()
            .decompress(bytes)
            .map_err(H5Error::Codec)?;
        let mut out = Vec::with_capacity(n_elems);
        for u in units {
            out.extend_from_slice(u.data());
        }
        if out.len() < n_elems {
            return Err(H5Error::Format(format!(
                "temporal chunk decoded {} elems, need {n_elems}",
                out.len()
            )));
        }
        out.truncate(n_elems);
        Ok(out)
    }
}

/// Session-level configuration (a snapshot's streams are still fully
/// self-describing; this drives the write side only). Sessions always
/// remove redundant coarse data under finer levels (paper §3.1), and the
/// spatial fallback streams use the stock 6³ SZ blocks.
#[derive(Clone, Copy, Debug)]
pub struct TemporalSessionConfig {
    /// Value-range-relative error bound, resolved per (level, field)
    /// against the global range — same REL semantics as the AMRIC writer.
    pub rel_eb: f64,
}

impl TemporalSessionConfig {
    /// Stock configuration at the given relative bound.
    pub fn new(rel_eb: f64) -> Self {
        TemporalSessionConfig { rel_eb }
    }
}

/// Everything the session retains about the previous snapshot: its id,
/// its unit plans (for region-identity mapping), and the decoded units of
/// every (level, rank, field) stream, already wrapped as codec references.
struct PrevSnapshot {
    id: u64,
    nfields: usize,
    /// `[level][rank]` unit plans of the previous snapshot.
    plans: Vec<Vec<Vec<UnitRef>>>,
    /// `[level][rank][field]` decoded reference state.
    refs: Vec<Vec<Vec<Arc<TemporalReference>>>>,
}

/// A multi-snapshot temporal write session. Create one per series, call
/// [`TemporalSession::write`] once per snapshot (each snapshot is its own
/// container file); the first snapshot — and any unit whose region the
/// regrid schedule moved — is coded spatially, everything else as deltas.
pub struct TemporalSession {
    cfg: TemporalSessionConfig,
    bf: i64,
    next_id: u64,
    prev: Option<PrevSnapshot>,
    /// Automatic keyframe cadence: every `n`-th write drops the retained
    /// reference first (0 = never, the default).
    keyframe_interval: u64,
    /// Writes since the last keyframe (a spatial-only snapshot).
    since_keyframe: u64,
}

/// Corner-tuple key for region-identity unit mapping (IntBox carries no
/// Hash impl; the corners are the identity that matters).
fn region_key(b: &IntBox) -> ([i64; 3], [i64; 3]) {
    (
        [b.lo.get(0), b.lo.get(1), b.lo.get(2)],
        [b.hi.get(0), b.hi.get(1), b.hi.get(2)],
    )
}

/// Shape of a unit's index-space region.
fn unit_dims(region: &IntBox) -> Dims3 {
    let sz = region.size();
    Dims3::new(sz.get(0) as usize, sz.get(1) as usize, sz.get(2) as usize)
}

/// The temporal session's side of the AMRIC field loop.
struct TemporalScheme<'a> {
    rel_eb: f64,
    /// Id of the previous snapshot, if the session holds one.
    prev_id: Option<u64>,
    /// The previous snapshot, when its fields line up with this one's.
    prev: Option<&'a PrevSnapshot>,
}

/// A rank's level under the temporal scheme.
struct TemporalLevel<'a> {
    /// Unit shapes, to cut the staged chunk back apart.
    dims: Vec<Dims3>,
    /// Per unit, its index in the previous snapshot's plan.
    unit_refs: Vec<Option<u32>>,
    /// The previous snapshot's per-field state, when any unit maps.
    refs: Option<&'a [Arc<TemporalReference>]>,
}

impl<'a> FieldScheme for TemporalScheme<'a> {
    type Level = TemporalLevel<'a>;
    type Encoder = TemporalFieldEncoder;
    const CODEC: CodecId = CodecId::Temporal;

    fn remove_redundancy(&self) -> bool {
        true
    }

    fn mode(&self) -> FilterMode {
        FilterMode::SizeAware
    }

    fn workers(&self) -> usize {
        1
    }

    /// Regrid-aware mapping: a unit delta-codes iff the same region
    /// existed in this rank's plan for this level last snapshot. Any
    /// level/layout change (refined away, coarsened, redistributed,
    /// re-truncated) misses the map and falls back to spatial coding.
    fn level(&self, rank: usize, l: usize, units: &[UnitRef]) -> TemporalLevel<'a> {
        let prev = self
            .prev
            .and_then(|p| Some((p.plans.get(l)?.get(rank)?, p.refs.get(l)?.get(rank)?)));
        let unit_refs: Vec<Option<u32>> = match prev {
            Some((plan, _)) => {
                let by_region: HashMap<_, u32> = plan
                    .iter()
                    .enumerate()
                    .map(|(i, u)| (region_key(&u.region), i as u32))
                    .collect();
                units
                    .iter()
                    .map(|u| by_region.get(&region_key(&u.region)).copied())
                    .collect()
            }
            None => vec![None; units.len()],
        };
        TemporalLevel {
            dims: units.iter().map(|u| unit_dims(&u.region)).collect(),
            refs: prev
                .filter(|_| unit_refs.iter().any(Option::is_some))
                .map(|(_, refs)| refs.as_slice()),
            unit_refs,
        }
    }

    fn encoder(
        &self,
        level: &TemporalLevel<'a>,
        f: usize,
        unit_edge: usize,
        range: f64,
    ) -> TemporalFieldEncoder {
        TemporalFieldEncoder {
            filter: TemporalFieldFilter { unit_edge },
            cfg: TemporalConfig::new(absolute_bound(self.rel_eb, range)),
            dims: level.dims.clone(),
            reference: level
                .refs
                .map(|refs| (Arc::clone(&refs[f]), level.unit_refs.clone())),
        }
    }

    /// The chunk index records the reference only where some field
    /// stream of the (level, rank) actually shipped delta-coded bytes.
    fn reference(&self, retained: &[Vec<Retained<Self>>]) -> Option<u64> {
        let delta = retained.iter().flatten().any(|(_, delta)| *delta);
        self.prev_id.filter(|_| delta)
    }
}

/// The temporal per-field encoder: size-gated delta-vs-spatial coding
/// that retains the decoded state a reader will reconstruct.
struct TemporalFieldEncoder {
    filter: TemporalFieldFilter,
    cfg: TemporalConfig,
    /// Shapes of the rank's units, to cut the staged chunk back apart.
    dims: Vec<Dims3>,
    /// The previous snapshot's state of this field and the per-unit map.
    reference: Option<(Arc<TemporalReference>, Vec<Option<u32>>)>,
}

impl FieldEncoder for TemporalFieldEncoder {
    /// The decoded units, and whether the delta stream shipped.
    type Retained = (Vec<Buffer3>, bool);

    fn filter(&self) -> &dyn ChunkFilter {
        &self.filter
    }

    /// Size-aware mode choice: a surviving region only proves the
    /// *layout* held still — violent dynamics can make residuals cost
    /// more than re-coding the field spatially. Encode both ways when a
    /// mapping exists and ship the smaller stream, so temporal output is
    /// never larger than spatial-only output.
    fn encode_chunk(
        &self,
        chunk: &[f64],
        _scratch: &mut AmricScratch,
        out: &mut Vec<u8>,
    ) -> H5Result<Self::Retained> {
        let total: usize = self.dims.iter().map(|d| d.len()).sum();
        if chunk.len() != total {
            return Err(H5Error::Codec(CodecError::dims(format!(
                "chunk of {} elems, units hold {total}",
                chunk.len()
            ))));
        }
        let mut rest = chunk;
        let units: Vec<Buffer3> = self
            .dims
            .iter()
            .map(|&d| {
                let (unit, tail) = rest.split_at(d.len());
                rest = tail;
                Buffer3::from_vec(d, unit.to_vec())
            })
            .collect();
        let (_, mut decoded) = TemporalCodec::spatial(self.cfg).compress_with_state(&units, out)?;
        let mut delta = false;
        if let Some((reference, unit_refs)) = &self.reference {
            let codec =
                TemporalCodec::with_reference(self.cfg, Arc::clone(reference), unit_refs.clone());
            let mut delta_bytes = Vec::new();
            let (_, delta_decoded) = codec.compress_with_state(&units, &mut delta_bytes)?;
            if delta_bytes.len() < out.len() {
                *out = delta_bytes;
                decoded = delta_decoded;
                delta = true;
            }
        }
        Ok((decoded, delta))
    }
}

impl TemporalSession {
    /// New session; `bf` is the blocking factor of the hierarchies the
    /// session will write (drives unit sizes, fixed across the series).
    pub fn new(cfg: TemporalSessionConfig, bf: i64) -> Self {
        TemporalSession {
            cfg,
            bf,
            next_id: 1,
            prev: None,
            keyframe_interval: 0,
            since_keyframe: 0,
        }
    }

    /// Automatic [`reset_reference`](TemporalSession::reset_reference)
    /// cadence: every `n`-th snapshot is written spatial-only (a
    /// keyframe), bounding every delta chain to `n - 1` links so a reader
    /// never has to walk more than `n` files and a lost snapshot orphans
    /// at most one interval. `n = 1` disables delta coding entirely;
    /// `n = 0` means no automatic cadence (the default). A manual
    /// `reset_reference` call restarts the interval count.
    pub fn with_keyframe_interval(mut self, n: u64) -> Self {
        self.keyframe_interval = n;
        self
    }

    /// Snapshot id the next [`TemporalSession::write`] call will record.
    pub fn next_snapshot_id(&self) -> u64 {
        self.next_id
    }

    /// Drop the retained reference state: the next snapshot is written
    /// spatial-only, starting a fresh delta chain.
    pub fn reset_reference(&mut self) {
        self.prev = None;
        self.since_keyframe = 0;
    }

    /// Write one snapshot of the series to a new container at `path`.
    pub fn write(
        &mut self,
        path: impl AsRef<std::path::Path>,
        h: &AmrHierarchy,
    ) -> H5Result<WriteReport> {
        self.write_to(Arc::new(H5Writer::create(path)?), h)
    }

    /// Backend-agnostic variant of [`TemporalSession::write`]: runs the
    /// rank collectives against an already-created writer and finishes
    /// the container. A failed write leaves the session as it was: the
    /// snapshot id is not used up and the reference is kept.
    pub fn write_to(&mut self, writer: Arc<H5Writer>, h: &AmrHierarchy) -> H5Result<WriteReport> {
        // Keyframe cadence: due snapshots drop the reference *before*
        // encoding, so the stream, chunk index, and `meta/temporal` all
        // record a self-contained snapshot (no reference anywhere).
        if self.keyframe_interval > 0 && self.since_keyframe >= self.keyframe_interval {
            self.reset_reference();
        }
        let num_levels = h.num_levels();
        let nfields = h.field_names().len();
        let id = self.next_id;
        let prev_id = self.prev.as_ref().map(|p| p.id);
        let scheme = TemporalScheme {
            rel_eb: self.cfg.rel_eb,
            prev_id,
            prev: self.prev.as_ref().filter(|p| p.nfields == nfields),
        };
        let (report, per_rank) = write_amric_fields(&writer, h, self.bf, &scheme)?;

        // Retain what a reader will reconstruct, in [level][rank] order.
        let mut plans: Vec<Vec<Vec<UnitRef>>> = vec![Vec::new(); num_levels];
        let mut refs: Vec<Vec<Vec<Arc<TemporalReference>>>> = vec![Vec::new(); num_levels];
        for levels in per_rank {
            for (l, level) in levels.into_iter().enumerate() {
                plans[l].push(level.plan);
                refs[l].push(
                    level
                        .retained
                        .into_iter()
                        .map(|kept| {
                            let decoded = kept.into_iter().next().map(|(d, _)| d);
                            Arc::new(TemporalReference::new(id, decoded.unwrap_or_default()))
                        })
                        .collect(),
                );
            }
        }
        // Whole-file temporal linkage (0 = no reference).
        writer.write_dataset(
            "meta/temporal",
            &[id as f64, prev_id.unwrap_or(0) as f64],
            2,
            &NoFilter,
        )?;
        writer.finish()?;

        self.prev = Some(PrevSnapshot {
            id,
            nfields,
            plans,
            refs,
        });
        self.next_id += 1;
        self.since_keyframe += 1;
        Ok(report)
    }
}

/// Temporal linkage of one file, from its `meta/temporal` dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalMeta {
    /// This snapshot's id within its write session.
    pub snapshot_id: u64,
    /// Snapshot id this file's delta chunks predict from, if any.
    pub reference_id: Option<u64>,
}

/// Read the temporal linkage of an open container. Errors on files
/// without a `meta/temporal` dataset (non-temporal plotfiles).
pub fn read_temporal_meta(r: &H5Reader) -> H5Result<TemporalMeta> {
    let raw = r.read_dataset("meta/temporal")?;
    if raw.len() < 2 {
        return Err(H5Error::Format(format!(
            "meta/temporal holds {} values, expected 2",
            raw.len()
        )));
    }
    let reference = raw[1] as u64;
    Ok(TemporalMeta {
        snapshot_id: raw[0] as u64,
        reference_id: (reference != 0).then_some(reference),
    })
}

/// Decoded reference state carried between [`read_temporal_hierarchy`]
/// calls — the read-side mirror of the session's retained state.
pub struct TemporalReadState {
    /// Snapshot id of the decoded file.
    pub id: u64,
    /// `[level][rank][field]` decoded reference state.
    refs: Vec<Vec<Vec<Arc<TemporalReference>>>>,
}

/// Load one snapshot of a temporal series from an open container,
/// resolving delta chunks against `prev` (the state returned by decoding
/// the referenced snapshot). Pass `None` for the first snapshot of a
/// chain; a delta file decoded without its reference fails with a typed
/// error, and a `prev` whose id does not match the file's recorded
/// reference id is rejected before any chunk is touched.
pub fn read_temporal_hierarchy(
    r: &H5Reader,
    prev: Option<&TemporalReadState>,
) -> H5Result<(Plotfile, TemporalReadState)> {
    let meta = read_plotfile_meta(r)?;
    let tmeta = read_temporal_meta(r)?;
    if let (Some(rid), Some(p)) = (tmeta.reference_id, prev) {
        if p.id != rid {
            return Err(H5Error::Format(format!(
                "file references snapshot {rid}, reader holds {}",
                p.id
            )));
        }
    }
    let nfields = meta.field_names.len();
    let domains: Vec<IntBox> = meta.levels.iter().map(|l| l.domain).collect();
    let mut levels: Vec<MultiFab> = meta
        .levels
        .iter()
        .map(|l| MultiFab::new(l.boxes.clone(), l.owners.clone(), meta.field_names.clone()))
        .collect();
    let unit_plans = meta.unit_plans();
    let mut refs: Vec<Vec<Vec<Arc<TemporalReference>>>> = Vec::with_capacity(meta.num_levels());
    for l in 0..meta.num_levels() {
        let nchunks = r.meta(&field_dataset(l, 0))?.chunks.len();
        let mut level_refs: Vec<Vec<Arc<TemporalReference>>> = Vec::with_capacity(meta.nranks);
        for (rank, plan) in unit_plans[l].iter().enumerate().take(meta.nranks) {
            let mut rank_refs = Vec::with_capacity(nfields);
            for f in 0..nfields {
                if rank >= nchunks {
                    // Chunk-less level: nothing stored, nothing to
                    // reference next snapshot.
                    rank_refs.push(Arc::new(TemporalReference::new(
                        tmeta.snapshot_id,
                        Vec::new(),
                    )));
                    continue;
                }
                let raw = r.read_chunk_raw(&field_dataset(l, f), rank)?;
                let codec = match prev {
                    Some(p) if l < p.refs.len() && rank < p.refs[l].len() => {
                        TemporalCodec::decoder_with(p.refs[l][rank][f].clone())
                    }
                    _ => TemporalCodec::decoder(),
                };
                let units = codec.decompress(&raw).map_err(H5Error::Codec)?;
                if units.len() != plan.len() {
                    return Err(H5Error::Codec(CodecError::dims(format!(
                        "level {l} field {f} rank {rank}: {} units decoded, plan has {}",
                        units.len(),
                        plan.len()
                    ))));
                }
                for (u, p) in units.iter().zip(plan) {
                    let want = unit_dims(&p.region);
                    if u.dims() != want {
                        return Err(H5Error::Codec(CodecError::dims(format!(
                            "level {l} field {f} rank {rank}: unit dims {:?} != plan {want:?}",
                            u.dims()
                        ))));
                    }
                }
                // Units are checked against the plan above, so the
                // scatter's shape asserts cannot fire.
                crate::preprocess::scatter_units(&mut levels[l], plan, f, &units);
                rank_refs.push(Arc::new(TemporalReference::new(tmeta.snapshot_id, units)));
            }
            level_refs.push(rank_refs);
        }
        refs.push(level_refs);
    }
    let pf = Plotfile {
        field_names: meta.field_names,
        levels,
        domains,
        bf: meta.bf,
        remove_redundancy: meta.remove_redundancy,
        unit_plans,
    };
    Ok((
        pf,
        TemporalReadState {
            id: tmeta.snapshot_id,
            refs,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::verify_against;
    use amr_apps::prelude::*;

    fn series_cfg() -> AmrRunConfig {
        AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        }
    }

    fn write_series(dt: f64, nsteps: usize, rel_eb: f64) -> Vec<(AmrHierarchy, H5Reader)> {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session = TemporalSession::new(TemporalSessionConfig::new(rel_eb), 8);
        TimeSeries::new(&scenario, cfg, dt, nsteps)
            .map(|(_, _, h)| {
                let (w, mem) = H5Writer::in_memory();
                session.write_to(Arc::new(w), &h).unwrap();
                (h, H5Reader::from_storage(Box::new(mem)).unwrap())
            })
            .collect()
    }

    #[test]
    fn series_roundtrip_respects_bounds() {
        let rel_eb = 1e-3;
        let series = write_series(0.02, 3, rel_eb);
        let mut state: Option<TemporalReadState> = None;
        for (step, (h, reader)) in series.iter().enumerate() {
            let (pf, next) = read_temporal_hierarchy(reader, state.as_ref()).unwrap();
            for c in verify_against(&pf, h, rel_eb) {
                assert!(c.bound_ok, "step {step} field {} violates bound", c.field);
            }
            state = Some(next);
        }
    }

    #[test]
    fn later_snapshots_record_reference_linkage() {
        let series = write_series(0.02, 2, 1e-3);
        let first = read_temporal_meta(&series[0].1).unwrap();
        assert_eq!(first.snapshot_id, 1);
        assert_eq!(first.reference_id, None);
        let second = read_temporal_meta(&series[1].1).unwrap();
        assert_eq!(second.snapshot_id, 2);
        assert_eq!(second.reference_id, Some(1));
        // The chunk index carries the reference per chunk.
        let idx = series[1].1.chunk_index("level_0/field_0").unwrap().unwrap();
        assert!(!idx.entries.is_empty());
        assert!(
            idx.entries.iter().any(|e| e.reference == Some(1)),
            "no chunk records its reference: {:?}",
            idx.entries
        );
        assert!(idx
            .entries
            .iter()
            .all(|e| e.codec_id == CodecId::Temporal as u32));
    }

    #[test]
    fn delta_file_without_reference_fails_typed() {
        let series = write_series(0.02, 2, 1e-3);
        let err = match read_temporal_hierarchy(&series[1].1, None) {
            Err(e) => e,
            Ok(_) => panic!("delta file must not decode without its reference"),
        };
        assert!(
            matches!(err.as_codec(), Some(CodecError::BadParameter { .. })),
            "{err:?}"
        );
        // Mismatched reference state is rejected up front.
        let (_, state0) = read_temporal_hierarchy(&series[0].1, None).unwrap();
        let (_, state1) = read_temporal_hierarchy(&series[1].1, Some(&state0)).unwrap();
        assert!(read_temporal_hierarchy(&series[1].1, Some(&state1)).is_err());
    }

    #[test]
    fn session_reset_starts_fresh_chain() {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
        let h = build_hierarchy(&scenario, &cfg, 0.0);
        let (w1, m1) = H5Writer::in_memory();
        session.write_to(Arc::new(w1), &h).unwrap();
        session.reset_reference();
        let (w2, m2) = H5Writer::in_memory();
        session.write_to(Arc::new(w2), &h).unwrap();
        let r2 = H5Reader::from_storage(Box::new(m2)).unwrap();
        assert_eq!(read_temporal_meta(&r2).unwrap().reference_id, None);
        // Self-contained: decodes with no prior state.
        let (pf, _) = read_temporal_hierarchy(&r2, None).unwrap();
        for c in verify_against(&pf, &h, 1e-3) {
            assert!(c.bound_ok);
        }
        drop(m1);
    }

    #[test]
    fn keyframe_interval_resets_chain_automatically() {
        // Interval 2: snapshots 1, 3, 5, … are keyframes. The chain
        // contract for a keyframe is total — `meta/temporal` records no
        // reference, every chunk index entry carries none, and the file
        // decodes with no prior state.
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(2);
        let series: Vec<(AmrHierarchy, H5Reader)> = TimeSeries::new(&scenario, cfg, 0.02, 5)
            .map(|(_, _, h)| {
                let (w, mem) = H5Writer::in_memory();
                session.write_to(Arc::new(w), &h).unwrap();
                (h, H5Reader::from_storage(Box::new(mem)).unwrap())
            })
            .collect();
        let refs: Vec<Option<u64>> = series
            .iter()
            .map(|(_, r)| read_temporal_meta(r).unwrap().reference_id)
            .collect();
        assert_eq!(refs, vec![None, Some(1), None, Some(3), None]);
        for keyframe in [2usize, 4] {
            let (h, reader) = &series[keyframe];
            let meta = read_plotfile_meta(reader).unwrap();
            for l in 0..meta.num_levels() {
                for f in 0..meta.field_names.len() {
                    let idx = reader.chunk_index(&field_dataset(l, f)).unwrap().unwrap();
                    for e in &idx.entries {
                        assert_eq!(e.reference, None, "keyframe chunk carries a reference");
                    }
                }
            }
            // Self-contained: decodes with no prior state, within bound.
            let (pf, _) = read_temporal_hierarchy(reader, None).unwrap();
            for c in verify_against(&pf, h, 1e-3) {
                assert!(c.bound_ok);
            }
        }
        // A delta snapshot in between still needs its reference.
        assert!(read_temporal_hierarchy(&series[1].1, None).is_err());
    }

    #[test]
    fn keyframe_interval_one_disables_deltas_and_manual_reset_restarts_count() {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut every =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(1);
        for (_, _, h) in TimeSeries::new(&scenario, cfg, 0.02, 3) {
            let (w, mem) = H5Writer::in_memory();
            every.write_to(Arc::new(w), &h).unwrap();
            let r = H5Reader::from_storage(Box::new(mem)).unwrap();
            assert_eq!(read_temporal_meta(&r).unwrap().reference_id, None);
        }
        // Manual reset restarts the interval: with interval 3, snapshots
        // 1 and 4 would be keyframes, but a reset before #3 makes the
        // cadence 1, 3, 6.
        let mut session =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(3);
        let mut refs = Vec::new();
        for (i, (_, _, h)) in TimeSeries::new(&scenario, cfg, 0.02, 6).enumerate() {
            if i == 2 {
                session.reset_reference();
            }
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            let r = H5Reader::from_storage(Box::new(mem)).unwrap();
            refs.push(read_temporal_meta(&r).unwrap().reference_id);
        }
        assert_eq!(
            refs,
            vec![None, Some(1), None, Some(3), Some(4), None],
            "manual reset must restart the keyframe count"
        );
    }

    #[test]
    fn decompress_auto_handles_every_stream_given_reference() {
        // Acceptance criterion: every temporal stream round-trips bitwise
        // through decompress_auto given its reference — a registry with
        // the right reference installed returns exactly what the session
        // reader reconstructs.
        let series = write_series(0.02, 2, 1e-3);
        let (_, state0) = read_temporal_hierarchy(&series[0].1, None).unwrap();
        let (pf1, _) = read_temporal_hierarchy(&series[1].1, Some(&state0)).unwrap();
        let reader = &series[1].1;
        let meta = read_plotfile_meta(reader).unwrap();
        for l in 0..meta.num_levels() {
            for f in 0..meta.field_names.len() {
                let name = field_dataset(l, f);
                let nchunks = reader.meta(&name).unwrap().chunks.len();
                for rank in 0..nchunks {
                    let raw = reader.read_chunk_raw(&name, rank).unwrap();
                    let mut reg = crate::codec::default_registry();
                    reg.register(Box::new(TemporalCodec::decoder_with(
                        state0.refs[l][rank][f].clone(),
                    )));
                    let units = reg.decompress_auto(&raw).unwrap();
                    // Bitwise parity with the session reader's scatter.
                    let plan = &pf1.unit_plans[l][rank];
                    for (u, p) in units.iter().zip(plan) {
                        let recon = pf1.levels[l].fab(p.box_index).extract_region(&p.region, f);
                        for (a, b) in u.data().iter().zip(&recon) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                }
            }
        }
    }
}
