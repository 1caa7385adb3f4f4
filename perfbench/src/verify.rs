//! Correctness gate: decode written containers, check the error bound
//! `max|x − x̂| ≤ eb·range` per (level, field), and fingerprint stored
//! payloads so repeated snapshots can be proven byte-identical.

use amr_mesh::prelude::*;
use amric::prelude::*;
use amric::writer::field_dataset;
use h5lite::H5Reader;
use std::hash::Hasher as _;
use std::time::Instant;
use sz_codec::prelude::*;

/// PSNR reported for an exact reconstruction (keeps the output finite).
pub const PSNR_CAP_DB: f64 = 300.0;

/// Every chunk of a container decoded back to unit blocks.
pub struct Decoded {
    /// Structural metadata of the container.
    pub meta: PlotfileMeta,
    /// Unit plans `[level][rank]`, as the reader reconstructs them.
    pub plans: Vec<Vec<Vec<UnitRef>>>,
    /// Decoded units `[level][field][rank][unit]`.
    pub units: Vec<Vec<Vec<Vec<Buffer3>>>>,
    /// Fingerprint of the stored field payloads (spatial containers) or
    /// of the decoded values (temporal snapshots).
    pub digest: u64,
    /// Time spent in the codec's decode alone.
    pub decode_ms: f64,
    /// Decoded bytes produced.
    pub decoded_bytes: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Visit every stored field chunk as `(level, field, rank, raw bytes)`.
fn for_each_chunk(
    r: &H5Reader,
    meta: &PlotfileMeta,
    mut visit: impl FnMut(usize, usize, usize, Option<Vec<u8>>) -> Result<(), String>,
) -> Result<(), String> {
    for l in 0..meta.num_levels() {
        for f in 0..meta.field_names.len() {
            let name = field_dataset(l, f);
            let nchunks = r.meta(&name).map_err(|e| err(&name, e))?.chunks.len();
            for rank in 0..meta.nranks {
                let raw = if rank < nchunks {
                    Some(r.read_chunk_raw(&name, rank).map_err(|e| err(&name, e))?)
                } else {
                    None
                };
                visit(l, f, rank, raw)?;
            }
        }
    }
    Ok(())
}

/// Fingerprint of every stored field chunk, in dataset order.
pub fn digest(r: &H5Reader) -> Result<u64, String> {
    let meta = read_plotfile_meta(r).map_err(|e| err("meta", e))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for_each_chunk(r, &meta, |_, _, _, raw| {
        if let Some(raw) = raw {
            h.write(&raw);
        }
        Ok(())
    })?;
    Ok(h.finish())
}

/// Decode every chunk of a spatial (non-temporal) container with
/// `read_chunk_raw` + `decompress_auto`.
pub fn decode_spatial(r: &H5Reader) -> Result<Decoded, String> {
    let meta = read_plotfile_meta(r).map_err(|e| err("meta", e))?;
    let plans = meta.unit_plans();
    let nfields = meta.field_names.len();
    let mut units: Vec<Vec<Vec<Vec<Buffer3>>>> = (0..meta.num_levels())
        .map(|_| (0..nfields).map(|_| Vec::new()).collect())
        .collect();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let (mut decode_ms, mut decoded_bytes) = (0.0, 0u64);
    for_each_chunk(r, &meta, |l, f, rank, raw| {
        let decoded = match raw {
            Some(raw) => {
                h.write(&raw);
                let t = Instant::now();
                let u = decompress_auto(&raw).map_err(|e| err("decode", e))?;
                decode_ms += t.elapsed().as_secs_f64() * 1e3;
                u
            }
            None => Vec::new(),
        };
        if decoded.len() != plans[l][rank].len() {
            return Err(format!(
                "level {l} field {f} rank {rank}: {} units decoded, plan has {}",
                decoded.len(),
                plans[l][rank].len()
            ));
        }
        decoded_bytes += decoded
            .iter()
            .map(|b| b.data().len() as u64 * 8)
            .sum::<u64>();
        units[l][f].push(decoded);
        Ok(())
    })?;
    Ok(Decoded {
        meta,
        plans,
        units,
        digest: h.finish(),
        decode_ms,
        decoded_bytes,
    })
}

/// Decode one snapshot of a temporal series through
/// `read_temporal_hierarchy`, resolving deltas against `prev`.
pub fn decode_temporal(
    r: &H5Reader,
    prev: Option<&TemporalReadState>,
) -> Result<(Decoded, TemporalReadState), String> {
    let meta = read_plotfile_meta(r).map_err(|e| err("meta", e))?;
    let t = Instant::now();
    let (pf, state) = read_temporal_hierarchy(r, prev).map_err(|e| err("temporal read", e))?;
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    let nfields = pf.field_names.len();
    let units: Vec<Vec<Vec<Vec<Buffer3>>>> = (0..pf.levels.len())
        .map(|l| {
            (0..nfields)
                .map(|f| {
                    pf.unit_plans[l]
                        .iter()
                        .map(|plan| extract_units(&pf.levels[l], plan, f))
                        .collect()
                })
                .collect()
        })
        .collect();
    // Word-at-a-time multiplicative hash: the decoded snapshot is ~1 M
    // values, too many for SipHash between every two writes.
    let (mut fingerprint, mut decoded_bytes) = (0u64, 0u64);
    for b in units.iter().flatten().flatten().flatten() {
        decoded_bytes += b.data().len() as u64 * 8;
        for v in b.data() {
            fingerprint =
                (fingerprint.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x517C_C1B7_2722_0A95);
        }
    }
    Ok((
        Decoded {
            meta,
            plans: pf.unit_plans,
            units,
            digest: fingerprint,
            decode_ms,
            decoded_bytes,
        },
        state,
    ))
}

/// Outcome of the error-bound check of one snapshot.
#[derive(Clone, Copy, Debug)]
pub struct BoundCheck {
    /// Cells outside `eb·range`, over every (level, field).
    pub violations: u64,
    /// Lowest PSNR over every (level, field).
    pub psnr_db_min: f64,
}

/// Compare decoded units against the original hierarchy on the cells the
/// writer kept, with the bound resolved per (level, field) against the
/// global value range as the writer resolves it. `perturb` shifts one
/// reconstructed cell by twice the bound first (the negative test).
pub fn check_bound(
    original: &AmrHierarchy,
    dec: &Decoded,
    rel_eb: f64,
    mut perturb: bool,
) -> Result<BoundCheck, String> {
    if original.num_levels() != dec.plans.len() {
        return Err(format!(
            "{} levels written, {} read back",
            original.num_levels(),
            dec.plans.len()
        ));
    }
    let mut out = BoundCheck {
        violations: 0,
        psnr_db_min: PSNR_CAP_DB,
    };
    for (l, plans) in dec.plans.iter().enumerate() {
        for f in 0..original.field_names().len() {
            let orig: Vec<Vec<Buffer3>> = plans
                .iter()
                .map(|plan| extract_units(&original.level(l).data, plan, f))
                .collect();
            let (lo, hi) = orig
                .iter()
                .flatten()
                .flat_map(|b| b.data())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            if lo > hi {
                continue; // no rank kept a cell of this level
            }
            let range = hi - lo;
            let eb = absolute_bound(rel_eb, range) * (1.0 + 1e-9);
            let (mut sq, mut n) = (0.0f64, 0usize);
            for (rank, ou) in orig.iter().enumerate() {
                let ru = &dec.units[l][f][rank];
                if ou.len() != ru.len() {
                    return Err(format!(
                        "level {l} field {f} rank {rank}: unit count differs"
                    ));
                }
                for (o, r) in ou.iter().zip(ru) {
                    if o.dims() != r.dims() {
                        return Err(format!(
                            "level {l} field {f} rank {rank}: unit shape differs"
                        ));
                    }
                    for (&x, &y) in o.data().iter().zip(r.data()) {
                        let y = if perturb {
                            perturb = false;
                            y + 2.0 * eb
                        } else {
                            y
                        };
                        let e = (x - y).abs();
                        if e > eb || e.is_nan() {
                            out.violations += 1;
                        }
                        sq += e * e;
                        n += 1;
                    }
                }
            }
            let mse = sq / n.max(1) as f64;
            let psnr = if mse > 0.0 && range > 0.0 {
                20.0 * range.log10() - 10.0 * mse.log10()
            } else {
                PSNR_CAP_DB
            };
            out.psnr_db_min = out.psnr_db_min.min(psnr.min(PSNR_CAP_DB));
        }
    }
    Ok(out)
}
