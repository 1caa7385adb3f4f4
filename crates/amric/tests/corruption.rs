//! Fuzz-lite robustness suite for the self-describing wire formats.
//!
//! Every decoder must be total over `&[u8]`: corrupted or truncated
//! AMRIC, TAC, and zMesh streams (and the underlying SZ_L/R / SZ_Interp
//! containers) return `Err` — they never panic, never assert, and never
//! let a flipped length field drive an absurd allocation. The tests
//! derive corrupt inputs from valid streams by truncation and byte
//! flips; a panic anywhere fails the test by unwinding.

#[path = "../../sz-codec/tests/support/capped_alloc.rs"]
mod capped_alloc;

use amr_apps::prelude::*;
use amr_mesh::IntVect;
use amric::config::AmricConfig;
use amric::pipeline::{compress_field_units, decompress_field_units};
use amric::tac::{tac_compress, tac_decompress};
use amric::zmesh::{zmesh_compress, zmesh_decompress};
use amric::MergePolicy;
use sz_codec::prelude::*;
use sz_codec::CodecError;

/// Unit blocks with mild structure (so all pipeline modes exercise their
/// real paths: selection bitmaps, outliers, huffman tables, LZ matches).
fn units(n: usize, edge: usize) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(edge));
            b.fill_with(|i, j, k| {
                (u as f64 * 1.3).sin() * 20.0
                    + ((i as f64 * 0.5).sin() + (j as f64 * 0.4).cos()) * (1.0 + k as f64 * 0.05)
            });
            b
        })
        .collect()
}

fn origins(n: usize, edge: usize) -> Vec<IntVect> {
    (0..n)
        .map(|u| {
            let u = u as i64;
            let e = edge as i64;
            IntVect::new((u % 3) * e, ((u / 3) % 3) * e, (u / 9) * e)
        })
        .collect()
}

/// Truncation lengths to probe: every short prefix, then an even spread.
fn truncation_points(len: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..len.min(48)).collect();
    let step = (len / 64).max(1);
    pts.extend((48..len).step_by(step));
    pts.push(len.saturating_sub(1));
    pts.retain(|&p| p < len);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Byte positions to flip: dense over the header, sampled over the body.
fn flip_points(len: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..len.min(64)).collect();
    let step = (len / 96).max(1);
    pts.extend((64..len).step_by(step));
    pts.retain(|&p| p < len);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Drive one decoder over truncations (must `Err`) and byte flips (must
/// not panic; `Ok` with different payload is acceptable).
fn assault<T>(name: &str, valid: &[u8], decode: impl Fn(&[u8]) -> Result<T, CodecError>) {
    assert!(decode(valid).is_ok(), "{name}: pristine stream must decode");
    for cut in truncation_points(valid.len()) {
        assert!(
            decode(&valid[..cut]).is_err(),
            "{name}: truncation to {cut}/{} bytes must be rejected",
            valid.len()
        );
    }
    for pos in flip_points(valid.len()) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = valid.to_vec();
            corrupt[pos] ^= mask;
            // Must return (Ok or Err) rather than panic/abort.
            let _ = decode(&corrupt);
        }
    }
}

#[test]
fn amric_stream_lr_sle_total() {
    let u = units(24, 8);
    let bytes = compress_field_units(&u, &AmricConfig::lr(1e-3), 8);
    assault("amric/lr-sle", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_lr_linear_merge_total() {
    let u = units(24, 8);
    let cfg = AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge);
    let bytes = compress_field_units(&u, &cfg, 8);
    assault("amric/lr-lm", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_interp_cluster_total() {
    let u = units(27, 8);
    let bytes = compress_field_units(&u, &AmricConfig::interp(1e-3), 8);
    assault("amric/interp-cluster", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_interp_linear_total() {
    let u = units(27, 8);
    let cfg = AmricConfig::interp(1e-3).with_cluster_arrangement(false);
    let bytes = compress_field_units(&u, &cfg, 8);
    assault("amric/interp-linear", &bytes, decompress_field_units);
}

#[test]
fn tac_stream_total() {
    let u = units(20, 8);
    let o = origins(20, 8);
    let bytes = tac_compress(&u, &o, 1e-3);
    assault("tac", &bytes, tac_decompress);
}

#[test]
fn zmesh_stream_total() {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&NyxScenario::new(3), &cfg, 0.0);
    let bytes = zmesh_compress(&h, 0, 1e-3);
    assault("zmesh", &bytes, |b| zmesh_decompress(&h, 0, b));
}

#[test]
fn sz_lr_stream_total() {
    let mut b = Buffer3::zeros(Dims3::cube(12));
    b.fill_with(|i, j, k| (i as f64 * 0.3).sin() + (j + 2 * k) as f64 * 0.02);
    let bytes = lr::compress(&b, &LrConfig::new(1e-3));
    assault("sz/lr", &bytes, lr::decompress);
}

#[test]
fn sz_interp_stream_total() {
    let mut b = Buffer3::zeros(Dims3::cube(12));
    b.fill_with(|i, j, k| (k as f64 * 0.2).cos() * 3.0 + (i + j) as f64 * 0.01);
    let bytes = interp::compress(&b, &InterpConfig::new(1e-3));
    assault("sz/interp", &bytes, interp::decompress);
}

#[test]
fn garbage_and_empty_inputs_rejected() {
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    assert!(decompress_field_units(&[]).is_err());
    assert!(decompress_field_units(&garbage).is_err());
    assert!(tac_decompress(&[]).is_err());
    assert!(tac_decompress(&garbage).is_err());
    assert!(lr::decompress(&[]).is_err());
    assert!(lr::decompress(&garbage).is_err());
    assert!(interp::decompress(&[]).is_err());
    assert!(interp::decompress(&garbage).is_err());
    assert!(sz_codec::lossless::decompress(&garbage).is_err());
}
