//! Fuzz-lite robustness suite for the temporal delta envelope, in the
//! style of the golden-stream corruption corpus: the decoder must be
//! total over `&[u8]` — truncations and bit flips return typed errors
//! (or, for flips the checks cannot see, a differently-decoded `Ok`),
//! never panic, and never let a forged header drive an absurd
//! allocation. Forged reference ids and forged unit modes are crafted
//! explicitly at the payload level, not just hoped for via random flips.

#[path = "support/capped_alloc.rs"]
mod capped_alloc;

use std::sync::Arc;
use sz_codec::codec::{write_envelope, FLAG_REFERENCED};
use sz_codec::prelude::*;
use sz_codec::wire::Writer;
use sz_codec::{lossless, CodecError};

fn grain(i: usize, j: usize, k: usize) -> f64 {
    let h = (i.wrapping_mul(73_856_093) ^ j.wrapping_mul(19_349_663) ^ k.wrapping_mul(83_492_791))
        % 1024;
    h as f64 / 1024.0 - 0.5
}

fn snapshot(n: usize, t: f64) -> Vec<Buffer3> {
    (0..4)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(n));
            b.fill_with(|i, j, k| {
                let (x, y, z) = (
                    i as f64 / n as f64,
                    j as f64 / n as f64,
                    k as f64 / n as f64,
                );
                (6.0 * (x + t)).sin() * (5.0 * y).cos()
                    + 0.5 * (4.0 * (z - t)).sin()
                    + 0.05 * grain(i, j, k)
                    + u as f64 * 0.1
            });
            b
        })
        .collect()
}

/// A referenced stream (units 1 and 3 spatial, 0 and 2 delta) plus the
/// reference its decoder needs.
fn mixed_stream() -> (Vec<u8>, Arc<TemporalReference>) {
    let prev = snapshot(8, 0.0);
    let next = snapshot(8, 0.02);
    let reference = Arc::new(TemporalReference::new(9, prev));
    let codec = TemporalCodec::with_reference(
        TemporalConfig::new(1e-3),
        reference.clone(),
        vec![Some(0), None, Some(2), None],
    );
    (codec.compress(&next).unwrap(), reference)
}

fn spatial_stream() -> Vec<u8> {
    TemporalCodec::spatial(TemporalConfig::new(1e-3))
        .compress(&snapshot(8, 0.5))
        .unwrap()
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

fn assault(name: &str, valid: &[u8], codec: &TemporalCodec) {
    assert!(
        codec.decompress(valid).is_ok(),
        "{name}: pristine stream must decode"
    );
    for cut in truncation_points(valid.len()) {
        assert!(
            codec.decompress(&valid[..cut]).is_err(),
            "{name}: truncation to {cut}/{} bytes must be rejected",
            valid.len()
        );
    }
    for pos in flip_points(valid.len()) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = valid.to_vec();
            corrupt[pos] ^= mask;
            // Must return (Ok or Err) rather than panic/abort.
            let _ = codec.decompress(&corrupt);
        }
    }
}

#[test]
fn spatial_only_stream_total() {
    let stream = spatial_stream();
    assault("temporal/spatial", &stream, &TemporalCodec::decoder());
}

#[test]
fn referenced_stream_total() {
    let (stream, reference) = mixed_stream();
    assault(
        "temporal/mixed",
        &stream,
        &TemporalCodec::decoder_with(reference),
    );
}

#[test]
fn garbage_and_empty_inputs_rejected() {
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let dec = TemporalCodec::decoder();
    assert!(dec.decompress(&[]).is_err());
    assert!(dec.decompress(&garbage).is_err());
    // A valid envelope header over garbage payload still fails typed.
    let mut w = Writer::new();
    write_envelope(&mut w, CodecId::Temporal, 1, 0);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&garbage);
    assert!(dec.decompress(&bytes).is_err());
}

/// Re-envelope a hand-built temporal payload (the lossless wrap included)
/// so individual header fields can be forged precisely.
fn envelope(payload: &[u8], flags: u8) -> Vec<u8> {
    let mut w = Writer::new();
    write_envelope(&mut w, CodecId::Temporal, 1, flags);
    let mut bytes = w.into_bytes();
    lossless::compress_into(payload, &mut bytes);
    bytes
}

/// Payload *claiming* `claimed` units but materializing only `actual`
/// unit entries of `edge`³ cells against snapshot `rid`, with `mode` as
/// the per-unit mode byte and nothing after the unit table.
fn forged_payload(rid: u64, claimed: u32, actual: u32, edge: u32, mode: u8) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_f64(1e-3);
    w.put_u64(rid);
    w.put_u32(claimed);
    for u in 0..actual {
        w.put_u32(edge);
        w.put_u32(edge);
        w.put_u32(edge);
        w.put_u8(mode);
        if mode == 1 {
            w.put_u32(u);
        }
    }
    w.into_bytes()
}

#[test]
fn forged_reference_id_is_corrupt_never_wrong_data() {
    let (stream, reference) = mixed_stream();
    // Right units, wrong id: rejected up front as corruption.
    let forged = Arc::new(TemporalReference::new(
        reference.id + 1,
        reference.units.clone(),
    ));
    assert!(matches!(
        TemporalCodec::decoder_with(forged).decompress(&stream),
        Err(CodecError::Corrupt { .. })
    ));
    // No reference at all: typed parameter error naming the gap.
    assert!(matches!(
        TemporalCodec::decoder().decompress(&stream),
        Err(CodecError::BadParameter { .. })
    ));
}

#[test]
fn forged_mode_byte_is_typed_bad_mode() {
    let bytes = envelope(&forged_payload(1, 2, 2, 8, 7), FLAG_REFERENCED);
    assert!(matches!(
        TemporalCodec::decoder().decompress(&bytes),
        Err(CodecError::BadMode { found: 7 })
    ));
}

#[test]
fn forged_out_of_range_ref_unit_is_corrupt() {
    // One delta unit pointing at reference unit 0 of an *empty* reference.
    let reference = Arc::new(TemporalReference::new(3, Vec::new()));
    let mut payload = forged_payload(3, 1, 1, 2, 1);
    // Minimal delta block so the decoder reaches the reference lookup:
    // a real stream over a 2^3 unit provides the bytes.
    let real = {
        let prev = vec![Buffer3::zeros(Dims3::cube(2))];
        let mut next = Buffer3::zeros(Dims3::cube(2));
        next.fill_with(|i, j, k| (i + j + k) as f64 * 1e-4);
        let r = Arc::new(TemporalReference::new(3, prev));
        TemporalCodec::with_reference(TemporalConfig::new(1e-3), r, vec![Some(0)])
            .compress(std::slice::from_ref(&next))
            .unwrap()
    };
    // Splice the real stream's delta block onto the forged header by
    // reusing its payload past the identical-length unit table.
    let real_payload = lossless::decompress(&real[8..]).unwrap();
    payload.extend_from_slice(&real_payload[payload.len()..]);
    let bytes = envelope(&payload, FLAG_REFERENCED);
    assert!(matches!(
        TemporalCodec::decoder_with(reference).decompress(&bytes),
        Err(CodecError::Corrupt { .. })
    ));
}

#[test]
fn absurd_unit_counts_and_dims_are_bounded() {
    // Headers demanding far more cells than the stream could carry must
    // fail with a typed limit/count error before any allocation of that
    // size is attempted.
    let dec = TemporalCodec::decoder_with(Arc::new(TemporalReference::new(1, Vec::new())));
    // u32::MAX units of 1 byte each: rejected by the count check.
    let bytes = envelope(&forged_payload(1, u32::MAX, 2, 1, 1), FLAG_REFERENCED);
    assert!(dec.decompress(&bytes).is_err());
    // A few units, each claiming ~68 billion cells: rejected by the
    // delta-cell budget (u128 arithmetic — no overflow to small values).
    let bytes = envelope(&forged_payload(1, 3, 3, 4096, 1), FLAG_REFERENCED);
    match dec.decompress(&bytes) {
        Err(CodecError::LimitExceeded { .. }) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
    // Degenerate (zero-extent) dims are a typed dims error.
    let bytes = envelope(&forged_payload(1, 1, 1, 0, 1), FLAG_REFERENCED);
    assert!(matches!(
        dec.decompress(&bytes),
        Err(CodecError::DimsMismatch { .. })
    ));
}

#[test]
fn truncated_delta_symbol_block_is_corrupt_not_panic() {
    // Truncate *inside the lossless payload* (after decompression the
    // symbol iterator runs dry) by re-wrapping a shortened payload.
    let (stream, reference) = mixed_stream();
    let payload = lossless::decompress(&stream[8..]).unwrap();
    let dec = TemporalCodec::decoder_with(reference);
    for cut in (payload.len() / 2)..payload.len() {
        let bytes = envelope(&payload[..cut], FLAG_REFERENCED);
        assert!(
            dec.decompress(&bytes).is_err(),
            "payload truncated to {cut}/{} must be rejected",
            payload.len()
        );
    }
}
