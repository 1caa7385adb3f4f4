//! Determinism matrix for the intra-rank compression pool: for every
//! codec family × worker count × chunk count, streams compressed on
//! `rankpar::for_each_ordered` must be **byte-identical** to the serial
//! `compress_into` path, and every stream must round-trip through
//! `decompress_auto`.
//!
//! This is the invariant that makes the overlapped write path safe to
//! ship: turning on `with_workers(n)` may change wall-clock, never bytes.

use amr_mesh::prelude::IntVect;
use amric::codec::{AmricCodec, BaselineCodec, TacCodec, ZmeshCodec};
use amric::prelude::*;
use sz_codec::codec::Codec;
use sz_codec::prelude::*;
use sz_codec::{CodecError, CodecResult};

/// Units per chunk — fixed because TAC/zMesh carry one origin per unit.
const UNITS_PER_CHUNK: usize = 3;
const EDGE: usize = 6;

/// Deterministic, per-chunk-distinct unit data (mixed smooth + offset so
/// every family exercises its real code paths).
fn make_chunks(n: usize) -> Vec<Vec<Buffer3>> {
    (0..n)
        .map(|c| {
            (0..UNITS_PER_CHUNK)
                .map(|u| {
                    let mut b = Buffer3::zeros(Dims3::cube(EDGE));
                    b.fill_with(|i, j, k| {
                        ((i as f64 * 0.7 + c as f64 * 1.3).sin() * (u + 1) as f64)
                            + (j + 2 * k) as f64 * 0.04
                            + c as f64 * 0.5
                    });
                    b
                })
                .collect()
        })
        .collect()
}

fn origins() -> Vec<IntVect> {
    (0..UNITS_PER_CHUNK as i64)
        .map(|u| IntVect::new(u * EDGE as i64, 0, 0))
        .collect()
}

/// Compress each chunk through `codec` on a pool of `workers` threads,
/// one stream per chunk in submission order — the field writer's pool
/// with a bare codec as the job. The first error (in submission order)
/// aborts the pool, which drains and returns it.
fn compress_on_pool(
    codec: &dyn Codec,
    chunks: &[Vec<Buffer3>],
    workers: usize,
) -> CodecResult<Vec<Vec<u8>>> {
    let mut streams = Vec::with_capacity(chunks.len());
    rankpar::for_each_ordered(
        chunks,
        workers,
        workers.max(1) * 2,
        || (),
        |_state, _i, units| {
            let mut out = Vec::new();
            codec.compress_into(units, &mut out)?;
            Ok(out)
        },
        |_i, stream| {
            streams.push(stream);
            Ok(())
        },
    )?;
    Ok(streams)
}

/// Every codec family in the workspace, behind the unified trait.
fn families() -> Vec<(&'static str, Box<dyn Codec>)> {
    vec![
        (
            "sz-lr",
            Box::new(sz_codec::lr::LrCodec::new(LrConfig::new(1e-3))) as Box<dyn Codec>,
        ),
        (
            "sz-interp",
            Box::new(sz_codec::interp::InterpCodec::new(InterpConfig::new(1e-3))),
        ),
        (
            "amric-lr",
            Box::new(AmricCodec::new(AmricConfig::lr(1e-3), EDGE)),
        ),
        (
            "amric-interp",
            Box::new(AmricCodec::new(AmricConfig::interp(1e-3), EDGE)),
        ),
        ("tac", Box::new(TacCodec::new(1e-3, origins()))),
        ("zmesh", Box::new(ZmeshCodec::new(1e-3, origins()))),
        (
            "amrex-baseline",
            Box::new(BaselineCodec::new(BaselineConfig::new(1e-3))),
        ),
    ]
}

#[test]
fn parallel_streams_are_byte_identical_to_serial() {
    for (name, codec) in families() {
        for workers in [1usize, 2, 4, 7] {
            // Chunk counts: empty, single, exactly the pool width, and
            // more chunks than workers (forces stealing + reassembly).
            for nchunks in [0usize, 1, workers, 2 * workers + 3] {
                let chunks = make_chunks(nchunks);
                // Serial reference: plain compress_into, one stream per
                // chunk, shared output buffer reuse like the hot path.
                let mut serial: Vec<Vec<u8>> = Vec::with_capacity(nchunks);
                for units in &chunks {
                    let mut out = Vec::new();
                    codec.compress_into(units, &mut out).unwrap();
                    serial.push(out);
                }
                let parallel = compress_on_pool(codec.as_ref(), &chunks, workers).unwrap();
                assert_eq!(
                    serial, parallel,
                    "{name}: workers={workers} chunks={nchunks} streams differ"
                );
            }
        }
    }
}

#[test]
fn parallel_streams_round_trip_through_decompress_auto() {
    for (name, codec) in families() {
        let chunks = make_chunks(9);
        let streams = compress_on_pool(codec.as_ref(), &chunks, 4).unwrap();
        assert_eq!(streams.len(), chunks.len());
        for (c, (units, stream)) in chunks.iter().zip(&streams).enumerate() {
            let back = decompress_auto(stream)
                .unwrap_or_else(|e| panic!("{name} chunk {c}: decompress_auto failed: {e:?}"));
            assert_eq!(back.len(), units.len(), "{name} chunk {c} unit count");
            for (o, r) in units.iter().zip(&back) {
                assert_eq!(o.dims(), r.dims(), "{name} chunk {c} dims");
                let stats = ErrorStats::compare(o.data(), r.data());
                // All families run REL 1e-3 against their own range
                // resolution; a conservative absolute ceiling suffices
                // here (bound exactness is covered by the codec suites).
                assert!(
                    stats.max_abs_err <= 0.1,
                    "{name} chunk {c}: max err {}",
                    stats.max_abs_err
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Same input, same workers, repeated runs: streams never vary with
    // scheduling (per-worker scratch leaves no history).
    let codec = AmricCodec::new(AmricConfig::lr(1e-3), EDGE);
    let chunks = make_chunks(11);
    let first = compress_on_pool(&codec, &chunks, 4).unwrap();
    for _ in 0..5 {
        let again = compress_on_pool(&codec, &chunks, 4).unwrap();
        assert_eq!(first, again);
    }
}

#[test]
fn worker_count_does_not_leak_into_stream_metadata() {
    // The envelope and payload carry no trace of how many workers built
    // them: streams from every worker count decode identically.
    let codec = AmricCodec::new(AmricConfig::interp(1e-3), EDGE);
    let chunks = make_chunks(6);
    let reference = compress_on_pool(&codec, &chunks, 1).unwrap();
    for workers in [2, 4, 7] {
        let streams = compress_on_pool(&codec, &chunks, workers).unwrap();
        for (a, b) in reference.iter().zip(&streams) {
            assert_eq!(a, b);
            let ra = decompress_auto(a).unwrap();
            let rb = decompress_auto(b).unwrap();
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.data(), y.data());
            }
        }
    }
}

#[test]
fn error_surfaces_and_pool_drains() {
    // TAC with a fixed origin count rejects mismatched chunks; inject
    // one mid-batch.
    let codec = TacCodec::new(1e-3, vec![IntVect::splat(0); UNITS_PER_CHUNK]);
    let mut data = make_chunks(8);
    data[5].pop(); // 2 units vs 3 origins → typed error
    let err = compress_on_pool(&codec, &data, 4).unwrap_err();
    assert!(matches!(err, CodecError::DimsMismatch { .. }), "{err:?}");
}
