//! Concurrency stress suite for the overlapped write path: a failing
//! chunk injected mid-batch (the non-unit-multiple regression from the
//! PR 2 filter hardening) must drain the pool cleanly, abort the
//! collective without deadlocking peer ranks, and surface the typed
//! `CodecError` on every rank.
//!
//! The suite is written to pass under both `--test-threads=1` and the
//! default parallel test runner (CI runs both): nothing here depends on
//! the harness's own threading, and every scenario is wrapped in a
//! watchdog so a deadlock fails loudly instead of hanging the run.

use amric::prelude::*;
use amric::writer::AmricFieldFilter;
use h5lite::prelude::*;
use rankpar::run_ranks;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use sz_codec::CodecError;

/// Run `f` on its own thread and panic if it has not finished within the
/// deadline — turns a cross-rank deadlock into a visible test failure.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let tag = name.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(v) => v,
        Err(_) => panic!("{tag}: deadlocked (watchdog expired)"),
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amric-stress-{}-{name}.h5l", std::process::id()));
    p
}

fn filter(unit_edge: usize) -> AmricFieldFilter {
    AmricFieldFilter::fixed(AmricConfig::lr(1e-3), unit_edge, 1e-3)
}

fn good_chunk(seed: usize) -> ChunkData {
    // 2 units of 4³ = 128 elems.
    ChunkData::full(
        (0..128)
            .map(|i| ((seed * 128 + i) as f64 * 0.017).sin())
            .collect(),
    )
}

/// Field jobs where `poison_field` on `poison_rank` gets a chunk whose
/// length is not a multiple of the 4³ unit volume.
fn jobs_with_poison(
    rank: usize,
    nfields: usize,
    poison_rank: usize,
    poison_field: Option<usize>,
) -> Vec<FieldWriteJob> {
    (0..nfields)
        .map(|f| {
            let chunk = if Some(f) == poison_field && rank == poison_rank {
                ChunkData::full(vec![0.25; 63]) // 4³ = 64 ∤ 63 → typed error
            } else {
                good_chunk(rank * nfields + f)
            };
            FieldWriteJob {
                name: format!("level_0/field_{f}"),
                chunks: vec![chunk],
                chunk_elems: 128,
                filter: filter(4),
                mode: FilterMode::SizeAware,
            }
        })
        .collect()
}

#[test]
fn failing_chunk_mid_batch_surfaces_typed_error_on_every_rank() {
    for workers in [2usize, 4] {
        let path = tmp(&format!("midbatch-{workers}"));
        let writer = Arc::new(H5Writer::create(&path).unwrap());
        let w = Arc::clone(&writer);
        let results = with_watchdog("mid-batch abort", move || {
            run_ranks(2, move |comm| {
                // Rank 1's field 3 (of 6) is poisoned: fields 0–2 write
                // collectively, the rest abort in lockstep.
                let jobs = jobs_with_poison(comm.rank(), 6, 1, Some(3));
                write_field_parallel(&comm, &w, &jobs, workers)
            })
        });
        assert!(results[0].is_err(), "peer rank must see the abort");
        let peer_err = results[0].as_ref().unwrap_err();
        assert!(
            peer_err.as_codec().is_none(),
            "peer gets the abort notice, not the codec error: {peer_err:?}"
        );
        let own_err = results[1].as_ref().unwrap_err();
        assert!(
            matches!(own_err.as_codec(), Some(CodecError::DimsMismatch { .. })),
            "failing rank surfaces the typed CodecError: {own_err:?}"
        );
        // The fields before the poison completed collectively and are
        // readable; the file itself stays consistent.
        writer.finish().unwrap();
        let rd = H5Reader::open(&path).unwrap();
        for f in 0..3 {
            let name = format!("level_0/field_{f}");
            assert!(
                rd.dataset_names().contains(&name.as_str()),
                "pre-failure field {f} must be registered"
            );
            let meta = rd.meta(&name).unwrap();
            assert_eq!(meta.chunks.len(), 2);
        }
        for f in 3..6 {
            let name = format!("level_0/field_{f}");
            assert!(
                !rd.dataset_names().contains(&name.as_str()),
                "post-failure field {f} must not be registered"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn both_ranks_failing_still_drain() {
    let path = tmp("both-fail");
    let writer = Arc::new(H5Writer::create(&path).unwrap());
    let w = Arc::clone(&writer);
    let results = with_watchdog("both ranks failing", move || {
        run_ranks(2, move |comm| {
            // Different poison fields per rank: the collectives must stay
            // in lockstep even when the ranks fail at different points.
            let poison = if comm.rank() == 0 { 1 } else { 4 };
            let jobs = jobs_with_poison(comm.rank(), 6, comm.rank(), Some(poison));
            write_field_parallel(&comm, &w, &jobs, 4)
        })
    });
    for (rank, r) in results.iter().enumerate() {
        assert!(r.is_err(), "rank {rank} must fail");
    }
    // Rank 0 fails at its own field 1 with the typed error.
    assert!(matches!(
        results[0].as_ref().unwrap_err().as_codec(),
        Some(CodecError::DimsMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_overlapped_writes_under_contention() {
    // Hammer the full writer with more pool threads than cores, repeated
    // back-to-back, verifying the produced file every round — scheduling
    // churn must never change bytes or wedge the pipeline.
    let h = {
        use amr_apps::prelude::*;
        let s = NyxScenario::new(23);
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
    };
    // Stored AMRIC stream bytes per chunk (the filter is app-defined, so
    // raw chunk comparison is the strongest check anyway).
    let chunk_bytes = |path: &std::path::Path| -> Vec<Vec<u8>> {
        let rd = H5Reader::open(path).unwrap();
        let n = rd.meta("level_0/field_0").unwrap().chunks.len();
        (0..n)
            .map(|i| rd.read_chunk_raw("level_0/field_0", i).unwrap())
            .collect()
    };
    let reference = {
        let path = tmp("contention-ref");
        write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
        let bytes = chunk_bytes(&path);
        std::fs::remove_file(&path).ok();
        bytes
    };
    for round in 0..3 {
        let path = tmp(&format!("contention-{round}"));
        let h2 = h.clone();
        let p2 = path.clone();
        let report = with_watchdog("contended write", move || {
            write_amric(&p2, &h2, &AmricConfig::lr(1e-3).with_workers(7), 8).unwrap()
        });
        assert_eq!(report.nranks, 2);
        assert_eq!(
            chunk_bytes(&path),
            reference,
            "round {round}: overlapped write stored different bytes"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn pipelined_collective_failing_chunk_mid_batch() {
    // Many chunks per rank in one field, more than a write batch holds:
    // a non-unit-multiple chunk mid-field drains the pool, aborts the
    // field's collective and the next field's on both ranks, and leaves
    // neither registered.
    let path = tmp("pipelined-abort");
    let writer = Arc::new(H5Writer::create(&path).unwrap());
    let w = Arc::clone(&writer);
    let results = with_watchdog("pipelined abort", move || {
        run_ranks(2, move |comm| {
            let jobs: Vec<FieldWriteJob> = (0..2)
                .map(|f| {
                    let mut chunks: Vec<ChunkData> = (0..12).map(good_chunk).collect();
                    if comm.rank() == 0 && f == 0 {
                        chunks[7] = ChunkData::full(vec![1.0; 63]); // mid-batch poison
                    }
                    FieldWriteJob {
                        name: format!("level_0/field_{f}"),
                        chunks,
                        chunk_elems: 128,
                        filter: filter(4),
                        mode: FilterMode::SizeAware,
                    }
                })
                .collect();
            write_field_parallel(&comm, &w, &jobs, 4)
        })
    });
    assert!(matches!(
        results[0].as_ref().unwrap_err().as_codec(),
        Some(CodecError::DimsMismatch { .. })
    ));
    assert!(matches!(results[1], Err(H5Error::PeerAborted)));
    writer.finish().unwrap();
    assert!(H5Reader::open(&path).unwrap().dataset_names().is_empty());
    std::fs::remove_file(&path).ok();
}
