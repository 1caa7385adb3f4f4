//! Writer-level golden: every public snapshot writer run over one small
//! fixed hierarchy, with the resulting container described dataset by
//! dataset and compared against `tests/writer_golden/{case}.txt`.
//!
//! Each description pins, per dataset in directory order: name, filter
//! id, client data, filter mode, chunk size and total element count;
//! per chunk its logical element count, stored size and an FNV-1a digest
//! of the stored bytes; the chunk-index entries (codec id, extent,
//! reference); and the values of every `meta/*` dataset. Chunk offsets
//! are left out on purpose: ranks reserve extents concurrently, so the
//! layout order races while the bytes do not.
//!
//! Regenerate after an *intentional* format change with
//! `AMRIC_GOLDEN_BLESS=1 cargo test -p amric --test writer_golden`.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amric::prelude::*;
use h5lite::prelude::*;
use h5lite::testutil::TempDir;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// 64-bit FNV-1a: a dependency-free content digest for chunk bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_config() -> AmrRunConfig {
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

fn hierarchy() -> AmrHierarchy {
    build_hierarchy(&NyxScenario::new(11), &run_config(), 0.0)
}

/// Text description of a finished container and the writer's report.
fn describe(r: &H5Reader, report: &WriteReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "report nranks={} orig_bytes={} stored_bytes={}",
        report.nranks, report.orig_bytes, report.stored_bytes
    )
    .unwrap();
    for (rank, l) in report.ledgers.iter().enumerate() {
        writeln!(
            out,
            "ledger rank={rank} filter_calls={} write_calls={} bytes_written={} dataset_creates={}",
            l.filter_calls, l.write_calls, l.bytes_written, l.dataset_creates
        )
        .unwrap();
    }
    for name in r.dataset_names() {
        let m = r.meta(name).unwrap();
        writeln!(
            out,
            "dataset {name} filter={} client_data={:?} mode={:?} chunk_elems={} total_elems={}",
            m.filter_id, m.client_data, m.filter_mode, m.chunk_elems, m.total_elems
        )
        .unwrap();
        for (i, c) in m.chunks.iter().enumerate() {
            let raw = r.read_chunk_raw(name, i).unwrap();
            writeln!(
                out,
                "  chunk {i} logical_elems={} stored_bytes={} fnv1a={:016x}",
                c.logical_elems,
                raw.len(),
                fnv1a(&raw)
            )
            .unwrap();
        }
        if let Some(idx) = r.chunk_index(name).unwrap() {
            for (i, e) in idx.entries.iter().enumerate() {
                writeln!(
                    out,
                    "  index {i} codec={} extent={:?} reference={:?}",
                    e.codec_id, e.extent, e.reference
                )
                .unwrap();
            }
        }
        if name.starts_with("meta/") {
            let vals: Vec<u64> = r
                .read_dataset(name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            writeln!(out, "  values {vals:?}").unwrap();
        }
    }
    out
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("writer_golden")
        .join(format!("{case}.txt"))
}

/// Compare a description against its committed golden file (rewriting
/// the file first when blessing).
fn assert_golden(case: &str, got: &str) {
    let path = golden_path(case);
    if std::env::var("AMRIC_GOLDEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir writer_golden");
        std::fs::write(&path, got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with AMRIC_GOLDEN_BLESS=1",
            path.display()
        )
    });
    if want != got {
        let first = want
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "{case}: container differs from {} at line {}:\n  want: {:?}\n  got:  {:?}",
            path.display(),
            first + 1,
            want.lines().nth(first),
            got.lines().nth(first)
        );
    }
}

fn spatial_case(case: &str, cfg: &AmricConfig) {
    let h = hierarchy();
    let (w, mem) = H5Writer::in_memory();
    let report = write_amric_to(Arc::new(w), &h, cfg, 8).unwrap();
    let r = H5Reader::from_storage(Box::new(mem)).unwrap();
    assert_golden(case, &describe(&r, &report));
}

#[test]
fn spatial_lr() {
    spatial_case("spatial_lr", &AmricConfig::lr(1e-3));
    // The pooled write stores the same description on every backend:
    // offsets are left out, so the physical layout cannot show.
    let pooled = AmricConfig::lr(1e-3).with_workers(4);
    spatial_case("spatial_lr", &pooled);
    let dir = TempDir::new("amric-writer-golden-sharded");
    let path = dir.file("spatial_lr.h5ls");
    let writer = H5Writer::create_sharded(&path, 3).unwrap();
    let report = write_amric_to(Arc::new(writer), &hierarchy(), &pooled, 8).unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert_eq!(r.storage_kind(), "sharded");
    assert_golden("spatial_lr", &describe(&r, &report));
}

#[test]
fn spatial_interp() {
    spatial_case("spatial_interp", &AmricConfig::interp(1e-3));
}

#[test]
fn spatial_lr_standard_mode_padding() {
    spatial_case(
        "spatial_lr_standard",
        &AmricConfig::lr(1e-3).with_size_aware_filter(false),
    );
}

#[test]
fn spatial_lr_gradient_adaptive() {
    spatial_case(
        "spatial_lr_adaptive",
        &AmricConfig::lr(1e-3).with_bound_policy(BoundPolicy::GradientAdaptive {
            tight: 1e-4,
            loose: 1e-2,
        }),
    );
}

#[test]
fn temporal_series() {
    let scenario = NyxScenario::new(11);
    let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
    let mut any_reference = false;
    for (step, _, h) in TimeSeries::new(&scenario, run_config(), 0.02, 3) {
        let (w, mem) = H5Writer::in_memory();
        let report = session.write_to(Arc::new(w), &h).unwrap();
        let r = H5Reader::from_storage(Box::new(mem)).unwrap();
        any_reference |= r.dataset_names().iter().any(|name| {
            r.chunk_index(name)
                .unwrap()
                .is_some_and(|idx| idx.entries.iter().any(|e| e.reference.is_some()))
        });
        assert_golden(&format!("temporal_{step}"), &describe(&r, &report));
    }
    assert!(
        any_reference,
        "the series must hold a delta or mixed snapshot"
    );
}

#[test]
fn amrex_baseline() {
    let h = hierarchy();
    let dir = TempDir::new("amric-writer-golden-baseline");
    let path = dir.file("baseline.h5l");
    let report = write_amrex_baseline(&path, &h, &BaselineConfig::new(1e-2)).unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert_golden("amrex_baseline", &describe(&r, &report));
}

#[test]
fn nocomp() {
    let h = hierarchy();
    let dir = TempDir::new("amric-writer-golden-nocomp");
    let path = dir.file("nocomp.h5l");
    let report = write_nocomp(&path, &h).unwrap();
    let r = H5Reader::open(&path).unwrap();
    assert_golden("nocomp", &describe(&r, &report));
}
