//! Collective dataset writes: every rank contributes chunks to one shared
//! dataset (parallel-HDF5-with-filters semantics).
//!
//! With compression filters enabled, HDF5 requires collective metadata
//! operations: *all* ranks participate in every dataset create even when
//! they contribute no data — the effect that makes the one-dataset-per-rank
//! workaround of the paper's §3.3 serialize badly. That cost is captured by
//! counting a dataset-create participation per rank per dataset in the
//! returned receipt.

use crate::dataset::{ChunkRecord, DatasetMeta};
use crate::error::{H5Error, H5Result};
use crate::file::{ChunkData, H5Writer};
use crate::filter::{encode_frame, ChunkFilter, EncodedFrame, FilterMode};
use rankpar::Communicator;

/// Per-rank accounting of one collective write, in PFS-model units.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectiveReceipt {
    /// Filter invocations on this rank.
    pub filter_calls: u64,
    /// Write calls on this rank.
    pub write_calls: u64,
    /// Payload bytes this rank wrote.
    pub bytes_written: u64,
    /// Collective dataset creates this rank participated in (always ≥ 1).
    pub dataset_creates: u64,
    /// Seconds this rank spent inside filter encode calls.
    pub encode_seconds: f64,
}

/// Collectively write one dataset. Every rank passes its local chunks (in
/// rank-local order); the dataset's global chunk order is rank-major. All
/// ranks must call this with the same `name`, `chunk_elems`, filter
/// configuration and mode.
pub fn collective_write(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_chunks: &[ChunkData],
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
) -> H5Result<CollectiveReceipt> {
    let mut receipt = CollectiveReceipt {
        dataset_creates: 1,
        ..Default::default()
    };
    let mut my_records = Vec::with_capacity(my_chunks.len());
    let failure = write_chunks(
        writer,
        my_chunks,
        chunk_elems,
        filter,
        mode,
        &mut receipt,
        &mut my_records,
    )
    .err();
    collective_finalize(
        comm,
        writer,
        name,
        my_records,
        chunk_elems,
        filter,
        mode,
        failure,
        receipt,
    )
}

/// Encode and write `chunks` one at a time, each frame in its own
/// extent, so one encoded frame is in memory at a time. Shared by
/// [`collective_write`] and [`H5Writer::write_dataset_chunks`]; the first
/// failed encode or write stops the loop.
pub(crate) fn write_chunks(
    writer: &H5Writer,
    chunks: &[ChunkData],
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
    receipt: &mut CollectiveReceipt,
    records: &mut Vec<ChunkRecord>,
) -> H5Result<()> {
    let mut pad = Vec::new();
    for chunk in chunks {
        writer.count_filter_call();
        receipt.filter_calls += 1;
        let (frame, ()) = encode_frame(chunk, chunk_elems, mode, &mut pad, |data, out| {
            filter.encode_into(data, out)
        })?;
        receipt.encode_seconds += frame.encode_seconds;
        write_frame_extent(writer, std::slice::from_ref(&frame), receipt, records)?;
    }
    Ok(())
}

/// The shared tail of every collective write: agree on success, gather
/// chunk records in rank order, register the dataset on rank 0.
///
/// Public so callers that stream their frames to storage incrementally
/// (the overlapped field writer) can commit the dataset once per rank
/// from the records alone. Every rank must call this exactly once per
/// dataset, in the same order; `failure: Some(_)` is the abort vote —
/// the write never registers and every rank returns `Err`. A rank that
/// failed before a dataset's write calls this with no records and an
/// abort vote, so its peers fail with it instead of deadlocking.
///
/// The agreement runs before the records gather so a rank whose encode
/// failed must not abandon its peers inside a barrier (the communicator
/// has no timeout): every rank first learns whether all succeeded and the
/// whole collective fails together.
#[allow(clippy::too_many_arguments)]
pub fn collective_finalize(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_records: Vec<ChunkRecord>,
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
    failure: Option<H5Error>,
    receipt: CollectiveReceipt,
) -> H5Result<CollectiveReceipt> {
    let all_ok = comm.allgather(failure.is_none());
    if let Some(e) = failure {
        return Err(e);
    }
    if all_ok.contains(&false) {
        return Err(H5Error::PeerAborted);
    }

    // Gather chunk records in rank order; rank 0 registers the dataset
    // (and still meets the barrier if that fails).
    let all_records: Vec<Vec<ChunkRecord>> = comm.allgather(my_records);
    let registered = match comm.rank() {
        0 => {
            let chunks: Vec<ChunkRecord> = all_records.into_iter().flatten().collect();
            writer.register_dataset(DatasetMeta {
                name: name.to_string(),
                total_elems: chunks.iter().map(|c| c.logical_elems).sum(),
                chunk_elems: chunk_elems as u64,
                filter_id: filter.id(),
                filter_mode: mode,
                client_data: filter.client_data(),
                chunks,
            })
        }
        _ => Ok(()),
    };
    comm.barrier();
    registered.map(|()| receipt)
}

/// Write a batch of encoded frames into one contiguous extent: a single
/// atomic reservation sized from the frames (the one-pass write of the
/// paper's §3.3: sizes are known before any byte lands), then positioned
/// writes in frame order. Each written frame's [`ChunkRecord`] is
/// appended to `records` and its write counted in `receipt`; the first
/// failed write stops the batch. Every chunk write goes through here.
pub fn write_frame_extent(
    writer: &H5Writer,
    frames: &[EncodedFrame],
    receipt: &mut CollectiveReceipt,
    records: &mut Vec<ChunkRecord>,
) -> H5Result<()> {
    let mut offset = writer.reserve(frames.iter().map(|f| f.bytes.len() as u64).sum());
    for frame in frames {
        let stored_bytes = frame.bytes.len() as u64;
        writer.write_at(offset, &frame.bytes)?;
        receipt.write_calls += 1;
        receipt.bytes_written += stored_bytes;
        records.push(ChunkRecord {
            offset,
            stored_bytes,
            logical_elems: frame.logical_elems,
        });
        offset += stored_bytes;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::H5Reader;
    use crate::filter::{NoFilter, SzFilter};
    use crate::storage::MemStorage;
    use rankpar::run_ranks;
    use std::sync::Arc;

    /// Collective tests run entirely in memory: the writer and the later
    /// reader share one [`MemStorage`] image, so nothing touches the
    /// filesystem and a panicking rank leaks no temp files.
    fn mem_writer() -> (Arc<H5Writer>, MemStorage) {
        let (w, mem) = H5Writer::in_memory();
        (Arc::new(w), mem)
    }

    fn open(mem: MemStorage) -> H5Reader {
        H5Reader::from_storage(Box::new(mem)).unwrap()
    }

    #[test]
    fn four_ranks_write_one_dataset() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        run_ranks(4, move |comm| {
            let rank = comm.rank();
            let data: Vec<f64> = (0..256).map(|i| (rank * 1000 + i) as f64).collect();
            let chunks = vec![ChunkData::full(data)];
            collective_write(
                &comm,
                &w,
                "d",
                &chunks,
                256,
                &NoFilter,
                FilterMode::Standard,
            )
            .unwrap();
        });
        writer.finish().unwrap();
        let r = open(mem);
        let all = r.read_dataset("d").unwrap();
        assert_eq!(all.len(), 1024);
        // Rank-major order regardless of which thread wrote first.
        for rank in 0..4 {
            assert_eq!(all[rank * 256], (rank * 1000) as f64);
            assert_eq!(all[rank * 256 + 255], (rank * 1000 + 255) as f64);
        }
    }

    #[test]
    fn unbalanced_ranks_size_aware() {
        // Rank r holds (r+1)·128 values; global chunk = largest rank's
        // size; size-aware mode stores no padding (paper Fig. 12).
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(4, move |comm| {
            let rank = comm.rank();
            let n = (rank + 1) * 128;
            let data: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.01).sin() + rank as f64)
                .collect();
            let my_elems = data.len() as u64;
            let chunk_elems = comm.allreduce_max(my_elems) as usize;
            assert_eq!(chunk_elems, 512);
            let chunks = vec![ChunkData::full(data)];
            let f = SzFilter::one_dimensional(1e-3);
            collective_write(
                &comm,
                &w,
                "d",
                &chunks,
                chunk_elems,
                &f,
                FilterMode::SizeAware,
            )
            .unwrap()
        });
        writer.finish().unwrap();
        for (rank, r) in receipts.iter().enumerate() {
            assert_eq!(r.filter_calls, 1, "rank {rank}");
            assert_eq!(r.dataset_creates, 1);
        }
        let r = open(mem);
        let meta = r.meta("d").unwrap();
        assert_eq!(meta.total_elems, (128 + 256 + 384 + 512) as u64);
        let all = r.read_dataset("d").unwrap();
        // Rank 3's first value follows rank 2's last.
        let off = 128 + 256 + 384;
        // Rank 3's chunk range is ≈2 (sin ± 1), so REL 1e-3 → abs ≈2e-3.
        assert!((all[off] - 3.0).abs() <= 2.5e-3);
    }

    #[test]
    fn failing_rank_aborts_collective_without_deadlock() {
        // One rank's second chunk is invalid (larger than the chunk size):
        // every rank must return Err — the failing rank its encode error,
        // the peers an abort notice — instead of hanging in the record
        // gather, and nothing registers.
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(2, move |comm| {
            let mut chunks = vec![ChunkData::full((0..64).map(|i| i as f64).collect()); 3];
            if comm.rank() == 1 {
                // 512 elems exceed the chunk size of 64.
                chunks[1] = ChunkData::full((0..512).map(|i| i as f64).collect());
            }
            collective_write(&comm, &w, "d", &chunks, 64, &NoFilter, FilterMode::Standard)
        });
        assert!(matches!(results[0], Err(H5Error::PeerAborted)));
        assert!(matches!(results[1], Err(H5Error::Format(_))));
        writer.finish().unwrap();
        assert!(open(mem).dataset_names().is_empty());
    }

    #[test]
    fn frames_path_writes_preencoded_chunks() {
        // Pre-encoded frames land contiguously in one extent per rank,
        // then commit through the shared tail.
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(2, move |comm| {
            let rank = comm.rank();
            let f = NoFilter;
            let frames: Vec<EncodedFrame> = (0..2)
                .map(|c| {
                    let data: Vec<f64> =
                        (0..64).map(|i| (rank * 100 + c * 10 + i) as f64).collect();
                    let chunk = ChunkData::full(data);
                    encode_frame(
                        &chunk,
                        64,
                        FilterMode::SizeAware,
                        &mut Vec::new(),
                        |d, o| f.encode_into(d, o),
                    )
                    .unwrap()
                    .0
                })
                .collect();
            let mut receipt = CollectiveReceipt {
                filter_calls: 2,
                dataset_creates: 1,
                ..Default::default()
            };
            let mut records = Vec::new();
            write_frame_extent(&w, &frames, &mut receipt, &mut records).unwrap();
            assert_eq!(records[1].offset, records[0].offset + 64 * 8);
            collective_finalize(
                &comm,
                &w,
                "d",
                records,
                64,
                &f,
                FilterMode::SizeAware,
                None,
                receipt,
            )
            .unwrap()
        });
        writer.finish().unwrap();
        for r in &receipts {
            assert_eq!(r.filter_calls, 2);
            assert_eq!(r.write_calls, 2);
            assert_eq!(r.bytes_written, 2 * 64 * 8);
        }
        let r = open(mem);
        let all = r.read_dataset("d").unwrap();
        assert_eq!(all.len(), 256);
        assert_eq!(all[64], 10.0);
        assert_eq!(all[128], 100.0);
    }

    #[test]
    fn frames_path_none_aborts_all_ranks_without_deadlock() {
        // The field writer's abort protocol: a rank that already failed
        // finalizes with no records and an abort vote; every rank fails
        // and the dataset never registers.
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(3, move |comm| {
            let mut receipt = CollectiveReceipt::default();
            let mut records = Vec::new();
            let vote = if comm.rank() == 1 {
                Some(H5Error::PeerAborted) // this rank's compression "failed"
            } else {
                let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
                write_chunks(
                    &w,
                    &[ChunkData::full(data)],
                    16,
                    &NoFilter,
                    FilterMode::SizeAware,
                    &mut receipt,
                    &mut records,
                )
                .err()
            };
            collective_finalize(
                &comm,
                &w,
                "d",
                records,
                16,
                &NoFilter,
                FilterMode::SizeAware,
                vote,
                receipt,
            )
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the abort");
        }
        writer.finish().unwrap();
        assert!(open(mem).dataset_names().is_empty());
    }

    #[test]
    fn several_collective_datasets() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(2, move |comm| {
            let mut total = CollectiveReceipt::default();
            for field in ["rho", "T", "vx"] {
                let data: Vec<f64> = (0..64).map(|i| i as f64 + comm.rank() as f64).collect();
                let rec = collective_write(
                    &comm,
                    &w,
                    field,
                    &[ChunkData::full(data)],
                    64,
                    &NoFilter,
                    FilterMode::Standard,
                )
                .unwrap();
                total.dataset_creates += rec.dataset_creates;
                total.filter_calls += rec.filter_calls;
            }
            total
        });
        writer.finish().unwrap();
        // The §3.3 pathology: every rank pays a create per dataset.
        for r in &receipts {
            assert_eq!(r.dataset_creates, 3);
        }
        let rd = open(mem);
        assert_eq!(rd.dataset_names().len(), 3);
    }
}
