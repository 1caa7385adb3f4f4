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
use crate::file::{encode_chunk, ChunkData, H5Writer};
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
    // Encode and write chunk by chunk, reusing one scratch pair across the
    // whole collective call — the per-chunk hot path allocates no fresh
    // output `Vec` (the §3.3 writer encodes one chunk per rank per
    // (level, field); the baseline path pushes hundreds through here).
    let mut pad = Vec::new();
    let mut encoded = Vec::new();
    let mut my_records = Vec::with_capacity(my_chunks.len());
    let mut failure: Option<H5Error> = None;
    for chunk in my_chunks {
        writer.count_filter_call();
        receipt.filter_calls += 1;
        let t0 = std::time::Instant::now();
        let result = encode_chunk(chunk, chunk_elems, filter, mode, &mut pad, &mut encoded);
        receipt.encode_seconds += t0.elapsed().as_secs_f64();
        let logical = match result {
            Ok(l) => l,
            Err(e) => {
                failure = Some(e);
                break;
            }
        };
        let offset = writer.reserve(encoded.len() as u64);
        if let Err(e) = writer.write_at(offset, &encoded) {
            failure = Some(e);
            break;
        }
        receipt.write_calls += 1;
        receipt.bytes_written += encoded.len() as u64;
        my_records.push(ChunkRecord {
            offset,
            stored_bytes: encoded.len() as u64,
            logical_elems: logical,
        });
    }

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

/// The shared tail of every collective write: agree on success, gather
/// chunk records in rank order, register the dataset on rank 0.
///
/// Public so callers that stream their frames to storage incrementally
/// (the overlapped field writer) can commit the dataset once per rank
/// from the records alone. Every rank must call this exactly once per
/// dataset, in the same order; `failure: Some(_)` is the abort vote —
/// the write never registers and every rank returns `Err`.
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
/// paper's §3.3), then positioned writes in frame order. Each written
/// frame's [`ChunkRecord`] is appended to `records` and its write counted
/// in `receipt`; the first failed write stops the batch. Every collective
/// write path that streams pre-encoded frames goes through here.
pub fn write_frame_extent(
    writer: &H5Writer,
    frames: &[EncodedFrame],
    receipt: &mut CollectiveReceipt,
    records: &mut Vec<ChunkRecord>,
) -> H5Result<()> {
    let plan = writer.reserve_extent(frames.iter().map(|f| f.bytes.len() as u64));
    for (frame, &offset) in frames.iter().zip(&plan.offsets) {
        writer.write_at(offset, &frame.bytes)?;
        receipt.write_calls += 1;
        receipt.bytes_written += frame.bytes.len() as u64;
        records.push(ChunkRecord {
            offset,
            stored_bytes: frame.bytes.len() as u64,
            logical_elems: frame.logical_elems,
        });
    }
    Ok(())
}

/// Collectively write one dataset from **pre-encoded** frames — the write
/// stage of the overlapped pipeline, where compression already happened
/// on the pool workers.
///
/// `my_frames: None` signals that this rank failed to produce its frames
/// (its compression error travels separately); the rank still
/// participates in every collective step so peers abort in lockstep
/// instead of deadlocking, and every rank returns `Err`.
///
/// Because all frame sizes are known up front, the rank's frames land in
/// **one contiguous pre-reserved extent** (a single atomic reservation —
/// the paper's one-pass write against its compress-then-rewrite
/// two-pass).
pub fn collective_write_frames(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_frames: Option<Vec<EncodedFrame>>,
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
) -> H5Result<CollectiveReceipt> {
    let mut receipt = CollectiveReceipt {
        dataset_creates: 1,
        ..Default::default()
    };
    let mut my_records = Vec::new();
    let failure = match &my_frames {
        Some(frames) => {
            receipt.filter_calls = frames.len() as u64;
            receipt.encode_seconds = frames.iter().map(|f| f.encode_seconds).sum();
            write_frame_extent(writer, frames, &mut receipt, &mut my_records).err()
        }
        None => Some(H5Error::Format(
            "collective write aborted: this rank failed to encode its frames".into(),
        )),
    };
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

/// Collectively write one dataset with the chunk compression running on a
/// rank-local worker pool, overlapped with the writes: while batch `k`'s
/// frames stream to storage (one pre-reserved extent per batch), the
/// workers are already compressing batch `k + 1`. The reassembly window
/// (2 batches) is the double buffer — and the backpressure bound on
/// frames held in memory.
///
/// Output is byte-identical to [`collective_write`]: frames are encoded
/// per chunk with the same filter and assembled in submission order.
/// With `workers <= 1` this *is* [`collective_write`].
#[allow(clippy::too_many_arguments)]
pub fn collective_write_pipelined(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_chunks: &[ChunkData],
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
    workers: usize,
) -> H5Result<CollectiveReceipt> {
    if workers <= 1 {
        return collective_write(comm, writer, name, my_chunks, chunk_elems, filter, mode);
    }
    let mut receipt = CollectiveReceipt {
        dataset_creates: 1,
        ..Default::default()
    };
    let mut my_records: Vec<ChunkRecord> = Vec::new();
    let batch_size = workers.max(2);
    let mut batch: Vec<EncodedFrame> = Vec::with_capacity(batch_size);

    let pool_result: Result<(), H5Error> = rankpar::pool::for_each_ordered(
        my_chunks,
        workers,
        2 * batch_size,
        Vec::new, // per-worker padding buffer
        |pad: &mut Vec<f64>, _i, chunk| {
            writer.count_filter_call();
            encode_frame(chunk, chunk_elems, filter, mode, pad)
        },
        |_i, frame| {
            receipt.filter_calls += 1;
            receipt.encode_seconds += frame.encode_seconds;
            batch.push(frame);
            if batch.len() < batch_size {
                return Ok(());
            }
            let written = write_frame_extent(writer, &batch, &mut receipt, &mut my_records);
            batch.clear();
            written
        },
    );
    let failure = pool_result
        .and_then(|()| write_frame_extent(writer, &batch, &mut receipt, &mut my_records))
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
        // One rank's chunk is invalid (larger than the chunk size): every
        // rank must return Err — the failing rank its encode error, the
        // peers an abort notice — instead of hanging in the record gather.
        let (writer, _mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(2, move |comm| {
            let n = if comm.rank() == 1 { 512 } else { 64 }; // 512 > chunk 64
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            collective_write(
                &comm,
                &w,
                "d",
                &[ChunkData::full(data)],
                64,
                &NoFilter,
                FilterMode::Standard,
            )
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the collective failure");
        }
    }

    #[test]
    fn pipelined_write_matches_serial_bytes() {
        // The overlapped path must store byte-identical chunks (offsets
        // may differ; stored bytes and logical counts may not).
        let chunk_data: Vec<Vec<f64>> = (0..13)
            .map(|c| {
                (0..192)
                    .map(|i| ((c * 192 + i) as f64 * 0.013).sin() * (c + 1) as f64)
                    .collect()
            })
            .collect();
        let chunks: Vec<ChunkData> = chunk_data.into_iter().map(ChunkData::full).collect();
        let f = SzFilter::one_dimensional(1e-3);
        let write = |workers: usize| {
            let (writer, mem) = mem_writer();
            let w = Arc::clone(&writer);
            let chunks = chunks.clone();
            run_ranks(2, move |comm| {
                collective_write_pipelined(
                    &comm,
                    &w,
                    "d",
                    &chunks,
                    192,
                    &f,
                    FilterMode::SizeAware,
                    workers,
                )
                .unwrap()
            });
            writer.finish().unwrap();
            open(mem)
        };
        let rs = write(1);
        let rp = write(4);
        let (ms, mp) = (rs.meta("d").unwrap(), rp.meta("d").unwrap());
        assert_eq!(ms.chunks.len(), mp.chunks.len());
        for i in 0..ms.chunks.len() {
            assert_eq!(
                rs.read_chunk_raw("d", i).unwrap(),
                rp.read_chunk_raw("d", i).unwrap(),
                "chunk {i} bytes differ between serial and parallel"
            );
            assert_eq!(ms.chunks[i].logical_elems, mp.chunks[i].logical_elems);
        }
        assert_eq!(rs.read_dataset("d").unwrap(), rp.read_dataset("d").unwrap());
    }

    #[test]
    fn frames_path_writes_preencoded_chunks() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(2, move |comm| {
            let rank = comm.rank();
            let data: Vec<f64> = (0..64).map(|i| (rank * 100 + i) as f64).collect();
            let f = NoFilter;
            let frame = crate::filter::encode_frame(
                &ChunkData::full(data),
                64,
                &f,
                FilterMode::SizeAware,
                &mut Vec::new(),
            )
            .unwrap();
            collective_write_frames(
                &comm,
                &w,
                "d",
                Some(vec![frame]),
                64,
                &f,
                FilterMode::SizeAware,
            )
            .unwrap()
        });
        writer.finish().unwrap();
        for r in &receipts {
            assert_eq!(r.filter_calls, 1);
            assert_eq!(r.write_calls, 1);
        }
        let r = open(mem);
        let all = r.read_dataset("d").unwrap();
        assert_eq!(all.len(), 128);
        assert_eq!(all[64], 100.0);
    }

    #[test]
    fn frames_path_none_aborts_all_ranks_without_deadlock() {
        let (writer, _mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(3, move |comm| {
            let frames = if comm.rank() == 1 {
                None // this rank's compression "failed"
            } else {
                let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
                Some(vec![crate::filter::encode_frame(
                    &ChunkData::full(data),
                    16,
                    &NoFilter,
                    FilterMode::SizeAware,
                    &mut Vec::new(),
                )
                .unwrap()])
            };
            collective_write_frames(&comm, &w, "d", frames, 16, &NoFilter, FilterMode::SizeAware)
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the abort");
        }
    }

    #[test]
    fn pipelined_failing_chunk_aborts_collective() {
        // One rank's mid-batch chunk exceeds the chunk size: the pool must
        // drain, and every rank must return Err.
        let (writer, _mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(2, move |comm| {
            let mut chunks: Vec<ChunkData> = (0..8)
                .map(|c| ChunkData::full((0..32).map(|i| (c * 32 + i) as f64).collect()))
                .collect();
            if comm.rank() == 1 {
                // 64 > chunk size 32, injected mid-batch.
                chunks[4] = ChunkData::full((0..64).map(|i| i as f64).collect());
            }
            collective_write_pipelined(
                &comm,
                &w,
                "d",
                &chunks,
                32,
                &NoFilter,
                FilterMode::Standard,
                4,
            )
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the collective failure");
        }
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
