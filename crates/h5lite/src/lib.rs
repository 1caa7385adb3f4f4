//! # h5lite — chunked scientific container with compression filters
//!
//! A from-scratch stand-in for the slice of HDF5 that the AMRIC paper
//! (SC '23) exercises:
//!
//! * single-file container with named datasets of `f64`;
//! * **uniform chunking** per dataset — the constraint that forces the
//!   paper's chunk-size gymnastics (§2.1, §3.3);
//! * a **filter pipeline** applied per chunk ([`filter::ChunkFilter`]),
//!   with both stock semantics (filters see padded chunks) and AMRIC's
//!   size-aware modification (filters see the actual data size);
//! * **collective writes** across thread-ranks ([`collective`]), with
//!   per-rank accounting for the PFS cost model.
//!
//! ```no_run
//! use h5lite::prelude::*;
//!
//! let w = H5Writer::create("/tmp/example.h5l").unwrap();
//! let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin()).collect();
//! w.write_dataset("level_0/density", &data, 1024,
//!                 &SzFilter::one_dimensional(1e-3)).unwrap();
//! w.finish().unwrap();
//!
//! let r = H5Reader::open("/tmp/example.h5l").unwrap();
//! let back = r.read_dataset("level_0/density").unwrap();
//! assert_eq!(back.len(), data.len());
//! ```

pub mod collective;
pub mod dataset;
pub mod error;
pub mod file;
pub mod filter;
pub mod index;
pub mod sharded;
pub mod storage;
pub mod testutil;

pub use dataset::{ChunkRecord, DatasetMeta};
pub use error::{H5Error, H5Result};
pub use file::{
    strip_chunk_indexes, strip_chunk_indexes_in, ChunkData, H5Reader, H5Writer, WriteStats,
};
pub use filter::{ChunkFilter, EncodedFrame, FilterMode, NoFilter, SzFilter};
pub use index::{ChunkIndex, ChunkIndexEntry, CODEC_RAW};
pub use sharded::{is_sharded, read_manifest, ShardExtent, ShardManifest, ShardedStorage};
pub use storage::{open_storage, open_storage_rw, FileStorage, MemStorage, Storage};

/// Commonly used items.
pub mod prelude {
    pub use crate::collective::{
        collective_finalize, collective_write, write_frame_extent, CollectiveReceipt,
    };
    pub use crate::dataset::{ChunkRecord, DatasetMeta};
    pub use crate::error::{H5Error, H5Result};
    pub use crate::file::{strip_chunk_indexes, ChunkData, H5Reader, H5Writer, WriteStats};
    pub use crate::filter::{
        encode_frame, ChunkFilter, EncodedFrame, FilterMode, NoFilter, SzFilter,
    };
    pub use crate::index::{ChunkIndex, ChunkIndexEntry, CODEC_RAW};
    pub use crate::sharded::{is_sharded, read_manifest, ShardManifest, ShardedStorage};
    pub use crate::storage::{open_storage, FileStorage, MemStorage, Storage};
}
