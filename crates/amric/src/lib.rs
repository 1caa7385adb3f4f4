//! # amric — in-situ lossy compression for AMR applications
//!
//! Rust reproduction of **AMRIC** (Wang et al., SC '23): an in-situ
//! error-bounded lossy compression framework for patch-based AMR codes.
//! See README.md at the repository root for the full system inventory and
//! the experiment index.
//!
//! ## The `Codec` API
//!
//! AMRIC is a *framework* hosting several error-bounded compressors, so
//! the public surface is organized around `sz_codec`'s `Codec` trait:
//! compress unit blocks into a caller-provided buffer
//! (`compress_into(&units, &mut out)`), decompress any self-describing
//! stream back. [`codec`] implements the trait for the four families this
//! crate owns — [`codec::AmricCodec`] (the full pipeline),
//! [`codec::TacCodec`], [`codec::ZmeshCodec`], and
//! [`codec::BaselineCodec`] — and `sz-codec` contributes SZ_L/R and
//! SZ_Interp. All six share one stream envelope, so
//! [`codec::decompress_auto`] decodes any stream produced anywhere in the
//! workspace:
//!
//! ```
//! use amric::prelude::*;
//! use sz_codec::prelude::*;
//!
//! let units = vec![Buffer3::zeros(Dims3::cube(8)); 4];
//! let codec = AmricCodec::new(AmricConfig::lr(1e-3), 8);
//! let mut stream = Vec::new(); // reused across chunks in hot paths
//! codec.compress_into(&units, &mut stream).unwrap();
//! assert_eq!(decompress_auto(&stream).unwrap().len(), 4);
//! ```
//!
//! Malformed streams fail through the typed `CodecError` hierarchy
//! (never a panic), and configurations are built with `with_*` chains on
//! the [`config::AmricConfig::lr`] / [`config::AmricConfig::interp`]
//! presets.
//!
//! ## The pipeline (paper §3)
//!
//! 1. [`preprocess`] — remove redundant coarse data via box intersections,
//!    truncate the remainder into unit blocks;
//! 2. [`reorganize`] — arrange unit blocks linearly (SZ_L/R) or as a
//!    near-cube cluster (SZ_Interp);
//! 3. [`pipeline`] — the optimized SZ compression (Shared Lossless
//!    Encoding + adaptive block size) producing self-describing streams;
//! 4. [`writer`]/[`reader`] — the in-situ HDF5-filter path with AMRIC's
//!    field-major layout and size-aware global chunking;
//! 5. [`baseline`] — AMReX's stock 1-D small-chunk compression for
//!    comparison, plus [`tac`] and [`zmesh`] offline comparators.

pub mod baseline;
pub mod codec;
pub mod config;
pub mod pipeline;
pub mod preprocess;
pub mod reader;
pub mod reorganize;
pub mod tac;
pub mod temporal;
pub mod writer;
pub mod zmesh;

/// Storage fault injection for the crate's unit tests, shared with the
/// write-failure integration suite.
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod faulty_storage;

pub use codec::{decompress_auto, default_registry};
pub use config::{AmricConfig, BaselineConfig, BoundPolicy, MergePolicy};
pub use pipeline::{stream_unit_bounds, ResolvedBound};

/// Commonly used items.
pub mod prelude {
    pub use crate::baseline::{write_amrex_baseline, write_nocomp};
    pub use crate::codec::{
        decompress_auto, default_registry, AmricCodec, BaselineCodec, TacCodec, ZmeshCodec,
    };
    pub use crate::config::{AmricConfig, BaselineConfig, BoundPolicy, MergePolicy};
    pub use crate::pipeline::{
        compress_field_units, compress_field_units_resolved, compress_field_units_resolved_into,
        compress_field_units_resolved_pooled, compress_field_units_with_bound,
        compress_field_units_with_bound_into, compress_field_units_with_bound_pooled,
        decompress_field_units, resolve_abs_eb, stream_unit_bounds, AmricScratch, ResolvedBound,
    };
    pub use crate::preprocess::{
        extract_units, plan_units, plan_units_layout, scatter_units, unit_activity,
        unit_edge_for_level, UnitRef,
    };
    pub use crate::reader::{
        read_amric_hierarchy, read_plotfile_meta, verify_against, LevelLayout, PlotfileMeta,
    };
    pub use crate::temporal::{
        read_temporal_hierarchy, read_temporal_meta, TemporalFieldFilter, TemporalMeta,
        TemporalReadState, TemporalSession, TemporalSessionConfig, FILTER_TEMPORAL,
    };
    pub use crate::writer::{
        write_amric, write_amric_sharded, write_amric_to, write_field_parallel, FieldWriteJob,
        WriteReport,
    };
}
