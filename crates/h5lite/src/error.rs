//! Error type shared by the h5lite read/write paths.

use sz_codec::CodecError;

/// Anything that can go wrong while reading or writing an h5lite file.
#[derive(Debug)]
pub enum H5Error {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structurally invalid file.
    Format(String),
    /// A chunk failed to encode or decode through its filter. The typed
    /// [`CodecError`] is preserved losslessly, so callers can still match
    /// on the precise failure (truncation vs bad magic vs …).
    Codec(CodecError),
    /// Unknown dataset name.
    NotFound(String),
    /// A chunk index beyond the dataset's chunk count was requested.
    ChunkOutOfRange {
        /// Dataset the request addressed.
        dataset: String,
        /// Requested chunk position.
        index: usize,
        /// Number of chunks the dataset actually stores.
        count: usize,
    },
    /// Dataset created twice.
    Duplicate(String),
    /// No registered filter for the stored filter id.
    UnknownFilter(u32),
    /// A collective write this rank took part in aborted because a peer
    /// rank failed; the peer's own error carries the cause.
    PeerAborted,
}

impl std::fmt::Display for H5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H5Error::Io(e) => write!(f, "I/O error: {e}"),
            H5Error::Format(m) => write!(f, "malformed h5lite file: {m}"),
            H5Error::Codec(e) => write!(f, "chunk filter failed: {e}"),
            H5Error::NotFound(n) => write!(f, "dataset not found: {n}"),
            H5Error::ChunkOutOfRange {
                dataset,
                index,
                count,
            } => write!(
                f,
                "chunk {index} out of range for dataset {dataset} ({count} chunks)"
            ),
            H5Error::Duplicate(n) => write!(f, "dataset already exists: {n}"),
            H5Error::UnknownFilter(id) => write!(f, "no filter registered for id {id}"),
            H5Error::PeerAborted => write!(f, "collective write aborted: a peer rank failed"),
        }
    }
}

impl std::error::Error for H5Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            H5Error::Io(e) => Some(e),
            H5Error::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for H5Error {
    fn from(e: std::io::Error) -> Self {
        H5Error::Io(e)
    }
}

impl From<CodecError> for H5Error {
    fn from(e: CodecError) -> Self {
        H5Error::Codec(e)
    }
}

impl H5Error {
    /// The underlying [`CodecError`], when this is a codec failure.
    pub fn as_codec(&self) -> Option<&CodecError> {
        match self {
            H5Error::Codec(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias.
pub type H5Result<T> = Result<T, H5Error>;
