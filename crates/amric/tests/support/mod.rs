//! Test-only storage fault injection, shared by the write-failure suite
//! and the crate's own baseline unit test.

use h5lite::{H5Error, H5Result, MemStorage, Storage};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A [`MemStorage`] that fails the `fail_write`-th `write_at` call
/// (1-based, counted across every clone) and/or `finalize` with an I/O
/// error. Clones share the image and the call counter.
#[derive(Clone, Default)]
pub struct FaultyStorage {
    /// The bytes written so far.
    pub mem: MemStorage,
    writes: Arc<AtomicUsize>,
    fail_write: Option<usize>,
    fail_finalize: bool,
}

impl FaultyStorage {
    /// Storage failing the `n`-th `write_at` call.
    pub fn failing_write(n: usize) -> Self {
        FaultyStorage {
            fail_write: Some(n),
            ..Self::default()
        }
    }

    /// Storage failing `finalize`.
    pub fn failing_finalize() -> Self {
        FaultyStorage {
            fail_finalize: true,
            ..Self::default()
        }
    }

    /// `write_at` calls made so far, failed ones included.
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::SeqCst)
    }
}

fn injected(what: &str) -> H5Error {
    H5Error::Io(std::io::Error::other(format!("injected {what} fault")))
}

impl Storage for FaultyStorage {
    fn kind(&self) -> &'static str {
        "faulty-mem"
    }

    fn reserve(&self, bytes: u64) -> u64 {
        self.mem.reserve(bytes)
    }

    fn reserved_len(&self) -> u64 {
        self.mem.reserved_len()
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.fail_write == Some(n) {
            return Err(injected("write"));
        }
        self.mem.write_at(offset, bytes)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> H5Result<()> {
        self.mem.read_at(offset, buf)
    }

    fn len(&self) -> H5Result<u64> {
        self.mem.len()
    }

    fn flush(&self) -> H5Result<()> {
        self.mem.flush()
    }

    fn finalize(&self) -> H5Result<()> {
        if self.fail_finalize {
            return Err(injected("finalize"));
        }
        self.mem.finalize()
    }

    fn truncate(&self, len: u64) -> H5Result<()> {
        self.mem.truncate(len)
    }
}
