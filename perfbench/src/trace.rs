//! Tracing from outside the program: an in-memory span recorder and a
//! pass-through [`Storage`] wrapper that records one span per storage
//! call.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (a snapshot write, a query, a readback). Storage calls issued while
//! that span is open — from any thread, the writer's rank threads
//! included — become its children. Spans stay in memory and are written
//! out as JSON lines when the run ends.

use h5lite::{H5Result, Storage};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// Layer boundary the span times (e.g. `h5lite.storage.write`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Enclosing span, if one was open.
    pub parent: Option<u32>,
    /// Request id shared by every span of one operation.
    pub request: u64,
    /// Bytes moved by the call (storage spans), else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A closed enclosing span with its children, when the call was traced.
pub type Closed = Option<(Span, Vec<Span>)>;

/// An enclosing span that is still open.
pub struct Open {
    id: u32,
    name: &'static str,
    request: u64,
    start_ns: u64,
    first_child: usize,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The open enclosing span: `(id, request)`.
    active: Option<(u32, u64)>,
}

/// Span recorder shared by the benchmark thread and the storage wrapper.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            enabled: AtomicBool::new(true),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking thread")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open an enclosing span; storage calls until [`Tracer::close`]
    /// become its children. Enclosing spans do not nest.
    pub fn open(&self, name: &'static str, request: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state();
        st.active = Some((id, request));
        Open {
            id,
            name,
            request,
            first_child: st.spans.len(),
            start_ns: self.now_ns(),
        }
    }

    /// Close an enclosing span; returns it and the children recorded
    /// while it was open.
    pub fn close(&self, open: Open) -> (Span, Vec<Span>) {
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.active = None;
        let children: Vec<Span> = st.spans[open.first_child..]
            .iter()
            .filter(|s| s.parent == Some(open.id))
            .copied()
            .collect();
        let span = Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: None,
            request: open.request,
            bytes: 0,
        };
        st.spans.push(span);
        (span, children)
    }

    /// Turn recording of [`Tracer::child`] spans off or on (storage
    /// wrappers that outlive one phase of a run stay in place).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Time `f` as a child of the open enclosing span (a root span when
    /// none is open). Runs `f` unrecorded while the tracer is disabled.
    pub fn child<T>(&self, name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state();
        let (parent, request) = st.active.map_or((None, 0), |(p, r)| (Some(p), r));
        st.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
            bytes,
        });
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.state().spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.state().spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"bytes\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Total time covered by the union of `spans` (concurrent calls from
/// several rank threads count once), in milliseconds.
pub fn covered_ms<'a>(spans: impl IntoIterator<Item = &'a Span>) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans.into_iter().map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total as f64 / 1e6
}

/// Span names the storage wrapper records.
pub const STORAGE_WRITE: &str = "h5lite.storage.write";
/// See [`STORAGE_WRITE`].
pub const STORAGE_READ: &str = "h5lite.storage.read";
/// See [`STORAGE_WRITE`].
pub const STORAGE_FLUSH: &str = "h5lite.storage.flush";
/// See [`STORAGE_WRITE`].
pub const STORAGE_FINALIZE: &str = "h5lite.storage.finalize";

/// Pass-through [`Storage`] that times every data-moving call. It
/// forwards each call unchanged, so a container written through it is
/// byte-identical to one written to the inner backend directly.
pub struct TimingStorage {
    inner: Box<dyn Storage>,
    tracer: Arc<Tracer>,
}

impl TimingStorage {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Storage>, tracer: Arc<Tracer>) -> Self {
        TimingStorage { inner, tracer }
    }
}

impl Storage for TimingStorage {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn reserve(&self, bytes: u64) -> u64 {
        self.inner.reserve(bytes)
    }

    fn reserved_len(&self) -> u64 {
        self.inner.reserved_len()
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()> {
        self.tracer.child(STORAGE_WRITE, bytes.len() as u64, || {
            self.inner.write_at(offset, bytes)
        })
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> H5Result<()> {
        let n = buf.len() as u64;
        self.tracer
            .child(STORAGE_READ, n, || self.inner.read_at(offset, buf))
    }

    fn len(&self) -> H5Result<u64> {
        self.inner.len()
    }

    fn flush(&self) -> H5Result<()> {
        self.tracer.child(STORAGE_FLUSH, 0, || self.inner.flush())
    }

    fn finalize(&self) -> H5Result<()> {
        self.tracer
            .child(STORAGE_FINALIZE, 0, || self.inner.finalize())
    }

    fn truncate(&self, len: u64) -> H5Result<()> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            name: "x",
            start_ns,
            end_ns,
            parent: None,
            request: 0,
            bytes: 0,
        }
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let s = [span(0, 10), span(5, 20), span(30, 40)];
        assert_eq!(covered_ms(&s), 30.0 / 1e6);
        assert_eq!(covered_ms(&[]), 0.0);
    }

    #[test]
    fn children_attach_to_the_open_span() {
        let t = Tracer::default();
        t.child("before", 0, || ());
        let open = t.open("op", 7);
        t.child("inner", 3, || ());
        let (op, kids) = t.close(open);
        t.child("after", 0, || ());
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].parent, Some(op.id));
        assert_eq!(kids[0].request, 7);
        assert_eq!(kids[0].bytes, 3);
        assert_eq!(t.len(), 4);
    }
}
