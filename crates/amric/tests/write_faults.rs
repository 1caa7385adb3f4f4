//! Write-failure suite: when storage fails, every snapshot write API
//! returns a typed error — it never panics a rank, never deadlocks the
//! rank collectives, and never leaves an image that opens as a valid
//! container.
//!
//! Each sweep first counts the `write_at` calls a clean write makes, then
//! repeats the write once per call with exactly that call failing, and
//! once more with `finalize` failing. Sweeps run under a watchdog so a
//! cross-rank deadlock fails loudly instead of hanging the run. The
//! AMReX baseline writers, which only take a path, are swept by a unit
//! test inside the crate.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amric::prelude::*;
use amric::temporal::read_temporal_meta;
use h5lite::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use support::FaultyStorage;

mod support;

/// Run `f` on its own thread; fail if it panics or has not finished
/// within the deadline.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{name}: deadlocked (watchdog expired)"),
        Err(RecvTimeoutError::Disconnected) => panic!("{name}: the write panicked"),
    }
}

fn hierarchy(t: f64) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&NyxScenario::new(11), &cfg, t)
}

type Write = dyn Fn(Arc<H5Writer>) -> H5Result<WriteReport> + Send + Sync;

/// Create a container on `storage` and run `write` into it.
fn attempt(storage: &FaultyStorage, write: &Write) -> H5Result<WriteReport> {
    H5Writer::with_storage(Box::new(storage.clone())).and_then(|w| write(Arc::new(w)))
}

/// Fail each `write_at` call of a clean run in turn, then `finalize`.
fn sweep(name: &'static str, write: Box<Write>) {
    with_watchdog(name, move || {
        let clean = FaultyStorage::default();
        if let Err(e) = attempt(&clean, &*write) {
            panic!("{name}: clean write failed: {e}");
        }
        let calls = clean.writes();
        assert!(calls > 2, "{name}: only {calls} write_at calls");
        for n in 1..=calls {
            let storage = FaultyStorage::failing_write(n);
            assert!(
                attempt(&storage, &*write).is_err(),
                "{name}: write_at #{n} of {calls} failed, yet the write returned Ok"
            );
            assert!(
                H5Reader::from_storage(Box::new(storage.mem)).is_err(),
                "{name}: write_at #{n} of {calls} failed, yet the image opens"
            );
        }
        assert!(
            attempt(&FaultyStorage::failing_finalize(), &*write).is_err(),
            "{name}: finalize failed, yet the write returned Ok"
        );
    });
}

#[test]
fn spatial_write_serial_returns_errors() {
    let h = hierarchy(0.0);
    sweep(
        "write_amric_to workers=1",
        Box::new(move |w| write_amric_to(w, &h, &AmricConfig::lr(1e-3), 8)),
    );
}

#[test]
fn spatial_write_pooled_returns_errors() {
    let h = hierarchy(0.0);
    sweep(
        "write_amric_to workers=4",
        Box::new(move |w| write_amric_to(w, &h, &AmricConfig::lr(1e-3).with_workers(4), 8)),
    );
}

#[test]
fn temporal_write_returns_errors() {
    // The faulty write is the second snapshot of a fresh session, so its
    // streams delta-code against the first.
    let (h0, h1) = (hierarchy(0.0), hierarchy(0.02));
    sweep(
        "TemporalSession::write_to",
        Box::new(move |w| {
            let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
            session.write_to(Arc::new(H5Writer::in_memory().0), &h0)?;
            session.write_to(w, &h1)
        }),
    );
}

#[test]
fn failed_temporal_write_leaves_the_session_usable() {
    let (h0, h1) = (hierarchy(0.0), hierarchy(0.02));
    let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
    session
        .write_to(Arc::new(H5Writer::in_memory().0), &h0)
        .unwrap();
    let faulty = H5Writer::with_storage(Box::new(FaultyStorage::failing_write(3))).unwrap();
    assert!(session.write_to(Arc::new(faulty), &h1).is_err());
    assert_eq!(session.next_snapshot_id(), 2, "a failed write uses no id");
    // The retry still delta-codes against snapshot 1.
    let (w, mem) = H5Writer::in_memory();
    session.write_to(Arc::new(w), &h1).unwrap();
    let meta = read_temporal_meta(&H5Reader::from_storage(Box::new(mem)).unwrap()).unwrap();
    assert_eq!((meta.snapshot_id, meta.reference_id), (2, Some(1)));
}
