//! Tiny-size runs of every workload: each named metric is emitted, the
//! correctness gate passes, an injected bad value is counted without
//! stopping the run, and the timing storage wrapper changes no byte.

use amr_mesh::prelude::AmrHierarchy;
use amric_perfbench::inputs::{self, App};
use amric_perfbench::trace::Tracer;
use amric_perfbench::write::{open_reader, timed_write, Encoder};
use amric_perfbench::{run, verify, Options, Outcome, Report, Size, Workload};
use std::path::PathBuf;
use std::sync::Arc;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn tiny(workload: Workload, trace: bool, inject_fault: bool) -> Outcome {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        inject_fault,
        out_dir: out_dir(workload.name()),
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed to set up: {e}", workload.name()))
}

/// Metric names of one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = declared("end_to_end");
    assert!(want.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        let o = tiny(w, false, false);
        let r = Report::of(&o);
        assert_eq!(names(&r), want, "{}", w.name());
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), o.notes);
        assert!(r.attempted > 0);
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(r.json().starts_with("{\"correct\": true, "));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let want = declared("per_layer");
    for w in Workload::ALL {
        let o = tiny(w, true, false);
        let r = Report::of(&o);
        assert_eq!(names(&r), want, "{}", w.name());
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), o.notes);
        let v = |name: &str| r.metrics.iter().find(|m| m.name == name).expect(name).value;
        // Every workload writes snapshots (its own or the set-up
        // plotfiles), so the write breakdown closes on each of them.
        let parts = v("amric.writer.prep_ms")
            + v("amric.writer.rank_compute_ms")
            + v("h5lite.storage.write_ms")
            + v("h5lite.storage.finalize_ms")
            + v("amric.writer.unattributed_ms");
        assert!(
            (parts - v("amric.writer.wall_ms")).abs() < 1e-6,
            "{}",
            w.name()
        );
        assert!(v("amric.pipeline.encode_ms") > 0.0);
        assert!(v("h5lite.storage.write_calls") > 0.0);
        match w {
            Workload::WarpxTemporal => assert!(v("amric.temporal.delta_chunk_share") > 0.0),
            Workload::AnalysisSpill => assert!(v("amr_query.cache.hit_rate") > 0.0),
            Workload::ServeHot => assert!(v("amr_serve.slabs_per_scan") >= 1.0),
            Workload::NyxInsitu => assert!(v("amric.pipeline.decode_ms") > 0.0),
        }
    }
}

#[test]
fn an_out_of_bound_cell_is_counted_not_fatal() {
    for w in [Workload::NyxInsitu, Workload::WarpxTemporal] {
        let o = tiny(w, false, true);
        assert_eq!(o.failed, 1, "{}: {:?}", w.name(), o.notes);
        assert!(o.attempted > o.failed);
        assert!(Report::of(&o).json().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn a_perturbed_answer_is_counted_not_fatal() {
    for w in [Workload::AnalysisSpill, Workload::ServeHot] {
        let o = tiny(w, false, true);
        assert_eq!(o.failed, 1, "{}: {:?}", w.name(), o.notes);
        assert!(o.attempted > o.failed);
    }
}

/// Write `h` once through `FileStorage` and once through the timing
/// wrapper; returns both containers' bytes and payload fingerprints.
fn plain_and_wrapped(h: &AmrHierarchy, tag: &str) -> [(Vec<u8>, u64); 2] {
    let dir = out_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let tracer = Arc::new(Tracer::default());
    let out = [None, Some(&tracer)].map(|t| {
        let path = dir.join(if t.is_some() {
            "wrapped.h5l"
        } else {
            "plain.h5l"
        });
        let (_, res, spans) = timed_write(&mut Encoder::new(false), &path, h, t, 0);
        res.unwrap();
        assert_eq!(spans.is_some(), t.is_some());
        let fingerprint = verify::digest(&open_reader(&path, None).unwrap()).unwrap();
        (std::fs::read(&path).unwrap(), fingerprint)
    });
    assert!(!tracer.is_empty(), "the wrapper recorded the storage calls");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn timing_storage_writes_identical_bytes() {
    // One rank: the writer's output is deterministic, so the wrapped
    // container must match the plain one byte for byte.
    let cfg = inputs::run_config(App::Nyx, Size::Tiny, 1);
    let one_rank = &inputs::build(App::Nyx, &cfg, &[(3, 0.0)])[0];
    let [plain, wrapped] = plain_and_wrapped(one_rank, "identity-1");
    assert_eq!(plain.0, wrapped.0);
    // Two ranks race to reserve extents, so two plain writes already
    // order chunks differently; every chunk's bytes and the size match.
    let two_ranks = &inputs::nyx_steps(3, Size::Tiny)[0];
    let [plain, wrapped] = plain_and_wrapped(two_ranks, "identity-2");
    assert_eq!(plain.0.len(), wrapped.0.len());
    assert_eq!(plain.1, wrapped.1);
}
