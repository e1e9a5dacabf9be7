//! Flight-recorder tests: recording is invisible to query semantics
//! (byte-identical results recorder on/off across thread counts and
//! postings formats), slow and deadline-degraded queries are
//! force-captured into the slow log with a deferred EXPLAIN whose
//! per-operator I/O decomposes the capture totals, and the record ring
//! never grows past its configured capacity.

use std::time::{Duration, Instant};
use xkeyword::core::exec::ExecMode;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;
use xkeyword::store::{FaultSpec, FaultTarget};

fn cached() -> ExecMode {
    ExecMode::Cached { capacity: 1024 }
}

fn fig1(format: PostingsFormatKind, pool_pages: usize) -> XKeyword {
    let (graph, _, _) = tpch::figure1();
    XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages,
            postings_format: format,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

const QUERIES: [&[&str]; 4] = [&["john", "vcr"], &["us", "vcr"], &["john", "us"], &["tv"]];

/// Recording must never influence answers: for every query, thread
/// count and postings format, rows with the recorder enabled (and
/// sampling forced to 1-in-1) are byte-identical to rows with the
/// recorder off, and repeated runs agree on the stored result digest.
#[test]
fn results_are_byte_identical_with_recorder_on_or_off() {
    for format in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        let xk = fig1(format, 64);
        let engine = xk.engine();
        let recorder = engine.recorder();
        assert!(recorder.enabled(), "recording is on by default");

        // Baseline rows with the recorder off.
        recorder.set_enabled(false);
        let mut want = Vec::new();
        for q in QUERIES {
            want.push(engine.query_all(q, 8, cached()).unwrap().results.rows);
        }
        assert_eq!(recorder.len(), 0, "a disabled recorder must stay empty");

        // Recorder on, sampling every query, across thread counts.
        recorder.set_enabled(true);
        recorder.set_sample_every(1);
        for threads in [1usize, 2, 8] {
            engine.set_exec_threads(threads);
            let mut digests = Vec::new();
            for (q, want_rows) in QUERIES.iter().zip(&want) {
                let out = engine.query_all(q, 8, cached()).unwrap();
                assert_eq!(
                    &out.results.rows, want_rows,
                    "rows diverged with recorder on: format={format:?} threads={threads}"
                );
                let rec = recorder.records().into_iter().last().unwrap();
                assert_eq!(rec.rows, want_rows.len());
                assert_eq!(
                    rec.postings,
                    if format == PostingsFormatKind::Raw {
                        "raw"
                    } else {
                        "packed"
                    }
                );
                digests.push(rec.result_digest);
            }
            // Same queries at any thread count → same digests.
            if threads == 1 {
                continue;
            }
            let single: Vec<u64> = {
                engine.set_exec_threads(1);
                QUERIES
                    .iter()
                    .map(|q| {
                        engine.query_all(q, 8, cached()).unwrap();
                        recorder.records().into_iter().last().unwrap().result_digest
                    })
                    .collect()
            };
            assert_eq!(digests, single, "digest must be thread-count invariant");
        }
    }
}

/// A deadline-degraded query is force-captured: its record lands in the
/// slow log carrying a [`xkeyword::obs::DegradationSummary`] that
/// matches the outcome's own degradation report, and exporting the log
/// attaches a deferred EXPLAIN whose per-operator I/O decomposes the
/// capture's totals even though plans were skipped.
#[test]
fn deadline_degraded_query_is_forced_into_the_slow_log() {
    let xk = fig1(PostingsFormatKind::Raw, 2);
    // Installed after load so the stalls only tax the query path.
    xk.db
        .install_faults(FaultSpec::new(0x5EED).slow(FaultTarget::All, 1.0, 100_000_000));
    let engine = xk.engine();
    let recorder = engine.recorder();

    let deadline = Duration::from_millis(250);
    let res = engine.query_all_within(&["john", "vcr"], 8, cached(), Some(deadline));
    let rec = recorder
        .records()
        .into_iter()
        .last()
        .expect("every query must leave a record");
    assert!(rec.forced, "a degraded query must be force-captured");
    assert_eq!(rec.deadline_ns, Some(deadline.as_nanos() as u64));
    assert!(
        recorder.slow_records(10).iter().any(|r| r.id == rec.id),
        "forced records must surface in the slow log"
    );

    match res {
        Ok(out) => {
            let want = &out.results.degradation;
            let got = rec
                .degradation
                .as_ref()
                .expect("degradation must be recorded");
            assert!(got.deadline_exceeded, "slow pages must trip the deadline");
            assert_eq!(got.deadline_exceeded, want.deadline_exceeded);
            assert_eq!(got.plans_skipped, want.plans_skipped);
            assert_eq!(got.plans_incomplete, want.plans_incomplete);
            assert_eq!(got.retries, want.retries);
            assert!(
                rec.needs_explain,
                "forced success awaits a deferred EXPLAIN"
            );

            // Export triggers the deferred capture; the re-run honors the
            // original deadline, so skipped plans show zero-I/O profiles
            // and the decomposition stays exact.
            let t0 = Instant::now();
            let jsonl = engine.export_query_log();
            assert!(
                t0.elapsed() <= deadline * 4,
                "deferred capture must honor the recorded deadline"
            );
            let rec = recorder
                .records()
                .into_iter()
                .find(|r| r.id == rec.id)
                .unwrap();
            assert!(!rec.needs_explain);
            let explain = rec.explain.as_ref().expect("export must attach EXPLAIN");
            assert_eq!(
                explain.io_total(),
                explain.io_hits + explain.io_misses,
                "per-operator I/O must decompose the capture totals"
            );
            let line = jsonl
                .lines()
                .find(|l| l.starts_with(&format!("{{\"id\":{}", rec.id)))
                .expect("exported JSONL must carry the degraded query");
            assert!(line.contains("\"degraded\":{"), "{line}");
            assert!(line.contains("\"explain\":{"), "{line}");
        }
        // Nothing produced in time: recorded as a forced error instead.
        Err(XkError::DeadlineExceeded) => {
            assert!(rec.error.is_some(), "failed queries must record the error");
            assert!(!rec.needs_explain, "error records never re-run the query");
        }
        Err(other) => panic!("expected degraded result or DeadlineExceeded, got {other:?}"),
    }
}

/// A query over the slow threshold is force-captured with a pending
/// EXPLAIN; `capture_pending_explains` attaches a profile off the
/// serving path (engine query counters must not move) whose operator
/// I/O decomposes the capture totals — on both the exhaustive and the
/// pruned top-k entry points.
#[test]
fn slow_queries_get_a_deferred_explain_that_decomposes_io() {
    let xk = fig1(PostingsFormatKind::Packed, 64);
    let engine = xk.engine();
    let recorder = engine.recorder();
    recorder.set_slow_threshold_ns(1); // everything is slow

    engine.query_all(&["john", "vcr"], 8, cached()).unwrap();
    engine
        .query_topk(&["us", "vcr"], 8, 3, cached(), 2)
        .unwrap();
    let pending: Vec<u64> = recorder
        .records()
        .iter()
        .filter(|r| r.needs_explain)
        .map(|r| r.id)
        .collect();
    assert_eq!(pending.len(), 2, "both slow queries must await EXPLAIN");

    let queries_before = engine.stats().queries;
    let captured = engine.capture_pending_explains();
    assert_eq!(captured, 2);
    assert_eq!(
        engine.stats().queries,
        queries_before,
        "deferred captures must not count as served queries"
    );

    for rec in recorder.records() {
        assert!(rec.slow && rec.forced);
        assert!(!rec.needs_explain);
        let explain = rec.explain.as_ref().expect("capture must attach EXPLAIN");
        assert_eq!(explain.profiles.len(), rec.plans);
        assert_eq!(
            explain.io_total(),
            explain.io_hits + explain.io_misses,
            "path {}: per-operator I/O must decompose the capture totals",
            rec.path
        );
        assert!(explain.io_total() > 0, "fig1 queries touch the pool");
    }

    // The slow-table render includes both entries; re-export is stable.
    let table = engine.slow_log(10);
    assert!(table.contains("john vcr"), "{table}");
    assert!(table.contains("us vcr"), "{table}");
    let jsonl = engine.export_query_log();
    assert_eq!(jsonl.lines().count(), recorder.len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"id\":"), "malformed JSONL line: {line}");
        assert!(line.ends_with('}'), "malformed JSONL line: {line}");
    }
}

/// The record ring is bounded: pushing far more queries than the
/// configured capacity retains exactly `capacity` records while the
/// appended counter keeps the true total.
#[test]
fn record_ring_never_exceeds_capacity() {
    let xk = fig1(PostingsFormatKind::Raw, 64);
    let engine = xk.engine();
    let recorder = engine.recorder();
    let capacity = recorder.capacity();
    let total = capacity + capacity / 2;
    for _ in 0..total {
        engine.query_all(&["tv"], 8, cached()).unwrap();
    }
    assert_eq!(recorder.appended(), total as u64);
    assert_eq!(recorder.len(), capacity, "ring must saturate at capacity");
    assert_eq!(recorder.records().len(), capacity);
    // Survivors are the most recent records.
    let min_id = recorder.records().iter().map(|r| r.id).min().unwrap();
    assert!(
        min_id > (total - capacity) as u64 / 2,
        "evictions must discard the oldest records first (min surviving id {min_id})"
    );
}

/// Queries rejected before execution — unknown keyword, empty query,
/// too many keywords, bad mode — each append exactly one forced record
/// carrying their typed error, and count toward the windowed error rate
/// just like execute-stage failures.
#[test]
fn prepare_stage_rejections_are_recorded() {
    let xk = fig1(PostingsFormatKind::Raw, 64);
    let engine = xk.engine();
    let recorder = engine.recorder();
    let many: Vec<String> = (0..=xkeyword::core::error::MAX_KEYWORDS)
        .map(|i| format!("kw{i}"))
        .collect();
    let many: Vec<&str> = many.iter().map(String::as_str).collect();
    type Rejection<'a> = (&'a [&'a str], ExecMode, fn(&XkError) -> bool);
    let cases: [Rejection; 4] = [
        (
            &["john", "nosuchword"],
            cached(),
            |e| matches!(e, XkError::UnknownKeyword(k) if k == "nosuchword"),
        ),
        (&[], cached(), |e| matches!(e, XkError::EmptyQuery)),
        (&many, cached(), |e| {
            matches!(e, XkError::TooManyKeywords { .. })
        }),
        (&["john", "vcr"], ExecMode::Cached { capacity: 0 }, |e| {
            matches!(e, XkError::BadMode(_))
        }),
    ];
    for (i, (keywords, mode, is_kind)) in cases.into_iter().enumerate() {
        let appended = recorder.appended();
        let errors = engine.stats().errors;
        let window_errors = recorder.window_stats().errors;
        let e = engine.query_all(keywords, 8, mode).unwrap_err();
        assert!(is_kind(&e), "case {i}: unexpected error {e:?}");
        assert_eq!(recorder.appended(), appended + 1, "case {i}: one record");
        assert_eq!(engine.stats().errors, errors + 1, "case {i}: one error");
        assert_eq!(recorder.window_stats().errors, window_errors + 1);
        let rec = recorder.records().into_iter().last().unwrap();
        assert_eq!(rec.error.as_deref(), Some(e.to_string().as_str()));
        assert_eq!(rec.keywords, *keywords);
        assert!(
            rec.forced && !rec.needs_explain,
            "case {i}: forced, no re-run"
        );
        assert_eq!((rec.rows, rec.plans), (0, 0), "case {i}: nothing ran");
    }
    // The top-k path records its rejections the same way.
    let appended = recorder.appended();
    let e = engine
        .query_topk(&["nosuchword"], 8, 3, cached(), 1)
        .unwrap_err();
    assert!(matches!(e, XkError::UnknownKeyword(_)));
    assert_eq!(recorder.appended(), appended + 1);
    assert_eq!(recorder.records().last().unwrap().k, Some(3));
}
