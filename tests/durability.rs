//! Durable write-path acceptance suite (DESIGN.md §12).
//!
//! The properties under test:
//!
//! 1. **Crash-point recovery** — for a fixed mutation history, crash the
//!    WAL at *every* record boundary (nothing written, a short record, a
//!    torn record), reopen from the surviving log, and the recovered
//!    instance answers every query byte-identically to an oracle
//!    bulk-loaded from exactly the surviving documents — in both
//!    postings formats and at every exec thread count.
//! 2. **Torn tails truncate, never corrupt** — garbage appended to the
//!    log is cut off at the first bad checksum on reopen; the valid
//!    prefix replays in full.
//! 3. **Incremental ≡ bulk** — any random insert/delete history applied
//!    incrementally matches a from-scratch bulk rebuild of the net
//!    document set (proptest).
//! 4. **Recovery is observable** — replays are counted in the published
//!    metrics (`xkw_recoveries_total`, `xkw_docs_total`, `xkw_wal_*`).
//! 5. **Plans outlive writes** — one instance queried after *every*
//!    mutation, its plan cache warm across the view swaps, answers each
//!    step exactly like a bulk rebuild of that step's live documents,
//!    typed errors included (proptest).
//!
//! CI runs this suite across the same `XKW_EXEC_THREADS` /
//! `XKW_POSTINGS` matrix as the fault-injection suite; without the env
//! vars the tests sweep 1/2/8 threads and both formats internally.

use proptest::prelude::*;
use std::path::PathBuf;
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::WAL_FILE;
use xkeyword::store::{FaultKind, WalFault};

const BASE: &str = "<bib>\
    <paper><title>xml keyword search</title><author>jones</author></paper>\
    <paper><title>graph proximity</title><author>smith</author></paper>\
    </bib>";

/// Documents the histories ingest — each a complete `<bib>` subtree.
const DOCS: [&str; 3] = [
    "<bib><paper><title>proximity ranking</title><author>royce</author></paper></bib>",
    "<bib><paper><title>incremental indexing</title><author>jones</author></paper></bib>",
    "<bib><paper><title>torn tails</title><author>smith</author></paper></bib>",
];

const QUERIES: [&[&str]; 5] = [
    &["jones", "proximity"],
    &["royce", "ranking"],
    &["jones", "smith"],
    &["incremental", "jones"],
    &["torn", "tails"],
];

/// Thread counts to sweep (override with `XKW_EXEC_THREADS`).
fn exec_threads() -> Vec<usize> {
    match std::env::var("XKW_EXEC_THREADS") {
        Ok(s) => vec![s.parse().expect("XKW_EXEC_THREADS must be a usize")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Both postings formats, unless `XKW_POSTINGS` pins one (in which case
/// `from_env` already resolves it and we honour the pin).
fn postings_formats() -> Vec<PostingsFormatKind> {
    match std::env::var("XKW_POSTINGS") {
        Ok(_) => vec![PostingsFormatKind::from_env()],
        Err(_) => vec![PostingsFormatKind::Raw, PostingsFormatKind::Packed],
    }
}

/// A fresh, collision-free WAL directory for one scenario.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xkw-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load_base(wal_dir: Option<PathBuf>, threads: usize, format: PostingsFormatKind) -> XKeyword {
    XKeyword::load_xml(
        BASE,
        LoadOptions {
            exec_threads: threads,
            postings_format: format,
            wal_dir,
            ..LoadOptions::default()
        },
    )
    .unwrap()
}

/// An oracle bulk-loaded from BASE plus `docs`, absorbed into one graph
/// and classified against BASE's inferred TSS — no WAL, no incremental
/// path anywhere.
fn bulk_oracle(docs: &[&str]) -> XKeyword {
    let base = xkeyword::graph::parse(BASE).unwrap();
    let schema = xkeyword::graph::infer_schema(&base);
    let tss = xkeyword::graph::auto_mapping(&schema, &base).unwrap();
    let mut graph = base;
    for doc in docs {
        let frag = xkeyword::graph::parse(doc).unwrap();
        graph.absorb(&frag);
    }
    XKeyword::load(graph, tss, LoadOptions::default()).unwrap()
}

/// One probe answer that keeps a typed error apart from an empty
/// result, plus whether its planning hit the plan cache.
fn typed_answer(xk: &XKeyword, q: &[&str]) -> (Result<String, XkError>, bool) {
    match xk.engine().query_all(q, 6, ExecMode::Naive) {
        Ok(out) => (
            Ok(xk.canonical_results(q, 6).unwrap()),
            out.metrics.plan_cache_hit,
        ),
        Err(e) => (Err(e), false),
    }
}

/// Canonical answers for every probe query.
fn canon(xk: &XKeyword) -> Vec<String> {
    QUERIES
        .iter()
        .map(|q| xk.canonical_results(q, 6).unwrap())
        .collect()
}

/// The fixed 4-record history of the crash matrix. Document ids are
/// deterministic: inserts take 1, 2, 3 in order.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(usize),
    Delete(u64),
}

const HISTORY: [Op; 4] = [Op::Insert(0), Op::Insert(1), Op::Delete(1), Op::Insert(2)];

/// Net live documents after the first `n` records of [`HISTORY`].
fn live_after(n: usize) -> Vec<&'static str> {
    let mut live: Vec<(u64, &str)> = Vec::new();
    let mut next = 1u64;
    for op in &HISTORY[..n] {
        match op {
            Op::Insert(d) => {
                live.push((next, DOCS[*d]));
                next += 1;
            }
            Op::Delete(doc) => live.retain(|(id, _)| id != doc),
        }
    }
    live.into_iter().map(|(_, d)| d).collect()
}

fn apply(xk: &XKeyword, op: Op) -> Result<(), XkError> {
    match op {
        Op::Insert(d) => xk.insert_document(DOCS[d]).map(|_| ()),
        Op::Delete(doc) => xk.delete_document(doc),
    }
}

/// Property 1: crash the WAL at every record boundary × every WAL fault
/// kind × both postings formats × every thread count; the reopened
/// instance must answer byte-identically to a bulk-loaded oracle of the
/// surviving documents.
#[test]
fn crash_at_every_record_boundary_recovers_to_oracle() {
    // Oracle canonical answers depend only on the surviving prefix.
    let oracles: Vec<Vec<String>> = (0..=HISTORY.len())
        .map(|n| canon(&bulk_oracle(&live_after(n))))
        .collect();
    let kinds = [FaultKind::Crash, FaultKind::WalShort, FaultKind::WalTorn];
    for format in postings_formats() {
        for &kind in &kinds {
            // `at == HISTORY.len()` is the no-crash control run.
            #[allow(clippy::needless_range_loop)] // `at` is the fault index, not just a cursor
            for at in 0..=HISTORY.len() {
                let dir = fresh_dir(&format!("matrix-{format:?}-{kind:?}-{at}"));
                let xk = load_base(Some(dir.clone()), 1, format);
                if at < HISTORY.len() {
                    xk.set_wal_fault(Some(WalFault {
                        kind,
                        at: at as u64,
                    }));
                }
                for (i, &op) in HISTORY.iter().enumerate() {
                    let res = apply(&xk, op);
                    assert_eq!(
                        res.is_ok(),
                        i < at,
                        "{kind:?}@{at}: op {i} ({op:?}) -> {res:?}"
                    );
                }
                drop(xk);
                // A short/torn record litters the log tail — but only
                // until the first reopen truncates it.
                let mut tail_pending = at < HISTORY.len() && kind != FaultKind::Crash;
                for threads in exec_threads() {
                    let recovered = load_base(Some(dir.clone()), threads, format);
                    assert_eq!(
                        canon(&recovered),
                        oracles[at],
                        "{format:?} {kind:?} crash at record {at}, {threads} threads"
                    );
                    assert_eq!(recovered.documents().len(), live_after(at).len());
                    // Replayed records or a truncated tail count as a
                    // recovery; a clean empty log does not.
                    assert_eq!(
                        recovered.recoveries(),
                        u64::from(at > 0 || tail_pending),
                        "{kind:?}@{at}"
                    );
                    tail_pending = false;
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Property 2: a garbage tail appended to the log truncates on reopen —
/// the valid prefix replays in full and the file shrinks back to it.
#[test]
fn garbage_tail_is_truncated_not_trusted() {
    let dir = fresh_dir("garbage-tail");
    let xk = load_base(Some(dir.clone()), 1, PostingsFormatKind::from_env());
    xk.insert_document(DOCS[0]).unwrap();
    xk.insert_document(DOCS[1]).unwrap();
    let clean_bytes = xk.wal_stats().unwrap().bytes;
    drop(xk);

    let wal_path = dir.join(WAL_FILE);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    // A plausible-length header followed by junk that cannot checksum.
    f.write_all(&[0x10, 0, 0, 0]).unwrap();
    f.write_all(&[0xAB; 40]).unwrap();
    drop(f);

    let recovered = load_base(Some(dir.clone()), 1, PostingsFormatKind::from_env());
    assert_eq!(recovered.recoveries(), 1);
    assert_eq!(recovered.documents(), vec![1, 2]);
    assert_eq!(canon(&recovered), canon(&bulk_oracle(&[DOCS[0], DOCS[1]])));
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        clean_bytes,
        "the garbage tail must be physically truncated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property 4: recovery and the write path are visible in published
/// metrics.
#[test]
fn recovery_and_wal_counters_are_published() {
    let dir = fresh_dir("metrics");
    let xk = load_base(Some(dir.clone()), 1, PostingsFormatKind::from_env());
    xk.insert_document(DOCS[0]).unwrap();
    xk.insert_document(DOCS[1]).unwrap();
    xk.delete_document(1).unwrap();
    let live = xkeyword::obs::Registry::new();
    xk.export_metrics(&live);
    assert_eq!(live.gauge("xkw_recoveries_total").get(), 0);
    assert_eq!(live.gauge("xkw_docs_total").get(), 1);
    assert_eq!(live.gauge("xkw_wal_appends_total").get(), 3);
    assert!(
        live.gauge("xkw_wal_fsyncs_total").get() >= 3,
        "FsyncPolicy::Always syncs every append"
    );
    drop(xk);

    let recovered = load_base(Some(dir.clone()), 1, PostingsFormatKind::from_env());
    let registry = xkeyword::obs::Registry::new();
    recovered.export_metrics(&registry);
    assert_eq!(registry.gauge("xkw_recoveries_total").get(), 1);
    assert_eq!(registry.gauge("xkw_docs_total").get(), 1);
    assert!(
        registry.gauge("xkw_wal_bytes").get() > 0,
        "the surviving log has bytes on disk"
    );
    let rendered = registry.render_prometheus();
    for name in [
        "xkw_recoveries_total",
        "xkw_docs_total",
        "xkw_wal_appends_total",
        "xkw_wal_bytes",
        "xkw_wal_fsyncs_total",
    ] {
        assert!(rendered.contains(name), "{name} missing from dump");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 3: any insert/delete history applied incrementally is
    /// indistinguishable from a from-scratch bulk rebuild of the net
    /// document set — across thread counts and postings formats.
    #[test]
    fn incremental_history_matches_bulk_rebuild(choices in prop::collection::vec(0usize..5, 1..8)) {
        // 0..3 insert DOCS[i]; 3 deletes the oldest live doc, 4 the
        // newest (both no-ops when nothing is live).
        for format in postings_formats() {
            for threads in exec_threads() {
                let xk = load_base(None, threads, format);
                let mut live: Vec<(u64, &str)> = Vec::new();
                let mut next = 1u64;
                for &c in &choices {
                    match c {
                        0..=2 => {
                            let doc = xk.insert_document(DOCS[c]).unwrap();
                            prop_assert_eq!(doc, next);
                            live.push((doc, DOCS[c]));
                            next += 1;
                        }
                        3 | 4 => {
                            if live.is_empty() {
                                continue;
                            }
                            let idx = if c == 3 { 0 } else { live.len() - 1 };
                            let (doc, _) = live.remove(idx);
                            xk.delete_document(doc).unwrap();
                        }
                        _ => unreachable!(),
                    }
                }
                let docs: Vec<&str> = live.iter().map(|&(_, d)| d).collect();
                let oracle = bulk_oracle(&docs);
                prop_assert_eq!(
                    canon(&xk),
                    canon(&oracle),
                    "history {:?} diverged from bulk rebuild ({:?}, {} threads)",
                    &choices, format, threads
                );
            }
        }
    }

    /// Property 5: the plan cache stays warm across view swaps without
    /// changing any answer. After every mutation of a random history the
    /// same instance answers every probe like a bulk rebuild of the live
    /// set at that step — `UnknownKeyword` once the last `royce` document
    /// is gone included — and at least one post-swap query hits the
    /// cache, so the property is not vacuously cold.
    #[test]
    fn warm_plans_across_swaps_match_bulk_rebuild(
        first in 0usize..3,
        rest in prop::collection::vec(0usize..5, 0..7),
    ) {
        // The first choice always inserts, so every history swaps views.
        let choices: Vec<usize> = std::iter::once(first).chain(rest).collect();
        for format in postings_formats() {
            for threads in exec_threads() {
                let xk = load_base(None, threads, format);
                let ctx = format!("history {choices:?} ({format:?}, {threads} threads)");
                let warm: Vec<_> = QUERIES.iter().map(|q| typed_answer(&xk, q).0).collect();
                let base = bulk_oracle(&[]);
                let want: Vec<_> = QUERIES.iter().map(|q| typed_answer(&base, q).0).collect();
                prop_assert_eq!(warm, want, "{} before any write", &ctx);
                let mut live: Vec<(u64, &str)> = Vec::new();
                let mut post_swap_hits = 0;
                for (step, &c) in choices.iter().enumerate() {
                    match c {
                        0..=2 => live.push((xk.insert_document(DOCS[c]).unwrap(), DOCS[c])),
                        _ if live.is_empty() => continue,
                        3 => xk.delete_document(live.remove(0).0).unwrap(),
                        4 => xk.delete_document(live.pop().unwrap().0).unwrap(),
                        _ => unreachable!(),
                    }
                    let docs: Vec<&str> = live.iter().map(|&(_, d)| d).collect();
                    let oracle = bulk_oracle(&docs);
                    for q in QUERIES {
                        let (got, hit) = typed_answer(&xk, q);
                        post_swap_hits += usize::from(hit);
                        prop_assert_eq!(
                            got,
                            typed_answer(&oracle, q).0,
                            "{} step {} query {:?}",
                            &ctx, step, q
                        );
                    }
                }
                prop_assert!(post_swap_hits > 0, "{}: no post-swap plan-cache hit", &ctx);
            }
        }
    }
}
