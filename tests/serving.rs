//! End-to-end serving suite: a real `xkw-serve` server on a localhost
//! socket, driven over the wire. The contracts pinned here:
//!
//! 1. **Byte-identity** — served rows equal in-process evaluation
//!    exactly (same rows, same order) at 1/2/8 engine worker threads ×
//!    both postings formats, on the top-k and the full-evaluation
//!    paths. The network layer adds transport, never nondeterminism.
//! 2. **Pagination** — pages walked via `next_offset` concatenate to
//!    the single-shot result, over the stable (deterministic) order;
//!    an offset past the end is an empty page, not an error.
//! 3. **Degradation fidelity** — a degraded response's report equals
//!    the counters the server publishes (`xkw_server_degraded_total`,
//!    `..plans_skipped..`, `..plans_incomplete..`, `..query_faults..`).
//! 4. **Protocol robustness** — every frame type round-trips through
//!    encode/decode (proptest), and a malformed-frame corpus (truncated
//!    header, bad magic/version/kind, oversized length, garbage
//!    payload, random bytes) gets a typed protocol error or a clean
//!    close — never a panic, never a hang (every read is under a
//!    timeout, and the server still answers a fresh connection after
//!    the whole corpus).
//! 5. **Overload** — an open-loop run at 2× measured capacity against
//!    a max-inflight-1 server sheds with typed `Overloaded` responses
//!    only: the harness's sequence-id loss accounting closes exactly,
//!    and reconciles with `xkw_server_shed_total` / the in-flight
//!    gauges.

use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use xkeyword::core::exec::{Degradation, ExecMode, ResultRow};
use xkeyword::core::prelude::*;
use xkeyword::core::xkeyword::DecompositionSpec;
use xkeyword::datagen::tpch;
use xkeyword::serve::proto::{self, Frame, FrameKind, HEADER_LEN, MAGIC, VERSION};
use xkeyword::serve::{
    start, Client, ClientError, ErrorCode, QueryOutcome, QueryRequest, QueryResponse, ServerConfig,
    StatsResponse, WireDegradation, WireMetrics, WireRow,
};
use xkeyword::store::{FaultSpec, FaultTarget};
use xkw_bench::loadgen::{self, QueryMix, RequestSpec};

/// The cache mode the server evaluates with (its default capacity).
fn cached() -> ExecMode {
    ExecMode::Cached { capacity: 8192 }
}

fn fig1(postings: PostingsFormatKind) -> Arc<XKeyword> {
    let (graph, _, _) = tpch::figure1();
    Arc::new(
        XKeyword::load(
            graph,
            tpch::tss_graph(),
            LoadOptions {
                decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
                postings_format: postings,
                ..LoadOptions::default()
            },
        )
        .unwrap(),
    )
}

const QUERIES: [&[&str]; 3] = [&["john", "vcr"], &["us", "vcr"], &["john", "us"]];

fn request(keywords: &[&str], k: u32) -> QueryRequest {
    QueryRequest {
        z: 8,
        k,
        keywords: keywords.iter().map(|s| s.to_string()).collect(),
        ..QueryRequest::default()
    }
}

/// Asserts served rows mirror in-process rows exactly — same order,
/// same plan index, same assignment, same score.
fn assert_rows_match(got: &[WireRow], want: &[ResultRow], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.plan as usize, w.plan, "{ctx}: plan index");
        assert_eq!(g.score as usize, w.score, "{ctx}: score");
        assert_eq!(g.assignment, w.assignment, "{ctx}: assignment");
    }
}

/// Served responses are byte-identical to in-process evaluation across
/// 1/2/8 worker threads × both postings formats, on both the top-k and
/// the full path.
#[test]
fn served_rows_byte_identical_to_in_process() {
    for postings in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        let xk = fig1(postings);
        for threads in [1usize, 2, 8] {
            let mut srv = start(
                Arc::clone(&xk),
                "127.0.0.1:0",
                ServerConfig {
                    exec_threads: threads,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let mut client = Client::connect(srv.addr()).unwrap();
            for kws in QUERIES {
                let ctx = format!("{kws:?} postings={postings:?} threads={threads}");
                // Full evaluation (k = 0 on the wire).
                let want = xk
                    .engine()
                    .query_all_within(kws, 8, cached(), None)
                    .unwrap();
                match client.query(&request(kws, 0)).unwrap() {
                    QueryOutcome::Results(r) => {
                        assert_eq!(r.total_rows as usize, want.results.rows.len(), "{ctx}");
                        assert!(!r.degradation.is_degraded(), "{ctx}: spurious degradation");
                        assert_rows_match(&r.rows, &want.results.rows, &ctx);
                    }
                    QueryOutcome::Error(e) => panic!("{ctx}: unexpected error {e:?}"),
                }
                // Top-k path.
                for k in [1usize, 3, 10] {
                    let want = xk
                        .engine()
                        .query_topk_opts(kws, 8, k, cached(), threads, None, true)
                        .unwrap();
                    match client.query(&request(kws, k as u32)).unwrap() {
                        QueryOutcome::Results(r) => {
                            assert_rows_match(&r.rows, &want.results.rows, &format!("{ctx} k={k}"));
                        }
                        QueryOutcome::Error(e) => panic!("{ctx} k={k}: unexpected error {e:?}"),
                    }
                }
            }
            srv.shutdown();
        }
    }
}

/// Pages follow `next_offset` over the stable result order and
/// concatenate to the single-shot answer; out-of-range offsets are
/// empty pages.
#[test]
fn pagination_walks_the_stable_order() {
    let xk = fig1(PostingsFormatKind::Raw);
    let mut srv = start(Arc::clone(&xk), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(srv.addr()).unwrap();

    let full = match client.query(&request(&["john", "vcr"], 0)).unwrap() {
        QueryOutcome::Results(r) => r,
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    };
    assert!(full.next_offset.is_none(), "one page fits the default max");
    assert!(
        full.total_rows >= 3,
        "pagination needs a few rows to be meaningful, got {}",
        full.total_rows
    );

    // Walk in pages of 2.
    let mut req = request(&["john", "vcr"], 0);
    req.page_size = 2;
    let mut rows = Vec::new();
    let mut pages = 0u32;
    loop {
        let page = match client.query(&req).unwrap() {
            QueryOutcome::Results(r) => r,
            QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
        };
        assert_eq!(
            page.total_rows, full.total_rows,
            "total stable across pages"
        );
        assert_eq!(page.offset, req.offset, "offset echoed");
        assert!(page.rows.len() <= 2, "page size respected");
        rows.extend(page.rows);
        pages += 1;
        match page.next_offset {
            Some(off) => {
                assert_eq!(off as usize, rows.len(), "continuation is contiguous");
                req.offset = off;
            }
            None => break,
        }
    }
    assert_eq!(rows, full.rows, "pages concatenate to the one-shot answer");
    assert_eq!(
        pages,
        full.total_rows.div_ceil(2),
        "no empty mid-walk pages"
    );

    // The convenience walker agrees.
    let mut req = request(&["john", "vcr"], 0);
    req.page_size = 2;
    match client.query_all_pages(&req).unwrap() {
        QueryOutcome::Results(r) => assert_eq!(r.rows, full.rows),
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    }

    // Past the end: an empty final page, not an error.
    let mut req = request(&["john", "vcr"], 0);
    req.offset = full.total_rows + 5;
    match client.query(&req).unwrap() {
        QueryOutcome::Results(r) => {
            assert!(r.rows.is_empty());
            assert!(r.next_offset.is_none());
            assert_eq!(r.total_rows, full.total_rows);
        }
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    }
    srv.shutdown();
}

/// One results page, panicking on a typed error.
fn results(client: &mut Client, req: &QueryRequest) -> QueryResponse {
    match client.query(req).unwrap() {
        QueryOutcome::Results(r) => r,
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    }
}

/// Every request resolves to exactly one counted outcome.
fn assert_reconciles(s: &StatsResponse) {
    assert_eq!(
        s.requests,
        s.responses + s.shed + s.quota_shed + s.request_errors,
        "request accounting must close: {s:?}"
    );
}

/// A server over `xk` at `threads` worker threads on both the top-k and
/// the full-evaluation paths.
fn serve_at(xk: &Arc<XKeyword>, threads: usize) -> xkeyword::serve::ServerHandle {
    xk.engine().set_exec_threads(threads);
    start(
        Arc::clone(xk),
        "127.0.0.1:0",
        ServerConfig {
            exec_threads: threads,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// The result cursor: a multi-page walk executes its query once — one
/// engine query, one flight record — and slices every continuation page
/// from the stored answer, which still concatenates to the in-process
/// answer. Continuation pages report no engine work, an offset past the
/// end is an empty page from the cursor, and interleaved walks stay
/// correct through fallback.
#[test]
fn paged_walk_executes_the_query_once() {
    for postings in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        let xk = fig1(postings);
        for threads in [1usize, 2, 8] {
            let mut srv = serve_at(&xk, threads);
            let mut client = Client::connect(srv.addr()).unwrap();
            let recorder = xk.engine().recorder();
            for kws in QUERIES {
                for k in [0u32, 10] {
                    let ctx = format!("{kws:?} k={k} postings={postings:?} threads={threads}");
                    let want = if k == 0 {
                        xk.engine().query_all_within(kws, 8, cached(), None)
                    } else {
                        xk.engine().query_topk_opts(
                            kws,
                            8,
                            k as usize,
                            cached(),
                            threads,
                            None,
                            true,
                        )
                    }
                    .unwrap()
                    .results
                    .rows;
                    assert!(want.len() > 2, "{ctx}: needs several pages of 2");
                    let (s0, records0) = (client.stats().unwrap(), recorder.appended());
                    let cursor0 = srv.metrics().cursor_pages_total();

                    let mut req = request(kws, k);
                    req.page_size = 2;
                    let (mut rows, mut pages) = (Vec::new(), 0u64);
                    loop {
                        let page = results(&mut client, &req);
                        assert_eq!(page.total_rows as usize, want.len(), "{ctx}");
                        if req.offset > 0 {
                            let m = page.metrics;
                            assert_eq!(
                                (m.exec_ns, m.io_hits, m.io_misses, m.plans),
                                (0, 0, 0, 0),
                                "{ctx}: a cursor page reports no engine work"
                            );
                        }
                        rows.extend(page.rows);
                        pages += 1;
                        match page.next_offset {
                            Some(off) => req.offset = off,
                            None => break,
                        }
                    }
                    assert_rows_match(&rows, &want, &ctx);
                    assert_eq!(pages, (want.len() as u64).div_ceil(2), "{ctx}");
                    let s1 = client.stats().unwrap();
                    assert_eq!(s1.engine_queries, s0.engine_queries + 1, "{ctx}");
                    assert_eq!(recorder.appended(), records0 + 1, "{ctx}");
                    assert_eq!(
                        srv.metrics().cursor_pages_total(),
                        cursor0 + pages - 1,
                        "{ctx}: every continuation comes from the cursor"
                    );
                    assert_reconciles(&s1);

                    // Past the end: an empty page, still not an error.
                    req.offset = want.len() as u32 + 5;
                    let past = results(&mut client, &req);
                    assert!(past.rows.is_empty() && past.next_offset.is_none(), "{ctx}");
                    assert_eq!(past.total_rows as usize, want.len(), "{ctx}");
                    let s2 = client.stats().unwrap();
                    assert_eq!(s2.engine_queries, s1.engine_queries, "{ctx}");
                    assert_reconciles(&s2);
                }
            }
            interleave_walks(
                &xk,
                &mut client,
                &srv,
                &format!("{postings:?} threads={threads}"),
            );
            srv.shutdown();
        }
    }
}

/// Two walks interleaved on one connection keep displacing each other's
/// cursor; every page either re-executes or comes from the cursor, and
/// still equals the in-process answer's page.
fn interleave_walks(
    xk: &XKeyword,
    client: &mut Client,
    srv: &xkeyword::serve::ServerHandle,
    ctx: &str,
) {
    let mut walks: Vec<(QueryRequest, Vec<ResultRow>, Option<u32>)> = [QUERIES[0], QUERIES[1]]
        .iter()
        .map(|kws| {
            let want = xk
                .engine()
                .query_all_within(kws, 8, cached(), None)
                .unwrap()
                .results
                .rows;
            assert!(want.len() >= 2, "{ctx}: {kws:?} needs several pages");
            let mut req = request(kws, 0);
            req.page_size = 1;
            (req, want, Some(0))
        })
        .collect();
    let (s0, cursor0) = (client.stats().unwrap(), srv.metrics().cursor_pages_total());
    let mut requests = 0;
    while walks.iter().any(|(_, _, next)| next.is_some()) {
        for (req, want, next) in &mut walks {
            let Some(off) = *next else { continue };
            req.offset = off;
            let page = results(client, req);
            requests += 1;
            let at = off as usize;
            assert_rows_match(&page.rows, &want[at..at + 1], ctx);
            *next = page.next_offset;
        }
    }
    let s = client.stats().unwrap();
    assert_eq!(
        s.engine_queries - s0.engine_queries + srv.metrics().cursor_pages_total() - cursor0,
        requests,
        "{ctx}: every page either executes or comes from the cursor"
    );
    assert!(
        s.engine_queries - s0.engine_queries >= 4,
        "{ctx}: interleaving falls back"
    );
    assert_reconciles(&s);
}

/// A small bibliography the view-swap tests query for `jones search`,
/// and a document whose insert adds rows to that answer.
const BIB: &str = "<bib>\
    <paper><title>keyword search</title><author>jones</author></paper>\
    <paper><title>search engines</title><author>jones</author></paper>\
    <paper><title>proximity search</title><author>jones</author></paper>\
    <paper><title>graph search</title><author>smith</author></paper>\
    </bib>";
const DOC: &str = "<bib><paper><title>search at scale</title><author>jones</author></paper></bib>";

/// An ingest between pages installs a new view: the next page
/// re-executes against it and equals the same page of a fresh
/// single-shot answer at the new epoch, and the rest of the walk is
/// sliced from that new answer.
#[test]
fn cursor_falls_back_after_a_view_swap() {
    let kws: &[&str] = &["jones", "search"];
    for postings in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        for threads in [1usize, 2, 8] {
            let ctx = format!("postings={postings:?} threads={threads}");
            let xk = Arc::new(
                XKeyword::load_xml(
                    BIB,
                    LoadOptions {
                        postings_format: postings,
                        ..LoadOptions::default()
                    },
                )
                .unwrap(),
            );
            let mut srv = serve_at(&xk, threads);
            let mut client = Client::connect(srv.addr()).unwrap();
            let recorder = xk.engine().recorder();
            let mut req = request(kws, 0);
            req.page_size = 1;
            let first = results(&mut client, &req);
            assert!(first.next_offset.is_some(), "{ctx}: needs several pages");

            xk.insert_document(DOC).unwrap();
            let fresh = xk
                .engine()
                .query_all_within(kws, 8, cached(), None)
                .unwrap()
                .results
                .rows;
            assert!(
                fresh.len() > first.total_rows as usize,
                "{ctx}: the insert must add rows"
            );
            let records = recorder.appended();
            let cursor = srv.metrics().cursor_pages_total();
            req.offset = 1;
            let page = results(&mut client, &req);
            assert_eq!(recorder.appended(), records + 1, "{ctx}: re-executed");
            assert_eq!(srv.metrics().cursor_pages_total(), cursor, "{ctx}");
            assert_eq!(page.total_rows as usize, fresh.len(), "{ctx}");
            assert_rows_match(&page.rows, &fresh[1..2], &ctx);

            // The re-executed answer is the new cursor.
            let mut offset = page.next_offset;
            while let Some(off) = offset {
                req.offset = off;
                let page = results(&mut client, &req);
                let at = off as usize;
                assert_rows_match(&page.rows, &fresh[at..at + 1], &ctx);
                offset = page.next_offset;
            }
            assert_eq!(recorder.appended(), records + 1, "{ctx}: one execution");
            assert_eq!(
                srv.metrics().cursor_pages_total(),
                cursor + fresh.len() as u64 - 2,
                "{ctx}"
            );
            assert_reconciles(&client.stats().unwrap());
            srv.shutdown();
        }
    }
}

/// A degraded answer is never kept: with every page read stalled past
/// the deadline, the page after a degraded (or failed) first page
/// re-executes instead of being sliced from a partial answer.
#[test]
fn degraded_answers_are_not_cached() {
    for postings in [PostingsFormatKind::Raw, PostingsFormatKind::Packed] {
        let (graph, _, _) = tpch::figure1();
        let xk = Arc::new(
            XKeyword::load(
                graph,
                tpch::tss_graph(),
                LoadOptions {
                    decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
                    pool_pages: 2,
                    postings_format: postings,
                    ..LoadOptions::default()
                },
            )
            .unwrap(),
        );
        xk.db
            .install_faults(FaultSpec::new(0x5EED).slow(FaultTarget::All, 1.0, 100_000_000));
        for threads in [1usize, 2, 8] {
            let ctx = format!("postings={postings:?} threads={threads}");
            let mut srv = serve_at(&xk, threads);
            let mut client = Client::connect(srv.addr()).unwrap();
            let recorder = xk.engine().recorder();
            let mut req = request(&["john", "vcr"], 0);
            req.page_size = 1;
            req.deadline_ms = 250;
            for offset in [0, 1] {
                req.offset = offset;
                let records = recorder.appended();
                match client.query(&req).unwrap() {
                    QueryOutcome::Results(r) => {
                        assert!(r.degradation.is_degraded(), "{ctx}: slow pages degrade")
                    }
                    QueryOutcome::Error(e) => {
                        assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{ctx}: {e:?}")
                    }
                }
                assert_eq!(recorder.appended(), records + 1, "{ctx}: page {offset} ran");
            }
            assert_eq!(srv.metrics().cursor_pages_total(), 0, "{ctx}");
            assert_reconciles(&client.stats().unwrap());
            srv.shutdown();
        }
    }
}

/// A degraded response's report equals the counters the server
/// publishes — the wire never understates what was lost.
#[test]
fn degraded_responses_match_published_counters() {
    let (graph, _, _) = tpch::figure1();
    let xk = XKeyword::load(
        graph,
        tpch::tss_graph(),
        LoadOptions {
            decomposition: DecompositionSpec::XKeyword { m: 6, b: 2 },
            pool_pages: 2,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    // Installed after load so the stalls only tax the query path:
    // 100ms per faulted page read against a 250ms deadline cannot
    // finish Figure 1's plans.
    xk.db
        .install_faults(FaultSpec::new(0x5EED).slow(FaultTarget::All, 1.0, 100_000_000));
    let mut srv = start(Arc::new(xk), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(srv.addr()).unwrap();

    let mut req = request(&["john", "vcr"], 0);
    req.deadline_ms = 250;
    match client.query(&req).unwrap() {
        QueryOutcome::Results(r) => {
            let d = &r.degradation;
            assert!(d.deadline_exceeded, "slow pages must trip the deadline");
            assert!(d.is_degraded());
            let s = client.stats().unwrap();
            assert_eq!(s.degraded, 1, "one degraded response served");
            assert_eq!(s.plans_skipped, u64::from(d.plans_skipped));
            assert_eq!(s.plans_incomplete, u64::from(d.plans_incomplete));
            assert_eq!(s.query_faults, u64::from(d.faults));
            assert_eq!(s.responses, 1);
        }
        // Nothing produced in time is also a honored deadline — then it
        // is a typed error and counted as such, not silently dropped.
        QueryOutcome::Error(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{e:?}");
            let s = client.stats().unwrap();
            assert_eq!(s.request_errors, 1);
            assert_eq!(s.degraded, 0);
        }
    }
    srv.shutdown();
}

/// Session budgets: once a connection's cumulative evaluation budget is
/// spent, further queries get a typed `BudgetExhausted` — and a fresh
/// connection (fresh session) evaluates again.
#[test]
fn session_budget_exhausts_per_connection() {
    let xk = fig1(PostingsFormatKind::Raw);
    xk.catalog().set_roundtrip(Duration::from_micros(500));
    let mut srv = start(
        Arc::clone(&xk),
        "127.0.0.1:0",
        ServerConfig {
            session_budget: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(srv.addr()).unwrap();
    // Burn the 1ms budget (the first query is admitted: budget is
    // checked before evaluation, charged after).
    let mut exhausted = false;
    for _ in 0..10 {
        match client.query(&request(&["john", "vcr"], 0)).unwrap() {
            QueryOutcome::Results(_) => {}
            QueryOutcome::Error(e) => {
                assert_eq!(e.code, ErrorCode::BudgetExhausted, "{e:?}");
                exhausted = true;
                break;
            }
        }
    }
    assert!(exhausted, "a 1ms budget must not survive 10 queries");
    // A new connection is a new session with a fresh budget.
    let mut fresh = Client::connect(srv.addr()).unwrap();
    match fresh.query(&request(&["john", "vcr"], 0)).unwrap() {
        QueryOutcome::Results(_) => {}
        QueryOutcome::Error(e) => panic!("fresh session must evaluate, got {e:?}"),
    }
    srv.shutdown();
}

/// Warm plan-cache sharing: a query planned on one connection is a
/// plan-cache hit on another.
#[test]
fn plan_cache_is_shared_across_sessions() {
    let xk = fig1(PostingsFormatKind::Raw);
    let mut srv = start(Arc::clone(&xk), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut first = Client::connect(srv.addr()).unwrap();
    match first.query(&request(&["john", "vcr"], 0)).unwrap() {
        QueryOutcome::Results(r) => assert!(!r.metrics.plan_cache_hit, "first planning is cold"),
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    }
    let mut second = Client::connect(srv.addr()).unwrap();
    match second.query(&request(&["john", "vcr"], 0)).unwrap() {
        QueryOutcome::Results(r) => assert!(
            r.metrics.plan_cache_hit,
            "second session must hit the shared plan cache"
        ),
        QueryOutcome::Error(e) => panic!("unexpected error {e:?}"),
    }
    srv.shutdown();
}

/// The plan cache outlives writes: the same request on one connection
/// after an `insert_document` hits the plans the first request built,
/// its rows equal the in-process answer at the new epoch, and request
/// accounting still closes.
#[test]
fn plan_cache_survives_a_view_swap() {
    let kws: &[&str] = &["jones", "search"];
    let xk = Arc::new(XKeyword::load_xml(BIB, LoadOptions::default()).unwrap());
    let mut srv = serve_at(&xk, 1);
    let mut client = Client::connect(srv.addr()).unwrap();
    let req = request(kws, 10);
    let before = results(&mut client, &req);
    assert!(!before.metrics.plan_cache_hit, "first planning is cold");

    xk.insert_document(DOC).unwrap();
    // Ask the server first: an in-process query now would warm the
    // cache itself.
    let after = results(&mut client, &req);
    assert!(
        after.metrics.plan_cache_hit,
        "the view swap must not discard the schema-level plans"
    );
    let want = xk
        .engine()
        .query_topk_opts(kws, 8, 10, cached(), 1, None, true)
        .unwrap();
    assert_eq!(want.metrics.epoch, 1, "the answer is read at the new epoch");
    assert_rows_match(&after.rows, &want.results.rows, "after insert");
    assert_ne!(after.rows, before.rows, "the insert must change the answer");
    assert_reconciles(&client.stats().unwrap());
    srv.shutdown();
}

// ---- protocol round-trip proptests ----------------------------------

const ALL_CODES: [ErrorCode; 10] = [
    ErrorCode::Protocol,
    ErrorCode::BadRequest,
    ErrorCode::UnknownKeyword,
    ErrorCode::Overloaded,
    ErrorCode::QuotaExceeded,
    ErrorCode::BudgetExhausted,
    ErrorCode::DeadlineExceeded,
    ErrorCode::Store,
    ErrorCode::Internal,
    ErrorCode::ShuttingDown,
];

/// A full-domain frame generator covering every frame kind (the shim's
/// `Strategy` trait is implemented directly — it has no combinators).
struct ArbFrame;

impl proptest::strategy::Strategy for ArbFrame {
    type Value = Frame;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Frame {
        match rng.below(7) {
            0 => Frame::Query(QueryRequest {
                id: rng.next_u64(),
                z: rng.next_u64() as u16,
                k: rng.next_u64() as u32,
                deadline_ms: rng.next_u64() as u32,
                offset: rng.next_u64() as u32,
                page_size: rng.next_u64() as u32,
                // Only defined flag bits survive the strict decoder.
                flags: rng.below(4) as u8,
                keywords: (0..rng.below(5))
                    .map(|_| format!("kw{}", rng.next_u64() as u16))
                    .collect(),
            }),
            1 => Frame::Results(QueryResponse {
                id: rng.next_u64(),
                total_rows: rng.next_u64() as u32,
                offset: rng.next_u64() as u32,
                // u32::MAX is the wire sentinel for None.
                next_offset: (rng.below(2) == 0).then(|| rng.below(u32::MAX as u64) as u32),
                degradation: WireDegradation {
                    deadline_exceeded: rng.below(2) == 0,
                    plans_skipped: rng.next_u64() as u32,
                    plans_incomplete: rng.next_u64() as u32,
                    faults: rng.next_u64() as u32,
                    retries: rng.next_u64(),
                },
                metrics: WireMetrics {
                    total_ns: rng.next_u64(),
                    exec_ns: rng.next_u64(),
                    io_hits: rng.next_u64(),
                    io_misses: rng.next_u64(),
                    plans: rng.next_u64() as u32,
                    plan_cache_hit: rng.below(2) == 0,
                },
                rows: (0..rng.below(8))
                    .map(|_| WireRow {
                        plan: rng.next_u64() as u32,
                        score: rng.next_u64() as u32,
                        assignment: (0..rng.below(6)).map(|_| rng.next_u64() as u32).collect(),
                    })
                    .collect(),
            }),
            2 => Frame::Error(xkeyword::serve::ErrorResponse {
                id: rng.next_u64(),
                code: ALL_CODES[rng.below(ALL_CODES.len() as u64) as usize],
                retry_after_ms: rng.next_u64() as u32,
                message: format!("error detail {}", rng.next_u64() as u16),
            }),
            3 => Frame::StatsRequest,
            4 => Frame::Stats(Box::new(StatsResponse {
                connections: rng.next_u64(),
                connections_rejected: rng.next_u64(),
                requests: rng.next_u64(),
                responses: rng.next_u64(),
                shed: rng.next_u64(),
                quota_shed: rng.next_u64(),
                protocol_errors: rng.next_u64(),
                request_errors: rng.next_u64(),
                inflight: rng.next_u64() as u32,
                inflight_peak: rng.next_u64() as u32,
                engine_queries: rng.next_u64(),
                engine_errors: rng.next_u64(),
                engine_plan_cache_hits: rng.next_u64(),
                degraded: rng.next_u64(),
                plans_skipped: rng.next_u64(),
                plans_incomplete: rng.next_u64(),
                query_faults: rng.next_u64(),
            })),
            5 => Frame::Ping(rng.next_u64()),
            _ => Frame::Pong(rng.next_u64()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame type survives encode → read_frame unchanged.
    #[test]
    fn every_frame_round_trips(frame in ArbFrame) {
        let bytes = proto::encode_frame(&frame);
        let mut r = &bytes[..];
        let got = proto::read_frame(&mut r, proto::DEFAULT_MAX_FRAME)
            .expect("encoded frames decode")
            .expect("not EOF");
        prop_assert_eq!(got, frame);
        prop_assert!(r.is_empty(), "decode consumed the whole frame");
    }

    /// Any truncation of a valid frame is a typed error (or a clean
    /// EOF at offset 0) — never a panic, never trailing acceptance.
    #[test]
    fn truncated_frames_are_typed_errors(frame in ArbFrame, cut in any::<u16>()) {
        let bytes = proto::encode_frame(&frame);
        let cut = cut as usize % bytes.len().max(1);
        let mut r = &bytes[..cut];
        match proto::read_frame(&mut r, proto::DEFAULT_MAX_FRAME) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
            Err(_) => {} // typed error: truncation is Io or Wire
        }
    }
}

// ---- malformed-frame fuzz against a live server ---------------------

/// Sends raw bytes on a fresh connection, half-closes, and returns what
/// the server did: `Some(code)` for a typed error, `None` for a clean
/// close. Panics on a hang (read timeout) or garbage reply.
fn poke(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<ErrorCode> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    // Half-close so a server waiting for more header/payload bytes sees
    // EOF instead of blocking until its read timeout.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME) {
        Ok(Some(Frame::Error(e))) => Some(e.code),
        Ok(Some(f)) => panic!("server answered garbage with {:?}", f.kind()),
        Ok(None) => None,
        Err(proto::ReadFrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("server hung on malformed input {bytes:?}")
        }
        // A reset instead of a FIN is still a close, not a hang.
        Err(_) => None,
    }
}

fn header(version: u8, kind: u8, len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    h.push(version);
    h.push(kind);
    h.extend_from_slice(&len.to_le_bytes());
    h
}

/// The malformed-frame corpus: typed protocol error or clean close for
/// every entry, and the server still serves a fresh connection after.
#[test]
fn malformed_frames_never_hang_or_kill_the_server() {
    let xk = fig1(PostingsFormatKind::Raw);
    let mut srv = start(Arc::clone(&xk), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.addr();

    // Truncated headers: EOF mid-header is a clean close (nothing to
    // reply to), not a hang.
    for cut in [1, 2, 5, 7] {
        let h = header(VERSION, 1, 0);
        assert_eq!(poke(addr, &h[..cut]), None, "truncated header len {cut}");
    }
    // Bad magic, bad version, bad kind, oversized length: typed errors.
    let mut bad_magic = header(VERSION, 1, 0);
    bad_magic[0] = b'Z';
    for (name, frame) in [
        ("bad magic", bad_magic),
        ("bad version", header(9, 1, 0)),
        ("bad kind", header(VERSION, 99, 0)),
        ("oversized length", header(VERSION, 1, u32::MAX)),
    ] {
        assert_eq!(
            poke(addr, &frame),
            Some(ErrorCode::Protocol),
            "{name} must get a typed protocol error"
        );
    }
    // Garbage payload under a valid Query header.
    let mut garbage = header(VERSION, 1, 8);
    garbage.extend_from_slice(&[0xFF; 8]);
    assert_eq!(
        poke(addr, &garbage),
        Some(ErrorCode::Protocol),
        "garbage payload"
    );
    // Truncated payload: header promises 64 bytes, connection ends
    // after 3 — clean close.
    let mut truncated = header(VERSION, 1, 64);
    truncated.extend_from_slice(&[1, 2, 3]);
    assert_eq!(poke(addr, &truncated), None, "truncated payload");
    // A server-only frame kind from a client is a protocol error.
    let results = proto::encode_frame(&Frame::Results(QueryResponse::default()));
    assert_eq!(
        poke(addr, &results),
        Some(ErrorCode::Protocol),
        "server-only kind from client"
    );

    // The server survived the whole corpus: a fresh connection still
    // answers queries, and every corpus entry above was counted.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping(7).unwrap(), 7, "server must still be alive");
    match client.query(&request(&["john", "vcr"], 0)).unwrap() {
        QueryOutcome::Results(r) => assert!(r.total_rows > 0),
        QueryOutcome::Error(e) => panic!("post-corpus query failed: {e:?}"),
    }
    let s = client.stats().unwrap();
    assert_eq!(
        s.protocol_errors, 6,
        "every malformed frame with a decodable fault must be counted"
    );
    srv.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random byte salvos never hang or wedge the server: each gets a
    /// typed protocol error or a clean close within the read timeout.
    #[test]
    fn random_bytes_never_hang_the_server(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // One shared server across cases would also work, but a fresh
        // one isolates failures to the offending input.
        static SERVER: std::sync::OnceLock<(xkeyword::serve::ServerHandle, std::net::SocketAddr)> =
            std::sync::OnceLock::new();
        let (_, addr) = SERVER.get_or_init(|| {
            let srv = start(fig1(PostingsFormatKind::Raw), "127.0.0.1:0", ServerConfig::default())
                .unwrap();
            let addr = srv.addr();
            (srv, addr)
        });
        let _ = poke(*addr, &bytes); // panics on hang or garbage reply
        let mut client = Client::connect(*addr).unwrap();
        prop_assert_eq!(client.ping(42).unwrap(), 42);
    }
}

// ---- overload --------------------------------------------------------

/// Open-loop at 2× measured capacity against a max-inflight-1 server:
/// every shed is a typed `Overloaded`, the sequence-id loss accounting
/// closes exactly, and the server's own counters agree with the
/// harness's.
#[test]
fn open_loop_overload_sheds_typed_and_reconciles() {
    let xk = fig1(PostingsFormatKind::Raw);
    // A per-statement round trip so queries cost real time — capacity
    // is finite and 2× capacity genuinely overloads.
    xk.catalog().set_roundtrip(Duration::from_micros(300));
    let mix = QueryMix::fixed(
        QUERIES
            .iter()
            .map(|q| (q[0].to_string(), q[1].to_string()))
            .collect(),
        1.1,
    );
    let spec = RequestSpec {
        k: 5,
        deadline_ms: 5_000, // accepted requests must finish well inside
        ..RequestSpec::default()
    };

    // Measure capacity closed-loop against a roomy server.
    let mut cap_srv = start(
        Arc::clone(&xk),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let closed = loadgen::closed_loop(cap_srv.addr(), &mix, spec, 2, 25, 0xCAFE);
    cap_srv.shutdown();
    assert!(closed.fully_accounted());
    assert_eq!(closed.tally.errors, 0);
    assert_eq!(
        closed.tally.shed, 0,
        "closed loop under the bound never sheds"
    );

    // Overload a tight server at 2× that rate.
    let mut srv = start(
        Arc::clone(&xk),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 1,
            admission_wait: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let open = loadgen::open_loop(
        srv.addr(),
        &mix,
        spec,
        closed.goodput_qps * 2.0,
        200,
        6,
        4,
        0xF00D,
    );
    let s = srv.stats();
    srv.shutdown();

    // Loss accounting: ok + shed + errors == sent, ids all echoed.
    assert!(
        open.fully_accounted(),
        "unaccounted requests: {:?}",
        open.tally
    );
    assert_eq!(open.tally.errors, 0, "sheds must be typed, not errors");
    assert!(
        open.tally.shed > 0,
        "2x overload against max_inflight=1 must shed: {:?}",
        open.tally
    );
    assert!(open.tally.ok > 0, "shedding must not starve accepted work");
    // Server counters reconcile with the harness, request for request.
    assert_eq!(s.requests, open.tally.sent, "xkw_server_requests_total");
    assert_eq!(s.responses, open.tally.ok, "xkw_server_responses_total");
    assert_eq!(s.shed, open.tally.shed, "xkw_server_shed_total");
    assert_eq!(s.request_errors, 0);
    // Accepted requests met the deadline-degradation contract: none
    // were degraded (5s deadline, ~ms queries) and the in-flight gauge
    // respected its bound and drained.
    assert_eq!(s.degraded, 0, "accepted requests must meet their deadline");
    assert_eq!(s.inflight, 0, "in-flight gauge must drain to zero");
    assert!(
        s.inflight_peak as usize <= 1,
        "in-flight peak {} exceeded max_inflight=1",
        s.inflight_peak
    );
}

/// Sanity for the core conversion: the wire degradation report mirrors
/// `xkw_core::exec::Degradation` field for field.
#[test]
fn wire_degradation_mirrors_core_semantics() {
    let core = Degradation::default();
    assert!(!core.is_degraded());
    let wire = WireDegradation::default();
    assert!(!wire.is_degraded());
    // Retries alone degrade neither (they cost time, not answers).
    let wire = WireDegradation {
        retries: 5,
        ..WireDegradation::default()
    };
    assert!(!wire.is_degraded());
    for degraded in [
        WireDegradation {
            deadline_exceeded: true,
            ..WireDegradation::default()
        },
        WireDegradation {
            plans_skipped: 1,
            ..WireDegradation::default()
        },
        WireDegradation {
            plans_incomplete: 1,
            ..WireDegradation::default()
        },
        WireDegradation {
            faults: 1,
            ..WireDegradation::default()
        },
    ] {
        assert!(degraded.is_degraded());
    }
}

/// `ClientError` display sanity used by the CLI client mode.
#[test]
fn client_error_kinds_render() {
    let e = ClientError::Closed;
    assert_eq!(e.to_string(), "server closed the connection");
    assert!(matches!(
        ClientError::from(proto::ReadFrameError::Wire(proto::WireError::BadVersion(9))),
        ClientError::Wire(_)
    ));
    let _ = FrameKind::Query; // re-export sanity
}
