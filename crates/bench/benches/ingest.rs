//! Incremental-ingest gate on DBLP generator data — the CI contract
//! behind the durable write path.
//!
//! The claim, asserted hard: inserting a fig15a-scale delta document
//! through [`XKeyword::insert_document`] (postings delta-merge, relation
//! extension, view swap) must be at least [`MIN_SPEEDUP`]× faster than
//! rebuilding the whole instance from scratch with the delta absorbed —
//! the alternative a system without incremental maintenance is stuck
//! with. A non-vacuousness floor on the base-instance posting count
//! keeps the gate honest.
//!
//! A second gate covers reads after writes: the first fig15a top-10
//! query after each view swap must hit the plan cache (skeletons are
//! schema-level and survive inserts and deletes), and the median of
//! those post-swap queries must stay within [`MAX_POST_SWAP_RATIO`]× of
//! the warm median.
//!
//! Alongside the gates, the bench reports WAL append overhead per fsync
//! policy (report-only: `always` is device-bound) and checks that an
//! insert/delete round trip leaves query results byte-identical — the
//! numbers recorded in `BENCH_ingest.json`. One `{"workload":..}` JSON
//! line per section for easy harvesting.
//!
//! Usage: `cargo bench -p xkw-bench --bench ingest [-- --quick]`

#![allow(clippy::disallowed_macros)] // printing is this target's interface
use std::time::Instant;
use xkw_bench::workload::{self as w, Config};
use xkw_core::prelude::*;
use xkw_datagen::dblp;
use xkw_store::FsyncPolicy;

/// Incremental insert must beat a full rebuild by at least this factor.
const MIN_SPEEDUP: f64 = 5.0;

/// The first query after a view swap may take at most this multiple of
/// a warm query, in the median.
const MAX_POST_SWAP_RATIO: f64 = 2.0;

/// Non-vacuousness floor: the base instance must index at least this
/// many postings, or the rebuild being beaten is trivial.
const MIN_POSTINGS: usize = 10_000;

/// A delta document conforming to the Fig. 14 DBLP schema: one new
/// conference issue with two papers and a fresh author.
const DELTA: &str = r#"
<conference><cname>DELTACONF</cname><year><yval>2004</yval>
  <paper idrefs="delta-author"><title>incremental maintenance of keyword indexes</title>
    <pages>1-12</pages><url>db/conf/delta/p1.html</url></paper>
  <paper idrefs="delta-author"><title>write ahead logging for proximity search</title>
    <pages>13-24</pages><url>db/conf/delta/p2.html</url></paper>
</year></conference>
<author id="delta-author"><aname>Ada Deltauthor</aname></author>
"#;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 12 } else { 40 };
    let rebuild_iters = if quick { 3 } else { 7 };

    // --- Base instance at the fig15a bench scale ------------------------
    let data = w::bench_dblp_config().generate();
    let base_graph = data.graph.clone();
    let xk = XKeyword::load(data.graph, data.tss, Config::XKeyword.load_options())
        .expect("DBLP data conforms");
    let postings = xk.master().posting_count();
    assert!(
        postings >= MIN_POSTINGS,
        "base instance holds only {postings} postings (< {MIN_POSTINGS}) — \
         beating its rebuild would be vacuous"
    );

    // --- Incremental path: insert the delta, then delete to restore -----
    let before = xk
        .canonical_results(&["incremental", "maintenance"], w::Z)
        .expect("query runs");
    let mut insert_ns = Vec::with_capacity(iters);
    let mut delete_ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let doc = xk.insert_document(DELTA).expect("delta conforms");
        insert_ns.push(t.elapsed().as_nanos() as u64);
        let with_delta = xk
            .canonical_results(&["incremental", "maintenance"], w::Z)
            .expect("query runs");
        assert_ne!(with_delta, before, "delta keywords must be reachable");
        let t = Instant::now();
        xk.delete_document(doc).expect("doc is live");
        delete_ns.push(t.elapsed().as_nanos() as u64);
    }
    let after = xk
        .canonical_results(&["incremental", "maintenance"], w::Z)
        .expect("query runs");
    assert_eq!(
        after, before,
        "insert/delete round trip must restore results byte-identically"
    );
    insert_ns.sort_unstable();
    delete_ns.sort_unstable();
    let insert_med = insert_ns[insert_ns.len() / 2];
    let delete_med = delete_ns[delete_ns.len() / 2];

    // --- Rebuild path: full load with the delta absorbed ----------------
    // Clone outside the timed region — a rebuild starts from data the
    // system already has; only parse/classify/index/relation work counts.
    let frag = xkw_graph::parse(DELTA).expect("delta parses");
    let mut with_delta = base_graph;
    with_delta.absorb(&frag);
    let mut rebuild_ns = Vec::with_capacity(rebuild_iters);
    for _ in 0..rebuild_iters {
        let g = with_delta.clone();
        let t = Instant::now();
        let rebuilt = XKeyword::load(g, dblp::tss_graph(), Config::XKeyword.load_options())
            .expect("DBLP data conforms");
        rebuild_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(rebuilt.targets().len());
    }
    rebuild_ns.sort_unstable();
    let rebuild_med = rebuild_ns[rebuild_ns.len() / 2];
    let speedup = rebuild_med as f64 / insert_med as f64;
    println!(
        "{{\"workload\":\"ingest_vs_rebuild\",\"postings\":{postings},\
         \"insert_ns\":{insert_med},\"delete_ns\":{delete_med},\
         \"rebuild_ns\":{rebuild_med},\"speedup\":{speedup:.1}}}"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "incremental insert only {speedup:.1}x faster than a full rebuild \
         ({insert_med} vs {rebuild_med} ns); the gate requires >= {MIN_SPEEDUP}x"
    );

    // --- Reads after writes: the first query after each swap ----------
    let (a, b) = w::pick_author_queries(&xk, 1, 7).remove(0);
    let kws = [a.as_str(), b.as_str()];
    let timed_top10 = || {
        let t = Instant::now();
        let out = xk
            .engine()
            .query_topk(&kws, w::Z, 10, w::cached(), 1)
            .expect("query runs");
        (t.elapsed().as_nanos() as u64, out.metrics.plan_cache_hit)
    };
    let (cold_ns, _) = timed_top10();
    let mut warm_ns: Vec<u64> = (0..iters).map(|_| timed_top10().0).collect();
    let mut post_swap_ns = Vec::with_capacity(2 * iters);
    for _ in 0..iters {
        let doc = xk.insert_document(DELTA).expect("delta conforms");
        post_swap_ns.push(timed_top10());
        xk.delete_document(doc).expect("doc is live");
        post_swap_ns.push(timed_top10());
    }
    let hits = post_swap_ns.iter().filter(|&&(_, hit)| hit).count();
    let mut post_swap_ns: Vec<u64> = post_swap_ns.into_iter().map(|(ns, _)| ns).collect();
    warm_ns.sort_unstable();
    post_swap_ns.sort_unstable();
    let warm_med = warm_ns[warm_ns.len() / 2];
    let post_swap_med = post_swap_ns[post_swap_ns.len() / 2];
    let ratio = post_swap_med as f64 / warm_med as f64;
    println!(
        "{{\"workload\":\"read_after_write\",\"swaps\":{},\"plan_cache_hits\":{hits},\
         \"cold_ns\":{cold_ns},\"warm_ns\":{warm_med},\"post_swap_ns\":{post_swap_med},\
         \"ratio\":{ratio:.2}}}",
        post_swap_ns.len()
    );
    assert_eq!(
        hits,
        post_swap_ns.len(),
        "every query after a view swap must hit the plan cache"
    );
    assert!(
        ratio <= MAX_POST_SWAP_RATIO,
        "post-swap median {post_swap_med} ns is {ratio:.2}x the warm median \
         {warm_med} ns; the gate allows {MAX_POST_SWAP_RATIO}x"
    );

    // --- WAL append overhead per fsync policy (report-only) -------------
    let wal_root = std::env::temp_dir().join(format!("xkw-bench-ingest-{}", std::process::id()));
    for policy in [FsyncPolicy::Off, FsyncPolicy::Batch, FsyncPolicy::Always] {
        let dir = wal_root.join(format!("{policy:?}").to_lowercase());
        std::fs::create_dir_all(&dir).expect("temp dir");
        let d = w::bench_dblp_config().generate();
        let mut opts = Config::XKeyword.load_options();
        opts.wal_dir = Some(dir.clone());
        opts.fsync = policy;
        let xk = XKeyword::load(d.graph, d.tss, opts).expect("DBLP data conforms");
        let mut ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            let doc = xk.insert_document(DELTA).expect("delta conforms");
            ns.push(t.elapsed().as_nanos() as u64);
            xk.delete_document(doc).expect("doc is live");
        }
        ns.sort_unstable();
        let med = ns[ns.len() / 2];
        let overhead_pct = 100.0 * (med as f64 - insert_med as f64) / insert_med as f64;
        let stats = xk.wal_stats().expect("WAL configured");
        println!(
            "{{\"workload\":\"wal_fsync_policy\",\"policy\":\"{policy:?}\",\
             \"insert_ns\":{med},\"overhead_pct\":{overhead_pct:.1},\
             \"appends\":{},\"fsyncs\":{}}}",
            stats.appends, stats.fsyncs
        );
    }
    let _ = std::fs::remove_dir_all(&wal_root);
    println!(
        "ok: incremental insert {speedup:.1}x faster than full rebuild \
         (gate {MIN_SPEEDUP}x) over {postings} postings; post-swap reads \
         {ratio:.2}x warm (gate {MAX_POST_SWAP_RATIO}x)"
    );
}
