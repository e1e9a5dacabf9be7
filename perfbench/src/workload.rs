//! The three workloads, their measured phase, the traced replay, and
//! the output checks.
//!
//! A run: set up three times (load, warm-up that doubles as the oracle,
//! server start; read-only workloads then probe writes on each discarded
//! instance and restart it from its WAL) → measured phase on the kept
//! instance → its write probe → durability checks → restart from the
//! WAL. With `--trace 1` there is one set-up, and the measured phase is
//! halved and followed by an in-process replay of the same request
//! sequence with a span around each layer call.

use crate::inputs::{self, DeltaDoc, QueryStream, WriteOp};
use crate::layers::{self, Instance, Page, Request, Row};
use crate::stats::{self, Ratio, Samples};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When the workload's writer runs.
#[derive(Debug, Clone, Copy)]
pub enum Writer {
    /// Paced writes at `rate` per second alongside the readers, for the
    /// whole measured window.
    Concurrent { rate: f64 },
    /// A closed-loop probe of `ops` writes on the idle server of every
    /// set-up instance: on each discarded one right after its set-up, on
    /// the kept one after the readers stop, so the write samples spread
    /// over the run. Each write is sent when the previous one is
    /// acknowledged.
    After { ops: usize },
}

/// A workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub pool_pages: usize,
    /// Top-k bound; 0 = all results.
    pub k: u32,
    pub z: u16,
    /// Rows per page; 0 = the server's maximum (one page).
    pub page_size: u32,
    /// Whether the pool is sized to hold all the data (else it is
    /// smaller than the data); checked at setup.
    pub pool_holds_data: bool,
    /// Closed-loop reader connections.
    pub readers: usize,
    pub writer: Writer,
    /// Reported tail percentiles (the rule of `stats::tail_percentile`
    /// at the nominal run length; checked against the actual count).
    pub query_tail: f64,
    pub insert_tail: f64,
    pub delete_tail: f64,
}

/// Mutations between checkpoints.
const CHECKPOINT_EVERY: usize = 30;

/// The idle-server write probe of the read-only workloads.
const PROBE: Writer = Writer::After { ops: 42 };

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "topk_hot",
        pool_pages: 2048,
        k: 10,
        z: 8,
        page_size: 0,
        pool_holds_data: true,
        readers: 2,
        writer: PROBE,
        query_tail: 99.0,
        insert_tail: 75.0,
        delete_tail: 75.0,
    },
    Workload {
        name: "all_results_paged",
        pool_pages: 128,
        k: 0,
        z: 7,
        page_size: 256,
        pool_holds_data: false,
        readers: 2,
        writer: PROBE,
        query_tail: 95.0,
        insert_tail: 75.0,
        delete_tail: 75.0,
    },
    Workload {
        name: "ingest_mixed",
        pool_pages: 2048,
        k: 10,
        z: 8,
        page_size: 0,
        pool_holds_data: true,
        readers: 1,
        writer: Writer::Concurrent { rate: 10.0 },
        query_tail: 99.0,
        insert_tail: 90.0,
        delete_tail: 75.0,
    },
];

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed: sample count, percentile, base.
    pub basis: String,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub info: Vec<String>,
    pub passed: Vec<String>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis: basis.into(),
        });
    }

    fn ratio(&mut self, name: &'static str, unit: &'static str, r: Ratio) {
        self.metric(name, r.value(), unit, r.describe());
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed.push(what.into());
        } else {
            self.failures.push(what.into());
        }
    }

    fn tail(&mut self, name: &'static str, s: &Samples, p: f64) {
        let n = s.count();
        let basis = format!("p{p} of n={n}, {} failed", s.failed());
        if stats::tail_percentile(n).is_none_or(|best| best < p) {
            self.info.push(format!(
                "warning: {name}: n={n} leaves fewer than {} samples beyond p{p}",
                stats::MIN_BEYOND
            ));
        }
        self.metric(name, s.percentile(p).unwrap_or(0.0), "ms", basis);
    }
}

// ------------------------------------------------------------- setup

/// Everything the measured phase needs.
struct Setup {
    xk: Instance,
    server: layers::Server,
    conns: Vec<layers::Conn>,
    pool: Vec<[String; 2]>,
    /// In-process answer of every pool query, computed at setup.
    oracle: Vec<Vec<Row>>,
}

fn keywords(pair: &[String; 2]) -> [&str; 2] {
    [pair[0].as_str(), pair[1].as_str()]
}

fn oracle_rows(w: &Workload, xk: &Instance, kws: [&str; 2]) -> Result<Vec<Row>, String> {
    if w.k > 0 {
        layers::oracle_topk(xk, &kws, usize::from(w.z), w.k as usize)
    } else {
        layers::oracle_all(xk, &kws, usize::from(w.z))
    }
}

/// Load, warm up, start the server, connect. The warm-up runs every pool
/// query once in process and keeps the answers as the oracle. Returns
/// the setup and its time, from the start of `XKeyword::load` to the
/// moment the first timed request may go.
fn set_up(w: &Workload, opts: &Opts, wal_dir: &Path) -> Result<(Setup, Duration), String> {
    let data = layers::generate_data();
    std::fs::create_dir_all(wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let pool = inputs::query_pool(opts.seed, &layers::surname_papers(&data));
    let t0 = Instant::now();
    let xk = layers::load(data, w.pool_pages, wal_dir)?;
    let oracle = pool
        .iter()
        .map(|q| oracle_rows(w, &xk, keywords(q)))
        .collect::<Result<Vec<_>, _>>()?;
    let server = layers::start_server(&xk)?;
    let mut conns = Vec::with_capacity(w.readers);
    for _ in 0..w.readers {
        let mut c = layers::connect(server.addr())?;
        c.ping()?;
        conns.push(c);
    }
    let took = t0.elapsed();
    Ok((
        Setup {
            xk,
            server,
            conns,
            pool,
            oracle,
        },
        took,
    ))
}

// ---------------------------------------------------------- readers

/// One completed (or failed) client query.
struct QueryLog {
    /// Completion time since the phase started.
    done_ns: u64,
    query: usize,
    /// Client-observed latency over every page; `None` = failed/refused.
    latency_ns: Option<u64>,
    pages: u64,
    rows: usize,
    /// Sum of the responses' `metrics.total_ns`.
    engine_ns: u64,
    /// Sum over pages of round trip minus `total_ns`.
    overhead_ns: u64,
    frame_bytes: u64,
}

#[derive(Default)]
struct ReaderOut {
    logs: Vec<QueryLog>,
    errors: Vec<String>,
}

/// A closed loop on one connection until `stop_at`: each query walks
/// every page of its answer before the next is sent.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    w: &Workload,
    setup_pool: &[[String; 2]],
    oracle: &[Vec<Row>],
    mut conn: layers::Conn,
    addr: std::net::SocketAddr,
    mut stream: QueryStream,
    id_base: u64,
    phase_start: Instant,
    stop_at: Instant,
    measure_frames: bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut seq = 0u64;
    while Instant::now() < stop_at {
        let qi = stream.next_query();
        let kws = keywords(&setup_pool[qi]);
        let mut rows: Vec<Row> = Vec::new();
        let (mut pages, mut engine_ns, mut overhead_ns, mut frame_bytes) = (0, 0, 0, 0);
        let mut offset = 0;
        let t0 = Instant::now();
        let result = loop {
            seq += 1;
            let req = Request {
                id: id_base | seq,
                keywords: kws,
                z: w.z,
                k: w.k,
                offset,
                page_size: w.page_size,
            };
            let tp = Instant::now();
            match conn.query(&req, measure_frames) {
                Page::Rows {
                    rows: page,
                    next_offset,
                    engine_ns: e,
                    frame_bytes: b,
                } => {
                    let rtt = tp.elapsed().as_nanos() as u64;
                    pages += 1;
                    engine_ns += e;
                    overhead_ns += rtt.saturating_sub(e);
                    frame_bytes += b as u64;
                    rows.extend(page);
                    match next_offset {
                        Some(o) => offset = o,
                        None => break Ok(()),
                    }
                }
                Page::Refused(m) => break Err(format!("refused: {m}")),
                Page::Failed(m) => break Err(format!("failed: {m}")),
            }
        };
        let latency = t0.elapsed().as_nanos() as u64;
        let ok = result.is_ok();
        if let Err(m) = result {
            push_error(&mut out.errors, format!("{kws:?}: {m}"));
            if m.starts_with("failed") {
                // The transport broke: a fresh connection, or stop.
                match layers::connect(addr) {
                    Ok(c) => conn = c,
                    Err(e) => {
                        push_error(&mut out.errors, format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        } else if rows != oracle[qi] {
            push_error(
                &mut out.errors,
                format!(
                    "{kws:?}: served {} rows differ from the in-process oracle's {}",
                    rows.len(),
                    oracle[qi].len()
                ),
            );
        }
        out.logs.push(QueryLog {
            done_ns: phase_start.elapsed().as_nanos() as u64,
            query: qi,
            latency_ns: ok.then_some(latency),
            pages,
            rows: rows.len(),
            engine_ns,
            overhead_ns,
            frame_bytes,
        });
    }
    out
}

fn push_error(errors: &mut Vec<String>, e: String) {
    // Keep the first few; the count is reported separately.
    if errors.len() < 8 {
        errors.push(e);
    }
}

// ----------------------------------------------------------- writer

/// The writer's view of which acknowledged documents are live.
#[derive(Default)]
struct Book {
    /// `(document id, delta slot)` of live documents, in insert order.
    live: Vec<(u64, usize)>,
    /// Slots whose document was deleted.
    deleted: Vec<usize>,
}

impl Book {
    /// Applies one mutation and records what the program acknowledged.
    fn apply(&mut self, xk: &Instance, op: WriteOp, docs: &[DeltaDoc]) -> Result<(), String> {
        match op {
            WriteOp::Insert { slot } => {
                let doc = layers::insert(xk, &docs[slot].xml)?;
                self.live.push((doc, slot));
            }
            WriteOp::Delete { pick } => {
                let i = (pick % self.live.len() as u64) as usize;
                let (doc, slot) = self.live[i];
                layers::delete(xk, doc)?;
                self.live.remove(i);
                self.deleted.push(slot);
            }
        }
        Ok(())
    }

    fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.live.iter().map(|&(d, _)| d).collect();
        ids.sort_unstable();
        ids
    }
}

#[derive(Default)]
struct WriterOut {
    inserts: Samples,
    deletes: Samples,
    /// Time from an operation's start to its acknowledgement, ms.
    insert_service_ms: Vec<f64>,
    delete_service_ms: Vec<f64>,
    /// How late each operation started against its due time, ms.
    late_ms: Vec<f64>,
    ops: u64,
    wal_bytes: u64,
    fsyncs: u64,
    checkpoint_ms: Vec<f64>,
    rss_growth_kb: f64,
    errors: Vec<String>,
}

impl WriterOut {
    fn absorb(&mut self, o: WriterOut) {
        self.inserts.extend(&o.inserts);
        self.deletes.extend(&o.deletes);
        self.insert_service_ms.extend(o.insert_service_ms);
        self.delete_service_ms.extend(o.delete_service_ms);
        self.late_ms.extend(o.late_ms);
        self.ops += o.ops;
        self.wal_bytes += o.wal_bytes;
        self.fsyncs += o.fsyncs;
        self.checkpoint_ms.extend(o.checkpoint_ms);
        self.rss_growth_kb += o.rss_growth_kb;
        self.errors.extend(o.errors);
    }
}

/// Runs `plan`: on a fixed-rate schedule from `start` when `rate` is
/// given, else closed-loop (each write due when the previous one was
/// acknowledged). Each latency is timed from the moment its operation
/// was due, so a stall (a slow delete, a checkpoint) also counts
/// against every operation queued behind it.
fn write_loop(
    xk: &Instance,
    plan: &[WriteOp],
    docs: &[DeltaDoc],
    rate: Option<f64>,
    book: &mut Book,
    start: Instant,
) -> WriterOut {
    let mut out = WriterOut::default();
    let rss0 = rss_kb();
    let fsyncs0 = layers::wal(xk).fsyncs;
    for (i, &op) in plan.iter().enumerate() {
        let due = match rate {
            Some(r) => start + Duration::from_secs_f64(i as f64 / r),
            None => Instant::now(),
        };
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        let bytes0 = layers::wal(xk).bytes;
        let begin = Instant::now();
        let result = book.apply(xk, op, docs);
        let service = ms(begin.elapsed());
        let latency = result.is_ok().then(|| ms(due.elapsed()));
        out.wal_bytes += layers::wal(xk).bytes.saturating_sub(bytes0);
        out.ops += 1;
        match op {
            WriteOp::Insert { .. } => {
                out.inserts.push(latency);
                out.insert_service_ms.push(service);
            }
            WriteOp::Delete { .. } => {
                out.deletes.push(latency);
                out.delete_service_ms.push(service);
            }
        }
        if let Err(e) = result {
            push_error(&mut out.errors, format!("write {i} {op:?}: {e}"));
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let t = Instant::now();
            if let Err(e) = layers::checkpoint(xk) {
                push_error(&mut out.errors, format!("checkpoint after write {i}: {e}"));
            }
            out.checkpoint_ms.push(ms(t.elapsed()));
        }
    }
    out.fsyncs = layers::wal(xk).fsyncs - fsyncs0;
    out.rss_growth_kb = rss_kb() - rss0;
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

/// Peak resident set of this process (`VmHWM`), KiB.
fn peak_rss_kb() -> f64 {
    proc_status_kb("VmHWM:")
}

// ----------------------------------------------------- traced replay

/// One request of the replayed sequence.
#[derive(Debug, Clone, Copy)]
enum Event {
    Query(usize),
    Write(usize),
}

#[derive(Default)]
struct ReplayOut {
    queries: u64,
    /// Self time per layer, ns, summed over queries.
    discover: u64,
    plan: u64,
    exec: u64,
    present: u64,
    encode: u64,
    decode: u64,
    wall: u64,
    residual: u64,
    untraced: u64,
    instantiated: u64,
    claimed: u64,
    pruned: u64,
    early_stopped: u64,
    probes: u64,
    probe_rows: u64,
    result_rows: u64,
    partial_hits: u64,
    partial_misses: u64,
    cold_plan_ns: Vec<u64>,
    errors: Vec<String>,
}

/// Replays `events` in process until `stop_at`. Each query runs twice,
/// in alternating order: once through the layer calls with a span
/// around each, and once through the engine's single entry point
/// untimed by layer — the untraced baseline the overhead is taken
/// against.
#[allow(clippy::too_many_arguments)]
fn replay(
    w: &Workload,
    xk: &Instance,
    pool: &[[String; 2]],
    oracle: &[Vec<Row>],
    events: &[Event],
    plan: &[WriteOp],
    docs: &[DeltaDoc],
    book: &mut Book,
    tracer: &mut Tracer,
    stop_at: Instant,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let z = usize::from(w.z);
    let k = w.k as usize;
    for (req, &ev) in events.iter().enumerate() {
        if Instant::now() >= stop_at {
            break;
        }
        let req = req as u64;
        let qi = match ev {
            Event::Write(i) => {
                let root = tracer.begin("ingest", req, None);
                if let Err(e) = book.apply(xk, plan[i], docs) {
                    push_error(&mut out.errors, format!("replayed write {i}: {e}"));
                }
                tracer.end(root);
                continue;
            }
            Event::Query(qi) => qi,
        };
        let kws = keywords(&pool[qi]);
        let untraced_first = req % 2 == 1;
        if untraced_first {
            out.untraced += untraced(w, xk, kws, oracle, qi, &mut out.errors);
        }
        let root = tracer.begin("query", req, None);
        let view = layers::view(xk);
        tracer.time("discover", req, root, || layers::discover(&view, &kws));
        let plan_span = tracer.begin("plan", req, Some(root));
        let prepared = layers::prepare(xk, &view, &kws, z);
        tracer.end(plan_span);
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                tracer.end(root);
                push_error(&mut out.errors, format!("{kws:?}: prepare: {e}"));
                continue;
            }
        };
        let results = tracer.time("exec", req, root, || {
            if k > 0 {
                layers::exec_topk(xk, &view, &prepared, k)
            } else {
                layers::exec_all(xk, &view, &prepared)
            }
        });
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                tracer.end(root);
                push_error(&mut out.errors, format!("{kws:?}: exec: {e}"));
                continue;
            }
        };
        tracer.time("present", req, root, || layers::present(&results));
        let info = layers::exec_info(&results);
        let frames = tracer.time("encode", req, root, || {
            layers::encode_pages(req, &info.rows, w.page_size as usize)
        });
        let decoded = tracer.time("decode", req, root, || layers::decode_pages(&frames));
        tracer.end(root);

        if info.rows != oracle[qi] {
            push_error(
                &mut out.errors,
                format!("{kws:?}: replayed rows differ from the oracle"),
            );
        }
        if decoded != Ok(info.rows.len()) {
            push_error(&mut out.errors, format!("{kws:?}: decode: {decoded:?}"));
        }
        if !untraced_first {
            out.untraced += untraced(w, xk, kws, oracle, qi, &mut out.errors);
        }
        let p = layers::plan_info(&prepared);
        out.queries += 1;
        out.instantiated += p.instantiated as u64;
        if !p.cache_hit {
            out.cold_plan_ns.push(tracer.spans()[plan_span].dur_ns());
        }
        out.claimed += info.plans_claimed as u64;
        out.pruned += info.plans_pruned as u64;
        out.early_stopped += info.plans_early_stopped as u64;
        out.probes += info.probes;
        out.probe_rows += info.probe_rows;
        out.result_rows += info.rows.len() as u64;
        out.partial_hits += info.partial_hits;
        out.partial_misses += info.partial_misses;
    }
    // Per-layer self times from the recorded spans.
    let self_ns = tracer.self_ns();
    for (i, s) in tracer.spans().iter().enumerate() {
        let slot = match s.name {
            "discover" => &mut out.discover,
            "plan" => &mut out.plan,
            "exec" => &mut out.exec,
            "present" => &mut out.present,
            "encode" => &mut out.encode,
            "decode" => &mut out.decode,
            "query" => {
                out.wall += s.dur_ns();
                &mut out.residual
            }
            _ => continue,
        };
        *slot += self_ns[i];
    }
    out
}

/// The untraced baseline of one replayed query: the engine's entry
/// point plus the same encode and decode. Returns its wall time, ns.
fn untraced(
    w: &Workload,
    xk: &Instance,
    kws: [&str; 2],
    oracle: &[Vec<Row>],
    qi: usize,
    errors: &mut Vec<String>,
) -> u64 {
    let t = Instant::now();
    let rows = layers::engine_query(xk, &kws, usize::from(w.z), w.k as usize);
    let decoded = rows.as_ref().map(|r| {
        let frames = layers::encode_pages(0, r, w.page_size as usize);
        layers::decode_pages(&frames)
    });
    let took = t.elapsed().as_nanos() as u64;
    match rows {
        Ok(r) if r == oracle[qi] && decoded == Ok(Ok(r.len())) => {}
        other => push_error(
            errors,
            format!(
                "{kws:?}: untraced replay disagrees with the oracle: {:?}",
                other.map(|r| r.len())
            ),
        ),
    }
    took
}

// ---------------------------------------------------------------- run

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where trace files are written (inside the working directory).
const WORK_ROOT: &str = ".bench_work";

/// Runs workload `w`; never panics on a program failure — every failure
/// lands in the report.
pub fn run(w: &Workload, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let work = WorkDir(PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}-{}",
        w.name,
        opts.seed,
        std::process::id()
    )));
    let setups = if opts.trace { 1 } else { 3 };
    let reopens = if opts.trace { 1 } else { 3 };
    let read_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };

    let write_plan = match w.writer {
        Writer::Concurrent { rate } => inputs::write_plan(opts.seed, (rate * read_secs) as usize),
        Writer::After { ops } => inputs::write_plan(opts.seed, ops),
    };
    let docs: Vec<DeltaDoc> = (0..write_plan.len())
        .map(|slot| inputs::delta_doc(opts.seed, slot))
        .collect();

    // ---- Set up (median of several; the last one is kept).
    let mut setup_s = Vec::new();
    let mut kept = None;
    let mut early_writes = WriterOut::default();
    // With a write probe, each discarded instance is also restarted from
    // its WAL, so the reopen samples spread over the run as well.
    let mut recovery_s = Vec::new();
    for i in 0..setups {
        let dir = work.0.join(format!("wal{i}"));
        let (s, took) = set_up(w, opts, &dir)?;
        setup_s.push(took.as_secs_f64());
        if i + 1 == setups {
            kept = Some((s, dir));
            continue;
        }
        let mut restart = None;
        if let Writer::After { .. } = w.writer {
            let mut scratch = Book::default();
            let out = write_loop(
                &s.xk,
                &write_plan,
                &docs,
                None,
                &mut scratch,
                Instant::now(),
            );
            early_writes.absorb(out);
            restart = Some(durable(&s.xk, &scratch, &docs, &mut report));
        }
        tear_down(s);
        if let Some(d) = restart {
            recovery_s.push(reopen(w, &dir, &d, &mut report)?);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    let (setup, wal_dir) = kept.expect("at least one setup");
    let Setup {
        xk,
        server,
        conns,
        pool,
        oracle,
    } = setup;
    let sizes0 = layers::sizes(&xk);
    report.info.push(format!(
        "data: {} disk pages, pool {} pages, postings {} bytes",
        sizes0.disk_pages, sizes0.pool_pages, sizes0.postings_bytes
    ));
    let holds = sizes0.pool_pages >= sizes0.disk_pages;
    report.check(
        holds == w.pool_holds_data,
        format!(
            "pool of {} pages {} the data's {} pages",
            sizes0.pool_pages,
            if holds { "holds" } else { "is smaller than" },
            sizes0.disk_pages
        ),
    );

    // ---- Measured phase: closed-loop readers over TCP, plus the paced
    // writer when it runs concurrently.
    let mut book = Book::default();
    let before = layers::counters(&xk);
    let addr = server.addr();
    let phase_start = Instant::now();
    let stop_at = phase_start + Duration::from_secs_f64(read_secs);
    let (readers, concurrent_writes) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (pool, oracle) = (&pool, &oracle);
                let stream = QueryStream::new(opts.seed, c);
                s.spawn(move || {
                    read_loop(
                        w,
                        pool,
                        oracle,
                        conn,
                        addr,
                        stream,
                        (c as u64 + 1) << 40,
                        phase_start,
                        stop_at,
                        opts.trace,
                    )
                })
            })
            .collect();
        let writes = match w.writer {
            Writer::Concurrent { rate } => Some(write_loop(
                &xk,
                &write_plan,
                &docs,
                Some(rate),
                &mut book,
                phase_start,
            )),
            Writer::After { .. } => None,
        };
        let readers: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (readers, writes)
    });
    // Readers stop at `stop_at` and finish the query in hand; a late
    // concurrent writer does not stretch the read window.
    let read_wall = readers
        .iter()
        .flat_map(|r| r.logs.last())
        .map(|l| l.done_ns as f64 / 1e9)
        .fold(read_secs, f64::max);
    let after = layers::counters(&xk);
    let mut logs: Vec<QueryLog> = Vec::new();
    for r in readers {
        for e in r.errors {
            report.failures.push(e);
        }
        logs.extend(r.logs);
    }
    logs.sort_by_key(|l| l.done_ns);
    let mut queries = Samples::default();
    for l in &logs {
        queries.push(l.latency_ns.map(|ns| ns as f64 / 1e6));
    }
    report.info.push(format!(
        "query latency ms over n={}: {}",
        queries.count(),
        stats::LADDER
            .iter()
            .map(|&p| format!("p{p} {:.3}", queries.percentile(p).unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let ok_queries = (queries.count() - queries.failed()) as f64;
    report.attempted += queries.count() as u64;
    report.failed += queries.failed() as u64;
    report.check(
        !logs.is_empty(),
        format!("readers completed {} queries", logs.len()),
    );
    let swaps = after.epoch - before.epoch;
    if matches!(w.writer, Writer::Concurrent { .. }) {
        report.check(swaps > 0, format!("the run installed {swaps} view swaps"));
    }
    if w.page_size > 0 {
        let mut pages: Vec<f64> = logs.iter().map(|l| l.pages as f64).collect();
        pages.retain(|&p| p > 0.0);
        let med = stats::median(&pages);
        let rows: Vec<f64> = logs.iter().map(|l| l.rows as f64).collect();
        report
            .info
            .push(format!("median answer: {} rows", stats::median(&rows)));
        report.check(
            med > 1.0,
            format!(
                "the median answer spans {med} pages of {} rows",
                w.page_size
            ),
        );
    }

    // ---- Traced replay of the same sequence.
    let mut tracer = Tracer::new();
    let mut replayed = None;
    if opts.trace {
        let mut events: Vec<(u64, Event)> = logs
            .iter()
            .map(|l| (l.done_ns, Event::Query(l.query)))
            .collect();
        if let Writer::Concurrent { rate } = w.writer {
            let n = concurrent_writes.as_ref().map_or(0, |o| o.ops as usize);
            events.extend((0..n).map(|i| ((i as f64 / rate * 1e9) as u64, Event::Write(i))));
        }
        events.sort_by_key(|&(t, _)| t);
        let events: Vec<Event> = events.into_iter().map(|(_, e)| e).collect();
        // Writes replayed here insert fresh copies of the scheduled
        // documents.
        let stop = Instant::now() + Duration::from_secs_f64(opts.seconds - read_secs);
        let r = replay(
            w,
            &xk,
            &pool,
            &oracle,
            &events,
            &write_plan,
            &docs,
            &mut book,
            &mut tracer,
            stop,
        );
        report.failures.extend(r.errors.iter().cloned());
        report.check(r.queries > 0, format!("replayed {} queries", r.queries));
        replayed = Some(r);
    }

    // ---- Writes: concurrent ones already ran; otherwise the probe.
    let mut writes = match (concurrent_writes, w.writer) {
        (Some(o), _) => o,
        (None, Writer::After { .. }) => {
            write_loop(&xk, &write_plan, &docs, None, &mut book, Instant::now())
        }
        (None, Writer::Concurrent { .. }) => unreachable!("concurrent writes ran with the readers"),
    };
    writes.absorb(early_writes);
    report.failures.extend(writes.errors.iter().cloned());
    let write_count = writes.inserts.count() + writes.deletes.count();
    let write_failed = writes.inserts.failed() + writes.deletes.failed();
    report.attempted += write_count as u64;
    report.failed += write_failed as u64;
    report.check(
        write_failed == 0,
        format!("{write_count} writes acknowledged, {write_failed} failed"),
    );
    let sizes = layers::sizes(&xk);

    // ---- Durability: what the program acknowledged must survive a
    // restart from the WAL alone.
    let kept_state = durable(&xk, &book, &docs, &mut report);
    let load_stages = if opts.trace {
        Some(layers::time_load_stages(
            &layers::generate_data(),
            w.pool_pages,
        )?)
    } else {
        None
    };
    server.stop();
    drop(xk);
    while recovery_s.len() < reopens {
        recovery_s.push(reopen(w, &wal_dir, &kept_state, &mut report)?);
    }
    dedup(&mut report.passed);

    // ---- Report.
    if opts.trace {
        per_layer(
            &mut report,
            &logs,
            &before,
            &after,
            replayed.as_ref().expect("trace runs replay"),
            &writes,
            &sizes,
            load_stages.expect("trace runs time the load stage"),
        );
        std::fs::create_dir_all(WORK_ROOT).map_err(|e| e.to_string())?;
        let path = Path::new(WORK_ROOT).join(format!("trace-{}-seed{}.json", w.name, opts.seed));
        std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
        report.info.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    } else {
        report.metric(
            "setup_s",
            stats::median(&setup_s),
            "s",
            format!("median of {} setups {setup_s:.3?}", setup_s.len()),
        );
        report.metric(
            "query_p50_ms",
            queries.percentile(50.0).unwrap_or(0.0),
            "ms",
            format!("p50 of n={}, {} failed", queries.count(), queries.failed()),
        );
        report.tail("query_tail_ms", &queries, w.query_tail);
        report.metric(
            "qps",
            ok_queries / read_wall,
            "1/s",
            format!("{ok_queries} queries / {read_wall:.3} s"),
        );
        report.metric(
            "insert_p50_ms",
            writes.inserts.percentile(50.0).unwrap_or(0.0),
            "ms",
            format!("p50 of n={}, from due time", writes.inserts.count()),
        );
        report.tail("insert_tail_ms", &writes.inserts, w.insert_tail);
        report.metric(
            "delete_p50_ms",
            writes.deletes.percentile(50.0).unwrap_or(0.0),
            "ms",
            format!("p50 of n={}, from due time", writes.deletes.count()),
        );
        report.tail("delete_tail_ms", &writes.deletes, w.delete_tail);
        report.metric(
            "recovery_s",
            stats::median(&recovery_s),
            "s",
            format!("median of {} reopens {recovery_s:.3?}", recovery_s.len()),
        );
        report.metric(
            "peak_rss_mb",
            peak_rss_kb() / 1024.0,
            "MiB",
            "VmHWM of this process",
        );
    }
    let total = report.attempted.max(1);
    report.info.push(format!(
        "failed_frac = {}",
        Ratio::new(report.failed as f64, total as f64).describe()
    ));
    report.info.push(format!(
        "writer: lateness p50 {:.3} ms, max {:.3} ms; service p50 insert {:.3} ms, \
         delete {:.3} ms; over {} ops",
        stats::median(&writes.late_ms),
        writes.late_ms.iter().copied().fold(0.0, f64::max),
        stats::median(&writes.insert_service_ms),
        stats::median(&writes.delete_service_ms),
        writes.late_ms.len()
    ));
    Ok(report)
}

/// What a restart must reproduce: the acknowledged live documents and
/// the canonical results of delta-keyword probes.
struct Durable {
    live: Vec<u64>,
    probes: Vec<[String; 2]>,
    canon: Vec<Result<String, String>>,
}

/// Records what `xk` acknowledged, checking `documents()` against the
/// writer's book and that the delta keywords reach live documents.
fn durable(xk: &Instance, book: &Book, docs: &[DeltaDoc], report: &mut Report) -> Durable {
    let live = book.live_ids();
    report.check(
        layers::documents(xk) == live,
        "documents() equals the acknowledged live documents",
    );
    let probes = delta_probes(book, docs);
    let canon: Vec<Result<String, String>> = probes
        .iter()
        .map(|kws| layers::canonical(xk, &[&kws[0], &kws[1]], 8))
        .collect();
    report.check(
        canon
            .iter()
            .any(|c| c.as_ref().is_ok_and(|s| !s.is_empty())),
        "delta keywords reach live documents",
    );
    Durable {
        live,
        probes,
        canon,
    }
}

/// Reopens from the WAL in `wal_dir` (the writer must be gone), checks
/// it reproduces `d`, and returns the reopen time in seconds.
fn reopen(w: &Workload, wal_dir: &Path, d: &Durable, report: &mut Report) -> Result<f64, String> {
    let data = layers::generate_data();
    let t = Instant::now();
    let reopened = layers::load(data, w.pool_pages, wal_dir)?;
    let took = t.elapsed().as_secs_f64();
    report.check(
        layers::documents(&reopened) == d.live,
        "after reopening, documents() equals the acknowledged live set",
    );
    let same = d
        .probes
        .iter()
        .zip(&d.canon)
        .all(|(kws, c)| &layers::canonical(&reopened, &[&kws[0], &kws[1]], 8) == c);
    report.check(same, "after reopening, delta-keyword results are unchanged");
    Ok(took)
}

fn tear_down(s: Setup) {
    drop(s.conns);
    s.server.stop();
}

fn dedup(v: &mut Vec<String>) {
    let mut seen = std::collections::HashSet::new();
    v.retain(|s| seen.insert(s.clone()));
}

/// Keyword pairs over delta documents whose canonical results must
/// survive a restart: up to four live documents (their fresh author and
/// a title word) and one deleted document, which must stay unknown.
fn delta_probes(book: &Book, docs: &[DeltaDoc]) -> Vec<[String; 2]> {
    let mut out: Vec<[String; 2]> = book
        .live
        .iter()
        .take(4)
        .map(|&(_, slot)| [docs[slot].author.clone(), docs[slot].title_word.clone()])
        .collect();
    if let Some(&slot) = book.deleted.first() {
        if !book.live.iter().any(|&(_, s)| s == slot) {
            out.push([docs[slot].author.clone(), docs[slot].title_word.clone()]);
        }
    }
    out
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    logs: &[QueryLog],
    before: &layers::Counters,
    after: &layers::Counters,
    r: &ReplayOut,
    writes: &WriterOut,
    sizes: &layers::Sizes,
    load: layers::LoadStages,
) {
    let ok: Vec<&QueryLog> = logs.iter().filter(|l| l.latency_ns.is_some()).collect();
    let nq = ok.len().max(1) as f64;
    let pages: u64 = ok.iter().map(|l| l.pages).sum();
    let sum = |f: fn(&QueryLog) -> u64| ok.iter().map(|l| f(l)).sum::<u64>() as f64;
    report.metric(
        "serve.overhead_us",
        sum(|l| l.overhead_ns) / pages.max(1) as f64 / 1e3,
        "us",
        format!("client round trip minus metrics.total_ns, mean of {pages} pages"),
    );
    report.metric(
        "serve.pages_per_query",
        pages as f64 / nq,
        "count",
        format!("{pages} pages / {nq} queries"),
    );
    report.metric(
        "serve.engine_ms_per_query",
        sum(|l| l.engine_ns) / nq / 1e6,
        "ms",
        format!("sum of total_ns over pages, mean of {nq} queries"),
    );
    report.metric(
        "serve.response_kb_per_query",
        sum(|l| l.frame_bytes) / nq / 1024.0,
        "KiB",
        format!("encoded results frames, mean of {nq} queries"),
    );
    let rq = r.queries.max(1) as f64;
    let us = |ns: u64| ns as f64 / rq / 1e3;
    let layers_us = [
        ("discover.us", r.discover),
        ("plan.us", r.plan),
        ("exec.us", r.exec),
        ("present.us", r.present),
        ("encode.us", r.encode),
        ("decode.us", r.decode),
    ];
    for (name, ns) in layers_us {
        report.metric(
            name,
            us(ns),
            "us",
            format!("span self time, mean of {} replayed queries", r.queries),
        );
    }
    report.metric(
        "trace.wall_us",
        us(r.wall),
        "us",
        format!("traced query span, mean of {}", r.queries),
    );
    report.metric(
        "trace.residual_us",
        us(r.residual),
        "us",
        "traced query span minus its layer spans (glue, and prepare_with's own re-discovery is inside plan.us)",
    );
    report.metric(
        "trace.untraced_us",
        us(r.untraced),
        "us",
        "engine entry point + encode + decode, same queries",
    );
    report.ratio(
        "trace.overhead_ratio",
        "ratio",
        Ratio::new(r.wall as f64 - r.untraced as f64, r.untraced as f64),
    );
    for (name, ns) in layers_us.iter().chain(&[("residual", r.residual)]) {
        report.info.push(format!(
            "share of traced query path: {:<12} {}",
            name.trim_end_matches(".us"),
            Ratio::new(*ns as f64, r.wall as f64).describe()
        ));
    }
    report.metric(
        "plan.instantiated",
        r.instantiated as f64 / rq,
        "count",
        format!("plans instantiated, mean of {} queries", r.queries),
    );
    report.ratio(
        "plan.claimed_per_instantiated",
        "ratio",
        Ratio::new(r.claimed as f64, r.instantiated as f64),
    );
    let engine_q = (after.queries - before.queries) as f64;
    report.ratio(
        "plan.cache_hit_ratio",
        "ratio",
        Ratio::new(
            (after.plan_cache_hits - before.plan_cache_hits) as f64,
            engine_q,
        ),
    );
    let cold = r.cold_plan_ns.len();
    report.metric(
        "plan.cold_ms",
        if cold == 0 {
            0.0
        } else {
            r.cold_plan_ns.iter().sum::<u64>() as f64 / cold as f64 / 1e6
        },
        "ms",
        format!("plan span on a plan-cache miss, mean of {cold}"),
    );
    report.metric(
        "exec.plans_pruned",
        r.pruned as f64 / rq,
        "count",
        format!("per query, {} queries", r.queries),
    );
    report.metric(
        "exec.plans_early_stopped",
        r.early_stopped as f64 / rq,
        "count",
        format!("per query, {} queries", r.queries),
    );
    report.ratio(
        "exec.probes_per_result",
        "ratio",
        Ratio::new(r.probes as f64, r.result_rows as f64),
    );
    report.ratio(
        "exec.probe_rows_per_result",
        "ratio",
        Ratio::new(r.probe_rows as f64, r.result_rows as f64),
    );
    report.ratio(
        "exec.partial_cache_hit_ratio",
        "ratio",
        Ratio::new(
            r.partial_hits as f64,
            (r.partial_hits + r.partial_misses) as f64,
        ),
    );
    let hits = (after.pool_hits - before.pool_hits) as f64;
    let misses = (after.pool_misses - before.pool_misses) as f64;
    report.ratio("pool.hit_ratio", "ratio", Ratio::new(hits, hits + misses));
    report.ratio("pool.misses_per_query", "count", Ratio::new(misses, nq));
    report.metric(
        "pool.evictions",
        (after.pool_evictions - before.pool_evictions) as f64,
        "count",
        "during the served phase",
    );
    report.metric(
        "ingest.view_swaps",
        (after.epoch - before.epoch) as f64,
        "count",
        "QueryEngine::epoch delta over the served phase",
    );
    let ops = writes.ops as f64;
    report.ratio(
        "wal.bytes_per_op",
        "B",
        Ratio::new(writes.wal_bytes as f64, ops),
    );
    report.ratio(
        "wal.fsyncs_per_op",
        "ratio",
        Ratio::new(writes.fsyncs as f64, ops),
    );
    let cps = writes.checkpoint_ms.len();
    report.metric(
        "checkpoint.ms",
        if cps == 0 {
            0.0
        } else {
            writes.checkpoint_ms.iter().sum::<f64>() / cps as f64
        },
        "ms",
        format!("mean of {cps} checkpoints"),
    );
    report.ratio(
        "mem.rss_growth_kb_per_op",
        "KiB",
        Ratio::new(writes.rss_growth_kb, ops),
    );
    report.metric(
        "mem.postings_bytes",
        sizes.postings_bytes as f64,
        "B",
        "after the writes",
    );
    report.metric(
        "mem.disk_pages",
        sizes.disk_pages as f64,
        "count",
        "after the writes",
    );
    for (name, d) in [
        ("load.targets_ms", load.targets),
        ("load.master_ms", load.master),
        ("load.decompose_ms", load.decompose),
        ("load.relations_ms", load.relations),
    ] {
        report.metric(name, ms(d), "ms", "one call on a fresh input");
    }
    report.ratio(
        "recorder.records_per_query",
        "ratio",
        Ratio::new((after.records - before.records) as f64, nq),
    );
    report.metric(
        "gen.late_p50_ms",
        stats::median(&writes.late_ms),
        "ms",
        format!("writer start minus due time, {} ops", writes.late_ms.len()),
    );
    report.metric(
        "gen.late_max_ms",
        writes.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        format!("{} ops", writes.late_ms.len()),
    );
}
