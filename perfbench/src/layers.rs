//! Every call the benchmark makes into XKeyword lives in this module.
//!
//! The rest of the benchmark sees only the plain types defined here, so
//! a change to a layer's public entry points (a renamed `exec::try_*`
//! function, a new `QueryEngine` method) is absorbed by editing this one
//! file. The module is grouped by layer: load, serve, discover/plan/
//! exec/present (the in-process query path), ingest, and the counters
//! each layer exposes.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkeyword::core::decompose;
use xkeyword::core::engine::{Prepared, ReadView};
use xkeyword::core::exec::{self, ExecMode, QueryResults, ResultRow};
use xkeyword::core::prelude::*;
use xkeyword::core::relations::RelationCatalog;
use xkeyword::datagen::dblp::DblpConfig;
use xkeyword::graph::{TssGraph, XmlGraph};
use xkeyword::serve::proto::{self, Frame, QueryRequest, QueryResponse, WireRow};
use xkeyword::serve::{Client, QueryOutcome, ServerConfig, ServerHandle};
use xkeyword::store::{Db, FsyncPolicy};

/// Partial-result cache capacity of every evaluation: the server's
/// default, so in-process calls run the same mode the server does.
const CACHE_CAPACITY: usize = 8192;
/// Evaluation threads per query: the server's default.
const EXEC_THREADS: usize = 1;
/// Maximum CTSSN size and joins of the XKeyword decomposition (§7).
const DECOMPOSE_M: usize = 6;
const DECOMPOSE_B: usize = 2;

/// One result row, as served and as computed in process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub plan: u32,
    pub score: u32,
    pub assignment: Vec<u32>,
}

fn rows_of(results: &QueryResults) -> Vec<Row> {
    results.rows.iter().map(row_of).collect()
}

fn row_of(r: &ResultRow) -> Row {
    Row {
        plan: r.plan as u32,
        score: r.score as u32,
        assignment: r.assignment.clone(),
    }
}

// ---------------------------------------------------------------- load

/// The generated DBLP input of one load.
pub struct Data {
    graph: XmlGraph,
    tss: TssGraph,
    authors: Vec<xkeyword::graph::NodeId>,
}

/// The bench-scale DBLP data (`xkw_bench::workload::bench_dblp_config`):
/// ~750 papers, 250 authors over 125 surnames, fan-out 6 citations.
/// Fixed: the benchmark seed varies only the requests and documents
/// sent to the program, never the base data.
pub fn generate_data() -> Data {
    let d = DblpConfig {
        conferences: 5,
        years_per_conference: 5,
        papers_per_year: 30,
        authors: 250,
        authors_per_paper: 3,
        citations_per_paper: 6,
        vocabulary: 400,
        seed: 0xD8_1F,
    }
    .generate();
    Data {
        graph: d.graph,
        tss: d.tss,
        authors: d.authors,
    }
}

/// Papers written by the authors of each surname (`surname{i}` is the
/// surname of authors `i` and `i + SURNAMES`), read off the generated
/// data graph.
pub fn surname_papers(data: &Data) -> Vec<usize> {
    let mut papers = vec![0; SURNAMES];
    for (i, &a) in data.authors.iter().enumerate() {
        papers[i % SURNAMES] += data.graph.reference_sources(a).len();
    }
    papers
}

/// Surnames in the generated data (`surname0` .. `surname124`).
pub const SURNAMES: usize = 125;
/// Words in the generated title vocabulary (`w0` .. `w399`).
pub const VOCABULARY: usize = 400;

/// The settings every load pins, printed with the results. Each one
/// would otherwise come from a default or the environment.
pub const PINNED: &[(&str, &str)] = &[
    ("decomposition", "xkeyword(m=6,b=2)"),
    ("policy", "clustered"),
    ("postings_format", "raw (XKW_POSTINGS ignored)"),
    ("fsync", "always"),
    ("build_blobs", "false"),
    ("pool_shards", "auto"),
    ("exec_threads", "1"),
    ("set_roundtrip", "0ns"),
    ("set_miss_penalty", "0ns"),
    ("span_tracing", "off"),
    ("flight_recorder", "on (default)"),
    ("server_config", "defaults"),
];

/// A loaded instance.
pub type Instance = Arc<XKeyword>;

/// `XKeyword::load` with every setting pinned (see [`PINNED`]), WAL-backed
/// in `wal_dir`. Replays whatever log the directory already holds.
pub fn load(data: Data, pool_pages: usize, wal_dir: &Path) -> Result<Instance, String> {
    // Program-internal spans stay off: the benchmark records its own.
    xkeyword::obs::set_enabled(false);
    let options = LoadOptions {
        decomposition: DecompositionSpec::XKeyword {
            m: DECOMPOSE_M,
            b: DECOMPOSE_B,
        },
        policy: PhysicalPolicy::clustered(),
        pool_pages,
        pool_shards: 0,
        exec_threads: EXEC_THREADS,
        build_blobs: false,
        faults: None,
        postings_format: PostingsFormatKind::Raw,
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
    };
    let xk = XKeyword::load(data.graph, data.tss, options).map_err(|e| e.to_string())?;
    xk.catalog().set_roundtrip(Duration::ZERO);
    xk.db.pool().set_miss_penalty(Duration::ZERO);
    xk.engine().recorder().set_enabled(true);
    Ok(Arc::new(xk))
}

/// Wall time of each load-stage function on one generated input.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadStages {
    pub targets: Duration,
    pub master: Duration,
    pub decompose: Duration,
    pub relations: Duration,
}

/// Times the load stage function by function, in the order
/// `XKeyword::load` calls them: `TargetGraph::build`,
/// `MasterIndex::build_with`, `decompose::xkeyword`,
/// `RelationCatalog::materialize`.
pub fn time_load_stages(data: &Data, pool_pages: usize) -> Result<LoadStages, String> {
    let t = Instant::now();
    let targets = TargetGraph::build(&data.graph, &data.tss).map_err(|e| e.to_string())?;
    let targets_t = t.elapsed();
    let t = Instant::now();
    let master = MasterIndex::build_with(&data.graph, &targets, PostingsFormatKind::Raw);
    let master_t = t.elapsed();
    std::hint::black_box(master.posting_count());
    let t = Instant::now();
    let decomposition = decompose::xkeyword(&data.tss, DECOMPOSE_M, DECOMPOSE_B);
    let decompose_t = t.elapsed();
    let db = Db::with_pool_shards(pool_pages, 0);
    let t = Instant::now();
    let catalog = RelationCatalog::materialize(
        &db,
        &targets,
        decomposition,
        PhysicalPolicy::clustered(),
        "cr",
    );
    let relations_t = t.elapsed();
    std::hint::black_box(catalog.len());
    Ok(LoadStages {
        targets: targets_t,
        master: master_t,
        decompose: decompose_t,
        relations: relations_t,
    })
}

// ---------------------------------------------------- in-process oracle

/// In-process top-k (`QueryEngine::query_topk`), the served path's
/// oracle.
pub fn oracle_topk(
    xk: &Instance,
    keywords: &[&str],
    z: usize,
    k: usize,
) -> Result<Vec<Row>, String> {
    let mode = ExecMode::Cached {
        capacity: CACHE_CAPACITY,
    };
    xk.engine()
        .query_topk(keywords, z, k, mode, EXEC_THREADS)
        .map(|o| rows_of(&o.results))
        .map_err(|e| e.to_string())
}

/// In-process all-results (`QueryEngine::query_all`), the paged path's
/// oracle.
pub fn oracle_all(xk: &Instance, keywords: &[&str], z: usize) -> Result<Vec<Row>, String> {
    let mode = ExecMode::Cached {
        capacity: CACHE_CAPACITY,
    };
    xk.engine()
        .query_all(keywords, z, mode)
        .map(|o| rows_of(&o.results))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- serve

/// A running `xkw-serve` server with default settings.
pub struct Server(ServerHandle);

/// Starts a server on an ephemeral localhost port.
pub fn start_server(xk: &Instance) -> Result<Server, String> {
    xkeyword::serve::start(Arc::clone(xk), "127.0.0.1:0", ServerConfig::default())
        .map(Server)
        .map_err(|e| e.to_string())
}

impl Server {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.0.addr()
    }

    /// Stops the server and joins its threads.
    pub fn stop(mut self) {
        self.0.shutdown();
    }
}

/// One client connection.
pub struct Conn(Client);

/// What one page request resolved to.
pub enum Page {
    /// A results page.
    Rows {
        rows: Vec<Row>,
        next_offset: Option<u32>,
        /// The server's own discover+plan+exec+present time.
        engine_ns: u64,
        /// Bytes of the results frame on the wire (only when asked for).
        frame_bytes: usize,
    },
    /// A typed error or shed from the server.
    Refused(String),
    /// A transport or protocol failure.
    Failed(String),
}

pub fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
    Client::connect_timeout(addr, Duration::from_secs(60))
        .map(Conn)
        .map_err(|e| e.to_string())
}

/// The parameters of one query request.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub id: u64,
    pub keywords: [&'a str; 2],
    pub z: u16,
    pub k: u32,
    pub offset: u32,
    pub page_size: u32,
}

fn wire_request(r: &Request<'_>) -> QueryRequest {
    QueryRequest {
        id: r.id,
        z: r.z,
        k: r.k,
        deadline_ms: 0,
        offset: r.offset,
        page_size: r.page_size,
        flags: 0,
        keywords: r.keywords.iter().map(|s| (*s).to_owned()).collect(),
    }
}

impl Conn {
    /// Sends one request and reads its page. `measure_frame` re-encodes
    /// the received frame to report its size (costs client CPU, so only
    /// the traced run asks).
    pub fn query(&mut self, r: &Request<'_>, measure_frame: bool) -> Page {
        match self.0.query(&wire_request(r)) {
            Ok(QueryOutcome::Results(resp)) if resp.id == r.id => {
                let frame_bytes = if measure_frame {
                    proto::encode_frame(&Frame::Results(resp.clone())).len()
                } else {
                    0
                };
                Page::Rows {
                    rows: resp
                        .rows
                        .into_iter()
                        .map(|w| Row {
                            plan: w.plan,
                            score: w.score,
                            assignment: w.assignment,
                        })
                        .collect(),
                    next_offset: resp.next_offset,
                    engine_ns: resp.metrics.total_ns,
                    frame_bytes,
                }
            }
            Ok(QueryOutcome::Results(resp)) => {
                Page::Failed(format!("response id {} for request {}", resp.id, r.id))
            }
            Ok(QueryOutcome::Error(e)) => Page::Refused(format!("{:?}: {}", e.code, e.message)),
            Err(e) => Page::Failed(e.to_string()),
        }
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.0.ping(0x5EED) {
            Ok(0x5EED) => Ok(()),
            Ok(t) => Err(format!("pong token {t}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// `proto::encode_frame` of the results pages a server would send for
/// `rows` (one frame per page of `page_size` rows; `0` = one page).
pub fn encode_pages(id: u64, rows: &[Row], page_size: usize) -> Vec<Vec<u8>> {
    let total = rows.len();
    let step = if page_size == 0 {
        total.max(1)
    } else {
        page_size
    };
    let mut frames = Vec::with_capacity(total.div_ceil(step).max(1));
    let mut start = 0;
    loop {
        let end = (start + step).min(total);
        let resp = QueryResponse {
            id,
            total_rows: total as u32,
            offset: start as u32,
            next_offset: (end < total).then_some(end as u32),
            rows: rows[start..end]
                .iter()
                .map(|r| WireRow {
                    plan: r.plan,
                    score: r.score,
                    assignment: r.assignment.clone(),
                })
                .collect(),
            ..QueryResponse::default()
        };
        frames.push(proto::encode_frame(&Frame::Results(resp)));
        start = end;
        if start >= total {
            return frames;
        }
    }
}

/// `proto::decode_header` + `proto::decode_payload` of each frame;
/// returns the rows decoded.
pub fn decode_pages(frames: &[Vec<u8>]) -> Result<usize, String> {
    let mut rows = 0;
    for f in frames {
        let header: &[u8; proto::HEADER_LEN] = f
            .get(..proto::HEADER_LEN)
            .and_then(|h| h.try_into().ok())
            .ok_or("short frame")?;
        let (kind, _) = proto::decode_header(header, u32::MAX).map_err(|e| e.to_string())?;
        match proto::decode_payload(kind, &f[proto::HEADER_LEN..]).map_err(|e| e.to_string())? {
            Frame::Results(r) => rows += r.rows.len(),
            _ => return Err("decoded a non-results frame".into()),
        }
    }
    Ok(rows)
}

// ------------------------------------- discover / plan / exec / present

/// A read snapshot (`QueryEngine::view`).
pub type View = Arc<ReadView>;

pub fn view(xk: &Instance) -> View {
    xk.engine().view()
}

/// Discover: `MasterIndex::achievable_sets`. Returns the number of
/// schema nodes with an achievable keyword set.
pub fn discover(view: &View, keywords: &[&str]) -> usize {
    view.master.achievable_sets(keywords).len()
}

/// Plan: `QueryEngine::prepare_with` (plan cache, CN generation on a
/// miss, instantiation).
pub fn prepare(
    xk: &Instance,
    view: &View,
    keywords: &[&str],
    z: usize,
) -> Result<Prepared, String> {
    xk.engine()
        .prepare_with(view, keywords, z)
        .map_err(|e| e.to_string())
}

/// What `prepare` reported about itself.
pub struct PlanInfo {
    pub instantiated: usize,
    pub cache_hit: bool,
}

pub fn plan_info(p: &Prepared) -> PlanInfo {
    PlanInfo {
        instantiated: p.plans.len(),
        cache_hit: p.plan_cache_hit,
    }
}

/// Exec, top-k: `exec::try_topk_within_opts` with the server's settings
/// (cached mode, one thread, no deadline, pruning on).
pub fn exec_topk(
    xk: &Instance,
    view: &View,
    p: &Prepared,
    k: usize,
) -> Result<QueryResults, String> {
    exec::try_topk_within_opts(
        &xk.db,
        &view.catalog,
        &p.plans,
        ExecMode::Cached {
            capacity: CACHE_CAPACITY,
        },
        k,
        EXEC_THREADS,
        None,
        true,
    )
    .map_err(|e| e.to_string())
}

/// Exec, all results: `exec::try_all_plans_mt_within` with the server's
/// settings.
pub fn exec_all(xk: &Instance, view: &View, p: &Prepared) -> Result<QueryResults, String> {
    exec::try_all_plans_mt_within(
        &xk.db,
        &view.catalog,
        &p.plans,
        ExecMode::Cached {
            capacity: CACHE_CAPACITY,
        },
        EXEC_THREADS,
        None,
    )
    .map_err(|e| e.to_string())
}

/// Present: `QueryResults::mttons`. Returns the MTTON count.
pub fn present(r: &QueryResults) -> usize {
    r.mttons().len()
}

/// Rows and executor counters of one evaluation.
pub struct ExecInfo {
    pub rows: Vec<Row>,
    pub probes: u64,
    pub probe_rows: u64,
    pub partial_hits: u64,
    pub partial_misses: u64,
    pub plans_claimed: usize,
    pub plans_pruned: usize,
    pub plans_early_stopped: usize,
}

pub fn exec_info(r: &QueryResults) -> ExecInfo {
    ExecInfo {
        rows: rows_of(r),
        probes: r.stats.probes,
        probe_rows: r.stats.rows,
        partial_hits: r.stats.cache_hits,
        partial_misses: r.stats.cache_misses,
        plans_claimed: r.prune.plans_claimed,
        plans_pruned: r.prune.plans_pruned,
        plans_early_stopped: r.prune.plans_early_stopped,
    }
}

/// The engine's single entry point for one query (`query_topk_opts` for
/// `k > 0`, else `query_all_within`), untraced: the baseline the traced
/// decomposition is compared against.
pub fn engine_query(
    xk: &Instance,
    keywords: &[&str],
    z: usize,
    k: usize,
) -> Result<Vec<Row>, String> {
    let mode = ExecMode::Cached {
        capacity: CACHE_CAPACITY,
    };
    let out = if k > 0 {
        xk.engine()
            .query_topk_opts(keywords, z, k, mode, EXEC_THREADS, None, true)
    } else {
        xk.engine().query_all_within(keywords, z, mode, None)
    };
    out.map(|o| rows_of(&o.results)).map_err(|e| e.to_string())
}

// --------------------------------------------------------------- ingest

pub fn insert(xk: &Instance, xml: &str) -> Result<u64, String> {
    xk.insert_document(xml).map_err(|e| e.to_string())
}

pub fn delete(xk: &Instance, doc: u64) -> Result<(), String> {
    xk.delete_document(doc).map_err(|e| e.to_string())
}

pub fn checkpoint(xk: &Instance) -> Result<(), String> {
    xk.checkpoint().map_err(|e| e.to_string())
}

pub fn documents(xk: &Instance) -> Vec<u64> {
    xk.documents()
}

/// `XKeyword::canonical_results`: the content-addressed result set the
/// crash-recovery tests compare.
pub fn canonical(xk: &Instance, keywords: &[&str], z: usize) -> Result<String, String> {
    xk.canonical_results(keywords, z).map_err(|e| e.to_string())
}

/// WAL counters (`XKeyword::wal_stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Wal {
    pub fsyncs: u64,
    /// Current log length.
    pub bytes: u64,
}

pub fn wal(xk: &Instance) -> Wal {
    xk.wal_stats()
        .map(|s| Wal {
            fsyncs: s.fsyncs,
            bytes: s.bytes,
        })
        .unwrap_or_default()
}

// ------------------------------------------------------------- counters

/// Cumulative counters the layers expose, read between phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `EngineStats::queries`.
    pub queries: u64,
    pub plan_cache_hits: u64,
    /// `QueryEngine::epoch`: view swaps installed.
    pub epoch: u64,
    /// `FlightRecorder::appended`.
    pub records: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
}

pub fn counters(xk: &Instance) -> Counters {
    let engine = xk.engine();
    let stats = engine.stats();
    let io = xk.db.pool().snapshot();
    Counters {
        queries: stats.queries,
        plan_cache_hits: stats.plan_cache_hits,
        epoch: engine.epoch(),
        records: engine.recorder().appended(),
        pool_hits: io.hits,
        pool_misses: io.misses,
        pool_evictions: xk.db.pool().evictions(),
    }
}

/// Sizes: `Db::disk_pages`, the pool's capacity, and
/// `MasterIndex::postings_bytes`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub disk_pages: usize,
    pub pool_pages: usize,
    pub postings_bytes: usize,
}

pub fn sizes(xk: &Instance) -> Sizes {
    Sizes {
        disk_pages: xk.db.disk_pages(),
        pool_pages: xk.db.pool().capacity(),
        postings_bytes: xk.master().postings_bytes(),
    }
}
