//! The TCP front end: connection lifecycle, admission control, typed
//! shedding, pagination, per-session budgets.
//!
//! # Model
//!
//! One acceptor thread plus one I/O thread per connection (bounded by
//! [`ServerConfig::max_connections`]), all sharing a single
//! [`QueryEngine`](xkw_core::engine::QueryEngine) — so every session
//! shares the warm plan cache, the sharded buffer pool and the flight
//! recorder. Query evaluation itself fans out over
//! [`ServerConfig::exec_threads`] engine workers, so the connection
//! thread is an I/O loop, not the unit of parallelism.
//!
//! # Admission control
//!
//! Three gates, in order, each with a *typed* rejection — a request is
//! never silently dropped:
//!
//! 1. **Per-client quota** — a token bucket per client IP
//!    ([`QuotaConfig`]); an empty bucket sheds with
//!    [`ErrorCode::QuotaExceeded`] and a retry hint.
//! 2. **Session budget** — each connection draws its queries' deadlines
//!    from a cumulative [`SessionBudget`]; an exhausted session gets
//!    [`ErrorCode::BudgetExhausted`] until it reconnects.
//! 3. **Bounded in-flight queue** — at most
//!    [`ServerConfig::max_inflight`] queries evaluate concurrently;
//!    a full server waits at most [`ServerConfig::admission_wait`] for
//!    a slot, then sheds with [`ErrorCode::Overloaded`]. Accepted
//!    requests still honor their deadline-degradation contract (PR 4):
//!    overload never changes answers, only sheds whole requests.
//!
//! Every gate's decision is counted in [`ServerMetrics`] and exported
//! both through the binary [`StatsResponse`] frame (exact reconciliation
//! for load harnesses) and as Prometheus text (`xkw_server_*`).
//!
//! # Pagination
//!
//! Each connection keeps a single-slot result cursor: the complete
//! answer of its last evaluation when that answer has a next page and
//! is not degraded, together with the epoch of the view it read. A
//! continuation request (`offset > 0`) for the same keywords, `z`, `k`
//! and flags is sliced from the cursor while the engine's epoch is
//! unchanged, so a paged walk executes the query once. Anything else
//! evaluates again and replaces the cursor: `offset == 0`, a different
//! query, or a view installed since. Continuation pages still pass all
//! three gates; they charge the session budget their page-assembly
//! time, report no engine work in [`WireMetrics`], and are counted in
//! `xkw_server_cursor_pages_total`.

use crate::proto::{
    self, ErrorCode, ErrorResponse, Frame, QueryRequest, QueryResponse, ReadFrameError,
    StatsResponse, WireDegradation, WireMetrics, WireRow,
};
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xkw_core::error::XkError;
use xkw_core::exec::{ExecMode, ResultRow, SessionBudget};
use xkw_core::prelude::*;
use xkw_obs::metrics::{Counter, Gauge, Histogram};

/// Per-client token-bucket quota (keyed by client IP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Bucket capacity: requests a client may burst.
    pub burst: u32,
    /// Sustained refill rate, requests per second.
    pub per_sec: f64,
}

/// Server configuration. The defaults serve a trusted LAN client; public
/// deployments should tighten the limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further connects get a
    /// typed [`ErrorCode::Overloaded`] response and are closed.
    pub max_connections: usize,
    /// Maximum queries evaluating concurrently (the in-flight bound).
    pub max_inflight: usize,
    /// How long a request may wait for an in-flight slot before it is
    /// shed — the "bounded queue" in front of the engine.
    pub admission_wait: Duration,
    /// Retry hint attached to shed responses, milliseconds.
    pub retry_after_ms: u32,
    /// Largest frame payload accepted or produced, bytes.
    pub max_frame: u32,
    /// Hard cap on rows per response page (and the page size served for
    /// `page_size == 0` requests).
    pub max_page_rows: u32,
    /// Connection read timeout: an idle client is disconnected after
    /// this long. `None` = wait forever.
    pub read_timeout: Option<Duration>,
    /// Connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Server-imposed cap on per-query deadlines. `None` = requests
    /// without a deadline run unbounded (full-fidelity answers).
    pub max_deadline: Option<Duration>,
    /// Cumulative evaluation budget per session (connection); `None` =
    /// unlimited sessions.
    pub session_budget: Option<Duration>,
    /// Per-client token-bucket quota; `None` = no quota gate.
    pub quota: Option<QuotaConfig>,
    /// Engine worker threads per query evaluation.
    pub exec_threads: usize,
    /// Partial-result cache capacity for cached-mode evaluation.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            max_inflight: 64,
            admission_wait: Duration::from_millis(1),
            retry_after_ms: 20,
            max_frame: proto::DEFAULT_MAX_FRAME,
            max_page_rows: 4096,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_deadline: None,
            session_budget: None,
            quota: None,
            exec_threads: 1,
            cache_capacity: 8192,
        }
    }
}

/// The server's always-on counters (see the module docs). Backed by its
/// own [`xkw_obs::Registry`], so several servers in one process (tests,
/// benches) never mix numbers; [`ServerMetrics::render_prometheus`]
/// exports the standard text format.
pub struct ServerMetrics {
    reg: xkw_obs::Registry,
    connections: Arc<Counter>,
    connections_rejected: Arc<Counter>,
    requests: Arc<Counter>,
    responses: Arc<Counter>,
    shed: Arc<Counter>,
    quota_shed: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    request_errors: Arc<Counter>,
    degraded: Arc<Counter>,
    plans_skipped: Arc<Counter>,
    plans_incomplete: Arc<Counter>,
    query_faults: Arc<Counter>,
    cursor_pages: Arc<Counter>,
    inflight: Arc<Gauge>,
    inflight_peak: Arc<Gauge>,
    latency: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let reg = xkw_obs::Registry::new();
        let c = |n: &str| reg.counter(n);
        let m = ServerMetrics {
            connections: c("xkw_server_connections_total"),
            connections_rejected: c("xkw_server_connections_rejected_total"),
            requests: c("xkw_server_requests_total"),
            responses: c("xkw_server_responses_total"),
            shed: c("xkw_server_shed_total"),
            quota_shed: c("xkw_server_quota_shed_total"),
            protocol_errors: c("xkw_server_protocol_errors_total"),
            request_errors: c("xkw_server_request_errors_total"),
            degraded: c("xkw_server_degraded_total"),
            plans_skipped: c("xkw_server_plans_skipped_total"),
            plans_incomplete: c("xkw_server_plans_incomplete_total"),
            query_faults: c("xkw_server_query_faults_total"),
            cursor_pages: c("xkw_server_cursor_pages_total"),
            inflight: reg.gauge("xkw_server_inflight"),
            inflight_peak: reg.gauge("xkw_server_inflight_peak"),
            latency: reg.histogram("xkw_server_request_ns"),
            reg,
        };
        m.reg.set_help(
            "xkw_server_shed_total",
            "Requests shed by the bounded in-flight queue (typed Overloaded responses)",
        );
        m.reg.set_help(
            "xkw_server_quota_shed_total",
            "Requests shed by per-client token-bucket quotas",
        );
        m.reg.set_help(
            "xkw_server_cursor_pages_total",
            "Continuation pages sliced from a connection's result cursor without evaluating",
        );
        m.reg
            .set_help("xkw_server_inflight", "Queries currently being evaluated");
        m
    }

    /// Requests shed by the in-flight bound so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.get()
    }

    /// Requests shed by per-client quotas so far.
    pub fn quota_shed_total(&self) -> u64 {
        self.quota_shed.get()
    }

    /// Query frames read so far.
    pub fn requests_total(&self) -> u64 {
        self.requests.get()
    }

    /// Successful responses sent so far.
    pub fn responses_total(&self) -> u64 {
        self.responses.get()
    }

    /// Continuation pages served from a connection's result cursor so
    /// far.
    pub fn cursor_pages_total(&self) -> u64 {
        self.cursor_pages.get()
    }

    /// Renders every `xkw_server_*` series in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        self.reg.render_prometheus()
    }

    fn snapshot(&self, engine: &xkw_core::engine::QueryEngine) -> StatsResponse {
        let es = engine.stats();
        StatsResponse {
            connections: self.connections.get(),
            connections_rejected: self.connections_rejected.get(),
            requests: self.requests.get(),
            responses: self.responses.get(),
            shed: self.shed.get(),
            quota_shed: self.quota_shed.get(),
            protocol_errors: self.protocol_errors.get(),
            request_errors: self.request_errors.get(),
            inflight: self.inflight.get() as u32,
            inflight_peak: self.inflight_peak.get() as u32,
            engine_queries: es.queries,
            engine_errors: es.errors,
            engine_plan_cache_hits: es.plan_cache_hits,
            degraded: self.degraded.get(),
            plans_skipped: self.plans_skipped.get(),
            plans_incomplete: self.plans_incomplete.get(),
            query_faults: self.query_faults.get(),
        }
    }
}

/// The bounded in-flight queue: a counting semaphore with a bounded
/// acquire wait. Holding an [`InflightGuard`] is holding a slot.
struct Admission {
    state: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

impl Admission {
    fn new(max: usize) -> Self {
        Admission {
            state: Mutex::new(0),
            freed: Condvar::new(),
            max: max.max(1),
        }
    }

    /// Tries to take a slot, waiting at most `wait`. Returns the
    /// post-acquire in-flight count, or `None` when the server stayed
    /// full for the whole bounded wait (→ shed).
    fn acquire(&self, wait: Duration) -> Option<usize> {
        let deadline = Instant::now() + wait;
        let mut inflight = self.state.lock().unwrap();
        loop {
            if *inflight < self.max {
                *inflight += 1;
                return Some(*inflight);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self.freed.wait_timeout(inflight, deadline - now).unwrap();
            inflight = guard;
        }
    }

    fn release(&self) -> usize {
        let mut inflight = self.state.lock().unwrap();
        *inflight = inflight.saturating_sub(1);
        self.freed.notify_one();
        *inflight
    }
}

/// RAII in-flight slot: updates the gauge on acquire and release.
struct InflightGuard<'a> {
    shared: &'a Shared,
}

impl<'a> InflightGuard<'a> {
    fn acquire(shared: &'a Shared) -> Option<Self> {
        let now = shared.admission.acquire(shared.cfg.admission_wait)?;
        let m = &shared.metrics;
        m.inflight.set(now as u64);
        if now as u64 > m.inflight_peak.get() {
            m.inflight_peak.set(now as u64);
        }
        Some(InflightGuard { shared })
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let now = self.shared.admission.release();
        self.shared.metrics.inflight.set(now as u64);
    }
}

/// Per-client token buckets.
struct QuotaTable {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl QuotaTable {
    fn new(cfg: QuotaConfig) -> Self {
        QuotaTable {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one token for `client`, or returns the time until the next
    /// token accrues (→ shed with that retry hint).
    fn admit(&self, client: IpAddr) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock().unwrap();
        let now = Instant::now();
        let b = buckets.entry(client).or_insert(Bucket {
            tokens: f64::from(self.cfg.burst),
            last: now,
        });
        let elapsed = now.duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + elapsed * self.cfg.per_sec).min(f64::from(self.cfg.burst));
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - b.tokens) / self.cfg.per_sec.max(1e-9);
            Err(Duration::from_secs_f64(wait))
        }
    }
}

struct ConnTable {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    xk: Arc<XKeyword>,
    cfg: ServerConfig,
    metrics: ServerMetrics,
    admission: Admission,
    quotas: Option<QuotaTable>,
    shutdown: AtomicBool,
    conns: Mutex<ConnTable>,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// A [`StatsResponse`]-shaped snapshot (the same numbers the Stats
    /// frame serves).
    pub fn stats(&self) -> StatsResponse {
        self.shared.metrics.snapshot(self.shared.xk.engine())
    }

    /// Stops accepting, disconnects every session (in-flight responses
    /// are aborted) and joins all server threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock reads: shut every registered session socket down.
        {
            let conns = self.shared.conns.lock().unwrap();
            for stream in conns.streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for t in workers {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `listen` (e.g. `127.0.0.1:0`) and starts serving `xk` under
/// `cfg`. Returns once the listener is bound — queries can be sent the
/// moment this returns.
///
/// # Errors
/// Propagates bind failures.
pub fn start(
    xk: Arc<XKeyword>,
    listen: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.max_inflight),
        quotas: cfg.quota.map(QuotaTable::new),
        metrics: ServerMetrics::new(),
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(ConnTable {
            next_id: 0,
            streams: HashMap::new(),
        }),
        xk,
        cfg,
    });
    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let workers = Arc::clone(&workers);
        std::thread::Builder::new()
            .name("xkw-accept".into())
            .spawn(move || accept_loop(&listener, &shared, &workers))
            .expect("spawning the acceptor thread")
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                // Reap finished connection threads so the handle table
                // stays bounded on long-running servers.
                workers.lock().unwrap().retain(|t| !t.is_finished());
                dispatch(stream, peer, shared, workers);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn dispatch(
    stream: TcpStream,
    peer: SocketAddr,
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let m = &shared.metrics;
    let conn_id = {
        let mut conns = shared.conns.lock().unwrap();
        if conns.streams.len() >= shared.cfg.max_connections {
            drop(conns);
            m.connections_rejected.inc();
            // A typed rejection, never a silent RST: the client learns
            // why and when to retry.
            let mut s = stream;
            let _ = s.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = proto::write_frame(
                &mut s,
                &Frame::Error(ErrorResponse {
                    id: 0,
                    code: ErrorCode::Overloaded,
                    retry_after_ms: shared.cfg.retry_after_ms,
                    message: "connection limit reached".into(),
                }),
            );
            return;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            conns.streams.insert(id, clone);
        }
        id
    };
    m.connections.inc();
    let shared = Arc::clone(shared);
    let t = std::thread::Builder::new()
        .name(format!("xkw-conn-{conn_id}"))
        .spawn(move || {
            serve_conn(stream, peer, &shared);
            shared.conns.lock().unwrap().streams.remove(&conn_id);
        })
        .expect("spawning a connection thread");
    workers.lock().unwrap().push(t);
}

/// One connection's session: frame loop until close, error or shutdown.
fn serve_conn(mut stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_write_timeout(cfg.write_timeout);
    let budget = match cfg.session_budget {
        Some(total) => SessionBudget::new(total),
        None => SessionBudget::unlimited(),
    };
    let mut cursor = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let frame = match proto::read_frame(&mut stream, cfg.max_frame) {
            Ok(Some(f)) => f,
            // Clean close at a frame boundary.
            Ok(None) => break,
            // Transport failure: idle timeout, peer vanished, or a
            // mid-frame cut. Nothing sensible to answer on.
            Err(ReadFrameError::Io(_)) => break,
            Err(ReadFrameError::Wire(e)) => {
                // The byte stream is (or may be) desynced — answer a
                // typed protocol error, then close. Never a panic, never
                // a hang.
                shared.metrics.protocol_errors.inc();
                let _ = proto::write_frame(
                    &mut stream,
                    &Frame::Error(ErrorResponse {
                        id: 0,
                        code: ErrorCode::Protocol,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    }),
                );
                break;
            }
        };
        let reply = match frame {
            Frame::Query(req) => handle_query(shared, peer, &budget, &mut cursor, req),
            Frame::StatsRequest => {
                Frame::Stats(Box::new(shared.metrics.snapshot(shared.xk.engine())))
            }
            Frame::Ping(tok) => Frame::Pong(tok),
            // Server-to-client kinds arriving at the server are a
            // protocol violation.
            other => {
                shared.metrics.protocol_errors.inc();
                let _ = proto::write_frame(
                    &mut stream,
                    &Frame::Error(ErrorResponse {
                        id: 0,
                        code: ErrorCode::Protocol,
                        retry_after_ms: 0,
                        message: format!("unexpected {:?} frame", other.kind()),
                    }),
                );
                break;
            }
        };
        if proto::write_frame(&mut stream, &reply).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// A connection's result cursor: the complete answer of its last
/// evaluation, kept while that answer has pages left to serve.
struct Cursor {
    keywords: Vec<String>,
    z: u16,
    k: u32,
    flags: u8,
    /// Epoch of the view the answer was read from.
    epoch: u64,
    rows: Vec<ResultRow>,
    degradation: WireDegradation,
}

impl Cursor {
    /// Whether `req` continues this answer over the view at `epoch`.
    fn continues(&self, req: &QueryRequest, epoch: u64) -> bool {
        req.offset > 0
            && epoch == self.epoch
            && (req.z, req.k, req.flags) == (self.z, self.k, self.flags)
            && req.keywords == self.keywords
    }
}

/// The admission gates + evaluation for one query frame. Always returns
/// exactly one frame — a results page or a typed error.
fn handle_query(
    shared: &Shared,
    peer: SocketAddr,
    budget: &SessionBudget,
    cursor: &mut Option<Cursor>,
    req: QueryRequest,
) -> Frame {
    let m = &shared.metrics;
    m.requests.inc();
    let reject = |code: ErrorCode, retry_after_ms: u32, message: String| {
        Frame::Error(ErrorResponse {
            id: req.id,
            code,
            retry_after_ms,
            message,
        })
    };
    // Gate 1: per-client quota.
    if let Some(quotas) = &shared.quotas {
        if let Err(wait) = quotas.admit(peer.ip()) {
            m.quota_shed.inc();
            let hint = (wait.as_millis() as u32).max(1);
            return reject(
                ErrorCode::QuotaExceeded,
                hint,
                "per-client quota exhausted".into(),
            );
        }
    }
    // Gate 2: session budget.
    if budget.exhausted() {
        m.request_errors.inc();
        return reject(
            ErrorCode::BudgetExhausted,
            0,
            "session evaluation budget exhausted; reconnect for a fresh session".into(),
        );
    }
    // Gate 3: the bounded in-flight queue.
    let Some(_slot) = InflightGuard::acquire(shared) else {
        m.shed.inc();
        return reject(
            ErrorCode::Overloaded,
            shared.cfg.retry_after_ms,
            format!(
                "server at max in-flight ({}); retry",
                shared.cfg.max_inflight
            ),
        );
    };
    match cursor {
        Some(c) if c.continues(&req, shared.xk.engine().epoch()) => {
            let started = Instant::now();
            let mut resp = page(&shared.cfg, &req, &c.rows, c.degradation);
            let assembly = started.elapsed();
            budget.charge(assembly);
            m.cursor_pages.inc();
            resp.metrics.total_ns = assembly.as_nanos() as u64;
            respond(m, resp)
        }
        _ => evaluate(shared, budget, cursor, &req),
    }
}

/// Evaluates an admitted query, answers its page, and replaces the
/// connection's cursor with the answer when it is complete and has
/// pages left.
fn evaluate(
    shared: &Shared,
    budget: &SessionBudget,
    cursor: &mut Option<Cursor>,
    req: &QueryRequest,
) -> Frame {
    let cfg = &shared.cfg;
    let m = &shared.metrics;
    let engine = shared.xk.engine();
    // Release the previous answer before materialising the next one.
    *cursor = None;
    let keywords: Vec<&str> = req.keywords.iter().map(String::as_str).collect();
    let mode = if req.flags & proto::FLAG_NAIVE != 0 {
        ExecMode::Naive
    } else {
        ExecMode::Cached {
            capacity: cfg.cache_capacity,
        }
    };
    // Effective deadline: the tighter of the request's and the server's
    // cap, then clamped by what is left of the session budget.
    let requested =
        (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
    let capped = match (requested, cfg.max_deadline) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (r, c) => r.or(c),
    };
    let deadline = budget.clamp(capped);

    let started = Instant::now();
    let outcome = if req.k > 0 {
        engine.query_topk_opts(
            &keywords,
            usize::from(req.z),
            req.k as usize,
            mode,
            cfg.exec_threads,
            deadline,
            req.flags & proto::FLAG_NO_PRUNE == 0,
        )
    } else {
        engine.query_all_within(&keywords, usize::from(req.z), mode, deadline)
    };
    budget.charge(started.elapsed());

    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            m.request_errors.inc();
            let code = match &e {
                XkError::UnknownKeyword(_) => ErrorCode::UnknownKeyword,
                XkError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                XkError::Store(_) => ErrorCode::Store,
                XkError::EmptyQuery | XkError::TooManyKeywords { .. } | XkError::BadMode(_) => {
                    ErrorCode::BadRequest
                }
                _ => ErrorCode::Internal,
            };
            return Frame::Error(ErrorResponse {
                id: req.id,
                code,
                retry_after_ms: 0,
                message: e.to_string(),
            });
        }
    };

    let deg = &out.results.degradation;
    let degradation = WireDegradation {
        deadline_exceeded: deg.deadline_exceeded,
        plans_skipped: deg.plans_skipped as u32,
        plans_incomplete: deg.plans_incomplete as u32,
        faults: deg.faults.len() as u32,
        retries: deg.retries,
    };
    if degradation.is_degraded() {
        m.degraded.inc();
        m.plans_skipped.add(u64::from(degradation.plans_skipped));
        m.plans_incomplete
            .add(u64::from(degradation.plans_incomplete));
        m.query_faults.add(u64::from(degradation.faults));
    }
    let qm = &out.metrics;
    let mut resp = page(cfg, req, &out.results.rows, degradation);
    resp.metrics = WireMetrics {
        total_ns: (qm.discover + qm.plan + qm.exec + qm.present).as_nanos() as u64,
        exec_ns: qm.exec.as_nanos() as u64,
        io_hits: qm.io_hits,
        io_misses: qm.io_misses,
        plans: qm.plans as u32,
        plan_cache_hit: qm.plan_cache_hit,
    };
    // Keep the answer for its continuation pages — never a degraded
    // one, which a re-run with time to spare could complete.
    if resp.next_offset.is_some() && !degradation.is_degraded() {
        *cursor = Some(Cursor {
            keywords: req.keywords.clone(),
            z: req.z,
            k: req.k,
            flags: req.flags,
            epoch: qm.epoch,
            rows: out.results.rows,
            degradation,
        });
    }
    respond(m, resp)
}

/// Slices the page `req` asks for out of a complete answer `rows`, over
/// the stable result order. Metrics are left for the caller to fill.
fn page(
    cfg: &ServerConfig,
    req: &QueryRequest,
    rows: &[ResultRow],
    degradation: WireDegradation,
) -> QueryResponse {
    let total = rows.len() as u32;
    let page_size = match req.page_size {
        0 => cfg.max_page_rows,
        n => n.min(cfg.max_page_rows),
    };
    let start = req.offset.min(total);
    let end = start.saturating_add(page_size).min(total);
    QueryResponse {
        id: req.id,
        total_rows: total,
        offset: req.offset,
        next_offset: (end < total).then_some(end),
        degradation,
        metrics: WireMetrics::default(),
        rows: rows[start as usize..end as usize]
            .iter()
            .map(|r| WireRow {
                plan: r.plan as u32,
                score: r.score as u32,
                assignment: r.assignment.clone(),
            })
            .collect(),
    }
}

/// Counts a results page as served and frames it.
fn respond(m: &ServerMetrics, resp: QueryResponse) -> Frame {
    m.responses.inc();
    m.latency.observe(resp.metrics.total_ns);
    Frame::Results(resp)
}
