//! The XKeyword wire protocol: length-prefixed binary frames.
//!
//! Every frame is an 8-byte header followed by a payload:
//!
//! ```text
//! +-------+---------+------+----------------+===========+
//! | magic | version | kind | payload length |  payload  |
//! |  2 B  |   1 B   | 1 B  |    4 B (LE)    |  len B    |
//! +-------+---------+------+----------------+===========+
//! ```
//!
//! The magic is the ASCII bytes `XK`; the protocol version is
//! [`VERSION`]. All multi-byte integers are little-endian. Strings are a
//! `u16` byte length followed by UTF-8 bytes. The payload length is
//! bounded by a receiver-chosen maximum ([`DEFAULT_MAX_FRAME`] unless
//! configured otherwise) — a header announcing more is rejected *before*
//! any payload is read, so a hostile length cannot make the receiver
//! allocate or stall.
//!
//! Decoding is strict: unknown kinds, bad versions, short payloads and
//! trailing bytes are all typed [`WireError`]s, never panics. The server
//! answers a malformed frame with a typed [`ErrorCode::Protocol`]
//! response (when the framing is still intact) or closes the connection
//! (when it is not); see `server.rs`.

use std::io::{self, Read, Write};

/// Frame magic: ASCII `XK`.
pub const MAGIC: [u8; 2] = *b"XK";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Header size in bytes: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 8;

/// Default maximum payload length a peer will accept (1 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// `next_offset` sentinel meaning "no more pages".
const NO_MORE_PAGES: u32 = u32::MAX;

/// Frame kinds on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a keyword query.
    Query = 1,
    /// Server → client: query results (one page).
    Results = 2,
    /// Server → client: a typed error.
    Error = 3,
    /// Client → server: request the server's counters.
    StatsRequest = 4,
    /// Server → client: the server's counters.
    Stats = 5,
    /// Client → server: liveness probe with an opaque token.
    Ping = 6,
    /// Server → client: echo of the ping token.
    Pong = 7,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Query,
            2 => FrameKind::Results,
            3 => FrameKind::Error,
            4 => FrameKind::StatsRequest,
            5 => FrameKind::Stats,
            6 => FrameKind::Ping,
            7 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// Request flag: disable top-k threshold pruning (`--no-prune`).
pub const FLAG_NO_PRUNE: u8 = 1 << 0;
/// Request flag: evaluate without the partial-result cache (naive mode).
pub const FLAG_NAIVE: u8 = 1 << 1;

/// A keyword query request.
///
/// `k == 0` asks for full evaluation (every result); `k > 0` runs the
/// top-k path. `deadline_ms == 0` means no per-query deadline (the
/// server may still impose its own cap and the session budget).
/// `offset`/`page_size` paginate over the stable result order
/// ([`QueryResponse::next_offset`] carries the continuation token).
/// A continuation (`offset > 0`) of the connection's last multi-page
/// answer is sliced from that answer while the engine's view is
/// unchanged; otherwise the query is evaluated again, and execution is
/// deterministic, so either way the pages concatenate to the one-shot
/// answer. `page_size == 0` asks for the server's maximum page.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Maximum candidate-network size (the paper's `z`).
    pub z: u16,
    /// Top-k bound; 0 = all results.
    pub k: u32,
    /// Per-query evaluation deadline in milliseconds; 0 = none.
    pub deadline_ms: u32,
    /// First result row to return (pagination offset).
    pub offset: u32,
    /// Maximum rows in this page; 0 = server maximum.
    pub page_size: u32,
    /// [`FLAG_NO_PRUNE`] | [`FLAG_NAIVE`].
    pub flags: u8,
    /// The keywords.
    pub keywords: Vec<String>,
}

/// One result row on the wire: mirrors `xkw_core::exec::ResultRow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRow {
    /// Index of the plan (candidate network) that produced the row.
    pub plan: u32,
    /// The score (CN size).
    pub score: u32,
    /// Bound target-object id per CTSSN role.
    pub assignment: Vec<u32>,
}

/// How (if at all) the served answer fell short of completeness —
/// the wire mirror of `xkw_core::exec::Degradation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireDegradation {
    /// The deadline elapsed during evaluation.
    pub deadline_exceeded: bool,
    /// Plans never started because evaluation stopped first.
    pub plans_skipped: u32,
    /// Plans started but aborted mid-evaluation.
    pub plans_incomplete: u32,
    /// Unrecoverable store faults hit.
    pub faults: u32,
    /// Read retries spent during the query.
    pub retries: u64,
}

impl WireDegradation {
    /// Whether the served answer fell short of a complete one.
    pub fn is_degraded(&self) -> bool {
        self.deadline_exceeded
            || self.plans_skipped > 0
            || self.plans_incomplete > 0
            || self.faults > 0
    }
}

/// Server-side per-query timings and I/O, for client-side observability.
/// A page served from the connection's result cursor did no engine
/// work: its `total_ns` is the page-assembly time and every other field
/// is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireMetrics {
    /// Total server-side time for the query (all stages), nanoseconds.
    pub total_ns: u64,
    /// Execution-stage time, nanoseconds.
    pub exec_ns: u64,
    /// Buffer-pool hits attributed to the query.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to the query.
    pub io_misses: u64,
    /// Executable plans after instantiation.
    pub plans: u32,
    /// Whether planning hit the skeleton cache.
    pub plan_cache_hit: bool,
}

/// A query response: one page of rows plus degradation and metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Total rows the query produced (before pagination).
    pub total_rows: u32,
    /// Echo of the request's pagination offset.
    pub offset: u32,
    /// Offset of the next page, or `None` when this page ends the
    /// result. Encoded as `u32::MAX` on the wire.
    pub next_offset: Option<u32>,
    /// Completeness report.
    pub degradation: WireDegradation,
    /// Server-side query metrics.
    pub metrics: WireMetrics,
    /// This page's rows, in the stable result order.
    pub rows: Vec<WireRow>,
}

/// Typed error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame or payload could not be decoded.
    Protocol = 1,
    /// The request was well-formed but invalid (empty query, too many
    /// keywords, bad mode, page out of range...).
    BadRequest = 2,
    /// A keyword occurs nowhere in the indexed data.
    UnknownKeyword = 3,
    /// Admission control shed the request: too many queries in flight.
    /// Retry after `retry_after_ms`.
    Overloaded = 4,
    /// The per-client token-bucket quota is exhausted. Retry after
    /// `retry_after_ms`.
    QuotaExceeded = 5,
    /// The session's cumulative evaluation budget is spent; reconnect
    /// to start a fresh session.
    BudgetExhausted = 6,
    /// The deadline elapsed before any result was produced.
    DeadlineExceeded = 7,
    /// A storage-layer failure (corrupt page and kin).
    Store = 8,
    /// An internal server failure (worker panic and kin).
    Internal = 9,
    /// The server is shutting down.
    ShuttingDown = 10,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::UnknownKeyword,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::QuotaExceeded,
            6 => ErrorCode::BudgetExhausted,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::Store,
            9 => ErrorCode::Internal,
            10 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }

    /// Whether this code is an admission-control shed: the request was
    /// never evaluated and retrying after `retry_after_ms` is expected
    /// to succeed.
    pub fn is_shed(&self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::QuotaExceeded)
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Echo of the request id (0 when the id could not be decoded).
    pub id: u64,
    /// The error class.
    pub code: ErrorCode,
    /// For shed responses: a retry hint in milliseconds (0 = none).
    pub retry_after_ms: u32,
    /// Human-readable detail.
    pub message: String,
}

/// The server's counters, for load-harness reconciliation and
/// dashboards. All cumulative since server start except the two gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsResponse {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections rejected at the connection cap.
    pub connections_rejected: u64,
    /// Query frames read (sheds and errors included).
    pub requests: u64,
    /// Successful query responses sent.
    pub responses: u64,
    /// Requests shed by admission control (in-flight cap), a subset of
    /// `requests`. Every shed got a typed [`ErrorCode::Overloaded`].
    pub shed: u64,
    /// Requests shed by per-client quotas ([`ErrorCode::QuotaExceeded`]),
    /// disjoint from `shed`.
    pub quota_shed: u64,
    /// Malformed frames answered with [`ErrorCode::Protocol`].
    pub protocol_errors: u64,
    /// Well-formed requests that failed with a typed query error.
    pub request_errors: u64,
    /// Queries currently being evaluated (gauge).
    pub inflight: u32,
    /// High-water mark of `inflight` (gauge).
    pub inflight_peak: u32,
    /// Engine: queries completed successfully.
    pub engine_queries: u64,
    /// Engine: queries rejected with a typed error.
    pub engine_errors: u64,
    /// Engine: plan-cache hits (warm cross-session plan sharing).
    pub engine_plan_cache_hits: u64,
    /// Served responses that carried a degradation report.
    pub degraded: u64,
    /// Summed `plans_skipped` over served responses.
    pub plans_skipped: u64,
    /// Summed `plans_incomplete` over served responses.
    pub plans_incomplete: u64,
    /// Summed fault counts over served responses.
    pub query_faults: u64,
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A keyword query.
    Query(QueryRequest),
    /// One page of results.
    Results(QueryResponse),
    /// A typed error.
    Error(ErrorResponse),
    /// Counter request.
    StatsRequest,
    /// Counter dump.
    Stats(Box<StatsResponse>),
    /// Liveness probe.
    Ping(u64),
    /// Liveness echo.
    Pong(u64),
}

impl Frame {
    /// This frame's kind byte.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Query(_) => FrameKind::Query,
            Frame::Results(_) => FrameKind::Results,
            Frame::Error(_) => FrameKind::Error,
            Frame::StatsRequest => FrameKind::StatsRequest,
            Frame::Stats(_) => FrameKind::Stats,
            Frame::Ping(_) => FrameKind::Ping,
            Frame::Pong(_) => FrameKind::Pong,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The header's magic bytes were wrong.
    BadMagic([u8; 2]),
    /// The header named a protocol version this peer does not speak.
    BadVersion(u8),
    /// The header named an unknown frame kind.
    BadKind(u8),
    /// The header announced a payload longer than this peer accepts.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// This peer's maximum.
        max: u32,
    },
    /// The payload ended before a field did.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes left in the payload.
        have: usize,
    },
    /// A structurally invalid payload (bad UTF-8, trailing bytes, an
    /// out-of-range enum value...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Truncated { need, have } => {
                write!(
                    f,
                    "payload truncated: field needs {need} bytes, {have} left"
                )
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a blocking frame read failed.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The transport failed (includes read timeouts and mid-frame EOF).
    Io(io::Error),
    /// The bytes arrived but do not decode.
    Wire(WireError),
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "transport: {e}"),
            ReadFrameError::Wire(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<io::Error> for ReadFrameError {
    fn from(e: io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

impl From<WireError> for ReadFrameError {
    fn from(e: WireError) -> Self {
        ReadFrameError::Wire(e)
    }
}

// ---------------------------------------------------------------- encode

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match frame {
        Frame::Query(q) => {
            e.u64(q.id);
            e.u16(q.z);
            e.u32(q.k);
            e.u32(q.deadline_ms);
            e.u32(q.offset);
            e.u32(q.page_size);
            e.u8(q.flags);
            e.u16(q.keywords.len() as u16);
            for kw in &q.keywords {
                e.str(kw);
            }
        }
        Frame::Results(r) => {
            e.u64(r.id);
            e.u32(r.total_rows);
            e.u32(r.offset);
            e.u32(r.next_offset.unwrap_or(NO_MORE_PAGES));
            e.u8(r.degradation.deadline_exceeded as u8);
            e.u32(r.degradation.plans_skipped);
            e.u32(r.degradation.plans_incomplete);
            e.u32(r.degradation.faults);
            e.u64(r.degradation.retries);
            e.u64(r.metrics.total_ns);
            e.u64(r.metrics.exec_ns);
            e.u64(r.metrics.io_hits);
            e.u64(r.metrics.io_misses);
            e.u32(r.metrics.plans);
            e.u8(r.metrics.plan_cache_hit as u8);
            e.u32(r.rows.len() as u32);
            for row in &r.rows {
                e.u32(row.plan);
                e.u32(row.score);
                e.u16(row.assignment.len() as u16);
                for &to in &row.assignment {
                    e.u32(to);
                }
            }
        }
        Frame::Error(err) => {
            e.u64(err.id);
            e.u16(err.code as u16);
            e.u32(err.retry_after_ms);
            e.str(&err.message);
        }
        Frame::StatsRequest => {}
        Frame::Stats(s) => {
            e.u64(s.connections);
            e.u64(s.connections_rejected);
            e.u64(s.requests);
            e.u64(s.responses);
            e.u64(s.shed);
            e.u64(s.quota_shed);
            e.u64(s.protocol_errors);
            e.u64(s.request_errors);
            e.u32(s.inflight);
            e.u32(s.inflight_peak);
            e.u64(s.engine_queries);
            e.u64(s.engine_errors);
            e.u64(s.engine_plan_cache_hits);
            e.u64(s.degraded);
            e.u64(s.plans_skipped);
            e.u64(s.plans_incomplete);
            e.u64(s.query_faults);
        }
        Frame::Ping(tok) | Frame::Pong(tok) => e.u64(*tok),
    }
    e.0
}

/// Encodes a frame into a standalone byte vector (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.kind() as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes a frame to `w` (one `write_all`, so a frame is never
/// interleaved when the writer is exclusively owned).
///
/// # Errors
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { need: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean field is neither 0 nor 1")),
        }
    }
    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Decodes a payload of the given kind.
///
/// # Errors
/// A typed [`WireError`] on any structural problem; never panics.
pub fn decode_payload(kind: FrameKind, payload: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec::new(payload);
    let frame = match kind {
        FrameKind::Query => {
            let id = d.u64()?;
            let z = d.u16()?;
            let k = d.u32()?;
            let deadline_ms = d.u32()?;
            let offset = d.u32()?;
            let page_size = d.u32()?;
            let flags = d.u8()?;
            if flags & !(FLAG_NO_PRUNE | FLAG_NAIVE) != 0 {
                return Err(WireError::Malformed("unknown request flag bits"));
            }
            let n = d.u16()? as usize;
            let mut keywords = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                keywords.push(d.str()?);
            }
            Frame::Query(QueryRequest {
                id,
                z,
                k,
                deadline_ms,
                offset,
                page_size,
                flags,
                keywords,
            })
        }
        FrameKind::Results => {
            let id = d.u64()?;
            let total_rows = d.u32()?;
            let offset = d.u32()?;
            let next = d.u32()?;
            let degradation = WireDegradation {
                deadline_exceeded: d.bool()?,
                plans_skipped: d.u32()?,
                plans_incomplete: d.u32()?,
                faults: d.u32()?,
                retries: d.u64()?,
            };
            let metrics = WireMetrics {
                total_ns: d.u64()?,
                exec_ns: d.u64()?,
                io_hits: d.u64()?,
                io_misses: d.u64()?,
                plans: d.u32()?,
                plan_cache_hit: d.bool()?,
            };
            let n = d.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let plan = d.u32()?;
                let score = d.u32()?;
                let roles = d.u16()? as usize;
                let mut assignment = Vec::with_capacity(roles.min(64));
                for _ in 0..roles {
                    assignment.push(d.u32()?);
                }
                rows.push(WireRow {
                    plan,
                    score,
                    assignment,
                });
            }
            Frame::Results(QueryResponse {
                id,
                total_rows,
                offset,
                next_offset: (next != NO_MORE_PAGES).then_some(next),
                degradation,
                metrics,
                rows,
            })
        }
        FrameKind::Error => {
            let id = d.u64()?;
            let code =
                ErrorCode::from_u16(d.u16()?).ok_or(WireError::Malformed("unknown error code"))?;
            let retry_after_ms = d.u32()?;
            let message = d.str()?;
            Frame::Error(ErrorResponse {
                id,
                code,
                retry_after_ms,
                message,
            })
        }
        FrameKind::StatsRequest => Frame::StatsRequest,
        FrameKind::Stats => Frame::Stats(Box::new(StatsResponse {
            connections: d.u64()?,
            connections_rejected: d.u64()?,
            requests: d.u64()?,
            responses: d.u64()?,
            shed: d.u64()?,
            quota_shed: d.u64()?,
            protocol_errors: d.u64()?,
            request_errors: d.u64()?,
            inflight: d.u32()?,
            inflight_peak: d.u32()?,
            engine_queries: d.u64()?,
            engine_errors: d.u64()?,
            engine_plan_cache_hits: d.u64()?,
            degraded: d.u64()?,
            plans_skipped: d.u64()?,
            plans_incomplete: d.u64()?,
            query_faults: d.u64()?,
        })),
        FrameKind::Ping => Frame::Ping(d.u64()?),
        FrameKind::Pong => Frame::Pong(d.u64()?),
    };
    d.finish()?;
    Ok(frame)
}

/// Validates a header and returns `(kind, payload length)`.
///
/// # Errors
/// A typed [`WireError`] for bad magic/version/kind or an oversized
/// announced payload.
pub fn decode_header(
    header: &[u8; HEADER_LEN],
    max_frame: u32,
) -> Result<(FrameKind, u32), WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let kind = FrameKind::from_u8(header[3]).ok_or(WireError::BadKind(header[3]))?;
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > max_frame {
        return Err(WireError::Oversized {
            len,
            max: max_frame,
        });
    }
    Ok((kind, len))
}

/// Reads one frame. Returns `Ok(None)` on a clean close (EOF before the
/// first header byte); EOF mid-frame is a transport error.
///
/// # Errors
/// [`ReadFrameError::Io`] on transport failures (including read
/// timeouts), [`ReadFrameError::Wire`] on undecodable bytes.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, ReadFrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Hand-rolled read_exact that can tell "clean EOF at a frame
    // boundary" from "EOF mid-header".
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(ReadFrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                )))
            }
            n => got += n,
        }
    }
    let (kind, len) = decode_header(&header, max_frame)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(decode_payload(kind, &payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: Frame) {
        let bytes = encode_frame(&f);
        let mut cursor = &bytes[..];
        let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(back, f);
        assert!(cursor.is_empty(), "decode must consume the whole frame");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Query(QueryRequest {
            id: 7,
            z: 8,
            k: 10,
            deadline_ms: 250,
            offset: 20,
            page_size: 10,
            flags: FLAG_NO_PRUNE,
            keywords: vec!["john".into(), "vcr".into()],
        }));
        round_trip(Frame::Results(QueryResponse {
            id: 7,
            total_rows: 3,
            offset: 0,
            next_offset: Some(2),
            degradation: WireDegradation {
                deadline_exceeded: true,
                plans_skipped: 4,
                plans_incomplete: 1,
                faults: 2,
                retries: 9,
            },
            metrics: WireMetrics {
                total_ns: 123,
                exec_ns: 100,
                io_hits: 5,
                io_misses: 6,
                plans: 12,
                plan_cache_hit: true,
            },
            rows: vec![WireRow {
                plan: 1,
                score: 6,
                assignment: vec![3, 4, 5],
            }],
        }));
        round_trip(Frame::Error(ErrorResponse {
            id: 9,
            code: ErrorCode::Overloaded,
            retry_after_ms: 50,
            message: "shed".into(),
        }));
        round_trip(Frame::StatsRequest);
        round_trip(Frame::Stats(Box::new(StatsResponse {
            requests: 10,
            shed: 3,
            inflight: 2,
            ..StatsResponse::default()
        })));
        round_trip(Frame::Ping(42));
        round_trip(Frame::Pong(42));
    }

    #[test]
    fn headers_reject_bad_magic_version_kind_and_oversized() {
        let good = encode_frame(&Frame::Ping(1));
        let mut bad = good.clone();
        bad[0] = b'Z';
        let hdr: [u8; HEADER_LEN] = bad[..HEADER_LEN].try_into().unwrap();
        assert!(matches!(
            decode_header(&hdr, DEFAULT_MAX_FRAME),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[2] = 99;
        let hdr: [u8; HEADER_LEN] = bad[..HEADER_LEN].try_into().unwrap();
        assert_eq!(
            decode_header(&hdr, DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion(99))
        );

        let mut bad = good.clone();
        bad[3] = 0;
        let hdr: [u8; HEADER_LEN] = bad[..HEADER_LEN].try_into().unwrap();
        assert_eq!(
            decode_header(&hdr, DEFAULT_MAX_FRAME),
            Err(WireError::BadKind(0))
        );

        let mut bad = good;
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let hdr: [u8; HEADER_LEN] = bad[..HEADER_LEN].try_into().unwrap();
        assert!(matches!(
            decode_header(&hdr, 1024),
            Err(WireError::Oversized { max: 1024, .. })
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let bytes = encode_frame(&Frame::Query(QueryRequest {
            keywords: vec!["k".into()],
            ..QueryRequest::default()
        }));
        let payload = &bytes[HEADER_LEN..];
        // Every strict prefix of the payload is Truncated, never a panic.
        for cut in 0..payload.len() {
            let err = decode_payload(FrameKind::Query, &payload[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {cut} bytes: {err:?}"
            );
        }
        // Extra bytes after a valid payload are rejected too.
        let mut long = payload.to_vec();
        long.push(0);
        assert_eq!(
            decode_payload(FrameKind::Query, &long),
            Err(WireError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn mid_frame_eof_is_a_transport_error_and_empty_input_a_clean_close() {
        let bytes = encode_frame(&Frame::Ping(5));
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty, DEFAULT_MAX_FRAME).unwrap().is_none());
        for cut in 1..bytes.len() {
            let mut short = &bytes[..cut];
            assert!(
                matches!(
                    read_frame(&mut short, DEFAULT_MAX_FRAME),
                    Err(ReadFrameError::Io(_))
                ),
                "cut at {cut}"
            );
        }
    }
}
