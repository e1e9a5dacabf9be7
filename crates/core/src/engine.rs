//! The query engine: the shared query-stage core of Fig. 7.
//!
//! [`QueryEngine`] owns the query-processing stage — keyword discoverer →
//! CN generator → CTSSN reduction → optimizer → execution → presentation
//! — behind `Arc`s of the load-stage products (master index, TSS graph,
//! store, connection-relation catalog), so one engine is safely shared
//! across threads serving concurrent queries. On top of the bare pipeline
//! it adds three cross-cutting concerns:
//!
//! * **Plan caching.** CN generation, CTSSN reduction and tiling
//!   enumeration depend only on the *schema-level partition* of the
//!   keywords — which schema nodes can contain which exact keyword
//!   subsets — plus the keyword count and `z`, never on the keyword
//!   strings. [`QueryEngine::prepare`] canonicalizes that partition into
//!   a signature and consults an LRU cache of
//!   [`PlanSkeleton`](crate::optimizer::PlanSkeleton) lists; a hit skips
//!   straight to the cheap per-query
//!   [`instantiate`](crate::optimizer::instantiate) step. Queries with
//!   fresh keywords of a familiar *shape* (e.g. any two author surnames)
//!   plan in microseconds. A skeleton is a function of the TSS, the
//!   decomposition and that key alone — it reads no relation contents,
//!   statistics or postings, which are bound at instantiation against the
//!   query's own [`ReadView`]. Both inputs are fixed for the engine's
//!   lifetime (every view shares one `Arc<Decomposition>`, asserted on
//!   install), so the cache stays warm across sessions *and* across the
//!   view swaps of inserts and deletes.
//! * **Typed errors.** All `query_*`/`prepare` paths return
//!   `Result<_, `[`XkError`]`>`: empty or oversized queries, unknown
//!   keywords, contradictory execution modes and plan/catalog mismatches
//!   come back as values, never panics — a bad query cannot take down a
//!   shared engine.
//! * **Per-stage observability.** Every query reports a
//!   [`QueryMetrics`]: wall time per stage (discover / plan / exec /
//!   present), plan-cache and partial-result-cache traffic, and the
//!   buffer-pool I/O attributable to *this* query (thread-local pool
//!   counters, so the numbers stay correct under concurrency).
//!   [`QueryEngine::stats`] aggregates them into a cumulative
//!   [`EngineStats`].

use crate::cn::CnGenerator;
use crate::ctssn::Ctssn;
use crate::decompose::Decomposition;
use crate::error::{validate_keywords, XkError};
use crate::exec::{self, ExecMode, QueryResults};
use crate::master_index::MasterIndex;
use crate::optimizer::{build_skeleton, instantiate_with, CtssnPlan, PlanSkeleton};
use crate::postings::PostingsFormatKind;
use crate::relations::RelationCatalog;
use crate::semantics::Mtton;
use crate::target::TargetGraph;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkw_graph::TssGraph;
use xkw_obs::{
    DegradationSummary, ExplainCapture, FlightRecorder, OpProfile, PlanProfile, QueryRecord,
    RecordedMode,
};
use xkw_store::{Db, LruCache, StoreError};

/// Default capacity of the plan cache, in distinct query shapes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// The canonical plan-cache key: the sorted schema-level keyword
/// partition (schema node → sorted achievable keyword bitsets), the
/// keyword count and the CN size bound `z`. Everything the planning
/// pipeline consumes up to (and including) tiling enumeration is a
/// function of exactly these.
type PlanKey = (Vec<(u16, Vec<u16>)>, usize, usize);

/// Per-query, per-stage metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMetrics {
    /// Keyword discovery (containing-list lookups + exact-set partition).
    pub discover: Duration,
    /// Planning: CN generation through optimizer tiling, or plan-cache
    /// lookup + instantiation on a hit.
    pub plan: Duration,
    /// Execution.
    pub exec: Duration,
    /// Presentation (MTTON dedup/sort).
    pub present: Duration,
    /// Whether planning hit the skeleton cache.
    pub plan_cache_hit: bool,
    /// Executable plans after instantiation.
    pub plans: usize,
    /// Partial-result cache hits during execution.
    pub partial_cache_hits: u64,
    /// Partial-result cache misses during execution.
    pub partial_cache_misses: u64,
    /// Buffer-pool hits attributable to this query.
    pub io_hits: u64,
    /// Buffer-pool misses attributable to this query.
    pub io_misses: u64,
    /// Plans skipped outright by the top-k threshold (never claimed for
    /// evaluation). Zero on non-top-k and prune-disabled paths.
    pub plans_pruned: usize,
    /// Plans aborted mid-evaluation by the top-k threshold.
    pub plans_early_stopped: usize,
    /// Epoch of the [`ReadView`] the query read (0 = the bulk load).
    pub epoch: u64,
}

/// Cumulative engine statistics across all queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Queries that completed successfully.
    pub queries: u64,
    /// Queries rejected with an [`XkError`].
    pub errors: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Partial-result cache hits across all queries.
    pub partial_cache_hits: u64,
    /// Partial-result cache misses across all queries.
    pub partial_cache_misses: u64,
    /// Buffer-pool hits attributed to queries.
    pub io_hits: u64,
    /// Buffer-pool misses attributed to queries.
    pub io_misses: u64,
    /// Plans skipped by the top-k threshold across all queries.
    pub plans_pruned: u64,
    /// Plans aborted mid-evaluation by the top-k threshold.
    pub plans_early_stopped: u64,
    /// Total time in keyword discovery.
    pub discover: Duration,
    /// Total time in planning.
    pub plan: Duration,
    /// Total time in execution.
    pub exec: Duration,
    /// Total time in presentation.
    pub present: Duration,
}

impl EngineStats {
    fn absorb(&mut self, m: &QueryMetrics) {
        self.queries += 1;
        if m.plan_cache_hit {
            self.plan_cache_hits += 1;
        } else {
            self.plan_cache_misses += 1;
        }
        self.partial_cache_hits += m.partial_cache_hits;
        self.partial_cache_misses += m.partial_cache_misses;
        self.io_hits += m.io_hits;
        self.io_misses += m.io_misses;
        self.plans_pruned += m.plans_pruned as u64;
        self.plans_early_stopped += m.plans_early_stopped as u64;
        self.discover += m.discover;
        self.plan += m.plan;
        self.exec += m.exec;
        self.present += m.present;
    }
}

/// A prepared query: instantiated plans plus discovery/planning metrics.
#[derive(Debug)]
pub struct Prepared {
    /// Executable plans in CN-generation (score) order.
    pub plans: Vec<CtssnPlan>,
    /// Whether the skeleton list came out of the plan cache.
    pub plan_cache_hit: bool,
    /// Time in keyword discovery.
    pub discover: Duration,
    /// Time in planning (cache lookup/CN generation + instantiation).
    pub plan: Duration,
}

/// A completed query: results, deduplicated MTTONs, per-stage metrics.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Raw result rows and execution statistics.
    pub results: QueryResults,
    /// Deduplicated MTTONs sorted by (score, target objects).
    pub mttons: Vec<Mtton>,
    /// Per-stage metrics for this query.
    pub metrics: QueryMetrics,
}

/// One consistent snapshot of the queryable load-stage products. Every
/// query resolves the view exactly once on entry and runs discovery,
/// planning and execution against that snapshot, so an ingest installing
/// a new view mid-query can never mix epochs within one answer.
#[derive(Clone)]
pub struct ReadView {
    /// The target-object decomposition of this epoch.
    pub targets: Arc<TargetGraph>,
    /// The master index of this epoch.
    pub master: Arc<MasterIndex>,
    /// The connection-relation catalog of this epoch.
    pub catalog: Arc<RelationCatalog>,
    /// Monotone installation counter; the bulk-loaded view is epoch 0.
    pub epoch: u64,
}

/// The shared query-stage core. See the module docs.
pub struct QueryEngine {
    tss: Arc<TssGraph>,
    /// The decomposition every view's catalog materializes. With `tss`
    /// it is the whole epoch-independent input of the plan cache.
    decomposition: Arc<Decomposition>,
    db: Arc<Db>,
    /// The current read view. Writers swap the whole `Arc` under a short
    /// write lock; readers clone it once per query and never block each
    /// other.
    view: RwLock<Arc<ReadView>>,
    plan_cache: Mutex<LruCache<PlanKey, Arc<Vec<PlanSkeleton>>>>,
    stats: Mutex<EngineStats>,
    /// Worker threads for full-evaluation queries (`query_all` /
    /// `query_all_hash`); `query_topk` takes its thread count per call.
    exec_threads: AtomicUsize,
    /// The always-on flight recorder (see `xkw_obs::recorder`).
    recorder: Arc<FlightRecorder>,
}

/// Per-entry-point context [`QueryEngine::run`] needs to build a flight
/// record: which path ran, its k, deadline, and prune setting.
#[derive(Debug, Clone, Copy)]
struct RunInfo {
    path: &'static str,
    k: Option<usize>,
    deadline: Option<Duration>,
    prune: bool,
}

impl QueryEngine {
    /// Builds an engine over the load stage's products, with the default
    /// plan-cache capacity.
    pub fn new(
        tss: Arc<TssGraph>,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        db: Arc<Db>,
        catalog: Arc<RelationCatalog>,
    ) -> Self {
        Self::with_plan_cache_capacity(
            tss,
            targets,
            master,
            db,
            catalog,
            DEFAULT_PLAN_CACHE_CAPACITY,
        )
    }

    /// Builds an engine with an explicit plan-cache capacity (0 disables
    /// plan caching — every query plans cold).
    pub fn with_plan_cache_capacity(
        tss: Arc<TssGraph>,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        db: Arc<Db>,
        catalog: Arc<RelationCatalog>,
        capacity: usize,
    ) -> Self {
        QueryEngine {
            tss,
            decomposition: Arc::clone(&catalog.decomposition),
            db,
            view: RwLock::new(Arc::new(ReadView {
                targets,
                master,
                catalog,
                epoch: 0,
            })),
            plan_cache: Mutex::new(LruCache::new(capacity)),
            stats: Mutex::new(EngineStats::default()),
            exec_threads: AtomicUsize::new(1),
            recorder: Arc::new(FlightRecorder::default()),
        }
    }

    /// The engine's flight recorder: per-query records, the slow-query
    /// log, and the windowed serving metrics. Always on by default.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Sets the worker-thread count used by `query_all`/`query_all_hash`
    /// (clamped to at least 1). Results are identical for every setting;
    /// only wall time changes.
    pub fn set_exec_threads(&self, threads: usize) {
        self.exec_threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The current full-evaluation worker-thread count.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads.load(Ordering::Relaxed)
    }

    /// The TSS graph.
    pub fn tss(&self) -> &Arc<TssGraph> {
        &self.tss
    }

    /// The current read view: one `Arc` clone, no allocation. Hold the
    /// returned snapshot for the duration of one logical operation — a
    /// concurrent ingest swaps the engine's view but can never mutate a
    /// snapshot already handed out.
    pub fn view(&self) -> Arc<ReadView> {
        self.view.read().clone()
    }

    /// The epoch of the currently installed view (0 = the bulk load).
    pub fn epoch(&self) -> u64 {
        self.view.read().epoch
    }

    /// Atomically installs a new read view built by the write path and
    /// returns its epoch. In-flight queries keep their old snapshot;
    /// queries entering after this see only the new one. The plan cache
    /// is kept: skeletons depend on the TSS, the decomposition and the
    /// plan key only, and every query instantiates them against its own
    /// view. A key computed from the new view's keyword partition still
    /// misses when an insert or delete changes that partition.
    ///
    /// # Panics
    /// When `catalog` materializes a different decomposition than the
    /// engine's (not the same `Arc`): cached skeletons would index its
    /// fragments wrongly.
    pub fn install_view(
        &self,
        targets: Arc<TargetGraph>,
        master: Arc<MasterIndex>,
        catalog: Arc<RelationCatalog>,
    ) -> u64 {
        assert!(
            Arc::ptr_eq(&catalog.decomposition, &self.decomposition),
            "install_view: the new catalog materializes a different decomposition \
             than this engine's; derive it from the current catalog"
        );
        let mut guard = self.view.write();
        let epoch = guard.epoch + 1;
        *guard = Arc::new(ReadView {
            targets,
            master,
            catalog,
            epoch,
        });
        drop(guard);
        epoch
    }

    /// The target-object decomposition of the current view.
    pub fn targets(&self) -> Arc<TargetGraph> {
        self.view.read().targets.clone()
    }

    /// The master index of the current view.
    pub fn master(&self) -> Arc<MasterIndex> {
        self.view.read().master.clone()
    }

    /// The embedded store.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The connection-relation catalog of the current view.
    pub fn catalog(&self) -> Arc<RelationCatalog> {
        self.view.read().catalog.clone()
    }

    /// Cumulative statistics across all queries on this engine.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock()
    }

    /// Distinct query shapes currently in the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    /// The first stages of query processing: keyword discoverer → plan
    /// cache (CN generator → CTSSN reduction → tiling enumeration on a
    /// miss) → per-query instantiation.
    ///
    /// # Errors
    /// [`XkError::EmptyQuery`], [`XkError::TooManyKeywords`] for
    /// malformed queries; [`XkError::UnknownKeyword`] when a keyword
    /// occurs nowhere in the data (so no result can exist).
    pub fn prepare(&self, keywords: &[&str], z: usize) -> Result<Prepared, XkError> {
        let view = self.view();
        self.prepare_with(&view, keywords, z)
    }

    /// [`QueryEngine::prepare`] against an explicit snapshot — the form
    /// every `query_*` entry point uses so discovery, planning and
    /// execution all read the same epoch.
    pub fn prepare_with(
        &self,
        view: &ReadView,
        keywords: &[&str],
        z: usize,
    ) -> Result<Prepared, XkError> {
        validate_keywords(keywords).inspect_err(|_| self.count_error())?;

        // Discover: containing lists + the schema-level partition.
        let t = Instant::now();
        let discover_span = xkw_obs::span!("query.discover", keywords = keywords.len());
        for kw in keywords {
            if view.master.containing_list(kw).is_empty() {
                self.count_error();
                return Err(XkError::UnknownKeyword((*kw).to_owned()));
            }
        }
        let achievable = view.master.achievable_sets(keywords);
        drop(discover_span);
        let discover = t.elapsed();

        // Plan: skeletons from the cache, or built cold and cached. A
        // skeleton depends on the TSS, the decomposition and the key only
        // — never on this view's relations — so one cached under an
        // earlier epoch is valid here; instantiation binds it to `view`.
        let t = Instant::now();
        let mut plan_span = xkw_obs::span!("query.plan", z = z);
        let key = plan_key(&achievable, keywords.len(), z);
        let cached = self.plan_cache.lock().get(&key).cloned();
        let (skeletons, plan_cache_hit) = match cached {
            Some(s) => (s, true),
            None => {
                let gen = CnGenerator::new(self.tss.schema(), &achievable, keywords.len());
                let skeletons: Arc<Vec<PlanSkeleton>> = Arc::new(
                    gen.generate(z)
                        .iter()
                        .filter_map(|cn| Ctssn::from_cn(cn, &self.tss).ok())
                        .filter_map(|c| build_skeleton(&c, &self.decomposition.fragments))
                        .collect(),
                );
                self.plan_cache.lock().put(key, skeletons.clone());
                (skeletons, false)
            }
        };
        // One seek index serves every skeleton: requirement resolution is
        // memoized across plans, and over packed postings the zig-zag
        // joins skip non-intersecting blocks without decoding them.
        let index = view.master.seek_candidates(keywords);
        let plans: Vec<CtssnPlan> = skeletons
            .iter()
            .filter_map(|s| instantiate_with(s, &view.catalog, &index, None))
            .collect();
        plan_span.record("cache_hit", plan_cache_hit);
        plan_span.record("plans", plans.len());
        drop(plan_span);
        let plan = t.elapsed();

        Ok(Prepared {
            plans,
            plan_cache_hit,
            discover,
            plan,
        })
    }

    /// Evaluates every candidate network to completion with nested-loop
    /// probes (naive or cached).
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors plus [`XkError::BadMode`].
    pub fn query_all(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
    ) -> Result<QueryOutcome, XkError> {
        self.query_all_within(keywords, z, mode, None)
    }

    /// [`QueryEngine::query_all`] with an optional evaluation deadline.
    /// On deadline or unrecoverable store faults the query degrades
    /// gracefully: rows found in time come back with a populated
    /// [`exec::Degradation`] report instead of being thrown away.
    ///
    /// # Errors
    /// The [`QueryEngine::query_all`] errors plus
    /// [`XkError::DeadlineExceeded`] / [`XkError::Store`] when the query
    /// degraded before producing any result.
    pub fn query_all_within(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, XkError> {
        let info = RunInfo {
            path: "all",
            k: None,
            deadline,
            prune: false,
        };
        self.run(keywords, z, mode, info, |view, prepared| {
            exec::try_all_plans_mt_within(
                &self.db,
                &view.catalog,
                &prepared.plans,
                mode,
                self.exec_threads(),
                deadline,
            )
        })
    }

    /// Top-k query (the web-search-engine presentation of §6): the first
    /// `k` results across candidate networks, smallest CNs first,
    /// evaluated by `threads` worker threads.
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors plus [`XkError::BadMode`].
    pub fn query_topk(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
        threads: usize,
    ) -> Result<QueryOutcome, XkError> {
        self.query_topk_within(keywords, z, k, mode, threads, None)
    }

    /// [`QueryEngine::query_topk`] with an optional evaluation deadline
    /// (see [`QueryEngine::query_all_within`] for the degradation
    /// contract) — the paper's interactive presentation made robust: a
    /// slow store returns the best partial top-k found in time.
    ///
    /// # Errors
    /// The [`QueryEngine::query_topk`] errors plus
    /// [`XkError::DeadlineExceeded`] / [`XkError::Store`] when the query
    /// degraded before producing any result.
    #[allow(clippy::too_many_arguments)]
    pub fn query_topk_within(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
        threads: usize,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, XkError> {
        self.query_topk_opts(keywords, z, k, mode, threads, deadline, true)
    }

    /// [`QueryEngine::query_topk_within`] with explicit control over
    /// threshold pruning. `prune: false` is the A/B escape hatch (the
    /// CLI's `--no-prune`): every claimed plan runs to its per-plan row
    /// limit as before this optimization. Returned rows are
    /// byte-identical either way — pruning only changes how much work is
    /// *not* done.
    ///
    /// # Errors
    /// The [`QueryEngine::query_topk_within`] errors.
    #[allow(clippy::too_many_arguments)]
    pub fn query_topk_opts(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
        threads: usize,
        deadline: Option<Duration>,
        prune: bool,
    ) -> Result<QueryOutcome, XkError> {
        let info = RunInfo {
            path: "topk",
            k: Some(k),
            deadline,
            prune,
        };
        self.run(keywords, z, mode, info, |view, prepared| {
            exec::try_topk_within_opts(
                &self.db,
                &view.catalog,
                &prepared.plans,
                mode,
                k,
                threads,
                deadline,
                prune,
            )
        })
    }

    /// Evaluates every candidate network via full scans + hash joins
    /// (the "all results" regime of §7).
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors.
    pub fn query_all_hash(&self, keywords: &[&str], z: usize) -> Result<QueryOutcome, XkError> {
        self.query_all_hash_within(keywords, z, None)
    }

    /// [`QueryEngine::query_all_hash`] with an optional evaluation
    /// deadline (see [`QueryEngine::query_all_within`] for the
    /// degradation contract).
    ///
    /// # Errors
    /// The [`QueryEngine::query_all_hash`] errors plus
    /// [`XkError::DeadlineExceeded`] / [`XkError::Store`] when the query
    /// degraded before producing any result.
    pub fn query_all_hash_within(
        &self,
        keywords: &[&str],
        z: usize,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, XkError> {
        let info = RunInfo {
            path: "hash",
            k: None,
            deadline,
            prune: false,
        };
        self.run(keywords, z, ExecMode::Naive, info, |view, prepared| {
            exec::try_all_results_mt_within(
                &self.db,
                &view.catalog,
                &prepared.plans,
                self.exec_threads(),
                deadline,
            )
        })
    }

    /// Shared prepare → execute → present skeleton of the `query_*`
    /// methods. Every completion — success, degraded, a rejection before
    /// execution, or an execute-stage error — appends one flight record.
    fn run(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
        info: RunInfo,
        execute: impl FnOnce(&ReadView, &Prepared) -> Result<QueryResults, XkError>,
    ) -> Result<QueryOutcome, XkError> {
        let start = Instant::now();
        let query_span = xkw_obs::span!("query", keywords = keywords.len(), z = z);
        // One snapshot per query: discovery, planning and execution all
        // read this view even if an ingest installs a newer one mid-way.
        let view = self.view();
        let prepared = match exec::validate_mode(mode)
            .inspect_err(|_| self.count_error())
            .and_then(|()| self.prepare_with(&view, keywords, z))
        {
            Ok(p) => p,
            Err(e) => {
                drop(query_span);
                self.record_failure(keywords, z, mode, info, None, Duration::ZERO, start, &e);
                return Err(e);
            }
        };

        let t = Instant::now();
        let exec_span = xkw_obs::span!("query.exec", plans = prepared.plans.len());
        // Worker-panic errors get the keyword set attached here: the
        // executor sees plans, only the engine knows the query.
        let results = match execute(&view, &prepared) {
            Ok(r) => r,
            Err(e) => {
                let e = e.with_keywords(keywords);
                self.count_error();
                drop(exec_span);
                let exec_time = t.elapsed();
                // Close the query span before recording so a drained
                // span tree includes it.
                drop(query_span);
                self.record_failure(
                    keywords,
                    z,
                    mode,
                    info,
                    Some(&prepared),
                    exec_time,
                    start,
                    &e,
                );
                return Err(e);
            }
        };
        drop(exec_span);
        let exec_time = t.elapsed();

        let t = Instant::now();
        let present_span = xkw_obs::span!("query.present", rows = results.rows.len());
        let mttons = results.mttons();
        drop(present_span);
        let present = t.elapsed();

        let metrics = QueryMetrics {
            discover: prepared.discover,
            plan: prepared.plan,
            exec: exec_time,
            present,
            plan_cache_hit: prepared.plan_cache_hit,
            plans: prepared.plans.len(),
            partial_cache_hits: results.stats.cache_hits,
            partial_cache_misses: results.stats.cache_misses,
            io_hits: results.stats.io_hits,
            io_misses: results.stats.io_misses,
            plans_pruned: results.prune.plans_pruned,
            plans_early_stopped: results.prune.plans_early_stopped,
            epoch: view.epoch,
        };
        self.stats.lock().absorb(&metrics);
        publish_query_metrics(&metrics, &results);
        drop(query_span);
        self.record_query(
            keywords,
            z,
            mode,
            info,
            &metrics,
            &results,
            start.elapsed(),
            None,
        );
        Ok(QueryOutcome {
            results,
            mttons,
            metrics,
        })
    }

    /// Builds and appends one flight record. Called after the query span
    /// closed, so a sampled record can drain the complete span tree.
    /// Skipped entirely (one atomic load) while the recorder is off.
    #[allow(clippy::too_many_arguments)]
    fn record_query(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
        info: RunInfo,
        metrics: &QueryMetrics,
        results: &QueryResults,
        total: Duration,
        explain: Option<ExplainCapture>,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let id = self.recorder.next_id();
        let total_ns = total.as_nanos() as u64;
        let degradation = summarize_degradation(&results.degradation);
        let slow = total_ns >= self.recorder.slow_threshold_ns();
        let degraded = degradation
            .as_ref()
            .is_some_and(|d| d.is_degraded() || d.corrupt);
        let forced = slow || degraded;
        let sampled = forced || self.recorder.should_sample(id);
        // Only sampled records keep spans — this replaces a
        // grow-forever `take_spans` on the serving path with bounded,
        // 1-in-N retention.
        let spans = if sampled && xkw_obs::enabled() {
            xkw_obs::trace::take_spans()
        } else {
            Vec::new()
        };
        // Explain-path records carry their capture immediately; forced
        // serving-path records are flagged for a *deferred* capture,
        // attached at slow-log read/export time, never while serving.
        let needs_explain = forced && explain.is_none();
        self.recorder.push(QueryRecord {
            id,
            keywords: keywords.iter().map(|s| (*s).to_owned()).collect(),
            z,
            k: info.k,
            path: info.path,
            mode: recorded_mode(mode),
            postings: postings_label(self.master().format()),
            deadline_ns: info.deadline.map(|d| d.as_nanos() as u64),
            prune: info.prune,
            plan_cache_hit: metrics.plan_cache_hit,
            discover_ns: metrics.discover.as_nanos() as u64,
            plan_ns: metrics.plan.as_nanos() as u64,
            exec_ns: metrics.exec.as_nanos() as u64,
            present_ns: metrics.present.as_nanos() as u64,
            total_ns,
            plans: metrics.plans,
            plans_pruned: metrics.plans_pruned,
            plans_early_stopped: metrics.plans_early_stopped,
            rows: results.rows.len(),
            result_digest: digest_rows(&results.rows),
            io_hits: metrics.io_hits,
            io_misses: metrics.io_misses,
            degradation,
            error: None,
            slow,
            forced,
            sampled,
            spans,
            explain,
            explain_error: None,
            needs_explain,
        });
    }

    /// Records a failed query: rejected before execution (`prepared` is
    /// `None`: bad mode, empty or oversized query, unknown keyword) or
    /// failed in its execute stage. Errors are always force-captured but
    /// never request a deferred EXPLAIN — re-running a failing query
    /// would just fail again.
    #[allow(clippy::too_many_arguments)]
    fn record_failure(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
        info: RunInfo,
        prepared: Option<&Prepared>,
        exec_time: Duration,
        start: Instant,
        error: &XkError,
    ) {
        if !self.recorder.enabled() {
            return;
        }
        let id = self.recorder.next_id();
        let total_ns = start.elapsed().as_nanos() as u64;
        let slow = total_ns >= self.recorder.slow_threshold_ns();
        let spans = if xkw_obs::enabled() {
            xkw_obs::trace::take_spans()
        } else {
            Vec::new()
        };
        self.recorder.push(QueryRecord {
            id,
            keywords: keywords.iter().map(|s| (*s).to_owned()).collect(),
            z,
            k: info.k,
            path: info.path,
            mode: recorded_mode(mode),
            postings: postings_label(self.master().format()),
            deadline_ns: info.deadline.map(|d| d.as_nanos() as u64),
            prune: info.prune,
            plan_cache_hit: prepared.is_some_and(|p| p.plan_cache_hit),
            discover_ns: prepared.map_or(0, |p| p.discover.as_nanos() as u64),
            plan_ns: prepared.map_or(0, |p| p.plan.as_nanos() as u64),
            exec_ns: exec_time.as_nanos() as u64,
            present_ns: 0,
            total_ns,
            plans: prepared.map_or(0, |p| p.plans.len()),
            plans_pruned: 0,
            plans_early_stopped: 0,
            rows: 0,
            result_digest: digest_rows(&[]),
            io_hits: 0,
            io_misses: 0,
            degradation: None,
            error: Some(error.to_string()),
            slow,
            forced: true,
            sampled: true,
            spans,
            explain: None,
            explain_error: None,
            needs_explain: false,
        });
    }

    /// Runs every deferred EXPLAIN capture the recorder has queued
    /// (records force-captured as slow, degraded, or corrupt). Each
    /// capture re-runs the recorded query single-threaded with probes
    /// attached — honoring the original deadline, so a query that
    /// degraded under a deadline cannot stall its capture either — and
    /// attaches an [`ExplainCapture`] whose per-operator I/O decomposes
    /// the capture run's own totals exactly. This runs on the *read*
    /// path (slow-log render, JSONL export), never while serving, and
    /// bypasses engine stats, published metrics and recording, so a
    /// capture is invisible to every counter. Returns the number of
    /// captures attached.
    pub fn capture_pending_explains(&self) -> usize {
        let mut captured = 0;
        for p in self.recorder.pending_explains() {
            let keywords: Vec<&str> = p.keywords.iter().map(String::as_str).collect();
            let deadline = p.deadline_ns.map(Duration::from_nanos);
            match self.capture_explain(&keywords, p.z, p.k, exec_mode_of(p.mode), deadline) {
                Ok(capture) => {
                    if self.recorder.attach_explain(p.id, capture) {
                        captured += 1;
                    }
                }
                Err(e) => {
                    self.recorder.explain_failed(p.id, e.to_string());
                }
            }
        }
        captured
    }

    /// One deferred capture: prepare + profiled evaluation, with no
    /// stats absorption, metric publication, or record push.
    fn capture_explain(
        &self,
        keywords: &[&str],
        z: usize,
        k: Option<usize>,
        mode: ExecMode,
        deadline: Option<Duration>,
    ) -> Result<ExplainCapture, XkError> {
        exec::validate_mode(mode)?;
        let view = self.view();
        let prepared = self.prepare_with(&view, keywords, z)?;
        exec::validate_plans(&view.catalog, &prepared.plans)?;
        let (results, raw) = match k {
            Some(k) => exec::profile_plans_topk(
                &self.db,
                &view.catalog,
                &prepared.plans,
                mode,
                k,
                deadline,
            ),
            None => {
                exec::profile_plans_within(&self.db, &view.catalog, &prepared.plans, mode, deadline)
            }
        };
        Ok(ExplainCapture {
            io_hits: results.stats.io_hits,
            io_misses: results.stats.io_misses,
            profiles: raw
                .iter()
                .map(|p| self.plan_profile(&view.catalog, &prepared.plans[p.plan], p))
                .collect(),
        })
    }

    /// The rendered slow-query log: the last `n` force-captured queries
    /// as an aligned table, deferred EXPLAIN captures attached first.
    pub fn slow_log(&self, n: usize) -> String {
        self.capture_pending_explains();
        self.recorder.render_slow_table(n)
    }

    /// JSON-lines export of every retained flight record, deferred
    /// EXPLAIN captures attached first. One JSON object per line.
    pub fn export_query_log(&self) -> String {
        self.capture_pending_explains();
        self.recorder.export_jsonl()
    }

    /// EXPLAIN ANALYZE: prepares the query as usual, then evaluates every
    /// plan single-threaded with per-probe measurement attached, and
    /// returns the outcome plus one operator-tree [`PlanProfile`] per
    /// plan. Summing attributed I/O over the profile trees reproduces the
    /// outcome's [`QueryMetrics`] I/O totals exactly — the profiles are a
    /// decomposition of the query's accounting, not an estimate.
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors plus [`XkError::BadMode`].
    pub fn explain(
        &self,
        keywords: &[&str],
        z: usize,
        mode: ExecMode,
    ) -> Result<ExplainReport, XkError> {
        let start = Instant::now();
        let query_span = xkw_obs::span!("query", keywords = keywords.len(), z = z, explain = true);
        exec::validate_mode(mode).inspect_err(|_| self.count_error())?;
        let view = self.view();
        let prepared = self.prepare_with(&view, keywords, z)?;
        exec::validate_plans(&view.catalog, &prepared.plans).inspect_err(|_| self.count_error())?;

        let t = Instant::now();
        let exec_span = xkw_obs::span!("query.exec", plans = prepared.plans.len(), explain = true);
        let (results, raw) = exec::profile_plans(&self.db, &view.catalog, &prepared.plans, mode);
        drop(exec_span);
        let exec_time = t.elapsed();

        let t = Instant::now();
        let present_span = xkw_obs::span!("query.present", rows = results.rows.len());
        let mttons = results.mttons();
        drop(present_span);
        let present = t.elapsed();

        let metrics = QueryMetrics {
            discover: prepared.discover,
            plan: prepared.plan,
            exec: exec_time,
            present,
            plan_cache_hit: prepared.plan_cache_hit,
            plans: prepared.plans.len(),
            partial_cache_hits: results.stats.cache_hits,
            partial_cache_misses: results.stats.cache_misses,
            io_hits: results.stats.io_hits,
            io_misses: results.stats.io_misses,
            plans_pruned: results.prune.plans_pruned,
            plans_early_stopped: results.prune.plans_early_stopped,
            epoch: view.epoch,
        };
        self.stats.lock().absorb(&metrics);
        publish_query_metrics(&metrics, &results);
        let profiles: Vec<PlanProfile> = raw
            .iter()
            .map(|p| self.plan_profile(&view.catalog, &prepared.plans[p.plan], p))
            .collect();
        drop(query_span);
        let info = RunInfo {
            path: "explain",
            k: None,
            deadline: None,
            prune: false,
        };
        self.record_query(
            keywords,
            z,
            mode,
            info,
            &metrics,
            &results,
            start.elapsed(),
            Some(ExplainCapture {
                io_hits: metrics.io_hits,
                io_misses: metrics.io_misses,
                profiles: profiles.clone(),
            }),
        );
        Ok(ExplainReport {
            outcome: QueryOutcome {
                results,
                mttons,
                metrics,
            },
            profiles,
        })
    }

    /// EXPLAIN ANALYZE for the top-k path: like [`QueryEngine::explain`]
    /// but executed through the pruned bounded-evaluation pipeline.
    /// Pruned plans appear in the profile list as `pruned` entries
    /// carrying their score bound and zero attributed I/O, so summing
    /// I/O over every profile still reproduces the query totals exactly.
    ///
    /// # Errors
    /// The [`QueryEngine::prepare`] errors plus [`XkError::BadMode`].
    pub fn explain_topk(
        &self,
        keywords: &[&str],
        z: usize,
        k: usize,
        mode: ExecMode,
    ) -> Result<ExplainReport, XkError> {
        let start = Instant::now();
        let query_span = xkw_obs::span!("query", keywords = keywords.len(), z = z, explain = true);
        exec::validate_mode(mode).inspect_err(|_| self.count_error())?;
        let view = self.view();
        let prepared = self.prepare_with(&view, keywords, z)?;
        exec::validate_plans(&view.catalog, &prepared.plans).inspect_err(|_| self.count_error())?;

        let t = Instant::now();
        let exec_span = xkw_obs::span!("query.exec", plans = prepared.plans.len(), explain = true);
        let (results, raw) =
            exec::profile_plans_topk(&self.db, &view.catalog, &prepared.plans, mode, k, None);
        drop(exec_span);
        let exec_time = t.elapsed();

        let t = Instant::now();
        let present_span = xkw_obs::span!("query.present", rows = results.rows.len());
        let mttons = results.mttons();
        drop(present_span);
        let present = t.elapsed();

        let metrics = QueryMetrics {
            discover: prepared.discover,
            plan: prepared.plan,
            exec: exec_time,
            present,
            plan_cache_hit: prepared.plan_cache_hit,
            plans: prepared.plans.len(),
            partial_cache_hits: results.stats.cache_hits,
            partial_cache_misses: results.stats.cache_misses,
            io_hits: results.stats.io_hits,
            io_misses: results.stats.io_misses,
            plans_pruned: results.prune.plans_pruned,
            plans_early_stopped: results.prune.plans_early_stopped,
            epoch: view.epoch,
        };
        self.stats.lock().absorb(&metrics);
        publish_query_metrics(&metrics, &results);
        let profiles: Vec<PlanProfile> = raw
            .iter()
            .map(|p| self.plan_profile(&view.catalog, &prepared.plans[p.plan], p))
            .collect();
        drop(query_span);
        let info = RunInfo {
            path: "explain",
            k: Some(k),
            deadline: None,
            prune: true,
        };
        self.record_query(
            keywords,
            z,
            mode,
            info,
            &metrics,
            &results,
            start.elapsed(),
            Some(ExplainCapture {
                io_hits: metrics.io_hits,
                io_misses: metrics.io_misses,
                profiles: profiles.clone(),
            }),
        );
        Ok(ExplainReport {
            outcome: QueryOutcome {
                results,
                mttons,
                metrics,
            },
            profiles,
        })
    }

    /// Dresses one plan's raw measurements in catalog/TSS names.
    fn plan_profile(
        &self,
        catalog: &RelationCatalog,
        plan: &CtssnPlan,
        raw: &exec::PlanExecProfile,
    ) -> PlanProfile {
        let role_name = |r: u8| {
            self.tss
                .node(plan.ctssn.tree.roles[r as usize])
                .name
                .clone()
        };
        let children: Vec<OpProfile> = plan
            .tiles
            .iter()
            .zip(&raw.steps)
            .enumerate()
            .map(|(i, (tile, step))| {
                let frag = &catalog.decomposition.fragments[tile.rel];
                let binds: Vec<String> = plan.new_roles[i].iter().map(|&r| role_name(r)).collect();
                OpProfile {
                    label: format!("probe {} binding [{}]", frag.name, binds.join(", ")),
                    invocations: step.probes,
                    rows_in: step.probes,
                    rows_out: step.rows,
                    io_hits: step.io_hits,
                    io_misses: step.io_misses,
                    elapsed_ns: step.nanos,
                    children: Vec::new(),
                }
            })
            .collect();
        // Any I/O the steps did not claim stays on the root, so the tree
        // always sums exactly to the plan's attributed totals.
        let step_hits: u64 = raw.steps.iter().map(|s| s.io_hits).sum();
        let step_misses: u64 = raw.steps.iter().map(|s| s.io_misses).sum();
        PlanProfile {
            plan: raw.plan,
            name: plan.ctssn.display(&self.tss),
            score: raw.score,
            rows_out: raw.rows_out,
            elapsed_ns: raw.elapsed_ns,
            pruned: raw.pruned,
            skipped: raw.skipped,
            root: OpProfile {
                label: format!(
                    "drive {} ({} candidate target objects)",
                    role_name(plan.driver),
                    raw.drivers
                ),
                invocations: 1,
                rows_in: raw.drivers,
                rows_out: raw.rows_out,
                io_hits: raw.stats.io_hits.saturating_sub(step_hits),
                io_misses: raw.stats.io_misses.saturating_sub(step_misses),
                elapsed_ns: raw.elapsed_ns,
                children,
            },
        }
    }

    fn count_error(&self) {
        self.stats.lock().errors += 1;
        if xkw_obs::enabled() {
            xkw_obs::global().counter("xkw_query_errors_total").inc();
        }
    }
}

/// A full EXPLAIN ANALYZE report: the ordinary query outcome plus one
/// operator-tree profile per executed plan.
#[derive(Debug)]
pub struct ExplainReport {
    /// Results, MTTONs and per-stage metrics, exactly as a plain query
    /// would have produced (modulo single-threaded profiled execution).
    pub outcome: QueryOutcome,
    /// Per-plan operator profiles, in plan (score) order.
    pub profiles: Vec<PlanProfile>,
}

impl ExplainReport {
    /// Attributed logical I/O summed over every profile tree. Equals
    /// `outcome.metrics.io_hits + outcome.metrics.io_misses`.
    pub fn io_total(&self) -> u64 {
        self.profiles.iter().map(PlanProfile::io_total).sum()
    }

    /// The full EXPLAIN ANALYZE text: every plan's operator tree plus a
    /// stage-latency footer.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.profiles {
            out.push_str(&p.render());
        }
        let m = &self.outcome.metrics;
        let _ = writeln!(
            out,
            "stages: discover={:?} plan={:?} exec={:?} present={:?}",
            m.discover, m.plan, m.exec, m.present
        );
        let _ = writeln!(
            out,
            "totals: plans={} results={} io={}h+{}m partial_cache={}h/{}m plan_cache_hit={}",
            m.plans,
            self.outcome.results.rows.len(),
            m.io_hits,
            m.io_misses,
            m.partial_cache_hits,
            m.partial_cache_misses,
            m.plan_cache_hit
        );
        out
    }
}

/// [`ExecMode`] → the obs-layer [`RecordedMode`] (obs sits below core in
/// the dependency stack, so it mirrors the enum instead of using it).
fn recorded_mode(mode: ExecMode) -> RecordedMode {
    match mode {
        ExecMode::Naive => RecordedMode::Naive,
        ExecMode::Cached { capacity } => RecordedMode::Cached { capacity },
    }
}

/// [`RecordedMode`] → [`ExecMode`], for deferred EXPLAIN re-runs.
fn exec_mode_of(mode: RecordedMode) -> ExecMode {
    match mode {
        RecordedMode::Naive => ExecMode::Naive,
        RecordedMode::Cached { capacity } => ExecMode::Cached { capacity },
    }
}

/// Static label for the postings format backing the master index.
fn postings_label(kind: PostingsFormatKind) -> &'static str {
    match kind {
        PostingsFormatKind::Raw => "raw",
        PostingsFormatKind::Packed => "packed",
    }
}

/// Flattens the executor's degradation report into the obs-layer
/// summary: faults render to strings, corruption is classified from the
/// store error. `None` when the query ran clean (no retries either).
fn summarize_degradation(d: &exec::Degradation) -> Option<DegradationSummary> {
    if !d.is_degraded() && d.retries == 0 {
        return None;
    }
    Some(DegradationSummary {
        deadline_exceeded: d.deadline_exceeded,
        plans_skipped: d.plans_skipped,
        plans_incomplete: d.plans_incomplete,
        corrupt: d
            .faults
            .iter()
            .any(|(_, e)| matches!(e, StoreError::CorruptPage { .. })),
        faults: d
            .faults
            .iter()
            .map(|(i, e)| format!("plan {i}: {e}"))
            .collect(),
        retries: d.retries,
    })
}

/// FNV-1a over the result rows' (plan, assignment, score) — the
/// byte-identity fingerprint two runs of the same query can be compared
/// by without retaining the rows themselves.
fn digest_rows(rows: &[exec::ResultRow]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        eat(&mut h, r.plan as u64);
        eat(&mut h, r.score as u64);
        eat(&mut h, r.assignment.len() as u64);
        for &a in &r.assignment {
            eat(&mut h, u64::from(a));
        }
    }
    h
}

/// Feeds one query's metrics into the global `xkw-obs` registry. A no-op
/// (single relaxed atomic load) unless observability is enabled.
fn publish_query_metrics(m: &QueryMetrics, results: &QueryResults) {
    if !xkw_obs::enabled() {
        return;
    }
    let reg = xkw_obs::global();
    reg.counter("xkw_queries_total").inc();
    if m.plan_cache_hit {
        reg.counter("xkw_plan_cache_hits_total").inc();
    } else {
        reg.counter("xkw_plan_cache_misses_total").inc();
    }
    let total = m.discover + m.plan + m.exec + m.present;
    reg.histogram("xkw_query_latency_ns")
        .observe(total.as_nanos() as u64);
    reg.histogram("xkw_stage_discover_ns")
        .observe(m.discover.as_nanos() as u64);
    reg.histogram("xkw_stage_plan_ns")
        .observe(m.plan.as_nanos() as u64);
    reg.histogram("xkw_stage_exec_ns")
        .observe(m.exec.as_nanos() as u64);
    reg.histogram("xkw_stage_present_ns")
        .observe(m.present.as_nanos() as u64);
    reg.histogram("xkw_query_plans").observe(m.plans as u64);
    reg.histogram("xkw_query_probe_rows")
        .observe(results.stats.rows);
    reg.histogram("xkw_query_results")
        .observe(results.rows.len() as u64);
    reg.histogram("xkw_query_io")
        .observe(m.io_hits + m.io_misses);
    if results.prune.enabled {
        reg.counter("xkw_plans_pruned_total")
            .add(results.prune.plans_pruned as u64);
        reg.counter("xkw_plans_early_stopped_total")
            .add(results.prune.plans_early_stopped as u64);
        if let Some((score, _plan)) = results.prune.threshold {
            reg.gauge("xkw_topk_threshold").set(score as u64);
        }
    }
    let deg = &results.degradation;
    if deg.is_degraded() {
        reg.counter("xkw_queries_degraded_total").inc();
        reg.counter("xkw_plans_skipped_total")
            .add(deg.plans_skipped as u64);
        reg.counter("xkw_plans_incomplete_total")
            .add(deg.plans_incomplete as u64);
        reg.counter("xkw_query_faults_total")
            .add(deg.faults.len() as u64);
    }
}

/// Canonicalizes the achievable-set partition into the plan-cache key:
/// sorted `(schema node, sorted bitsets)` pairs.
fn plan_key(
    achievable: &std::collections::HashMap<xkw_graph::SchemaNodeId, std::collections::HashSet<u16>>,
    nkeys: usize,
    z: usize,
) -> PlanKey {
    let mut sig: Vec<(u16, Vec<u16>)> = achievable
        .iter()
        .map(|(sn, sets)| {
            let mut v: Vec<u16> = sets.iter().copied().collect();
            v.sort_unstable();
            (sn.0, v)
        })
        .collect();
    sig.sort_unstable();
    (sig, nkeys, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use crate::relations::PhysicalPolicy;
    use crate::target::ToId;
    use xkw_datagen::tpch;

    fn engine() -> QueryEngine {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Arc::new(Db::new(256));
        for id in 0..targets.len() as ToId {
            db.blobs().put(id, targets.to_xml(&graph, id));
        }
        let catalog = Arc::new(RelationCatalog::materialize(
            &db,
            &targets,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "eng",
        ));
        QueryEngine::new(Arc::new(tss), Arc::new(targets), master.into(), db, catalog)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }

    #[test]
    fn query_all_reports_stage_metrics() {
        let e = engine();
        let out = e
            .query_all(&["john", "vcr"], 8, ExecMode::Cached { capacity: 1024 })
            .unwrap();
        assert_eq!(out.mttons.iter().map(|m| m.score).min(), Some(6));
        assert!(!out.metrics.plan_cache_hit, "first query plans cold");
        assert!(out.metrics.plans > 0);
        assert!(out.metrics.io_hits + out.metrics.io_misses > 0);
        let s = e.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.plan_cache_misses, 1);
    }

    #[test]
    fn explain_io_decomposes_query_total() {
        let e = engine();
        let mode = ExecMode::Cached { capacity: 1024 };
        let report = e.explain(&["john", "vcr"], 8, mode).unwrap();
        let m = &report.outcome.metrics;
        // Summed per-operator attributed I/O equals the query's own total.
        assert_eq!(report.io_total(), m.io_hits + m.io_misses);
        assert!(report.io_total() > 0);
        assert_eq!(report.profiles.len(), m.plans);
        // The profiled run produces the same answers as a plain query.
        let plain = e.query_all(&["john", "vcr"], 8, mode).unwrap();
        assert_eq!(report.outcome.mttons, plain.mttons);
        // And the rendering names both operator kinds plus the stage line.
        let text = report.render();
        assert!(text.contains("drive "), "{text}");
        assert!(text.contains("probe "), "{text}");
        assert!(text.contains("stages:"), "{text}");
        assert_eq!(e.stats().queries, 2, "explain counts as a query");
    }

    #[test]
    fn typed_errors_not_panics() {
        let e = engine();
        assert_eq!(e.prepare(&[], 8).unwrap_err(), XkError::EmptyQuery);
        let many: Vec<&str> = vec!["john"; 17];
        assert_eq!(
            e.prepare(&many, 8).unwrap_err(),
            XkError::TooManyKeywords { count: 17 }
        );
        assert_eq!(
            e.prepare(&["john", "florp"], 8).unwrap_err(),
            XkError::UnknownKeyword("florp".to_owned())
        );
        assert!(matches!(
            e.query_all(&["john", "vcr"], 8, ExecMode::Cached { capacity: 0 }),
            Err(XkError::BadMode(_))
        ));
        assert_eq!(e.stats().errors, 4);
        assert_eq!(e.stats().queries, 0);
    }

    #[test]
    fn plan_cache_hits_on_same_shape() {
        let e = engine();
        // "tv" and "vcr" both live in part names (vcr also in a descr) —
        // re-running the same keywords must hit; swapping their order
        // keeps the partition (bitsets swap per node, but the pair of
        // achievable sets per schema node differs) — so only assert the
        // identical query hits.
        let first = e.prepare(&["tv", "vcr"], 8).unwrap();
        assert!(!first.plan_cache_hit);
        let second = e.prepare(&["tv", "vcr"], 8).unwrap();
        assert!(second.plan_cache_hit);
        assert_eq!(first.plans.len(), second.plans.len());
        // A different z is a different shape.
        let other_z = e.prepare(&["tv", "vcr"], 4).unwrap();
        assert!(!other_z.plan_cache_hit);
        assert_eq!(e.plan_cache_len(), 2);
    }

    #[test]
    fn capacity_zero_disables_plan_cache() {
        let (graph, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let targets = TargetGraph::build(&graph, &tss).unwrap();
        let master = MasterIndex::build(&graph, &targets);
        let db = Arc::new(Db::new(256));
        let catalog = Arc::new(RelationCatalog::materialize(
            &db,
            &targets,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "cold",
        ));
        let e = QueryEngine::with_plan_cache_capacity(
            Arc::new(tss),
            Arc::new(targets),
            master.into(),
            db,
            catalog,
            0,
        );
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        assert!(!e.prepare(&["john", "vcr"], 8).unwrap().plan_cache_hit);
        assert_eq!(e.plan_cache_len(), 0);
    }

    #[test]
    fn topk_and_hash_agree_with_all() {
        let e = engine();
        let all = e.query_all(&["us", "vcr"], 8, ExecMode::Naive).unwrap();
        let hash = e.query_all_hash(&["us", "vcr"], 8).unwrap();
        assert_eq!(all.mttons, hash.mttons);
        // Top-k contents: exactly the first k rows of the full result in
        // (score, plan, assignment) order, for every thread count.
        let mut expect = all.results.rows.clone();
        expect.sort_by(|a, b| {
            (a.score, a.plan, &a.assignment).cmp(&(b.score, b.plan, &b.assignment))
        });
        expect.truncate(5);
        for threads in [1, 2, 8] {
            let top = e
                .query_topk(
                    &["us", "vcr"],
                    8,
                    5,
                    ExecMode::Cached { capacity: 1024 },
                    threads,
                )
                .unwrap();
            assert_eq!(top.results.rows, expect, "threads={threads}");
        }
    }

    #[test]
    fn topk_pruning_is_invisible_in_results() {
        let e = engine();
        let mode = ExecMode::Cached { capacity: 1024 };
        for k in [1, 3, 20] {
            for threads in [1, 2, 8] {
                let pruned = e
                    .query_topk_opts(&["us", "vcr"], 8, k, mode, threads, None, true)
                    .unwrap();
                let plain = e
                    .query_topk_opts(&["us", "vcr"], 8, k, mode, threads, None, false)
                    .unwrap();
                assert_eq!(
                    pruned.results.rows, plain.results.rows,
                    "k={k} threads={threads}"
                );
                assert!(pruned.results.prune.enabled);
                assert!(!plain.results.prune.enabled);
            }
        }
        let s = e.stats();
        assert_eq!(s.queries, 18);
    }

    #[test]
    fn explain_topk_decomposes_io_and_marks_pruned_plans() {
        let e = engine();
        let mode = ExecMode::Cached { capacity: 1024 };
        let report = e.explain_topk(&["us", "vcr"], 8, 1, mode).unwrap();
        let m = &report.outcome.metrics;
        // The accounting invariant survives pruning: pruned plans carry
        // zero I/O, so profile sums still reproduce the query totals.
        assert_eq!(report.io_total(), m.io_hits + m.io_misses);
        assert_eq!(report.profiles.len(), m.plans);
        assert_eq!(
            m.plans_pruned,
            report.profiles.iter().filter(|p| p.pruned).count()
        );
        // The profiled top-1 equals the plain top-k path's answer.
        let plain = e.query_topk(&["us", "vcr"], 8, 1, mode, 1).unwrap();
        assert_eq!(report.outcome.results.rows, plain.results.rows);
        // Once a row lands, every later plan's bound exceeds the k=1
        // threshold — so if any plan follows the first emitting one, it
        // must show up pruned.
        let first_row_plan = report.outcome.results.rows.first().map(|r| r.plan);
        if let Some(f) = first_row_plan {
            if report.profiles.iter().any(|p| p.plan > f) {
                assert!(m.plans_pruned > 0, "later plans must be pruned at k=1");
                let text = report.render();
                assert!(text.contains("pruned by top-k threshold"), "{text}");
            }
        }
        assert!(report.render().contains("stages:"));
    }

    /// Installing a view bumps the epoch and leaves previously handed-out
    /// snapshots untouched. The schema-level plan cache survives the
    /// swap: the same shape hits, and the hit — instantiated against the
    /// new view — equals cold planning on a fresh engine over that view.
    #[test]
    fn install_view_keeps_schema_level_plans() {
        let e = engine();
        let kws = ["us", "vcr"];
        assert_eq!(e.epoch(), 0);
        assert!(!e.prepare(&kws, 8).unwrap().plan_cache_hit);
        let before = e.prepare(&kws, 8).unwrap();
        assert!(before.plan_cache_hit);
        let old = e.view();
        // A successor view without one target object whose removal keeps
        // the query's keyword partition (so its plan key) but shrinks a
        // containing list: a delete the cached skeletons must outlive.
        let key = |m: &MasterIndex| plan_key(&m.achievable_sets(&kws), kws.len(), 8);
        let postings = |m: &MasterIndex| {
            kws.iter()
                .map(|k| m.containing_list(k).len())
                .sum::<usize>()
        };
        let gone = (0..old.targets.len() as ToId)
            .find(|&id| {
                let m = old.master.without_range(id, id + 1);
                key(&m) == key(&old.master) && postings(&m) < postings(&old.master)
            })
            .expect("a target object is removable without changing the plan key");
        let master = Arc::new(old.master.without_range(gone, gone + 1));
        let catalog = Arc::new(old.catalog.with_deleted(e.db(), gone..gone + 1, 1));
        let epoch = e.install_view(old.targets.clone(), master.clone(), catalog.clone());
        assert_eq!(epoch, 1);
        assert_eq!(e.epoch(), 1);
        assert_eq!(old.epoch, 0, "held snapshots keep their epoch");

        let hit = e.prepare(&kws, 8).unwrap();
        assert!(hit.plan_cache_hit, "the same shape hits after install");
        let candidates =
            |p: &Prepared| -> Vec<_> { p.plans.iter().map(|p| p.candidates.clone()).collect() };
        assert_ne!(
            candidates(&hit),
            candidates(&before),
            "the hit is instantiated against the new view"
        );
        let fresh = QueryEngine::new(
            e.tss().clone(),
            old.targets.clone(),
            master,
            e.db().clone(),
            catalog,
        );
        let cold = fresh.prepare(&kws, 8).unwrap();
        assert!(!cold.plan_cache_hit);
        assert!(!hit.plans.is_empty());
        assert_eq!(hit.plans.len(), cold.plans.len());
        for (a, b) in hit.plans.iter().zip(&cold.plans) {
            assert_eq!(a.driver, b.driver);
            assert_eq!(a.tiles, b.tiles);
            assert_eq!(a.candidates, b.candidates);
            assert_eq!(a.score, b.score);
        }
        let mode = ExecMode::Cached { capacity: 1024 };
        let got = e.query_all(&kws, 8, mode).unwrap();
        let want = fresh.query_all(&kws, 8, mode).unwrap();
        assert_eq!(got.results.rows, want.results.rows);
        assert_eq!(got.mttons, want.mttons);
    }

    /// A catalog over another decomposition cannot be installed: the
    /// cached skeletons index the engine's fragments.
    #[test]
    #[should_panic(expected = "different decomposition")]
    fn install_view_rejects_a_foreign_decomposition() {
        let e = engine();
        let view = e.view();
        let foreign = RelationCatalog::materialize(
            e.db(),
            &view.targets,
            decompose::minimal(e.tss()),
            PhysicalPolicy::clustered(),
            "foreign",
        );
        e.install_view(view.targets.clone(), view.master.clone(), Arc::new(foreign));
    }

    /// A query reports the epoch of the view it read: 0 on the bulk
    /// load, 1 once a view has been installed.
    #[test]
    fn query_metrics_report_the_epoch_read() {
        let e = engine();
        let mode = ExecMode::Cached { capacity: 1024 };
        let before = e.query_all(&["john", "vcr"], 8, mode).unwrap();
        assert_eq!(before.metrics.epoch, 0);
        e.install_view(e.targets(), e.master(), e.catalog());
        let after = e.query_all(&["john", "vcr"], 8, mode).unwrap();
        assert_eq!(after.metrics.epoch, 1);
        let topk = e.query_topk(&["john", "vcr"], 8, 3, mode, 1).unwrap();
        assert_eq!(topk.metrics.epoch, 1);
    }

    /// `query_all`/`query_all_hash` return the same outcome for any
    /// engine-level thread setting.
    #[test]
    fn exec_threads_setting_does_not_change_results() {
        let e = engine();
        let reference = e
            .query_all(&["us", "vcr"], 8, ExecMode::Cached { capacity: 1024 })
            .unwrap();
        let hash_reference = e.query_all_hash(&["us", "vcr"], 8).unwrap();
        assert_eq!(e.exec_threads(), 1);
        for threads in [2, 4, 8] {
            e.set_exec_threads(threads);
            assert_eq!(e.exec_threads(), threads);
            let got = e
                .query_all(&["us", "vcr"], 8, ExecMode::Cached { capacity: 1024 })
                .unwrap();
            assert_eq!(got.results.rows, reference.results.rows);
            assert_eq!(got.mttons, reference.mttons);
            let hash = e.query_all_hash(&["us", "vcr"], 8).unwrap();
            assert_eq!(hash.results.rows, hash_reference.results.rows);
        }
        e.set_exec_threads(0); // clamped, never zero workers
        assert_eq!(e.exec_threads(), 1);
    }
}
