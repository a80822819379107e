//! The unified query surface: [`QueryEngine`], builder-style [`Query`]
//! requests, and the [`QueryOutcome`] they all return.
//!
//! The engine treats the channel count `k` as a first-class parameter:
//! every query kind — the four TNN algorithms, chained, order-free, and
//! round-trip routes — runs over any `k ≥ 2`-channel environment, with
//! the paper's two-channel pipeline reproduced bit-for-bit at `k = 2`:
//!
//! ```
//! use std::sync::Arc;
//! use tnn_core::{Algorithm, AnnMode, Query, QueryEngine};
//! use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
//! use tnn_geom::Point;
//! use tnn_rtree::{PackingAlgorithm, RTree};
//!
//! let params = BroadcastParams::new(64);
//! let pts: Vec<Point> =
//!     (0..60).map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64)).collect();
//! let tree = |seed: usize| {
//!     let shifted: Vec<Point> =
//!         pts.iter().map(|p| Point::new(p.x + seed as f64, p.y)).collect();
//!     Arc::new(RTree::build(&shifted, params.rtree_params(), PackingAlgorithm::Str).unwrap())
//! };
//! let env = MultiChannelEnv::new(vec![tree(0), tree(1)], params, &[17, 42]);
//!
//! let engine = QueryEngine::new(env);
//! let outcome = engine
//!     .run(&Query::tnn(Point::new(25.0, 25.0)).algorithm(Algorithm::HybridNn))
//!     .unwrap();
//! assert_eq!(outcome.route.len(), 2);
//! # let _ = AnnMode::Exact;
//! ```
//!
//! The engine wraps a [`MultiChannelEnv`] whose internals are shared
//! behind an `Arc`, so cloning the engine (or the environment) is O(1)
//! and handles can be spread across worker threads or a future async
//! executor. Per-query phase randomization threads a
//! [`PhaseOverlay`](tnn_broadcast::PhaseOverlay) into the query tasks
//! instead of materializing a re-phased environment, and pooled
//! [`QueryScratch`] buffers make the casual [`QueryEngine::run`] path
//! allocation-light while [`QueryEngine::run_with`] stays zero-alloc for
//! batch runners that own one scratch per worker.

use crate::algorithms::{
    order_free_tnn_overlay, round_trip_tnn_overlay, run_query_overlay, QueryScratch, VariantRun,
    VisitOrder,
};
use crate::task::queue::{ArrivalHeap, CandidateQueue};
use crate::{Algorithm, AnnMode, AnnSpec, ChannelCost, TnnConfig, TnnError, TnnPair, TnnRun};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, RwLock};
use tnn_broadcast::{MultiChannelEnv, PhaseOverlay, PhaseVec};
use tnn_geom::Point;
use tnn_rtree::ObjectId;

/// What kind of route a [`Query`] asks for. Every kind runs over any
/// `k ≥ 2`-channel environment; `k = 2` is the paper's special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// TNN in channel order (`p → s₁ → … → s_k`) under the given
    /// algorithm.
    Tnn(Algorithm),
    /// Chained TNN over all `k` channels in channel order (the paper's
    /// future-work item 1) — an alias for the generalized
    /// [`Algorithm::DoubleNn`] pipeline, kept as its own kind because the
    /// chained workloads of the evaluation are configured by channel
    /// count, not algorithm.
    Chain,
    /// Order-free TNN: the shortest route visiting every channel's
    /// dataset in *any* order (future-work item 2).
    OrderFree,
    /// Round-trip TNN: the shortest closed tour
    /// `p → s₁ → … → s_k → p` in channel order (future-work item 3).
    RoundTrip,
}

/// A builder-style query request: what to compute, from where, when, and
/// under which per-channel knobs.
///
/// Construct with [`Query::tnn`] / [`Query::chain`] /
/// [`Query::order_free`] / [`Query::round_trip`], refine with the
/// builder methods, then hand to [`QueryEngine::run`]. Defaults: Hybrid-NN
/// for plain TNN, exact (eNN) search on every channel, issue slot 0, the
/// environment's own channel phases, and final answer-object retrieval
/// on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    kind: QueryKind,
    point: Point,
    issued_at: u64,
    ann: AnnSpec,
    phases: Option<PhaseVec>,
    retrieve_answer_objects: bool,
}

impl Query {
    fn new(kind: QueryKind, point: Point) -> Self {
        Query {
            kind,
            point,
            issued_at: 0,
            ann: AnnSpec::default(),
            phases: None,
            retrieve_answer_objects: true,
        }
    }

    /// A plain TNN query from `p` (defaults to [`Algorithm::HybridNn`]).
    pub fn tnn(p: Point) -> Self {
        Query::new(QueryKind::Tnn(Algorithm::HybridNn), p)
    }

    /// A chained TNN query from `p` over every channel in channel order.
    pub fn chain(p: Point) -> Self {
        Query::new(QueryKind::Chain, p)
    }

    /// An order-free TNN query from `p`.
    pub fn order_free(p: Point) -> Self {
        Query::new(QueryKind::OrderFree, p)
    }

    /// A round-trip TNN query from `p`.
    pub fn round_trip(p: Point) -> Self {
        Query::new(QueryKind::RoundTrip, p)
    }

    /// Selects the TNN algorithm (only meaningful for [`Query::tnn`]
    /// requests; the extensions have a single pipeline each).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        if let QueryKind::Tnn(_) = self.kind {
            self.kind = QueryKind::Tnn(algorithm);
        }
        self
    }

    /// The global slot at which the client receives the query.
    pub fn issued_at(mut self, slot: u64) -> Self {
        self.issued_at = slot;
        self
    }

    /// One ANN pruning mode for every channel.
    pub fn ann(mut self, mode: AnnMode) -> Self {
        self.ann = AnnSpec::Uniform(mode);
        self
    }

    /// Explicit per-channel ANN pruning modes, in channel order; the
    /// length is checked against the engine's channel count at execution
    /// time (panicking on mismatch, like [`MultiChannelEnv::new`] does
    /// for phases).
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn ann_modes(mut self, modes: &[AnnMode]) -> Self {
        assert!(!modes.is_empty(), "at least one ANN mode is required");
        self.ann = AnnSpec::PerChannel(crate::AnnModes::from_slice(modes));
        self
    }

    /// Per-query channel phases, substituted for the environment's
    /// without cloning it (checked against the channel count at execution
    /// time; inline storage up to four channels).
    pub fn phases(mut self, phases: &[u64]) -> Self {
        self.phases = Some(PhaseVec::from_slice(phases));
        self
    }

    /// Whether the client finally downloads the answer objects' data
    /// pages (the paper's cost model; default `true`).
    pub fn retrieve_answer_objects(mut self, retrieve: bool) -> Self {
        self.retrieve_answer_objects = retrieve;
        self
    }

    /// The query's kind.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The query point.
    pub fn point(&self) -> Point {
        self.point
    }

    /// The slot at which the client receives the query (see
    /// [`Query::issued_at`]).
    pub fn issue_slot(&self) -> u64 {
        self.issued_at
    }

    /// The per-channel ANN specification the query carries (see
    /// [`Query::ann`] / [`Query::ann_modes`]).
    pub fn ann_spec(&self) -> &AnnSpec {
        &self.ann
    }

    /// The per-query phase substitution, if any (see [`Query::phases`]).
    pub fn phase_overrides(&self) -> Option<&[u64]> {
        self.phases.as_deref()
    }

    /// Whether the client finally downloads the answer objects' data
    /// pages (see [`Query::retrieve_answer_objects`]).
    pub fn retrieves_answer_objects(&self) -> bool {
        self.retrieve_answer_objects
    }

    /// Runs the same per-channel arity checks [`QueryEngine::run_with`]
    /// performs, eagerly. Serving front-ends call this at admission time
    /// so a malformed query panics on the *submitting* thread instead of
    /// poisoning a worker that picks the job up later.
    ///
    /// # Panics
    /// Panics when per-channel phases or ANN modes do not match the
    /// `k`-channel environment (the same conditions under which
    /// [`QueryEngine::run`] panics).
    pub fn check_channels(&self, k: usize) {
        if let Some(phases) = &self.phases {
            assert_eq!(
                phases.len(),
                k,
                "one phase per channel is required (got {} for {k} channels)",
                phases.len()
            );
        }
        // Degenerate k < 2 environments are a *recoverable* error
        // (`TnnError::WrongChannelCount`) in the pipeline, which wins
        // over the ANN arity panic — mirror that precedence here.
        if k >= 2 {
            self.ann.check_channels(k);
        }
    }
}

/// One stop of a [`QueryOutcome`] route: where, which object, and on
/// which channel it was found.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteStop {
    /// The stop's location.
    pub point: Point,
    /// The object at the stop.
    pub object: ObjectId,
    /// The channel (= dataset) index the object came from.
    pub channel: usize,
}

/// The unified result of any engine query — subsumes the pipeline-level
/// [`TnnRun`] and [`VariantRun`] shapes, with per-hop channel costs.
///
/// Converting a pipeline result into a `QueryOutcome` (via `From`) is
/// lossless for every metric the evaluation uses; the equivalence gate in
/// `crates/bench/tests` asserts the engine's two-channel outcomes are
/// byte-identical to a frozen copy of the paper's pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// What was asked.
    pub kind: QueryKind,
    /// The route stops in visit order (one per channel); empty when the
    /// query failed (possible only for [`Algorithm::ApproximateTnn`]).
    pub route: Vec<RouteStop>,
    /// Total route length: transitive distance for TNN/chain/order-free,
    /// full loop length for round-trip. `None` when the query failed.
    pub total_dist: Option<f64>,
    /// The filter-phase search radius.
    pub search_radius: f64,
    /// Slot at which the query was issued.
    pub issued_at: u64,
    /// Slot at which the estimate phase finished, when the pipeline
    /// records it (TNN and chained queries; the variants fold it into
    /// the per-channel finish times).
    pub estimate_end: Option<u64>,
    /// Slot at which the whole query finished.
    pub completed_at: u64,
    /// Filter-phase candidate counts per channel (recorded by the TNN
    /// and chained pipelines; empty otherwise).
    pub candidates: Vec<usize>,
    /// Per-channel cost breakdown, in channel order — each route hop's
    /// channel indexes into this.
    pub channels: Vec<ChannelCost>,
    /// `true` when a serving front-end answered via a degradation
    /// fallback (the approximate algorithm or a replica path) after its
    /// retry ladder gave up on the primary channels. The engine itself
    /// always produces full-fidelity outcomes (`degraded = false`);
    /// degraded outcomes are never stored in a result cache, because
    /// their bytes are not what a full-fidelity run of the same
    /// [`crate::QueryKey`] would return.
    pub degraded: bool,
}

impl QueryOutcome {
    /// **Access time** (paper metric): elapsed slots from issue to
    /// completion.
    pub fn access_time(&self) -> u64 {
        self.completed_at - self.issued_at
    }

    /// **Tune-in time** (paper metric): total pages downloaded over all
    /// channels.
    pub fn tune_in(&self) -> u64 {
        self.channels.iter().map(|c| c.total_pages()).sum()
    }

    /// Tune-in time of the estimate phase only.
    pub fn tune_in_estimate(&self) -> u64 {
        self.channels.iter().map(|c| c.estimate_pages).sum()
    }

    /// Tune-in time of the filter phase only.
    pub fn tune_in_filter(&self) -> u64 {
        self.channels.iter().map(|c| c.filter_pages).sum()
    }

    /// Peak client-queue occupancy (live queue + delayed-pruning parked
    /// list, max over channels) — the paper's `(H−1)(M−1)`-bounded
    /// client-memory metric of §4.2.4. Zero for Approximate-TNN, which
    /// runs no estimate searches.
    pub fn peak_queue(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.peak_queue)
            .max()
            .unwrap_or(0)
    }

    /// Total delayed-pruning hits across channels: condemned entries
    /// the estimate searches parked instead of expanding (§4.2.4).
    pub fn prune_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.prune_hits).sum()
    }

    /// Index nodes visited ≙ index pages downloaded by the estimate and
    /// filter searches (in the broadcast cost model every visited node
    /// is one downloaded page; answer retrieval reads data pages, which
    /// [`QueryOutcome::tune_in`] adds on top).
    pub fn node_visits(&self) -> u64 {
        self.tune_in_estimate() + self.tune_in_filter()
    }

    /// `true` when no route was found.
    pub fn failed(&self) -> bool {
        self.route.is_empty()
    }

    /// Total filter-phase candidates over all channels.
    pub fn total_candidates(&self) -> usize {
        self.candidates.iter().sum()
    }

    /// The answer as a two-channel [`TnnPair`] — **plain TNN outcomes only**,
    /// `None` otherwise. Variant routes do not fit `TnnPair`'s field
    /// contract (an order-free route may visit the `R` channel first,
    /// and a round-trip `total_dist` includes the return leg), so they
    /// must be read through [`QueryOutcome::route`] /
    /// [`QueryOutcome::total_dist`] instead.
    pub fn tnn_pair(&self) -> Option<TnnPair> {
        if !matches!(self.kind, QueryKind::Tnn(_)) {
            return None;
        }
        match self.route.as_slice() {
            [first, second] => Some(TnnPair {
                s: (first.point, first.object),
                r: (second.point, second.object),
                dist: self.total_dist?,
            }),
            _ => None,
        }
    }

    /// Which dataset the route visits first (meaningful for order-free
    /// queries; `None` when the query failed).
    pub fn visit_order(&self) -> Option<VisitOrder> {
        self.route.first().map(|stop| {
            if stop.channel == 0 {
                VisitOrder::SFirst
            } else {
                VisitOrder::RFirst
            }
        })
    }
}

impl From<TnnRun> for QueryOutcome {
    fn from(run: TnnRun) -> Self {
        QueryOutcome {
            // The algorithm is not recorded in a TnnRun; Hybrid-NN is the
            // default request kind. Engine-produced outcomes overwrite
            // this with the actual request kind.
            kind: QueryKind::Tnn(Algorithm::HybridNn),
            route: run
                .route
                .into_iter()
                .enumerate()
                .map(|(channel, (point, object))| RouteStop {
                    point,
                    object,
                    channel,
                })
                .collect(),
            total_dist: run.total_dist,
            search_radius: run.search_radius,
            issued_at: run.issued_at,
            estimate_end: Some(run.estimate_end),
            completed_at: run.completed_at,
            candidates: run.candidates,
            channels: run.channels,
            degraded: false,
        }
    }
}

impl From<VariantRun> for QueryOutcome {
    fn from(run: VariantRun) -> Self {
        QueryOutcome {
            // A VariantRun does not record which variant produced it;
            // order-free is the kind that exposes both stop orders.
            // Engine-produced outcomes overwrite this with the actual
            // request kind.
            kind: QueryKind::OrderFree,
            route: run
                .stops
                .into_iter()
                .map(|(point, object, channel)| RouteStop {
                    point,
                    object,
                    channel,
                })
                .collect(),
            total_dist: Some(run.total_dist),
            search_radius: run.search_radius,
            issued_at: run.issued_at,
            estimate_end: None,
            completed_at: run.completed_at,
            candidates: Vec::new(),
            channels: run.channels,
            degraded: false,
        }
    }
}

/// Upper bound on pooled scratches — enough for one per hardware thread
/// on large machines while bounding idle memory.
const MAX_POOLED_SCRATCH: usize = 64;

/// The unified query-execution engine over one shared multi-channel
/// environment, generic over the candidate-queue backend (the default
/// [`ArrivalHeap`] is the production backend; the equivalence tests
/// instantiate the paper-literal linear reference through
/// [`QueryEngine::with_queue_backend`]).
///
/// See [`Query`] for an end-to-end example. Cloning an engine is O(1)
/// and shares the environment cell: clones (worker handles) observe
/// every [`QueryEngine::swap_env`] the moment it lands. Each clone
/// starts an empty scratch pool.
///
/// # Mutable environments
///
/// The engine holds the **current** environment snapshot behind a cell;
/// [`QueryEngine::swap_env`] publishes the next epoch while in-flight
/// queries keep running on the snapshot they took at dispatch (an
/// environment clone is O(1), so the read path stays cheap). The channel
/// count is fixed at construction — swaps must preserve it, mirroring
/// how every admitted query was validated against it.
#[derive(Debug)]
pub struct QueryEngine<Q: CandidateQueue = ArrivalHeap> {
    /// The current environment snapshot, shared across engine clones.
    /// Readers clone it out (O(1)) and never hold the guard across a
    /// query; `swap_env` is the only writer.
    env: Arc<RwLock<MultiChannelEnv>>,
    /// Channel count, fixed at construction and invariant under swaps —
    /// reading it never takes the env lock.
    channels: usize,
    /// Recycled per-query buffers for the pooling [`QueryEngine::run`]
    /// path. `run_with` never touches this.
    pool: Mutex<Vec<QueryScratch<Q>>>,
}

impl QueryEngine {
    /// An engine over `env` with the production heap-ordered queue
    /// backend.
    pub fn new(env: MultiChannelEnv) -> Self {
        QueryEngine::with_queue_backend(env)
    }
}

impl<Q: CandidateQueue> QueryEngine<Q> {
    /// An engine over `env` with an explicit candidate-queue backend
    /// (equivalence testing; everyday code wants [`QueryEngine::new`]).
    pub fn with_queue_backend(env: MultiChannelEnv) -> Self {
        let channels = env.len();
        QueryEngine {
            env: Arc::new(RwLock::new(env)),
            channels,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The current environment snapshot — an O(1) clone out of the
    /// shared cell. The snapshot is immutable and stays consistent in
    /// the caller's hands even while a concurrent
    /// [`QueryEngine::swap_env`] publishes the next epoch.
    pub fn env(&self) -> MultiChannelEnv {
        self.env.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of broadcast channels — fixed at construction, invariant
    /// under [`QueryEngine::swap_env`], and readable without touching
    /// the environment cell.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Publishes `env` as the engine's next environment snapshot. Every
    /// engine clone (worker handles included) observes the swap on its
    /// next dispatch; queries already executing finish on the snapshot
    /// they started with. Callers advance epochs via
    /// [`MultiChannelEnv::advance`] / [`MultiChannelEnv::advance_channel`]
    /// so downstream caches see the identity change.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] when `env`'s channel count
    /// differs from the engine's — admitted queries were validated
    /// against the original count, so a swap may change *data*, never
    /// *shape*.
    pub fn swap_env(&self, env: MultiChannelEnv) -> Result<(), TnnError> {
        if env.len() != self.channels {
            return Err(TnnError::WrongChannelCount {
                needed: self.channels,
                available: env.len(),
            });
        }
        *self.env.write().unwrap_or_else(|e| e.into_inner()) = env;
        Ok(())
    }

    /// Executes `query`, drawing a pooled [`QueryScratch`] (grown by
    /// earlier queries) and returning it afterwards. Worker loops that
    /// own a scratch should prefer [`QueryEngine::run_with`], which skips
    /// the pool lock entirely.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] for environments with fewer than
    /// two channels (every query kind runs over any `k ≥ 2`);
    /// [`TnnError::NonFiniteQuery`] for NaN/infinite query points;
    /// [`TnnError::EmptyChannel`] when a channel broadcasts an empty
    /// dataset.
    ///
    /// # Panics
    /// Panics when per-channel phases or ANN modes in the query do not
    /// match the channel count.
    pub fn run(&self, query: &Query) -> Result<QueryOutcome, TnnError> {
        let mut scratch = self.scratch();
        let outcome = self.run_with(query, &mut scratch);
        self.recycle(scratch);
        outcome
    }

    /// [`QueryEngine::run`] with a caller-owned scratch — the zero-alloc
    /// hot path for batch runners holding one [`QueryScratch`] per worker
    /// thread. Takes the engine's current environment snapshot; callers
    /// that must pin a specific snapshot across several runs (serving
    /// workers keying a cache) use [`QueryEngine::run_on`].
    ///
    /// # Errors
    /// As [`QueryEngine::run`].
    ///
    /// # Panics
    /// As [`QueryEngine::run`].
    pub fn run_with(
        &self,
        query: &Query,
        scratch: &mut QueryScratch<Q>,
    ) -> Result<QueryOutcome, TnnError> {
        let env = self.env();
        self.run_on(&env, query, scratch)
    }

    /// [`QueryEngine::run_with`] against an explicit environment
    /// snapshot — the epoch-consistent path for serving workers: take
    /// one snapshot, derive the cache key from it, and execute on it,
    /// so a concurrent [`QueryEngine::swap_env`] can never wedge an
    /// answer from one epoch under a key from another.
    ///
    /// # Errors
    /// As [`QueryEngine::run`].
    ///
    /// # Panics
    /// As [`QueryEngine::run`].
    pub fn run_on(
        &self,
        env: &MultiChannelEnv,
        query: &Query,
        scratch: &mut QueryScratch<Q>,
    ) -> Result<QueryOutcome, TnnError> {
        let overlay = match &query.phases {
            Some(phases) => PhaseOverlay::new(env, phases),
            None => PhaseOverlay::identity(env),
        };
        let mut outcome: QueryOutcome = match query.kind {
            QueryKind::Tnn(_) | QueryKind::Chain => {
                let algorithm = match query.kind {
                    QueryKind::Tnn(algorithm) => algorithm,
                    // Chained TNN is the generalized Double-NN pipeline.
                    _ => Algorithm::DoubleNn,
                };
                let k = overlay.len();
                // The recoverable channel-count error must win over the
                // ANN-count panic: a per-channel mode list that matches
                // the *environment* is not the user's mistake when the
                // query kind itself does not fit the channel count.
                if k < 2 {
                    return Err(TnnError::WrongChannelCount {
                        needed: 2,
                        available: k,
                    });
                }
                query.ann.check_channels(k);
                let cfg = TnnConfig {
                    algorithm,
                    ann: query.ann.modes(k),
                    retrieve_answer_objects: query.retrieve_answer_objects,
                };
                run_query_overlay(&overlay, query.point, query.issued_at, &cfg, scratch)?.into()
            }
            QueryKind::OrderFree => order_free_tnn_overlay(
                &overlay,
                query.point,
                query.issued_at,
                &query.ann,
                query.retrieve_answer_objects,
                scratch,
            )?
            .into(),
            QueryKind::RoundTrip => round_trip_tnn_overlay(
                &overlay,
                query.point,
                query.issued_at,
                &query.ann,
                query.retrieve_answer_objects,
                scratch,
            )?
            .into(),
        };
        outcome.kind = query.kind;
        Ok(outcome)
    }

    /// Draws a [`QueryScratch`] from the engine's pool (or a fresh one
    /// when the pool is empty). Long-lived worker loops — the serving
    /// front-end in `tnn-serve`, the batch runners — take one scratch up
    /// front, drive every query through [`QueryEngine::run_with`], and
    /// [`QueryEngine::recycle`] it on exit, so buffers grown by earlier
    /// queries keep amortizing across workers and server generations.
    pub fn scratch(&self) -> QueryScratch<Q> {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch drawn with [`QueryEngine::scratch`] to the pool
    /// (dropped silently once the pool cap is reached).
    pub fn recycle(&self, scratch: QueryScratch<Q>) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }
}

impl<Q: CandidateQueue> Clone for QueryEngine<Q> {
    fn clone(&self) -> Self {
        QueryEngine {
            // Clones share the cell, not just the snapshot: a swap on
            // any handle is observed by all of them.
            env: Arc::clone(&self.env),
            channels: self.channels,
            pool: Mutex::new(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_query_impl, AnnModes};
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn cloud(n: usize, salt: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i + salt) * 37 % 211) as f64,
                    ((i + salt) * 53 % 223) as f64,
                )
            })
            .collect()
    }

    fn build_env(layers: &[Vec<Point>], phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    fn two_channel() -> MultiChannelEnv {
        build_env(&[cloud(90, 1), cloud(110, 8)], &[13, 31])
    }

    /// The engine is a thin layer over the core pipeline: outcomes must
    /// be byte-identical to a direct `run_query_impl` call.
    #[test]
    fn tnn_matches_core_pipeline_for_every_algorithm() {
        let env = two_channel();
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(77.0, 99.0);
        for alg in Algorithm::ALL {
            let core = run_query_impl(
                &env,
                p,
                5,
                &TnnConfig::exact(alg),
                &mut QueryScratch::<ArrivalHeap>::default(),
            )
            .unwrap();
            let got = engine
                .run(&Query::tnn(p).algorithm(alg).issued_at(5))
                .unwrap();
            let mut expect = QueryOutcome::from(core);
            expect.kind = QueryKind::Tnn(alg);
            assert_eq!(got, expect, "{}", alg.name());
            assert_eq!(got.kind, QueryKind::Tnn(alg));
        }
    }

    #[test]
    fn phases_overlay_matches_rephased_env() {
        let env = two_channel();
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(40.0, 160.0);
        let phases = [4_321u64, 987];
        let rephased = QueryEngine::new(env.with_phases(&phases));
        let expect = rephased
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn))
            .unwrap();
        let got = engine
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn).phases(&phases))
            .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn tnn_runs_over_three_and_four_channels() {
        for k in [3usize, 4] {
            let layers: Vec<Vec<Point>> = (0..k).map(|i| cloud(60 + 10 * i, 7 * i)).collect();
            let phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 3).collect();
            let env = build_env(&layers, &phases);
            let engine = QueryEngine::new(env.clone());
            let p = Point::new(150.0, 150.0);
            for alg in Algorithm::ALL {
                let got = engine
                    .run(&Query::tnn(p).algorithm(alg).issued_at(5))
                    .unwrap();
                assert_eq!(got.channels.len(), k, "{}", alg.name());
                assert_eq!(got.candidates.len(), k, "{}", alg.name());
                if alg.is_exact() {
                    assert_eq!(got.route.len(), k, "{}", alg.name());
                    let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
                    let (_, oracle_total) = crate::exact_chain_tnn(p, &trees);
                    assert!(
                        (got.total_dist.unwrap() - oracle_total).abs() < 1e-9,
                        "{} at k={k}",
                        alg.name()
                    );
                    assert!(got.tnn_pair().is_none(), "k-hop routes are not pairs");
                }
            }
        }
    }

    #[test]
    fn chain_kind_is_generalized_double_nn() {
        let env = build_env(&[cloud(60, 0), cloud(80, 7), cloud(50, 19)], &[3, 17, 91]);
        let engine = QueryEngine::new(env);
        let p = Point::new(150.0, 150.0);
        let chain = engine.run(&Query::chain(p).issued_at(5)).unwrap();
        let tnn = engine
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn).issued_at(5))
            .unwrap();
        assert_eq!(chain.kind, QueryKind::Chain);
        let mut relabeled = tnn;
        relabeled.kind = QueryKind::Chain;
        assert_eq!(chain, relabeled);
        assert_eq!(chain.route.len(), 3);
        assert_eq!(chain.channels.len(), 3);
        assert!(chain.estimate_end.is_some());
    }

    #[test]
    fn variants_run_at_two_and_three_channels() {
        for layers in [
            vec![cloud(90, 1), cloud(110, 8)],
            vec![cloud(60, 1), cloud(70, 8), cloud(50, 15)],
        ] {
            let k = layers.len();
            let env = build_env(&layers, &vec![0; k]);
            let engine = QueryEngine::new(env);
            let p = Point::new(111.0, 55.0);
            let free = engine.run(&Query::order_free(p)).unwrap();
            assert_eq!(free.route.len(), k);
            assert!(free.visit_order().is_some());

            let tour = engine.run(&Query::round_trip(p)).unwrap();
            assert_eq!(tour.route.len(), k);
            // A closed tour is never shorter than the best one-way route.
            assert!(tour.total_dist.unwrap() >= free.total_dist.unwrap() - 1e-9);
        }
    }

    #[test]
    fn per_channel_ann_modes_match_core_config() {
        let env = two_channel();
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(60.0, 60.0);
        let modes = [AnnMode::Dynamic { factor: 1.0 }, AnnMode::Exact];
        let core = run_query_impl(
            &env,
            p,
            0,
            &TnnConfig::exact(Algorithm::DoubleNn).with_ann_modes(&modes),
            &mut QueryScratch::<ArrivalHeap>::default(),
        )
        .unwrap();
        let got = engine
            .run(
                &Query::tnn(p)
                    .algorithm(Algorithm::DoubleNn)
                    .ann_modes(&modes),
            )
            .unwrap();
        assert_eq!(got.tnn_pair(), core.answer());
        assert_eq!(got.tune_in(), core.tune_in());
        // The uniform spec materializes to the same modes at any k.
        assert_eq!(
            AnnSpec::Uniform(AnnMode::Exact).modes(3),
            AnnModes::exact(3)
        );
    }

    #[test]
    fn pooled_and_scratch_runs_agree() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let query = Query::tnn(Point::new(10.0, 10.0));
        let pooled = engine.run(&query).unwrap();
        let mut scratch = QueryScratch::default();
        let direct = engine.run_with(&query, &mut scratch).unwrap();
        assert_eq!(pooled, direct);
        // A second pooled run reuses the recycled scratch.
        assert_eq!(engine.run(&query).unwrap(), pooled);
    }

    #[test]
    fn engine_clone_shares_environment() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let copy = engine.clone();
        assert!(std::ptr::eq(engine.env().channels(), copy.env().channels()));
        let q = Query::round_trip(Point::new(90.0, 90.0));
        assert_eq!(engine.run(&q).unwrap(), copy.run(&q).unwrap());
    }

    #[test]
    fn swap_env_publishes_to_every_clone() {
        let engine = QueryEngine::new(two_channel());
        let copy = engine.clone();
        let q = Query::tnn(Point::new(77.0, 99.0));
        let before = engine.run(&q).unwrap();
        // Swap in an advanced environment with channel 0's dataset moved.
        let env = engine.env();
        let params = *env.channel(0).params();
        let shifted: Vec<Point> = cloud(90, 1)
            .iter()
            .map(|p| Point::new(p.x + 40.0, p.y + 40.0))
            .collect();
        let tree =
            Arc::new(RTree::build(&shifted, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        engine.swap_env(env.advance_channel(0, tree)).unwrap();
        assert_eq!(engine.env().epoch(), 1);
        assert_eq!(copy.env().epoch(), 1, "clones share the cell");
        let after_original = engine.run(&q).unwrap();
        let after_copy = copy.run(&q).unwrap();
        assert_eq!(after_original, after_copy);
        assert_ne!(
            before, after_original,
            "moved dataset must change the answer"
        );
        // A fresh engine over the swapped snapshot agrees byte-for-byte.
        let fresh = QueryEngine::new(engine.env());
        assert_eq!(fresh.run(&q).unwrap(), after_original);
    }

    #[test]
    fn swap_env_rejects_channel_count_changes() {
        let engine = QueryEngine::new(two_channel());
        let three = build_env(&[cloud(20, 0), cloud(20, 3), cloud(20, 6)], &[0, 0, 0]);
        assert_eq!(
            engine.swap_env(three).unwrap_err(),
            TnnError::WrongChannelCount {
                needed: 2,
                available: 3
            }
        );
        assert_eq!(engine.channels(), 2);
        assert_eq!(engine.env().epoch(), 0, "rejected swap changes nothing");
    }

    #[test]
    fn run_on_pins_a_snapshot_across_a_swap() {
        let engine = QueryEngine::new(two_channel());
        let q = Query::tnn(Point::new(40.0, 160.0));
        let pinned = engine.env();
        let before = engine.run(&q).unwrap();
        // Swap to a different dataset; the pinned snapshot still answers
        // like the original environment.
        let params = *pinned.channel(0).params();
        let tree = Arc::new(
            RTree::build(&cloud(33, 5), params.rtree_params(), PackingAlgorithm::Str).unwrap(),
        );
        engine.swap_env(pinned.advance_channel(0, tree)).unwrap();
        let mut scratch = QueryScratch::default();
        let on_pinned = engine.run_on(&pinned, &q, &mut scratch).unwrap();
        assert_eq!(on_pinned, before, "in-flight view stays consistent");
        assert_ne!(engine.run(&q).unwrap(), before);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let engine = &engine;
                    scope.spawn(move || {
                        engine
                            .run(&Query::tnn(Point::new(10.0 * i as f64, 50.0)))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| !o.failed()));
    }

    #[test]
    fn wrong_channel_counts_error() {
        // Every query kind runs over k ≥ 2 channels; a single channel is
        // rejected with the recoverable error for every kind.
        let env1 = build_env(&[cloud(20, 0)], &[0]);
        let engine = QueryEngine::new(env1);
        let p = Point::ORIGIN;
        for query in [
            Query::tnn(p),
            Query::chain(p),
            Query::order_free(p),
            Query::round_trip(p),
        ] {
            assert!(
                matches!(
                    engine.run(&query),
                    Err(TnnError::WrongChannelCount {
                        needed: 2,
                        available: 1
                    })
                ),
                "{:?}",
                query.kind()
            );
        }
        // Three channels are fine for every kind now.
        let env3 = build_env(&[cloud(20, 0), cloud(20, 3), cloud(20, 6)], &[0, 0, 0]);
        let engine = QueryEngine::new(env3);
        assert!(engine.run(&Query::tnn(p)).is_ok());
        assert!(engine.run(&Query::chain(p)).is_ok());
        assert!(engine.run(&Query::order_free(p)).is_ok());
        assert!(engine.run(&Query::round_trip(p)).is_ok());
        assert!(matches!(
            engine.run(&Query::chain(Point::new(f64::NAN, 0.0)).phases(&[0, 0, 0])),
            Err(TnnError::NonFiniteQuery)
        ));
    }

    #[test]
    fn wrong_kind_errors_before_ann_count_panics() {
        // A per-channel ANN list that matches the *environment* must not
        // panic when the query kind itself does not fit the channel
        // count — the recoverable error wins.
        let env1 = build_env(&[cloud(20, 0)], &[0]);
        let engine = QueryEngine::new(env1);
        let result = engine.run(&Query::tnn(Point::ORIGIN).ann_modes(&[AnnMode::Exact]));
        assert!(matches!(
            result,
            Err(TnnError::WrongChannelCount {
                needed: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn empty_channels_error_through_the_engine() {
        let params = BroadcastParams::new(64);
        let full = Arc::new(
            RTree::build(&cloud(30, 2), params.rtree_params(), PackingAlgorithm::Str).unwrap(),
        );
        let empty = Arc::new(RTree::empty(params.rtree_params()));
        let env = MultiChannelEnv::new(vec![full, empty], params, &[0, 0]);
        let engine = QueryEngine::new(env);
        let p = Point::ORIGIN;
        for query in [
            Query::tnn(p),
            Query::chain(p),
            Query::order_free(p),
            Query::round_trip(p),
        ] {
            assert_eq!(
                engine.run(&query).unwrap_err(),
                TnnError::EmptyChannel { channel: 1 },
                "{:?}",
                query.kind()
            );
        }
    }

    #[test]
    fn delete_to_empty_then_insert_recovers_for_every_algorithm() {
        // The degenerate mutation transitions must surface as recoverable
        // errors, never panics: deleting a channel's last object yields a
        // valid empty tree (queries → EmptyChannel), and inserting into
        // the empty channel makes it queryable again.
        use tnn_rtree::{DeltaOverlay, ObjectId};
        let engine = QueryEngine::new(two_channel());
        let p = Point::new(50.0, 50.0);
        // Delete every object on channel 1 through the overlay.
        let env = engine.env();
        let mut delta = DeltaOverlay::new(Arc::clone(env.channel(1).tree_arc()));
        let ids: Vec<ObjectId> = delta.live_points().iter().map(|&(_, id)| id).collect();
        for id in ids {
            assert!(delta.delete(id));
        }
        let emptied = delta.materialize().unwrap();
        engine
            .swap_env(env.advance_channel(1, Arc::new(emptied)))
            .unwrap();
        let queries = [
            Query::tnn(p).algorithm(Algorithm::DoubleNn),
            Query::tnn(p).algorithm(Algorithm::HybridNn),
            Query::tnn(p).algorithm(Algorithm::WindowBased),
            Query::tnn(p).algorithm(Algorithm::ApproximateTnn),
            Query::chain(p),
            Query::order_free(p),
            Query::round_trip(p),
        ];
        for query in &queries {
            assert_eq!(
                engine.run(query).unwrap_err(),
                TnnError::EmptyChannel { channel: 1 },
                "{:?}",
                query.kind()
            );
        }
        // Insert into the emptied channel and every kind works again.
        let env = engine.env();
        let mut refill = DeltaOverlay::new(Arc::clone(env.channel(1).tree_arc()));
        refill.insert(ObjectId(0), Point::new(55.0, 55.0)).unwrap();
        refill.insert(ObjectId(1), Point::new(60.0, 45.0)).unwrap();
        let refilled = refill.materialize().unwrap();
        engine
            .swap_env(env.advance_channel(1, Arc::new(refilled)))
            .unwrap();
        assert_eq!(engine.env().epoch(), 2);
        for query in &queries {
            let outcome = engine.run(query).unwrap();
            assert!(!outcome.failed(), "{:?}", query.kind());
        }
    }

    #[test]
    #[should_panic(expected = "one phase per channel")]
    fn phase_count_mismatch_panics() {
        let engine = QueryEngine::new(two_channel());
        let _ = engine.run(&Query::tnn(Point::ORIGIN).phases(&[1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "one ANN mode per channel")]
    fn ann_count_mismatch_panics() {
        let engine = QueryEngine::new(two_channel());
        let _ = engine.run(&Query::tnn(Point::ORIGIN).ann_modes(&[AnnMode::Exact; 3]));
    }

    #[test]
    fn outcome_metrics_match_core_run_accessors() {
        let env = two_channel();
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(33.0, 44.0);
        let core = run_query_impl(
            &env,
            p,
            9,
            &TnnConfig::default(),
            &mut QueryScratch::<ArrivalHeap>::default(),
        )
        .unwrap();
        let got = engine.run(&Query::tnn(p).issued_at(9)).unwrap();
        assert_eq!(got.access_time(), core.access_time());
        assert_eq!(got.tune_in(), core.tune_in());
        assert_eq!(got.tune_in_estimate(), core.tune_in_estimate());
        assert_eq!(got.tune_in_filter(), core.tune_in_filter());
        assert_eq!(
            got.total_candidates(),
            core.candidates[0] + core.candidates[1]
        );
        assert_eq!(got.failed(), core.failed());
        assert_eq!(got.estimate_end, Some(core.estimate_end));
        assert_eq!(got.peak_queue(), core.peak_queue());
        assert_eq!(got.prune_hits(), core.prune_hits());
        assert_eq!(
            got.node_visits(),
            core.tune_in_estimate() + core.tune_in_filter()
        );
    }

    /// The paper's §4.2.4 client-memory bound `(H−1)(M−1)`, observed
    /// end-to-end through the engine outcome: every search-running
    /// algorithm stays within a generous multiple of the per-channel
    /// bound, and Approximate-TNN (no searches) reports zero.
    #[test]
    fn outcome_peak_queue_respects_paper_memory_bound() {
        let env = build_env(&[cloud(900, 3), cloud(800, 11)], &[9, 27]);
        let engine = QueryEngine::new(env.clone());
        let bound = env
            .channels()
            .iter()
            .map(|ch| {
                let h = ch.tree().height() as u64;
                let m = ch.tree().params().fanout as u64;
                4 * (h - 1) * (m - 1) + m + 1
            })
            .max()
            .unwrap();
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let got = engine
                .run(&Query::tnn(Point::new(120.0, 120.0)).algorithm(alg))
                .unwrap();
            assert!(
                (1..=bound).contains(&got.peak_queue()),
                "{}: peak queue {} vs paper-derived bound {bound}",
                alg.name(),
                got.peak_queue()
            );
        }
        let approx = engine
            .run(&Query::tnn(Point::new(120.0, 120.0)).algorithm(Algorithm::ApproximateTnn))
            .unwrap();
        assert_eq!(approx.peak_queue(), 0, "no estimate searches, no queue");
        assert_eq!(approx.prune_hits(), 0);
    }
}
