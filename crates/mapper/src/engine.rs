//! The mapping engine: declarative fallback chains with panic isolation
//! and structured reporting.
//!
//! The paper's interactive workflow (§3) promises the user always gets
//! *a* mapping back; MAPPER's individual algorithms do not — the
//! exhaustive embedder is factorial, and any stage can reject its inputs
//! or (defensively) panic. [`run_engine`] closes that gap: it runs the
//! stages of a [`FallbackChain`] in priority order under one shared
//! [`Budget`], isolates each stage behind `catch_unwind`, collects every
//! stage's candidate mapping, and serves the cheapest one under the
//! METRICS cost model ([`crate::metrics_engine::MetricsEngine::scalar_cost`]
//! with [`EngineConfig::cost_model`]) — so the served candidate and the
//! metrics reported for it always agree. The [`EngineReport`] records
//! which stages ran, why each one stopped, and how much time and budget
//! each consumed.
//!
//! Chain semantics:
//!
//! * a stage that completes [`Completion::Optimal`] ends the chain — no
//!   cheaper-quality stage can beat a finished search, so later stages
//!   are marked skipped;
//! * a stage cut short by the budget still contributes its best-so-far
//!   candidate, and the chain continues to cheaper stages (which, being
//!   polynomial, finish even on a spent budget);
//! * a stage that errors or panics contributes nothing and the chain
//!   continues;
//! * cancellation stops the chain immediately; whatever candidate exists
//!   is served, else [`MapError::Cancelled`].
//!
//! One runner schedules every chain. With [`EngineConfig::parallelism`]
//! set to [`Parallelism::Threads`], independent stages run concurrently
//! on scoped worker threads, each behind its own panic isolation (or,
//! with [`EngineConfig::supervisor`] set, its own watchdog, retry and
//! circuit breaker) and a per-stage share of the step quota; at one
//! worker the same loop runs on the caller's thread. A per-stage kill
//! switch (layered on the shared [`CancelToken`] machinery) fires for
//! every *later* stage the moment an earlier stage finishes
//! [`Completion::Optimal`], so losers stop early — and the results are
//! folded back **in chain order** under exactly the sequential rules
//! above, so a parallel run serves the identical candidate, cost, and
//! completion as a sequential run on the same inputs (when step quotas
//! don't bind; a bounded quota is split across stages rather than
//! consumed front-to-back, which can change which stage runs out first).

use crate::budget::{Budget, CancelToken, Completion};
use crate::contraction::mwm_contract_budgeted;
use crate::embedding::exhaustive_embed_budgeted;
use crate::mapping::Mapping;
use crate::metrics_engine::{CostModel, MetricsEngine};
use crate::pipeline::{
    clusters_to_procs, collapse_for, contraction_from_assignment, finish,
    map_task_graph_budgeted_with_table, MapError, MapperOptions, MapperReport, Strategy,
};
use crate::routing::baseline::baseline_route_all;
use crate::supervisor::{served_health, supervised_stage, ServiceHealth, SupervisorConfig};
use oregami_graph::TaskGraph;
use oregami_topology::{Network, ProcId, RouteTableCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One stage of a fallback chain, ordered from highest mapping quality
/// (and cost) to cheapest guaranteed-success placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Branch-and-bound exhaustive embedding over the contracted cluster
    /// graph — optimal when run to completion, factorial in the worst
    /// case, anytime under a budget (seeded with the NN-Embed incumbent).
    Exhaustive,
    /// The regular MAPPER dispatch ([`map_task_graph_budgeted`]): canned /
    /// systolic / group-theoretic recognition, else MWM-Contract +
    /// NN-Embed. Polynomial.
    Heuristic,
    /// Round-robin task→processor placement with deterministic
    /// shortest-path routes. Linear, cannot fail on a connected network —
    /// the chain's safety net.
    Identity,
    /// Multilevel coarsen–map–refine ([`crate::multilevel`]): near-linear,
    /// built for 100k–1M-task graphs where the other search stages cannot
    /// even finish a first pass. Also auto-appended as a rescue lap when
    /// an unsupervised chain's searches all run out of budget.
    Multilevel,
}

impl StageKind {
    /// Stable lower-case name used in reports and `--chain` specs.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Exhaustive => "exhaustive",
            StageKind::Heuristic => "heuristic",
            StageKind::Identity => "identity",
            StageKind::Multilevel => "multilevel",
        }
    }
}

impl std::str::FromStr for StageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<StageKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(StageKind::Exhaustive),
            "heuristic" | "general" => Ok(StageKind::Heuristic),
            "identity" => Ok(StageKind::Identity),
            "multilevel" | "ml" => Ok(StageKind::Multilevel),
            other => Err(format!(
                "unknown stage '{other}' (expected exhaustive, heuristic, multilevel, \
                 or identity)"
            )),
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered list of stages to attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FallbackChain {
    /// Stages in priority order, best quality first.
    pub stages: Vec<StageKind>,
}

impl Default for FallbackChain {
    /// Just the regular MAPPER dispatch — the behaviour of
    /// [`crate::pipeline::map_task_graph`].
    fn default() -> FallbackChain {
        FallbackChain {
            stages: vec![StageKind::Heuristic],
        }
    }
}

impl FallbackChain {
    /// The full chain: exhaustive → heuristic → identity.
    pub fn full() -> FallbackChain {
        FallbackChain {
            stages: vec![
                StageKind::Exhaustive,
                StageKind::Heuristic,
                StageKind::Identity,
            ],
        }
    }

    /// Parses a comma-separated spec like `"exhaustive,heuristic,identity"`.
    pub fn parse(spec: &str) -> Result<FallbackChain, String> {
        let stages: Vec<StageKind> = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        if stages.is_empty() {
            return Err("fallback chain spec names no stages".into());
        }
        Ok(FallbackChain { stages })
    }
}

impl std::fmt::Display for FallbackChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            f.write_str(s.name())?;
        }
        Ok(())
    }
}

/// How the engine schedules the stages of a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Stages run one after another in chain order (the PR 2 behaviour).
    #[default]
    Sequential,
    /// Up to this many scoped worker threads pull stages off the chain
    /// concurrently. `Threads(0)` and `Threads(1)` degrade to sequential.
    Threads(usize),
}

impl Parallelism {
    /// The number of worker threads this mode uses for a chain of
    /// `stages` stages (never more workers than stages).
    pub fn workers_for(self, stages: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, stages.max(1)),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => f.write_str("sequential"),
            Parallelism::Threads(n) => write!(f, "{n} threads"),
        }
    }
}

/// Engine-level configuration: scheduling mode plus an optional shared
/// route-table cache.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Sequential or multi-threaded stage execution.
    pub parallelism: Parallelism,
    /// Route tables for `net` are taken from (and inserted into) this
    /// cache. `None` gives the run a small private cache, which still
    /// spares the per-stage rebuilds within one chain; pass a shared
    /// cache (as `core::Oregami` does) to also reuse tables across runs.
    pub cache: Option<Arc<RouteTableCache>>,
    /// The METRICS cost model candidates are ranked under — the same
    /// model the metrics report for the served mapping uses.
    pub cost_model: CostModel,
    /// When set, stages run under the supervisor: each on a watched
    /// worker thread with a deadline watchdog (non-polling stages get
    /// killed and, past the grace window, detached and reported
    /// [`StageStatus::Hung`]), bounded retry for transient failures, and
    /// persistent per-stage circuit breakers.
    pub supervisor: Option<SupervisorConfig>,
}

impl EngineConfig {
    /// Sequential scheduling with a shared cache.
    pub fn with_cache(cache: Arc<RouteTableCache>) -> EngineConfig {
        EngineConfig {
            parallelism: Parallelism::Sequential,
            cache: Some(cache),
            cost_model: CostModel::default(),
            supervisor: None,
        }
    }

    /// Enables supervised stage execution (watchdog + retry + circuit
    /// breakers). See [`crate::supervisor`].
    pub fn supervised(mut self, cfg: SupervisorConfig) -> EngineConfig {
        self.supervisor = Some(cfg);
        self
    }

    /// Sets the cost model candidates are ranked under.
    pub fn with_cost_model(mut self, model: CostModel) -> EngineConfig {
        self.cost_model = model;
        self
    }

    /// Sets the scheduling mode.
    pub fn threads(mut self, n: usize) -> EngineConfig {
        self.parallelism = if n > 1 {
            Parallelism::Threads(n)
        } else {
            Parallelism::Sequential
        };
        self
    }
}

/// How a stage fared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StageStatus {
    /// Produced the mapping the engine served.
    Served,
    /// Produced a valid candidate that a cheaper one beat.
    Candidate,
    /// Never ran: an earlier stage finished optimally or the run was
    /// cancelled.
    Skipped,
    /// Returned a typed error.
    Failed(String),
    /// Panicked; the panic was contained and the chain continued.
    Panicked(String),
    /// Never responded to its kill token within the deadline + grace
    /// window: the supervisor detached its worker thread and moved on
    /// (supervised runs only).
    Hung,
    /// Skipped because the stage's circuit breaker is open after too
    /// many consecutive panics/hangs (supervised runs only).
    CircuitOpen,
}

/// One stage's entry in the [`EngineReport`].
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Which stage.
    pub stage: StageKind,
    /// How it fared.
    pub status: StageStatus,
    /// How its search ended (candidates only).
    pub completion: Option<Completion>,
    /// Wall-clock time the stage consumed.
    pub elapsed: Duration,
    /// Budget steps the stage consumed.
    pub steps: u64,
    /// METRICS scalar cost of its candidate under the engine's cost
    /// model (candidates only).
    pub cost: Option<u64>,
    /// How many times the stage was attempted (supervised runs retry
    /// transient failures; unsupervised runs report 1, skips 0).
    pub attempts: u32,
}

/// The engine's structured account of a chain run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Per-stage outcomes, in chain order.
    pub stages: Vec<StageReport>,
    /// The stage whose candidate was served.
    pub served_by: StageKind,
    /// Worst completion over every stage that produced a candidate: if
    /// any search was cut short, the served mapping may be suboptimal
    /// and this is degraded even when a later (cheaper) stage finished.
    pub completion: Completion,
    /// Total wall-clock time of the chain.
    pub elapsed: Duration,
    /// Total budget steps consumed by the chain (parallel runs include
    /// the steps of stages whose results were discarded).
    pub steps: u64,
    /// How the stages were scheduled.
    pub parallelism: Parallelism,
    /// The service-level verdict: [`ServiceHealth::Healthy`] only when
    /// the run served optimally with no failures, hangs, retries, or
    /// tripped breakers; a served run is otherwise
    /// [`ServiceHealth::Degraded`]. ([`ServiceHealth::Unserviceable`]
    /// runs don't produce a report — they are the
    /// [`MapError::Unserviceable`] error path.)
    pub health: ServiceHealth,
}

impl EngineReport {
    /// Whether any attempted search was cut short (deadline, quota, or
    /// cancellation) — the served mapping is valid but possibly worse
    /// than an unbudgeted run would produce.
    pub fn is_degraded(&self) -> bool {
        self.completion.is_degraded()
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine: served by {} ({}), {} steps in {:.1?}",
            self.served_by, self.completion, self.steps, self.elapsed
        )?;
        if let Parallelism::Threads(_) = self.parallelism {
            write!(f, " [{}]", self.parallelism)?;
        }
        writeln!(f)?;
        for s in &self.stages {
            write!(f, "  stage {:<10} : ", s.stage.name())?;
            match &s.status {
                StageStatus::Served | StageStatus::Candidate => {
                    let completion = s.completion.unwrap_or(Completion::Optimal);
                    write!(
                        f,
                        "{completion} after {} steps in {:.1?} (cost {})",
                        s.steps,
                        s.elapsed,
                        s.cost.unwrap_or(0)
                    )?;
                    if s.status == StageStatus::Served {
                        write!(f, " [served]")?;
                    }
                }
                StageStatus::Skipped => write!(f, "skipped")?,
                StageStatus::Failed(e) => write!(f, "failed: {e}")?,
                StageStatus::Panicked(msg) => write!(f, "panicked: {msg}")?,
                StageStatus::Hung => write!(
                    f,
                    "hung: no response within deadline + grace; worker detached"
                )?,
                StageStatus::CircuitOpen => write!(f, "skipped: circuit breaker open")?,
            }
            if s.attempts > 1 {
                write!(f, " [{} attempts]", s.attempts)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  health: {}", self.health)?;
        Ok(())
    }
}

/// A served mapping plus the engine's account of how it was produced.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// The mapping report of the served stage.
    pub report: MapperReport,
    /// The chain's structured execution record.
    pub engine: EngineReport,
}

/// The single ranking the chain serves by: the METRICS engine's scalar
/// cost of the candidate (completion time when the graph declares a phase
/// expression, else the summed per-phase communication slot costs), under
/// the configured cost model. A candidate the metrics engine rejects
/// ranks last rather than failing the chain.
fn candidate_cost(tg: &TaskGraph, net: &Network, mapping: &Mapping, model: &CostModel) -> u64 {
    MetricsEngine::try_new(tg, net, mapping, model)
        .map(|e| e.scalar_cost())
        .unwrap_or(u64::MAX)
}

/// The chain-order fold: turns each [`RawStage`] into its
/// [`StageReport`] under the sequential chain semantics, tracking the
/// cheapest candidate and the worst completion seen.
struct Fold<'a> {
    tg: &'a TaskGraph,
    net: &'a Network,
    model: &'a CostModel,
    stages: Vec<StageReport>,
    /// (report, cost, index into `stages`) of the cheapest candidate.
    best: Option<(MapperReport, u64, usize)>,
    worst_completion: Completion,
    /// An earlier stage ended the chain: later results are skips.
    stop: bool,
    cancelled: bool,
}

impl Fold<'_> {
    fn push(&mut self, kind: StageKind, raw: RawStage) {
        let ends_chain = raw.ends_chain();
        let RawStage {
            outcome,
            elapsed,
            steps,
            attempts,
        } = raw;
        let (status, completion, cost) = if self.stop {
            (StageStatus::Skipped, None, None)
        } else {
            self.stop = ends_chain;
            match outcome {
                RawOutcome::Candidate(report, completion) => {
                    let cost = candidate_cost(self.tg, self.net, &report.mapping, self.model);
                    self.worst_completion = self.worst_completion.worst(completion);
                    self.cancelled |= completion == Completion::Cancelled;
                    if self.best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                        self.best = Some((report, cost, self.stages.len()));
                    }
                    (StageStatus::Candidate, Some(completion), Some(cost))
                }
                RawOutcome::Failed(e) => {
                    self.cancelled |= matches!(e, MapError::Cancelled);
                    (StageStatus::Failed(e.to_string()), None, None)
                }
                RawOutcome::Panicked(msg) => (StageStatus::Panicked(msg), None, None),
                RawOutcome::Hung => (StageStatus::Hung, None, None),
                RawOutcome::CircuitOpen => (StageStatus::CircuitOpen, None, None),
                RawOutcome::NotRun => (StageStatus::Skipped, None, None),
            }
        };
        self.stages.push(StageReport {
            stage: kind,
            status,
            completion,
            elapsed,
            steps,
            cost,
            attempts,
        });
    }
}

/// Runs the fallback chain on `tg`/`net` under `budget` and serves the
/// cheapest candidate, sequentially with a private route-table cache.
/// See the module docs for the chain semantics;
/// [`run_engine_with`] adds scheduling and cache control.
pub fn run_engine(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    chain: &FallbackChain,
    budget: &Budget,
) -> Result<EngineOutcome, MapError> {
    run_engine_with(tg, net, opts, chain, budget, &EngineConfig::default())
}

/// [`run_engine`] with an explicit [`EngineConfig`]: parallel stage
/// scheduling and/or a shared [`RouteTableCache`].
pub fn run_engine_with(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    chain: &FallbackChain,
    budget: &Budget,
    config: &EngineConfig,
) -> Result<EngineOutcome, MapError> {
    if chain.stages.is_empty() {
        return Err(MapError::AllStagesFailed("empty fallback chain".into()));
    }
    if tg.num_tasks() == 0 {
        return Err(MapError::EmptyTaskGraph);
    }
    if net.num_procs() == 0 {
        return Err(MapError::BadNetwork("network has no processors".into()));
    }
    let cache = config
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(RouteTableCache::new(4)));
    // Warm the cache (one build, every stage hits) and fail fast on a
    // disconnected network before any stage spends budget.
    cache.get_or_build(net)?;
    let start = Instant::now();

    let raw = run_stages(tg, net, opts, &chain.stages, budget, &cache, config);

    // Fold the per-stage results back *in chain order* under the
    // sequential chain semantics. This is the determinism keystone: no
    // matter how stage executions interleaved, the first stage (in chain
    // order) that finished Optimal or Cancelled ends the chain here, any
    // result a later stage produced before its kill switch caught it is
    // discarded as Skipped, and the serving rule sees exactly the
    // candidates a sequential run would have seen.
    let mut fold = Fold {
        tg,
        net,
        model: &config.cost_model,
        stages: Vec::with_capacity(chain.stages.len()),
        best: None,
        worst_completion: Completion::Optimal,
        stop: false,
        cancelled: false,
    };
    for (&kind, stage) in chain.stages.iter().zip(raw) {
        fold.push(kind, stage);
    }

    // Auto-selection rescue lap: when every search stage the chain *did*
    // run was cut short by the step quota, the near-linear multilevel
    // stage gets one shot at beating the degraded candidates — it makes
    // real progress even on a spent budget (coarsening and refinement
    // degrade to packing + NN-Embed, never to nothing). Only for
    // unsupervised, uncancelled runs whose chain didn't already name it;
    // its candidate competes under the same lowest-cost serving rule.
    if config.supervisor.is_none()
        && !fold.cancelled
        && fold.worst_completion == Completion::BudgetExhausted
        && !chain.stages.contains(&StageKind::Multilevel)
    {
        // the lap runs past the chain's end, so the chain's stop doesn't skip it
        fold.stop = false;
        let rescue = [StageKind::Multilevel];
        let raw = run_stages(tg, net, opts, &rescue, budget, &cache, &EngineConfig::default());
        for (&kind, stage) in rescue.iter().zip(raw) {
            fold.push(kind, stage);
        }
    }

    let Fold {
        mut stages,
        best,
        worst_completion,
        cancelled,
        ..
    } = fold;
    let sup_state = config.supervisor.as_ref().map(|s| &*s.state);
    match best {
        Some((report, _, idx)) => {
            stages[idx].status = StageStatus::Served;
            let health = served_health(&stages, worst_completion, sup_state);
            let engine = EngineReport {
                served_by: stages[idx].stage,
                completion: worst_completion,
                elapsed: start.elapsed(),
                steps: budget.steps_used(),
                parallelism: config.parallelism,
                health,
                stages,
            };
            Ok(EngineOutcome { report, engine })
        }
        None if cancelled => Err(MapError::Cancelled),
        None => {
            let details = stages
                .iter()
                .map(|s| {
                    let fate = match &s.status {
                        StageStatus::Failed(e) => e.clone(),
                        StageStatus::Panicked(msg) => format!("panic: {msg}"),
                        StageStatus::Skipped => "skipped".into(),
                        StageStatus::Hung => "hung (worker detached)".into(),
                        StageStatus::CircuitOpen => "circuit breaker open".into(),
                        _ => "no candidate".into(),
                    };
                    format!("{}: {}", s.stage, fate)
                })
                .collect::<Vec<_>>()
                .join("; ");
            if config.supervisor.is_some() {
                // A supervised run that serves nothing is the
                // Unserviceable health verdict, as a typed error.
                Err(MapError::Unserviceable(details))
            } else {
                Err(MapError::AllStagesFailed(details))
            }
        }
    }
}

/// What one stage execution produced, before the chain-order fold.
pub(crate) enum RawOutcome {
    Candidate(MapperReport, Completion),
    Failed(MapError),
    Panicked(String),
    /// The stage's worker never responded to its kill token within the
    /// grace window; the supervisor detached it (supervised runs only).
    Hung,
    /// The stage's circuit breaker is open; the supervisor skipped it
    /// (supervised runs only).
    CircuitOpen,
    /// The stage never started (an earlier stage had already ended the
    /// chain).
    NotRun,
}

pub(crate) struct RawStage {
    pub(crate) outcome: RawOutcome,
    pub(crate) elapsed: Duration,
    pub(crate) steps: u64,
    pub(crate) attempts: u32,
}

impl RawStage {
    fn not_run() -> RawStage {
        RawStage {
            outcome: RawOutcome::NotRun,
            elapsed: Duration::ZERO,
            steps: 0,
            attempts: 0,
        }
    }

    /// Whether, under sequential chain semantics, no later stage would
    /// run after this result.
    fn ends_chain(&self) -> bool {
        match &self.outcome {
            RawOutcome::Candidate(_, completion) => {
                !matches!(completion, Completion::BudgetExhausted)
            }
            RawOutcome::Failed(e) => matches!(e, MapError::Cancelled),
            RawOutcome::Panicked(_) | RawOutcome::NotRun => false,
            // a hung stage spent the deadline but the chain's cheaper
            // stages still get their (grace-window) chance to serve
            RawOutcome::Hung | RawOutcome::CircuitOpen => false,
        }
    }
}

/// One isolated stage execution: panics contained, steps measured.
fn execute_stage(
    kind: StageKind,
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> RawStage {
    let steps_before = budget.steps_used();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_stage(kind, tg, net, opts, budget, cache)
    }));
    let elapsed = t0.elapsed();
    let steps = budget.steps_used() - steps_before;
    let outcome = match outcome {
        Ok(Ok((report, completion))) => RawOutcome::Candidate(report, completion),
        Ok(Err(e)) => RawOutcome::Failed(e),
        Err(panic) => RawOutcome::Panicked(panic_message(&*panic)),
    };
    RawStage {
        outcome,
        elapsed,
        steps,
        attempts: 1,
    }
}

/// The one stage runner. Up to `config.parallelism.workers_for(n)`
/// workers pull stages off the chain by index; a single worker runs the
/// loop on the caller's thread (no spawn, so deep recursion keeps the
/// main stack). Each stage gets a child [`Budget`] carrying the caller's
/// deadline and cancel tokens plus a per-stage kill switch; a stage whose
/// result ends the chain fires the kill switches of every *later* stage
/// only — earlier stages would have run to completion sequentially, so
/// their candidates must still compete. A stage runs through
/// [`execute_stage`], or through the supervisor's watchdog, retry and
/// circuit breaker when `config.supervisor` is set.
fn run_stages(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    stages: &[StageKind],
    budget: &Budget,
    cache: &Arc<RouteTableCache>,
    config: &EngineConfig,
) -> Vec<RawStage> {
    let n = stages.len();
    let workers = config.parallelism.workers_for(n);
    // One worker takes whatever quota its predecessors left, front to
    // back. More workers split the quota evenly over the *actual* chain
    // length — never a hard-coded stage count — so a 4-stage chain gives
    // every stage a fair 1/4 share, with the remainder to the front.
    let shares: Option<Vec<Option<u64>>> = (workers > 1).then(|| {
        let remaining = budget.remaining_steps();
        (0..n as u64)
            .map(|i| remaining.map(|r| r / n as u64 + u64::from(i < r % n as u64)))
            .collect()
    });
    // Supervised attempts run on detachable ('static) threads, so they
    // get their own copies of the inputs — cloned once per run.
    let supervised = config
        .supervisor
        .as_ref()
        .map(|sup| (sup, Arc::new(tg.clone()), Arc::new(net.clone()), Arc::new(opts.clone())));
    let kills: Vec<CancelToken> = (0..n).map(|_| CancelToken::new()).collect();
    let results: Vec<Mutex<Option<RawStage>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let stage = if kills[i].is_cancelled() {
            // an earlier stage already ended the chain before this one
            // started: equivalent to a sequential skip
            RawStage::not_run()
        } else {
            let quota = match &shares {
                Some(shares) => shares[i],
                None => budget.remaining_steps(),
            };
            let child = budget.child(kills[i].clone(), quota);
            let stage = match &supervised {
                Some((sup, tg, net, opts)) => {
                    supervised_stage(stages[i], tg, net, opts, &child, cache, sup)
                }
                None => execute_stage(stages[i], tg, net, opts, &child, cache),
            };
            budget.charge(child.steps_used());
            stage
        };
        if stage.ends_chain() {
            for kill in kills.iter().skip(i + 1) {
                kill.cancel();
            }
        }
        *results[i].lock().expect("stage result poisoned") = Some(stage);
    };
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("stage result poisoned")
                .unwrap_or_else(RawStage::not_run)
        })
        .collect()
}

pub(crate) fn run_stage(
    kind: StageKind,
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> Result<(MapperReport, Completion), MapError> {
    match kind {
        StageKind::Heuristic => {
            let table = cache.get_or_build(net)?;
            map_task_graph_budgeted_with_table(tg, net, opts, budget, &table)
        }
        StageKind::Exhaustive => exhaustive_stage(tg, net, opts, budget, cache),
        StageKind::Identity => identity_stage(tg, net, opts, cache),
        StageKind::Multilevel => {
            let table = cache.get_or_build(net)?;
            crate::multilevel::multilevel_stage(tg, net, opts, budget, table)
        }
    }
}

/// Contract to at most `P` clusters, then place the quotient with the
/// anytime branch-and-bound embedder.
fn exhaustive_stage(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    budget: &Budget,
    cache: &RouteTableCache,
) -> Result<(MapperReport, Completion), MapError> {
    if let Some(Completion::Cancelled) = budget.poll() {
        return Err(MapError::Cancelled);
    }
    let n = tg.num_tasks();
    let p = net.num_procs();
    let table = cache.get_or_build(net)?;
    let table = &*table;
    let collapsed = collapse_for(tg, opts);
    let bound = opts.load_bound.unwrap_or_else(|| n.div_ceil(p).max(1));
    let (contraction, contract_completion) = mwm_contract_budgeted(&collapsed, p, bound, budget)?;
    let (quotient, _) = collapsed.quotient(&contraction.cluster_of, contraction.num_clusters);
    let embed = exhaustive_embed_budgeted(&quotient, net, table, budget)?;
    let completion = contract_completion.worst(embed.completion);
    let notes = vec![format!(
        "exhaustive embedding: {} clusters on {p} processors, quotient cost {} ({})",
        contraction.num_clusters, embed.cost, embed.completion
    )];
    let assignment = clusters_to_procs(&contraction, &embed.placement);
    let mapping = finish(tg, net, table, assignment, opts);
    Ok((
        MapperReport {
            strategy: Strategy::Exhaustive,
            contraction,
            mapping,
            collapsed,
            notes,
        },
        completion,
    ))
}

/// Round-robin placement with fixed shortest-path routes: linear work,
/// no search to cut short, valid on any connected network.
fn identity_stage(
    tg: &TaskGraph,
    net: &Network,
    opts: &MapperOptions,
    cache: &RouteTableCache,
) -> Result<(MapperReport, Completion), MapError> {
    let n = tg.num_tasks();
    let p = net.num_procs();
    let table = cache.get_or_build(net)?;
    let assignment: Vec<ProcId> = (0..n).map(|t| ProcId((t % p) as u32)).collect();
    let routes = baseline_route_all(tg, &assignment, net, &table);
    let mapping = Mapping { assignment, routes };
    mapping.validate(tg, net)?;
    let contraction = contraction_from_assignment(&mapping.assignment, p);
    Ok((
        MapperReport {
            strategy: Strategy::Identity,
            contraction,
            mapping,
            collapsed: collapse_for(tg, opts),
            notes: vec![
                "identity placement: round-robin task assignment, shortest-path routes".into(),
            ],
        },
        Completion::Optimal,
    ))
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_larcs::{compile, programs};
    use oregami_topology::builders;

    fn jacobi16() -> TaskGraph {
        compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap()
    }

    #[test]
    fn stage_kind_parses_round_trip() {
        for kind in [
            StageKind::Exhaustive,
            StageKind::Heuristic,
            StageKind::Identity,
            StageKind::Multilevel,
        ] {
            assert_eq!(kind.name().parse::<StageKind>().unwrap(), kind);
        }
        assert_eq!("ml".parse::<StageKind>().unwrap(), StageKind::Multilevel);
        assert!("bogus".parse::<StageKind>().is_err());
        let chain = FallbackChain::parse("exhaustive, heuristic,identity").unwrap();
        assert_eq!(chain, FallbackChain::full());
        assert!(FallbackChain::parse(",,").is_err());
        assert_eq!(chain.to_string(), "exhaustive -> heuristic -> identity");
    }

    #[test]
    fn default_chain_matches_plain_pipeline() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let outcome = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.engine.served_by, StageKind::Heuristic);
        assert_eq!(outcome.engine.completion, Completion::Optimal);
        assert!(!outcome.engine.is_degraded());
        let plain =
            crate::pipeline::map_task_graph(&tg, &net, &MapperOptions::default()).unwrap();
        assert_eq!(outcome.report.mapping.assignment, plain.mapping.assignment);
    }

    #[test]
    fn exhausted_exhaustive_falls_through_and_still_serves() {
        // 16 tasks on 16 procs: the exhaustive stage faces 16! placements
        // and a 1-step budget; the chain must still serve a valid mapping
        // and the report must name the exhausted stage.
        let tg = jacobi16();
        let net = builders::hypercube(4);
        let budget = Budget::unlimited().with_max_steps(1);
        let outcome = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &budget,
        )
        .unwrap();
        assert!(outcome.engine.is_degraded());
        assert_eq!(outcome.engine.completion, Completion::BudgetExhausted);
        outcome.report.mapping.validate(&tg, &net).unwrap();
        let rendered = outcome.engine.to_string();
        assert!(
            rendered.contains("exhaustive") && rendered.contains("budget exhausted"),
            "report must name the exhausted stage:\n{rendered}"
        );
    }

    #[test]
    fn optimal_first_stage_skips_the_rest() {
        // 4 tasks on 4 procs: the exhaustive stage finishes optimally, so
        // heuristic and identity never run.
        let tg = oregami_graph::Family::Ring(4).build();
        let net = builders::hypercube(2);
        let outcome = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.engine.served_by, StageKind::Exhaustive);
        assert_eq!(outcome.engine.completion, Completion::Optimal);
        assert_eq!(outcome.engine.stages[0].status, StageStatus::Served);
        assert_eq!(outcome.engine.stages[1].status, StageStatus::Skipped);
        assert_eq!(outcome.engine.stages[2].status, StageStatus::Skipped);
    }

    #[test]
    fn identity_stage_always_serves() {
        let tg = jacobi16();
        let net = builders::chain(5); // 16 tasks on 5 procs, nothing regular
        let outcome = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain {
                stages: vec![StageKind::Identity],
            },
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.report.strategy, Strategy::Identity);
        outcome.report.mapping.validate(&tg, &net).unwrap();
        // round-robin: loads differ by at most one
        let loads = outcome.report.mapping.tasks_per_proc(5);
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
    }

    #[test]
    fn cancelled_before_start_is_an_error() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain {
                stages: vec![StageKind::Exhaustive, StageKind::Heuristic],
            },
            &budget,
        )
        .unwrap_err();
        assert!(matches!(err, MapError::Cancelled));
    }

    #[test]
    fn panicking_stage_is_contained() {
        // Drive the engine's catch_unwind path directly: a panicking
        // closure must surface as StageStatus::Panicked, not a crash.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), MapError> {
            panic!("stage blew up")
        }));
        assert!(outcome.is_err());
        assert_eq!(panic_message(&*outcome.unwrap_err()), "stage blew up");
    }

    fn served_cost(outcome: &EngineOutcome) -> Option<u64> {
        outcome
            .engine
            .stages
            .iter()
            .find(|s| s.status == StageStatus::Served)
            .and_then(|s| s.cost)
    }

    #[test]
    fn parallel_matches_sequential_outcome() {
        // The determinism contract: for fixed inputs and an unlimited
        // budget, a parallel run serves the identical candidate, cost,
        // and completion as a sequential run, at every thread count.
        let cases: Vec<(TaskGraph, oregami_topology::Network)> = vec![
            (jacobi16(), builders::hypercube(2)),
            (jacobi16(), builders::chain(5)),
            (oregami_graph::Family::Ring(4).build(), builders::hypercube(2)),
            (oregami_graph::Family::Ring(6).build(), builders::ring(6)),
        ];
        for (tg, net) in &cases {
            let seq = run_engine(
                tg,
                net,
                &MapperOptions::default(),
                &FallbackChain::full(),
                &Budget::unlimited(),
            )
            .unwrap();
            for threads in [2, 3, 4, 8] {
                let config = EngineConfig::default().threads(threads);
                let par = run_engine_with(
                    tg,
                    net,
                    &MapperOptions::default(),
                    &FallbackChain::full(),
                    &Budget::unlimited(),
                    &config,
                )
                .unwrap();
                assert_eq!(par.engine.served_by, seq.engine.served_by, "{}", net.name);
                assert_eq!(par.engine.completion, seq.engine.completion);
                assert_eq!(
                    par.report.mapping.assignment, seq.report.mapping.assignment,
                    "parallel and sequential must serve the same mapping on {}",
                    net.name
                );
                assert_eq!(served_cost(&par), served_cost(&seq));
            }
        }
    }

    #[test]
    fn parallel_discards_later_results_after_optimal_winner() {
        // 4 tasks on 4 procs: exhaustive finishes Optimal. Even though
        // the parallel workers may have raced heuristic/identity to
        // completion, the chain-order fold must discard their candidates
        // exactly as the sequential skip would.
        let tg = oregami_graph::Family::Ring(4).build();
        let net = builders::hypercube(2);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited(),
            &EngineConfig::default().threads(3),
        )
        .unwrap();
        assert_eq!(outcome.engine.served_by, StageKind::Exhaustive);
        assert_eq!(outcome.engine.completion, Completion::Optimal);
        assert_eq!(outcome.engine.stages[0].status, StageStatus::Served);
        assert_eq!(outcome.engine.stages[1].status, StageStatus::Skipped);
        assert_eq!(outcome.engine.stages[2].status, StageStatus::Skipped);
        assert_eq!(outcome.engine.parallelism, Parallelism::Threads(3));
        assert!(outcome.engine.to_string().contains("3 threads"));
    }

    #[test]
    fn parallel_splits_step_quota_and_still_serves() {
        // 16 tasks on 16 procs under a tiny quota: every stage gets a
        // share, exhaustive exhausts its share, and the chain still
        // serves a valid mapping.
        let tg = jacobi16();
        let net = builders::hypercube(4);
        let budget = Budget::unlimited().with_max_steps(300);
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &budget,
            &EngineConfig::default().threads(4),
        )
        .unwrap();
        outcome.report.mapping.validate(&tg, &net).unwrap();
        assert!(outcome.engine.is_degraded());
        // the parent budget accounts for every stage's work
        assert_eq!(
            outcome.engine.steps,
            outcome.engine.stages.iter().map(|s| s.steps).sum::<u64>()
        );
    }

    #[test]
    fn four_stage_chain_splits_quota_and_serves_deterministically() {
        // The satellite-3 audit as a test: a 4-stage chain under a bounded
        // step quota must charge every stage its share (the split derives
        // from the chain length, not a hard-coded 3), account for every
        // step in the parent budget, and serve the lowest-cost candidate
        // byte-identically across repeated runs.
        // 64 tasks on 5 procs: above the 4×P coarsening threshold, so
        // multilevel's matching charges a step per examined edge — its
        // 10-step share trips and the chain falls through to every later
        // stage instead of ending on an optimal first stage.
        let tg = compile(&programs::jacobi(), &[("n", 8), ("iters", 1)]).unwrap();
        let net = builders::chain(5);
        let chain = FallbackChain::parse("multilevel,exhaustive,heuristic,identity").unwrap();
        assert_eq!(chain.stages.len(), 4);
        let run = || {
            run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &chain,
                &Budget::unlimited().with_max_steps(40),
                &EngineConfig::default().threads(4),
            )
            .unwrap()
        };
        let a = run();
        a.report.mapping.validate(&tg, &net).unwrap();
        // every stage ran (nothing skipped: with 10-step shares no search
        // stage can finish optimally and end the chain early)
        for s in &a.engine.stages {
            assert!(
                !matches!(s.status, StageStatus::Skipped),
                "stage {} must run under the split quota",
                s.stage
            );
        }
        // the parent budget accounts for every stage's charged steps
        assert_eq!(
            a.engine.steps,
            a.engine.stages.iter().map(|s| s.steps).sum::<u64>()
        );
        // serving rule: the served stage has the minimum cost on offer
        let served = served_cost(&a).unwrap();
        let min = a.engine.stages.iter().filter_map(|s| s.cost).min().unwrap();
        assert_eq!(served, min);
        // byte-determinism across runs
        let b = run();
        assert_eq!(a.engine.served_by, b.engine.served_by);
        assert_eq!(a.report.mapping.assignment, b.report.mapping.assignment);
    }

    #[test]
    fn exhausted_chain_auto_selects_multilevel_rescue() {
        // A budget-starved chain that never named multilevel gets the
        // rescue lap appended; its candidate competes and the report
        // names it.
        let tg = jacobi16();
        let net = builders::hypercube(4);
        let outcome = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited().with_max_steps(1),
        )
        .unwrap();
        assert!(outcome.engine.is_degraded());
        let ml = outcome
            .engine
            .stages
            .iter()
            .find(|s| s.stage == StageKind::Multilevel)
            .expect("rescue lap must be appended to the report");
        assert!(
            matches!(ml.status, StageStatus::Served | StageStatus::Candidate),
            "rescue lap must produce a candidate, got {:?}",
            ml.status
        );
        outcome.report.mapping.validate(&tg, &net).unwrap();
        // an unbudgeted run never triggers the rescue lap (small instance:
        // unbudgeted exhaustive on 16 procs would be factorial)
        let clean = run_engine(
            &tg,
            &builders::hypercube(2),
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(clean
            .engine
            .stages
            .iter()
            .all(|s| s.stage != StageKind::Multilevel));
    }

    #[test]
    fn shared_cache_is_hit_across_stages_and_runs() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let cache = Arc::new(RouteTableCache::new(4));
        let config = EngineConfig::with_cache(Arc::clone(&cache)).threads(2);
        for _ in 0..2 {
            run_engine_with(
                &tg,
                &net,
                &MapperOptions::default(),
                &FallbackChain::full(),
                &Budget::unlimited(),
                &config,
            )
            .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one BFS sweep for the whole pair of runs");
        assert!(stats.hits >= 3, "engine + stages must hit, got {stats:?}");
    }

    #[test]
    fn parallel_cancelled_before_start_is_an_error() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain {
                stages: vec![StageKind::Exhaustive, StageKind::Heuristic],
            },
            &budget,
            &EngineConfig::default().threads(2),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::Cancelled));
    }

    #[test]
    fn threads_one_degrades_to_sequential() {
        let config = EngineConfig::default().threads(1);
        assert_eq!(config.parallelism, Parallelism::Sequential);
        assert_eq!(Parallelism::Threads(8).workers_for(3), 3);
        assert_eq!(Parallelism::Threads(0).workers_for(3), 1);
        assert_eq!(Parallelism::Sequential.workers_for(3), 1);
        assert_eq!(Parallelism::Threads(2).to_string(), "2 threads");
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
    }

    #[test]
    fn empty_chain_rejected() {
        let tg = jacobi16();
        let net = builders::hypercube(2);
        let err = run_engine(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain { stages: vec![] },
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::AllStagesFailed(_)));
    }
}
