//! `service`: an open loop against an in-process `oregamid`
//! (`workers = nproc`). Thread A sends one-shot `map` / `metrics` /
//! `repair` requests, each on a new connection as `oregami --socket`
//! does; thread B holds one session connection and sends journalled
//! `session_edit` lines and `session_stream` churn batches. A runs a
//! fixed-rate phase, then steps up a rate ladder until a step misses
//! the latency limit or its backlog grows.

use crate::stats::{self, judge_step, open_loop, tail, Sample, StepVerdict, WallClock};
use crate::trace::{self, Trace};
use crate::{median_secs, ratio, Outcome, Run, SETUPS};
use oregami::graph::TaskGraph;
use oregami::larcs::{programs, Db};
use oregami::mapper::routing::route_all_phases;
use oregami::replay::{self, ReplayOp};
use oregami::topology::{FaultSet, ProcId, RouteTable};
use oregami::{
    Budget, ChurnConfig, CostModel, FallbackChain, MapperOptions, Mapping, MetricsEngine, Network,
    Oregami, RepairOptions, RouteTableCache, Strategy, StreamSession, SupervisorConfig,
};
use oregami_bench::rng;
use oregami_daemon::json::{obj, Json, ObjBuilder};
use oregami_daemon::topo::parse_target;
use oregami_daemon::{Client, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::RngExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One-shot requests per second in the fixed-rate phase: below the
/// ≈65 req/s one-shot capacity measured on a 2-core host.
const FIXED_RATE: f64 = 30.0;
/// Share of the run spent at the fixed rate; the ladder gets the rest.
const FIXED_SHARE: f64 = 0.6;
/// Rates the ladder steps through after the fixed phase.
const LADDER: [f64; 8] = [40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0];
/// Seconds per ladder step.
const STEP_SECS: f64 = 1.5;
/// Session operations per second on thread B.
const SESSION_RATE: f64 = 10.0;
/// Every this many session operations, one is a churn batch.
const STREAM_EVERY: usize = 5;
/// Every this many session operations, one is a `program` rule edit.
const PROGRAM_EVERY: usize = 40;
/// Events per churn batch.
const STREAM_BATCH: usize = 6;
/// The one-shot targets (all ≤ 256 processors).
const TARGETS: [&str; 3] = ["hypercube:4", "torus2d:8x8", "mesh2d:16x16"];
/// How many extra times each hot request appears per block.
const HOT_REPEATS: usize = 3;
/// The edit session's program parameters and target.
const SESSION_PARAMS: &[(&str, i64)] = &[("n", 8), ("iters", 2)];
const SESSION_TOPOLOGY: &str = "torus2d:4x4";
const STREAM_TOPOLOGY: &str = "hypercube:4";

/// The answers the daemon may give instead of `ok`.
const TYPED_KINDS: [&str; 9] = [
    "overloaded",
    "unserviceable",
    "shutting_down",
    "bad_request",
    "map",
    "fault",
    "repair",
    "session",
    "internal",
];

/// One distinct one-shot request and what a correct answer holds.
struct Request {
    op: &'static str,
    program: &'static str,
    source: String,
    params: Vec<(&'static str, i64)>,
    topology: &'static str,
    fail_proc: Option<u32>,
    wire: Json,
    expect: Expect,
}

/// The in-process reference answer: the same code on the same inputs.
struct Expect {
    strategy: Strategy,
    assignment: Vec<u64>,
    completion_time: Option<u64>,
    max_dilation: u64,
    escalated: bool,
    cost: u64,
}

/// The daemon's compute path, in process: one shared route-table cache
/// and LaRCS front end, the supervised default chain.
struct Reference {
    cache: Arc<RouteTableCache>,
    db: Arc<Mutex<Db>>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            cache: Arc::new(RouteTableCache::new(32)),
            db: Arc::new(Mutex::new(Db::new())),
        }
    }

    /// Runs one request the way a daemon worker does, with a span around
    /// each layer call.
    fn run(&self, q: &Query, tr: &Trace) -> Result<Expect, String> {
        let (net, _) = tr.span("topology.build", || parse_target(q.topology))?;
        let sys = Oregami::new(net)
            .with_cache(Arc::clone(&self.cache))
            .with_frontend(Arc::clone(&self.db))
            .with_options(MapperOptions::default())
            .with_supervisor(SupervisorConfig::default());
        let tg = tr
            .span("larcs.compile", || sys.compile_source(q.source, q.params))
            .map_err(|e| e.to_string())?;
        let result = tr
            .span("mapper.dispatch", || {
                sys.map_with_budget(tg, &FallbackChain::default(), &Budget::unlimited())
            })
            .map_err(|e| e.to_string())?;
        let (tg, net, mapping) = (&result.task_graph, sys.network(), &result.report.mapping);
        mapping
            .validate(tg, net)
            .map_err(|e| format!("invalid mapping: {e}"))?;
        let mut expect = Expect {
            strategy: result.report.strategy.clone(),
            assignment: mapping.assignment.iter().map(|p| u64::from(p.0)).collect(),
            completion_time: None,
            max_dilation: 0,
            escalated: false,
            cost: cost(tg, net, mapping)?,
        };
        match q.op {
            "metrics" => {
                let snap = tr.span("metrics.analyze", || {
                    sys.interactive(&result).map(|s| {
                        std::hint::black_box(s.report().render());
                        s.snapshot()
                    })
                });
                let snap = snap.map_err(|e| e.to_string())?;
                expect.completion_time = snap.completion_time;
                expect.max_dilation = snap.max_dilation as u64;
            }
            "repair" => {
                let mut faults = FaultSet::new();
                faults.fail_proc(ProcId(q.fail_proc.ok_or("repair without a fault")?));
                let rec = tr
                    .span("mapper.repair", || {
                        sys.repair(&result, &faults, &RepairOptions::default())
                    })
                    .map_err(|e| e.to_string())?;
                let survivors = rec.degraded.network();
                rec.mapping
                    .validate(tg, survivors)
                    .map_err(|e| format!("invalid repair: {e}"))?;
                expect.escalated = rec.repair.escalated;
                expect.cost = cost(tg, survivors, &rec.mapping)?;
            }
            _ => {}
        }
        Ok(expect)
    }
}

/// The inputs of one one-shot request.
struct Query<'a> {
    op: &'static str,
    source: &'a str,
    params: &'a [(&'static str, i64)],
    topology: &'static str,
    fail_proc: Option<u32>,
}

impl Request {
    fn query(&self) -> Query<'_> {
        Query {
            op: self.op,
            source: &self.source,
            params: &self.params,
            topology: self.topology,
            fail_proc: self.fail_proc,
        }
    }
}

fn cost(tg: &TaskGraph, net: &Network, mapping: &Mapping) -> Result<u64, String> {
    MetricsEngine::try_new(tg, net, mapping, &CostModel::default())
        .map(|e| e.scalar_cost())
        .map_err(|e| e.to_string())
}

fn params_json(params: &[(&str, i64)]) -> Json {
    params
        .iter()
        .fold(obj(), |o, (k, v)| o.field(k, *v))
        .build()
}

/// Every distinct one-shot request, answered in process. A request the
/// reference cannot serve is left out, so no operation is expected to
/// fail.
fn requests(reference: &Reference) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (program, source, params) in programs::all_programs() {
        for topology in TARGETS {
            for op in ["map", "metrics", "repair"] {
                let fail_proc = (op == "repair").then_some(1);
                let q = Query {
                    op,
                    source: &source,
                    params: &params,
                    topology,
                    fail_proc,
                };
                let Ok(expect) = reference.run(&q, &Trace::new(false)) else {
                    continue;
                };
                let mut wire = obj()
                    .field("op", op)
                    .field("program", program)
                    .field("topology", topology)
                    .field("params", params_json(&params));
                if let Some(p) = fail_proc {
                    wire = wire.field("fail_procs", Json::Arr(vec![Json::from(u64::from(p))]));
                }
                out.push(Request {
                    op,
                    program,
                    source: source.clone(),
                    params: params.clone(),
                    topology,
                    fail_proc,
                    wire: wire.build(),
                    expect,
                });
            }
        }
    }
    if out.len() < 3 * TARGETS.len() {
        return Err(format!("only {} one-shot requests are servable", out.len()));
    }
    Ok(out)
}

fn is_hot(q: &Request) -> bool {
    q.op == "map" && q.topology == TARGETS[0]
}

/// One seeded block of request indices: every request once plus the hot
/// set (each program's `map` on the first target) `HOT_REPEATS` more
/// times, shuffled. Whole blocks keep the mix the same for every seed.
fn block(reqs: &[Request], r: &mut StdRng) -> Vec<usize> {
    let mut b: Vec<usize> = (0..reqs.len()).collect();
    for (i, q) in reqs.iter().enumerate() {
        if is_hot(q) {
            b.extend(std::iter::repeat_n(i, HOT_REPEATS));
        }
    }
    for i in (1..b.len()).rev() {
        b.swap(i, r.random_range(0..=i));
    }
    b
}

/// Checks a daemon answer against the reference.
fn verify(q: &Request, answer: Result<Json, (String, String)>) -> Result<(), String> {
    let r = match answer {
        Ok(r) => r,
        Err((kind, msg)) if TYPED_KINDS.contains(&kind.as_str()) => {
            return Err(format!("typed error {kind}: {msg}"))
        }
        Err((kind, msg)) => return Err(format!("untyped answer {kind}: {msg}")),
    };
    let e = &q.expect;
    let ok = match q.op {
        "map" => {
            let got = r.get("assignment").and_then(Json::as_arr);
            got.is_some_and(|a| {
                a.iter()
                    .map(Json::as_u64)
                    .eq(e.assignment.iter().map(|&p| Some(p)))
            })
        }
        "metrics" => {
            let m = r.get("metrics");
            let ct = m
                .and_then(|m| m.get("completion_time"))
                .and_then(Json::as_u64);
            let md = m.and_then(|m| m.get("max_dilation")).and_then(Json::as_u64);
            ct == e.completion_time && md == Some(e.max_dilation)
        }
        _ => {
            r.get("escalated").and_then(Json::as_bool) == Some(e.escalated)
                && r.get("failed_procs").and_then(Json::as_u64) == Some(1)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "answer differs from the in-process reference: {}",
            r.render()
        ))
    }
}

/// One one-shot request on a fresh connection.
fn one_shot(socket: &Path, q: &Request, tr: &Trace) -> Result<(), String> {
    let mut client = tr.span("daemon.connect", || Client::connect(socket))?;
    client.set_timeout(Some(Duration::from_secs(60)))?;
    let answer = tr.span("daemon.roundtrip", || client.request(&q.wire));
    verify(q, answer)
}

fn session_request(op: &str, session: &str) -> ObjBuilder {
    obj().field("op", op).field("session", session)
}

fn assignment_of(snapshot: Option<&Json>) -> Result<Vec<u32>, String> {
    snapshot
        .and_then(|s| s.get("assignment"))
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_u64)
                .map(|p| p as u32)
                .collect()
        })
        .ok_or_else(|| "no assignment in the session snapshot".to_string())
}

/// The replacement text of the edit session's `north` rule at a given
/// message volume.
fn north_rule(volume: i64) -> String {
    format!("forall i in 0..n-1, j in 0..n-1 where i > 0 {{ cell(i,j) -> cell(i-1,j) volume {volume}; }}")
}

/// An edit to the session's mirrored assignment, for undo.
type Undo = Option<(usize, u32)>;

/// Thread B's side of the sessions: the connection, the edit session's
/// assignment as the daemon reported it and its undo stack, and the
/// churn stream's live tasks (with their parents).
struct Sessions {
    client: Client,
    tg: TaskGraph,
    net: Network,
    table: RouteTable,
    volume: i64,
    assignment: Vec<u32>,
    undo: Vec<Undo>,
    /// A fault is always followed by its undo, so faults never pile up.
    pending_undo: bool,
    live: Vec<(u32, Option<u32>)>,
    next_task: u32,
    /// The churn events sent when the stream opened.
    opening: Vec<String>,
}

impl Sessions {
    /// Opens the edit session and the churn stream (part of set-up).
    fn open(socket: &Path) -> Result<Sessions, String> {
        let mut client = Client::connect(socket)?;
        client.set_timeout(Some(Duration::from_secs(60)))?;
        let open = session_request("session_open", "edits")
            .field("program", "jacobi")
            .field("topology", SESSION_TOPOLOGY)
            .field("params", params_json(SESSION_PARAMS))
            .build();
        let opened = client
            .request(&open)
            .map_err(|(k, m)| format!("session_open: {k}: {m}"))?;
        let tg = oregami::larcs::compile(&programs::jacobi(), SESSION_PARAMS)
            .map_err(|e| e.to_string())?;
        let net = parse_target(SESSION_TOPOLOGY)?.0;
        let table = RouteTable::try_new(&net).map_err(|e| e.to_string())?;
        let mut s = Sessions {
            assignment: assignment_of(opened.get("snapshot"))?,
            client,
            tg,
            net,
            table,
            volume: 1,
            undo: Vec::new(),
            pending_undo: false,
            live: Vec::new(),
            next_task: 0,
            opening: Vec::new(),
        };
        let mut r = rng(0);
        s.opening = (0..4).map(|_| s.spawn_line(&mut r)).collect();
        s.stream(&s.opening.clone())?;
        Ok(s)
    }

    fn spawn_line(&mut self, r: &mut StdRng) -> String {
        let t = self.next_task;
        self.next_task += 1;
        let parent =
            (!self.live.is_empty()).then(|| self.live[r.random_range(0..self.live.len())].0);
        self.live.push((t, parent));
        let p = parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "spawn {t} {p} {} {}",
            r.random_range(1..=5u32),
            r.random_range(1..=5u32)
        )
    }

    /// A seeded churn batch the stream accepts: spawns while the stream
    /// is small, departures of leaf tasks only, load drifts otherwise.
    fn churn_batch(&mut self, r: &mut StdRng) -> Vec<String> {
        (0..STREAM_BATCH)
            .map(|_| {
                let roll = r.random_range(0..100u32);
                if self.live.len() < 8 || (roll < 40 && self.live.len() < 48) {
                    return self.spawn_line(r);
                }
                let leaves: Vec<usize> = (0..self.live.len())
                    .filter(|&i| self.live.iter().all(|&(_, p)| p != Some(self.live[i].0)))
                    .collect();
                if roll < 65 && !leaves.is_empty() {
                    let (t, _) = self.live.remove(leaves[r.random_range(0..leaves.len())]);
                    format!("depart {t}")
                } else {
                    let (t, _) = self.live[r.random_range(0..self.live.len())];
                    format!("load {t} {}", r.random_range(1..=9u32))
                }
            })
            .collect()
    }

    fn stream(&mut self, events: &[String]) -> Result<(), String> {
        let req = session_request("session_stream", "churn")
            .field("topology", STREAM_TOPOLOGY)
            .field(
                "events",
                Json::Arr(events.iter().map(|e| Json::from(e.as_str())).collect()),
            )
            .build();
        let reply = self
            .client
            .request(&req)
            .map_err(|(k, m)| format!("session_stream: {k}: {m}"))?;
        let accepted = reply.get("accepted").and_then(Json::as_u64);
        let rejected = reply
            .get("rejected")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        if accepted != Some(events.len() as u64) || rejected != 0 {
            return Err(format!(
                "churn batch not fully accepted: {}",
                reply.render()
            ));
        }
        Ok(())
    }

    fn edit(&mut self, line: &str) -> Result<Json, String> {
        let req = session_request("session_edit", "edits")
            .field("edit", line)
            .build();
        self.client
            .request(&req)
            .map_err(|(k, m)| format!("'{line}': {k}: {m}"))
    }

    /// The next edit line, valid on the session's current state, and the
    /// undo entry it pushes (`None` for an undo, which pops one).
    fn next_edit(&mut self, r: &mut StdRng) -> (String, Option<Undo>) {
        if self.pending_undo {
            self.pending_undo = false;
            return ("undo".into(), None);
        }
        let roll = r.random_range(0..100u32);
        if roll < 10 && !self.undo.is_empty() {
            return ("undo".into(), None);
        }
        if roll < 20 {
            self.pending_undo = true;
            let link = r.random_range(0..self.net.num_links() as u32);
            return (format!("fault link:{link}"), Some(None));
        }
        if roll < 40 {
            let k = r.random_range(0..self.tg.num_phases());
            let edges = &self.tg.comm_phases[k].edges;
            let e = r.random_range(0..edges.len());
            let (a, b) = (
                self.assignment[edges[e].src.index()],
                self.assignment[edges[e].dst.index()],
            );
            if a != b {
                let path = self.table.first_path(&self.net, ProcId(a), ProcId(b));
                let hops: Vec<String> = path.iter().map(|p| p.0.to_string()).collect();
                return (format!("reroute {k} {e} {}", hops.join(" ")), Some(None));
            }
        }
        let task = r.random_range(0..self.tg.num_tasks());
        let proc = r.random_range(0..self.net.num_procs() as u32);
        let prev = self.assignment[task];
        self.assignment[task] = proc;
        (format!("reassign {task} {proc}"), Some(Some((task, prev))))
    }

    /// Records an edit the daemon accepted in the mirror.
    fn accepted(&mut self, push: Option<Undo>) {
        match push {
            Some(u) => self.undo.push(u),
            None => {
                if let Some(Some((task, prev))) = self.undo.pop() {
                    self.assignment[task] = prev;
                }
            }
        }
    }

    /// Reverts the mirror of an edit the daemon refused.
    fn refused(&mut self, push: Option<Undo>) {
        if let Some(Some((task, prev))) = push {
            self.assignment[task] = prev;
        }
    }

    /// Replaces the `north` rule's volume: the daemon recompiles and
    /// remaps, and the session restarts on the new mapping.
    fn program_edit(&mut self) -> Result<(), String> {
        let volume = self.volume % 4 + 1;
        let reply = self.edit(&format!("program north 0 {}", north_rule(volume)))?;
        self.assignment = assignment_of(reply.get("snapshot"))?;
        self.volume = volume;
        self.undo.clear();
        self.pending_undo = false;
        Ok(())
    }

    /// Ends the sessions: the edit session's final assignment must equal
    /// the mirror and form a valid mapping; then both sessions close.
    fn close(&mut self, failures: &mut Vec<String>) {
        let snap = self
            .client
            .request(&session_request("session_snapshot", "edits").build());
        match snap
            .map_err(|(k, m)| format!("{k}: {m}"))
            .and_then(|s| assignment_of(Some(&s)))
        {
            Ok(a) if a == self.assignment => {
                let assignment: Vec<ProcId> = a.iter().map(|&p| ProcId(p)).collect();
                let routes = route_all_phases(
                    &self.tg,
                    &assignment,
                    &self.net,
                    &self.table,
                    Default::default(),
                );
                if let Err(e) = (Mapping { assignment, routes }).validate(&self.tg, &self.net) {
                    failures.push(format!("session mapping invalid: {e}"));
                }
            }
            Ok(_) => failures.push("session assignment differs from the mirrored edits".into()),
            Err(e) => failures.push(format!("session_snapshot: {e}")),
        }
        for name in ["edits", "churn"] {
            if let Err((k, m)) = self
                .client
                .request(&session_request("session_close", name).build())
            {
                failures.push(format!("session_close {name}: {k}: {m}"));
            }
        }
    }
}

/// What thread B measured.
#[derive(Default)]
struct SessionRun {
    samples: Vec<(Sample, bool)>,
    failures: Vec<String>,
    spans: Vec<trace::Span>,
}

/// Thread B: session operations at a fixed rate until `stop`. Traced,
/// every edit line also runs through an in-process `InteractiveSession`
/// on the same mapping and every churn batch through an in-process
/// `StreamSession`, for the METRICS and churn per-layer times.
fn session_thread(
    s: &mut Sessions,
    seed: u64,
    start: Instant,
    stop: &AtomicBool,
    traced: bool,
) -> SessionRun {
    let tr = Trace::new(traced);
    let clock = WallClock(start);
    let mut r = rng(seed ^ 0x5e55_1011);
    let mut out = SessionRun::default();
    let twin_sys = Oregami::new(s.net.clone());
    let mut twin_stream = StreamSession::new(
        parse_target(STREAM_TOPOLOGY).expect("valid").0,
        ChurnConfig::default(),
    )
    .expect("the stream target is connected");
    if traced {
        for line in &s.opening {
            if let Err(e) = twin_stream.ingest_line(line, &Budget::unlimited()) {
                out.failures.push(format!("in-process churn '{line}': {e}"));
            }
        }
    }
    let mut next = 0;
    let mut twin_source = programs::jacobi();
    // one epoch per program version: a program edit ends the epoch and
    // the twin session restarts on the program recompiled the way the
    // daemon does it, through the incremental front end
    while !stop.load(Ordering::SeqCst) {
        if traced && next > 0 {
            let edited = tr.span("larcs.edit_rule", || {
                let db = twin_sys.frontend();
                let mut db = db.lock().expect("in-process front end");
                db.edit_rule(&twin_source, "north", 0, &north_rule(s.volume))
            });
            match edited {
                Ok(src) => twin_source = src,
                Err(e) => out.failures.push(format!("in-process rule edit: {e}")),
            }
        }
        let twin_result = if traced {
            match twin_sys.map_source(&twin_source, SESSION_PARAMS) {
                Ok(res)
                    if res
                        .report
                        .mapping
                        .assignment
                        .iter()
                        .map(|p| p.0)
                        .eq(s.assignment.iter().copied()) =>
                {
                    Some(res)
                }
                Ok(_) => {
                    out.failures
                        .push("in-process session mapping differs from the daemon's".into());
                    None
                }
                Err(e) => {
                    out.failures.push(format!("in-process session map: {e}"));
                    None
                }
            }
        } else {
            None
        };
        let mut twin = twin_result
            .as_ref()
            .and_then(|res| twin_sys.interactive(res).ok());
        let mut recompiled = false;
        let samples = open_loop(&clock, SESSION_RATE, next..usize::MAX, |i| {
            if stop.load(Ordering::SeqCst) || recompiled {
                return None;
            }
            let result = if i % PROGRAM_EVERY == PROGRAM_EVERY - 1 {
                recompiled = true;
                tr.span("daemon.session_edit", || s.program_edit())
            } else if i % STREAM_EVERY == STREAM_EVERY - 1 {
                let batch = s.churn_batch(&mut r);
                let res = tr.span("daemon.session_stream", || s.stream(&batch));
                if traced {
                    tr.span("mapper.churn", || {
                        for line in &batch {
                            if let Err(e) = twin_stream.ingest_line(line, &Budget::unlimited()) {
                                out.failures.push(format!("in-process churn '{line}': {e}"));
                            }
                        }
                    });
                }
                res
            } else {
                let (line, push) = s.next_edit(&mut r);
                let res = tr.span("daemon.session_edit", || s.edit(&line));
                match &res {
                    Ok(_) => s.accepted(push),
                    Err(_) => s.refused(push),
                }
                if let Some(t) = twin.as_mut() {
                    let applied = tr.span("metrics.edit", || match replay::parse_line(&line) {
                        Ok(Some(ReplayOp::Apply(edit))) => {
                            t.apply(edit).map(drop).map_err(|e| e.to_string())
                        }
                        Ok(Some(ReplayOp::Undo)) => {
                            t.undo();
                            Ok(())
                        }
                        other => Err(format!("unexpected op {other:?}")),
                    });
                    if let Err(e) = applied {
                        out.failures.push(format!("in-process edit '{line}': {e}"));
                    }
                }
                res.map(drop)
            };
            Some(result.map_err(|e| out.failures.push(e)).is_ok())
        });
        next += samples.len();
        out.samples.extend(samples);
    }
    out.spans = tr.take();
    out
}

/// A running daemon with its sessions open and its caches warm.
struct Live {
    handle: ServerHandle,
    sessions: Sessions,
    state_dir: PathBuf,
}

/// Starts a daemon, warms it with every distinct one-shot request once
/// and opens the sessions.
fn start(run: &Run, n: usize, reqs: &[Request]) -> Result<Live, String> {
    let socket = run.workdir.join(format!("d{n}.sock"));
    let state_dir = run.workdir.join(format!("state{n}"));
    let mut config = ServerConfig::new(&socket, &state_dir);
    config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let handle = Server::start(config)?;
    let warm = reqs.iter().try_for_each(|q| {
        one_shot(&handle.socket, q, &Trace::new(false))
            .map_err(|e| format!("warm-up {} {} on {}: {e}", q.op, q.program, q.topology))
    });
    match warm.and_then(|()| Sessions::open(&handle.socket)) {
        Ok(sessions) => Ok(Live {
            handle,
            sessions,
            state_dir,
        }),
        Err(e) => {
            handle.shutdown();
            Err(e)
        }
    }
}

/// Closes the sessions, reads `health` and drains the daemon.
fn stop(live: Live, failures: &mut Vec<String>) -> Json {
    let Live {
        handle,
        mut sessions,
        state_dir,
    } = live;
    sessions.close(failures);
    drop(sessions);
    let health = Client::connect(&handle.socket)
        .ok()
        .and_then(|mut c| c.request(&obj().field("op", "health").build()).ok());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
    health.unwrap_or(Json::Null)
}

fn count(health: &Json, key: &str) -> u64 {
    match health.get(key) {
        Some(Json::Obj(fields)) => fields.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        Some(v) => v.as_u64().unwrap_or(0),
        None => 0,
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for n in 0..SETUPS {
        if let Some((_, _, live)) = prepared.take() {
            stop(live, &mut out.failures);
        }
        let t0 = Instant::now();
        let reference = Reference::new();
        let set_up = requests(&reference).and_then(|reqs| {
            let live = start(run, n, &reqs)?;
            Ok((reference, reqs, live))
        });
        match set_up {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                out.fail(format!("setup: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed());
    }
    let (reference, reqs, mut live) = prepared.expect("set up at least once");
    out.metrics.insert("setup_s", median_secs(&setups));
    out.note("one_shot_requests", reqs.len());
    let hot = reqs.iter().filter(|q| is_hot(q)).count();
    out.note(
        "hot_share",
        (hot * (HOT_REPEATS + 1)) as f64 / (reqs.len() + hot * HOT_REPEATS) as f64,
    );

    let fixed_secs = run.seconds * FIXED_SHARE;
    let mut order = rng(run.seed);
    let mut queue: Vec<usize> = Vec::new();
    let mut next = || {
        if queue.is_empty() {
            queue = block(&reqs, &mut order);
        }
        queue.pop().expect("a block is never empty")
    };
    let socket = live.handle.socket.clone();
    let stop_b = AtomicBool::new(false);
    let start_at = Instant::now();
    let sessions = &mut live.sessions;
    let (a, b) = std::thread::scope(|scope| {
        let b = scope.spawn(|| session_thread(sessions, run.seed, start_at, &stop_b, run.trace));
        let a = if run.trace {
            reference.cache.reset_stats();
            reference
                .db
                .lock()
                .expect("reference front end")
                .reset_stats();
            traced_phase(&socket, &reqs, &reference, run.seconds / 2.0, &mut next)
        } else {
            ladder(&socket, &reqs, run.seconds, fixed_secs, &mut next)
        };
        stop_b.store(true, Ordering::SeqCst);
        (a, b.join().expect("session thread panicked"))
    });
    let health = stop(live, &mut out.failures);
    out.attempted += (a.attempted + b.samples.len()) as u64;
    out.failures.extend(a.failures);
    out.failures.extend(b.failures);
    let route = health.get("route_cache");
    let hits = route
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let misses = route
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let route_hit_ratio = ratio(hits, hits + misses);
    out.note("route_cache_hit_ratio", route_hit_ratio);

    if let Some(t) = a.traced {
        let m = &mut out.metrics;
        m.insert("daemon.admitted", count(&health, "admitted") as f64);
        m.insert("daemon.shed", count(&health, "shed") as f64);
        m.insert("daemon.coalesced", count(&health, "coalesced") as f64);
        m.insert("topology.route_cache_hit_ratio", route_hit_ratio);
        let db = reference.db.lock().expect("reference front end").stats();
        let rs = reference.cache.stats();
        m.insert(
            "larcs.graph_hit_ratio",
            ratio(db.graph_hits, db.graph_hits + db.graph_misses),
        );
        m.insert("topology.route_builds", rs.misses as f64);
        let tb = trace::totals(&b.spans);
        m.insert(
            "mapper.churn_ms",
            tb.get("mapper.churn").map_or(0.0, |t| t.mean_ms()),
        );
        m.insert(
            "metrics.edit_us",
            tb.get("metrics.edit").map_or(0.0, |t| t.mean_ms() * 1e3),
        );
        for (name, tot) in &tb {
            out.note(format!("span.b.{name}"), tot);
        }
        finish_traced(&mut out, &a.spans, t);
        return out;
    }

    let fixed_end = Duration::from_secs_f64(fixed_secs);
    let edit_ms: Vec<f64> = b
        .samples
        .iter()
        .filter(|(s, _)| s.due < fixed_end)
        .map(|(s, _)| s.latency_ms())
        .collect();
    let lat: Vec<f64> = a.fixed.iter().map(|(s, _)| s.latency_ms()).collect();
    let served = a.fixed.iter().filter(|(_, ok)| *ok).count();
    let wall = a.fixed.last().map_or(Duration::ZERO, |(s, _)| s.done);
    out.metrics
        .insert("maps_per_s", served as f64 / wall.as_secs_f64());
    out.metrics.insert("latency_p50_ms", stats::median(&lat));
    out.tail("latency_p99_ms", tail(&lat, 99.0));
    out.metrics
        .insert("edit_latency_p50_ms", stats::median(&edit_ms));
    out.tail("edit_latency_p99_ms", tail(&edit_ms, 99.0));
    match stats::max_rate(&a.steps) {
        Some(rate) => {
            out.metrics.insert("max_rate_rps", rate);
        }
        None => out.note("max_rate_rps", "the fixed rate already misses the limit"),
    }
    for (i, s) in a.steps.iter().enumerate() {
        out.note(
            format!("ladder.{i}"),
            format!(
                "rate={} tail_ms={:.2} p={:.1} failed={} growing={}",
                s.rate, s.tail.value, s.tail.percentile, s.failed, s.growing
            ),
        );
    }
    match stats::geomean(&a.costs) {
        Some(g) => {
            out.metrics.insert("mapping_cost_geomean", g);
        }
        None => out.fail("no served mapping with a positive cost".into()),
    }
    if let Some(mb) = a.peak_rss_mb {
        out.metrics.insert("peak_rss_mb", mb);
    }
    let late: Vec<f64> = a.fixed.iter().map(|(s, _)| s.late_ms()).collect();
    out.note("generator_late_p99_ms", tail(&late, 99.0).value);
    out
}

/// What thread A measured.
#[derive(Default)]
struct OneShotRun {
    attempted: usize,
    failures: Vec<String>,
    fixed: Vec<(Sample, bool)>,
    steps: Vec<StepVerdict>,
    costs: Vec<f64>,
    peak_rss_mb: Option<f64>,
    spans: Vec<trace::Span>,
    traced: Option<TracedOneShots>,
}

/// Thread A untraced: the fixed-rate phase, then the ladder. Above the
/// fixed rate, a shed request ends the ladder instead of failing the
/// run: it is the daemon protecting itself, not a wrong answer.
fn ladder(
    socket: &Path,
    reqs: &[Request],
    seconds: f64,
    fixed_secs: f64,
    next: &mut impl FnMut() -> usize,
) -> OneShotRun {
    let off = Trace::new(false);
    let mut out = OneShotRun::default();
    let mut phase = |rate: f64, secs: f64, fixed: bool, out: &mut OneShotRun| {
        let clock = WallClock(Instant::now());
        let mut shed = 0;
        let samples = open_loop(&clock, rate, 0..(rate * secs).round() as usize, |_| {
            let q = &reqs[next()];
            Some(match one_shot(socket, q, &off) {
                Ok(()) => {
                    out.attempted += 1;
                    if fixed {
                        out.costs.push(q.expect.cost as f64);
                    }
                    true
                }
                Err(e) if !fixed && e.starts_with("typed error overloaded") => {
                    shed += 1;
                    false
                }
                Err(e) => {
                    out.attempted += 1;
                    out.failures
                        .push(format!("{} {} on {}: {e}", q.op, q.program, q.topology));
                    false
                }
            })
        });
        (samples, shed)
    };
    let (fixed, _) = phase(FIXED_RATE, fixed_secs, true, &mut out);
    out.steps.push(judge_step(FIXED_RATE, &fixed));
    out.fixed = fixed;
    // the overload above the fixed rate does not count toward the peak
    out.peak_rss_mb = stats::own_peak_rss_mb();
    let steps = ((seconds - fixed_secs) / STEP_SECS).floor().max(1.0) as usize;
    for &rate in LADDER.iter().take(steps) {
        let (samples, shed) = phase(rate, STEP_SECS, false, &mut out);
        let verdict = StepVerdict {
            failed: shed,
            ..judge_step(rate, &samples)
        };
        out.steps.push(verdict);
        if !verdict.passes() {
            break;
        }
    }
    out
}

/// Per-request figures of the traced phases.
#[derive(Default)]
struct TracedOneShots {
    untraced_busy: Duration,
    traced_busy: Duration,
    replay: Duration,
    server_ms: Vec<f64>,
    late_ms: Vec<f64>,
    strategies: [u64; 4],
    escalations: u64,
}

/// Thread A traced: the fixed-rate phase twice on one request sequence,
/// untraced then traced. In the traced phase every answer is followed by
/// an in-process replay of the same request on the reference (whose
/// caches are as warm as the daemon's), so the round trip splits into
/// the daemon's compute and everything else.
fn traced_phase(
    socket: &Path,
    reqs: &[Request],
    reference: &Reference,
    phase_secs: f64,
    next: &mut impl FnMut() -> usize,
) -> OneShotRun {
    let (off, tr) = (Trace::new(false), Trace::new(true));
    let mut out = OneShotRun::default();
    let count = (FIXED_RATE * phase_secs).round() as usize;
    let seq: Vec<usize> = (0..count).map(|_| next()).collect();
    let mut t = TracedOneShots::default();
    let plain = open_loop(&WallClock(Instant::now()), FIXED_RATE, 0..count, |i| {
        let q = &reqs[seq[i]];
        out.attempted += 1;
        Some(
            one_shot(socket, q, &off)
                .map_err(|e| out.failures.push(format!("{} {}: {e}", q.op, q.program)))
                .is_ok(),
        )
    });
    t.untraced_busy = plain.iter().map(|(s, _)| s.done - s.sent).sum();
    t.late_ms = plain.iter().map(|(s, _)| s.late_ms()).collect();
    open_loop(&WallClock(Instant::now()), FIXED_RATE, 0..count, |i| {
        let q = &reqs[seq[i]];
        out.attempted += 1;
        let t0 = Instant::now();
        let answered = tr.span("bench.request", || one_shot(socket, q, &tr));
        let r0 = Instant::now();
        let replay = tr.span("bench.replay", || reference.run(&q.query(), &tr));
        t.replay += r0.elapsed();
        t.traced_busy += t0.elapsed();
        match replay {
            Ok(e) if e.assignment == q.expect.assignment => {
                t.strategies[match e.strategy {
                    Strategy::Canned => 0,
                    Strategy::GroupTheoretic => 1,
                    Strategy::Systolic => 2,
                    _ => 3,
                }] += 1;
                t.escalations += u64::from(e.escalated);
            }
            Ok(_) => out.failures.push(format!(
                "{} {}: replay differs from the reference",
                q.op, q.program
            )),
            Err(e) => out
                .failures
                .push(format!("{} {}: replay: {e}", q.op, q.program)),
        }
        Some(
            answered
                .map_err(|e| out.failures.push(format!("{} {}: {e}", q.op, q.program)))
                .is_ok(),
        )
    });
    out.spans = tr.take();
    let round_trips = out.spans.iter().filter(|s| s.name == "daemon.roundtrip");
    let replays = out.spans.iter().filter(|s| s.name == "bench.replay");
    t.server_ms = round_trips
        .zip(replays)
        .map(|(rt, rp)| (rt.duration().as_secs_f64() - rp.duration().as_secs_f64()) * 1e3)
        .collect();
    out.traced = Some(t);
    out
}

fn finish_traced(out: &mut Outcome, spans: &[trace::Span], t: TracedOneShots) {
    let tot = trace::totals(spans);
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let m = &mut out.metrics;
    m.insert("daemon.connect_ms", get("daemon.connect").mean_ms());
    m.insert("daemon.roundtrip_ms", get("daemon.roundtrip").mean_ms());
    m.insert("daemon.server_ms", stats::median(&t.server_ms));
    m.insert("bench.generator_late_p99_ms", tail(&t.late_ms, 99.0).value);
    m.insert("larcs.compile_calls", get("larcs.compile").count as f64);
    m.insert("larcs.compile_ms", get("larcs.compile").mean_ms());
    m.insert("topology.build_ms", get("topology.build").mean_ms());
    m.insert("mapper.dispatch_ms", get("mapper.dispatch").mean_ms());
    m.insert("mapper.repair_ms", get("mapper.repair").mean_ms());
    m.insert("mapper.repair_escalations", t.escalations as f64);
    m.insert("metrics.analyze_ms", get("metrics.analyze").mean_ms());
    let keys = [
        "mapper.strategy.canned",
        "mapper.strategy.group",
        "mapper.strategy.systolic",
        "mapper.strategy.general",
    ];
    for (key, n) in keys.into_iter().zip(t.strategies) {
        m.insert(key, n as f64);
    }
    crate::attribution(out, spans, t.traced_busy, t.untraced_busy, t.replay);
    for (name, s) in &tot {
        out.note(format!("span.a.{name}"), s);
    }
}
