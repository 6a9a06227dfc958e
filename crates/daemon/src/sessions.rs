//! Crash-safe interactive sessions hosted inside the daemon.
//!
//! An interactive session borrows its `Oregami` instance and mapped
//! result, so each daemon session runs as an **actor**: a dedicated
//! thread that owns the whole stack — network, system, result, session
//! — on its own frames, and serves commands from an mpsc channel. The
//! registry maps session names to command senders.
//!
//! Crash safety reuses the journal WAL (`core::journal`): every applied
//! edit is framed, checksummed, and fsync'd to
//! `<state-dir>/<name>.jrnl` before the response goes out, and a
//! sidecar `<name>.meta.json` (written once at open) records how to
//! rebuild the session's inputs. A SIGKILL'd daemon restarted with
//! `--resume` rescans the state dir, re-maps each session's program
//! (deterministic), and replays its journal — restoring the exact
//! session state, verified byte-for-byte by the kill-and-restart test.

use crate::json::{obj, Json};
use crate::protocol::{MapSpec, KIND_BAD_REQUEST, KIND_SHUTTING_DOWN};
use crate::topo::parse_target;
use oregami::replay::{self, ReplayOp};
use oregami::{
    Budget, ChurnConfig, InteractiveSession, Journal, MapperOptions, MetricSnapshot,
    MetricsDelta, Oregami, RouteTableCache, StreamError, StreamSession,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Commands served by a session actor.
enum SessionCmd {
    Edit {
        line: String,
        reply: mpsc::Sender<Result<Json, (String, String)>>,
    },
    Snapshot {
        reply: mpsc::Sender<Json>,
    },
    Close {
        reply: mpsc::Sender<()>,
    },
}

struct SessionHandle {
    tx: mpsc::Sender<SessionCmd>,
    join: JoinHandle<()>,
}

/// The daemon's session table: edit-session actors plus owned
/// churn-stream sessions (no actor needed — [`StreamSession`] borrows
/// nothing). Each stream session sits behind its own mutex so a long
/// event batch (engine probes, escalated repairs) serializes only with
/// that session — the registry map lock is held just long enough to
/// look the session up, mirroring the per-session isolation edit
/// sessions get from their actors.
pub struct SessionRegistry {
    state_dir: PathBuf,
    cache: Arc<RouteTableCache>,
    /// Shared incremental LaRCS front end: session opens, resumes, and
    /// `program` rule edits all compile through it, so a session edit
    /// re-expands only the rule that changed.
    frontend: Arc<Mutex<oregami::larcs::Db>>,
    sessions: Mutex<HashMap<String, SessionHandle>>,
    streams: Mutex<HashMap<String, Arc<Mutex<StreamSession>>>>,
    /// Torn-tail truncations observed while resuming journals — a
    /// monitoring counter, not just a one-shot warning.
    truncations: Arc<AtomicU64>,
}

type OpResult = Result<Json, (String, String)>;

fn internal(msg: &str) -> (String, String) {
    ("session".to_string(), msg.to_string())
}

impl SessionRegistry {
    pub fn new(
        state_dir: PathBuf,
        cache: Arc<RouteTableCache>,
        frontend: Arc<Mutex<oregami::larcs::Db>>,
    ) -> SessionRegistry {
        SessionRegistry {
            state_dir,
            cache,
            frontend,
            sessions: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            truncations: Arc::new(AtomicU64::new(0)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, SessionHandle>> {
        self.sessions.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_streams(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Mutex<StreamSession>>>> {
        self.streams.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn count(&self) -> usize {
        self.lock().len() + self.lock_streams().len()
    }

    /// Torn-tail truncations recovered across every resume so far.
    pub fn truncations(&self) -> u64 {
        self.truncations.load(Ordering::Relaxed)
    }

    fn journal_path(&self, name: &str) -> PathBuf {
        self.state_dir.join(format!("{name}.jrnl"))
    }

    fn meta_path(&self, name: &str) -> PathBuf {
        self.state_dir.join(format!("{name}.meta.json"))
    }

    /// Opens a fresh journaled session. Fails if the name is taken.
    pub fn open(&self, name: &str, spec: MapSpec) -> OpResult {
        {
            let table = self.lock();
            if table.contains_key(name) {
                return Err((
                    KIND_BAD_REQUEST.to_string(),
                    format!("session '{name}' already exists"),
                ));
            }
        }
        if self.lock_streams().contains_key(name) {
            return Err((
                KIND_BAD_REQUEST.to_string(),
                format!("'{name}' is a stream session"),
            ));
        }
        self.spawn_actor(name, spec, false)
    }

    /// Opens (on first use, when `topology` is given) and feeds a
    /// journaled churn-stream session. Each event line is a stream-
    /// dialect record (`spawn`/`depart`/`load`/`fault`/`recover`); a
    /// controller-rejected event is reported per-event and the batch
    /// continues — the mapping is valid after every event either way.
    pub fn stream(
        &self,
        name: &str,
        topology: Option<&str>,
        load_bound: Option<usize>,
        events: &[String],
        draining: bool,
    ) -> OpResult {
        if self.lock().contains_key(name) {
            return Err((
                KIND_BAD_REQUEST.to_string(),
                format!("'{name}' is an edit session; stream events need a stream session"),
            ));
        }
        // Hold the map lock only to look up (or create) the session's
        // slot; the batch itself runs under the session's own mutex so
        // other stream sessions keep ingesting concurrently.
        let session = {
            let mut streams = self.lock_streams();
            if !streams.contains_key(name) {
                if draining {
                    return Err((
                        KIND_SHUTTING_DOWN.to_string(),
                        "daemon is draining; no new sessions".to_string(),
                    ));
                }
                let topo = topology.ok_or_else(|| {
                    (
                        KIND_BAD_REQUEST.to_string(),
                        format!("no stream session '{name}'; give 'topology' to open one"),
                    )
                })?;
                let (net, _) =
                    parse_target(topo).map_err(|e| (KIND_BAD_REQUEST.to_string(), e))?;
                let cfg = ChurnConfig {
                    load_bound: load_bound.unwrap_or(ChurnConfig::default().load_bound),
                    ..ChurnConfig::default()
                };
                // meta first, journal second: same crash ordering as edit
                // sessions — a gap between the two is reported, never
                // misinterpreted
                write_stream_meta(&self.meta_path(name), topo, load_bound)
                    .map_err(|e| internal(&e))?;
                let session = StreamSession::create(net, cfg, &self.journal_path(name))
                    .map_err(|e| ("session".to_string(), e.to_string()))?;
                streams.insert(name.to_string(), Arc::new(Mutex::new(session)));
            }
            Arc::clone(streams.get(name).expect("ensured above"))
        };
        let mut session = session
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let budget = Budget::unlimited();
        let mut accepted = 0u64;
        let mut rejected = Vec::new();
        for (i, line) in events.iter().enumerate() {
            match session.ingest_line(line, &budget) {
                Ok(Some(_)) => accepted += 1,
                Ok(None) => {}
                Err(StreamError::Churn(e)) => rejected.push(
                    obj().field("event", i).field("message", e.to_string()).build(),
                ),
                Err(e) => {
                    return Err((
                        KIND_BAD_REQUEST.to_string(),
                        format!("event {i}: {e} ({accepted} earlier event(s) were applied)"),
                    ))
                }
            }
        }
        let snapshot =
            crate::json::parse(&session.snapshot_json()).unwrap_or(Json::Null);
        let mut out = obj()
            .field("session", name)
            .field("accepted", accepted)
            .field("rejected", Json::Arr(rejected))
            .field("snapshot", snapshot);
        if let Some(w) = session.journal_error() {
            out = out.field("journal_warning", w);
        }
        Ok(out.build())
    }

    /// Rebuilds every session recorded in the state dir (its meta file
    /// plus journal), replaying each journal. Returns `(resumed,
    /// failures)` — a failure names the session and why.
    pub fn resume_all(&self) -> (Vec<String>, Vec<(String, String)>) {
        let mut resumed = Vec::new();
        let mut failed = Vec::new();
        let entries = match std::fs::read_dir(&self.state_dir) {
            Ok(e) => e,
            Err(_) => return (resumed, failed),
        };
        for entry in entries.flatten() {
            let file = entry.file_name();
            let file = file.to_string_lossy();
            let Some(name) = file.strip_suffix(".meta.json") else {
                continue;
            };
            let name = name.to_string();
            match self.resume_one(&name) {
                Ok(_) => resumed.push(name),
                Err((_, msg)) => failed.push((name, msg)),
            }
        }
        resumed.sort();
        (resumed, failed)
    }

    fn resume_one(&self, name: &str) -> OpResult {
        let meta_text = std::fs::read_to_string(self.meta_path(name))
            .map_err(|e| internal(&format!("cannot read meta: {e}")))?;
        let meta = crate::json::parse(&meta_text)
            .map_err(|e| internal(&format!("corrupt meta: {e}")))?;
        if !self.journal_path(name).exists() {
            return Err(internal("meta present but journal missing"));
        }
        if meta.get("kind").and_then(Json::as_str) == Some("stream") {
            return self.resume_stream(name, &meta);
        }
        let spec = spec_from_meta(&meta).map_err(|e| internal(&e))?;
        self.spawn_actor(name, spec, true)
    }

    /// Rebuilds a churn-stream session from its journal (config frame +
    /// accepted-event prefix) — byte-identical by the determinism
    /// contract of [`StreamSession::resume`].
    fn resume_stream(&self, name: &str, meta: &Json) -> OpResult {
        let topo = meta
            .get("topology")
            .and_then(Json::as_str)
            .ok_or_else(|| internal("stream meta missing 'topology'"))?;
        let (net, _) = parse_target(topo).map_err(|e| internal(&e))?;
        let (session, recovery) = StreamSession::resume(net, &self.journal_path(name))
            .map_err(|e| internal(&e.to_string()))?;
        if recovery.truncated {
            self.truncations.fetch_add(1, Ordering::Relaxed);
        }
        let events = session.controller().events();
        self.lock_streams()
            .insert(name.to_string(), Arc::new(Mutex::new(session)));
        Ok(obj().field("session", name).field("resumed", events).build())
    }

    fn spawn_actor(&self, name: &str, spec: MapSpec, resume: bool) -> OpResult {
        let (tx, rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let actor_name = name.to_string();
        let cache = Arc::clone(&self.cache);
        let frontend = Arc::clone(&self.frontend);
        let journal_path = self.journal_path(name);
        let meta_path = self.meta_path(name);
        let truncations = Arc::clone(&self.truncations);
        let join = std::thread::Builder::new()
            .name(format!("oregamid-session-{name}"))
            .spawn(move || {
                actor(
                    actor_name, spec, cache, frontend, journal_path, meta_path, resume,
                    truncations, ready_tx, rx,
                )
            })
            .map_err(|e| internal(&format!("cannot spawn session thread: {e}")))?;
        match ready_rx.recv() {
            Ok(Ok(info)) => {
                self.lock().insert(name.to_string(), SessionHandle { tx, join });
                Ok(info)
            }
            Ok(Err(e)) => {
                let _ = join.join();
                Err(e)
            }
            Err(_) => {
                let _ = join.join();
                Err(internal("session worker died during open"))
            }
        }
    }

    /// Applies one replay-dialect edit line (`reassign 3 1`, `undo`, …).
    pub fn edit(&self, name: &str, line: &str) -> OpResult {
        let (reply, rx) = mpsc::channel();
        self.send(name, SessionCmd::Edit { line: line.to_string(), reply })?;
        rx.recv().map_err(|_| internal("session worker died"))?
    }

    /// A deterministic snapshot of the session's full state.
    pub fn snapshot(&self, name: &str) -> OpResult {
        let stream = self.lock_streams().get(name).map(Arc::clone);
        if let Some(s) = stream {
            let s = s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            return Ok(crate::json::parse(&s.snapshot_json()).unwrap_or(Json::Null));
        }
        let (reply, rx) = mpsc::channel();
        self.send(name, SessionCmd::Snapshot { reply })?;
        rx.recv().map_err(|_| internal("session worker died"))
    }

    /// Ends the session and deletes its journal and meta file (a closed
    /// session must not resurrect on the next `--resume`).
    pub fn close(&self, name: &str) -> OpResult {
        if let Some(stream) = self.lock_streams().remove(name) {
            // wait out any in-flight batch, then drop the session (and
            // with it the journal handle) before deleting its files
            drop(stream.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
            drop(stream);
            let _ = std::fs::remove_file(self.journal_path(name));
            let _ = std::fs::remove_file(self.meta_path(name));
            return Ok(obj().field("session", name).field("closed", true).build());
        }
        let handle = self
            .lock()
            .remove(name)
            .ok_or_else(|| (KIND_BAD_REQUEST.to_string(), format!("no session '{name}'")))?;
        let (reply, rx) = mpsc::channel();
        let _ = handle.tx.send(SessionCmd::Close { reply });
        let _ = rx.recv();
        let _ = handle.join.join();
        let _ = std::fs::remove_file(self.journal_path(name));
        let _ = std::fs::remove_file(self.meta_path(name));
        Ok(obj().field("session", name).field("closed", true).build())
    }

    /// Joins every actor without touching journals or meta files, so a
    /// drained daemon's sessions resume on the next start.
    pub fn shutdown(&self) {
        let handles: Vec<(String, SessionHandle)> = self.lock().drain().collect();
        for (_, handle) in handles {
            let (reply, rx) = mpsc::channel();
            let _ = handle.tx.send(SessionCmd::Close { reply });
            let _ = rx.recv();
            let _ = handle.join.join();
        }
        // stream sessions just drop: every accepted event is already
        // fsync'd, so their journals resume on the next start
        self.lock_streams().clear();
    }

    fn send(&self, name: &str, cmd: SessionCmd) -> Result<(), (String, String)> {
        let table = self.lock();
        let handle = table
            .get(name)
            .ok_or_else(|| (KIND_BAD_REQUEST.to_string(), format!("no session '{name}'")))?;
        handle
            .tx
            .send(cmd)
            .map_err(|_| internal("session worker died"))
    }
}

/// The actor body: owns the whole session stack on this thread's
/// frames, reports readiness (or the open failure) once, then serves
/// commands until `Close` or the registry drops the sender.
///
/// A `program` edit (`program <comphase> <rule#> <text>`) splices the
/// replacement rule into the session's LaRCS source through the shared
/// incremental front end, recompiles (only the edited rule re-expands)
/// and remaps — all validated *before* the old session is torn down, so
/// a rejected edit leaves the session untouched. On success the actor
/// rewrites the meta sidecar (meta first, as at open: a crash between
/// meta and journal resumes the new source with zero edits, which is
/// valid) and starts a fresh journal — the old frames described edits
/// against the pre-edit mapping.
#[allow(clippy::too_many_arguments)]
fn actor(
    name: String,
    mut spec: MapSpec,
    cache: Arc<RouteTableCache>,
    frontend: Arc<Mutex<oregami::larcs::Db>>,
    journal_path: PathBuf,
    meta_path: PathBuf,
    resume: bool,
    truncations: Arc<AtomicU64>,
    ready: mpsc::Sender<OpResult>,
    rx: mpsc::Receiver<SessionCmd>,
) {
    let net = match parse_target(&spec.topology) {
        Ok((net, _)) => net,
        Err(e) => {
            let _ = ready.send(Err((KIND_BAD_REQUEST.to_string(), e)));
            return;
        }
    };
    let system = Oregami::new(net)
        .with_cache(cache)
        .with_frontend(frontend)
        .with_options(MapperOptions {
            load_bound: spec.load_bound,
            ..MapperOptions::default()
        });
    let params: Vec<(&str, i64)> = spec.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut result = match system.map_source(&spec.source, &params) {
        Ok(r) => r,
        Err(e) => {
            let _ = ready.send(Err(("map".to_string(), e.to_string())));
            return;
        }
    };
    let (mut session, replayed) = if resume {
        match system.resume(&result, &journal_path) {
            Ok((s, recovery)) => {
                if recovery.truncated {
                    truncations.fetch_add(1, Ordering::Relaxed);
                }
                (s, recovery.records.len())
            }
            Err(e) => {
                let _ = ready.send(Err(("session".to_string(), e.to_string())));
                return;
            }
        }
    } else {
        // meta first, journal second: a crash in between leaves a meta
        // file without a journal, which resume reports and skips — never
        // a journal that can't be interpreted
        if let Err(e) = write_meta(&meta_path, &spec) {
            let _ = ready.send(Err(("session".to_string(), e)));
            return;
        }
        let mut s = match system.interactive(&result) {
            Ok(s) => s,
            Err(e) => {
                let _ = ready.send(Err(("map".to_string(), e.to_string())));
                return;
            }
        };
        match Journal::create(&journal_path) {
            Ok(j) => s.attach_journal(j),
            Err(e) => {
                let _ = ready.send(Err(("session".to_string(), e.to_string())));
                return;
            }
        }
        (s, 0)
    };
    let opened = obj()
        .field("session", name.as_str())
        .field("resumed", replayed)
        .field("tasks", result.task_graph.num_tasks())
        .field("procs", system.network().num_procs())
        .field("snapshot", snapshot_json(&name, &session))
        .build();
    if ready.send(Ok(opened)).is_err() {
        return;
    }
    loop {
        // Serve commands until the channel closes, a Close arrives, or a
        // validated program edit asks for a rebuild.
        let rebuild = loop {
            let Ok(cmd) = rx.recv() else { return };
            match cmd {
                SessionCmd::Edit { line, reply } => {
                    if let Ok(Some(ReplayOp::Program { phase, rule, text })) =
                        replay::parse_line(&line)
                    {
                        match recompile_program(&system, &spec, &phase, rule, &text) {
                            Ok((src, res)) => break Some((src, res, reply)),
                            Err(e) => {
                                let _ = reply.send(Err(e));
                            }
                        }
                    } else {
                        let _ = reply.send(apply_line(&mut session, &line));
                    }
                }
                SessionCmd::Snapshot { reply } => {
                    let _ = reply.send(snapshot_json(&name, &session));
                }
                SessionCmd::Close { reply } => {
                    let _ = reply.send(());
                    return;
                }
            }
        };
        let Some((new_source, new_result, reply)) = rebuild else {
            return;
        };
        drop(session);
        spec.source = new_source;
        result = new_result;
        if let Err(e) = write_meta(&meta_path, &spec) {
            let _ = reply.send(Err(("session".to_string(), e)));
            return;
        }
        session = match system.interactive(&result) {
            Ok(s) => s,
            Err(e) => {
                let _ = reply.send(Err(("map".to_string(), e.to_string())));
                return;
            }
        };
        match Journal::create(&journal_path) {
            Ok(j) => session.attach_journal(j),
            Err(e) => {
                let _ = reply.send(Err(("session".to_string(), e.to_string())));
                return;
            }
        }
        let _ = reply.send(Ok(obj()
            .field("recompiled", true)
            .field("tasks", result.task_graph.num_tasks())
            .field("snapshot", snapshot_json(&name, &session))
            .build()));
    }
}

/// Validates and executes a `program` rule edit against the current
/// spec: splice via the shared front end (parse-checked), then compile
/// and remap the edited source. Nothing here touches the live session —
/// an error leaves it serving exactly as before.
fn recompile_program(
    system: &Oregami,
    spec: &MapSpec,
    phase: &str,
    rule: usize,
    text: &str,
) -> Result<(String, oregami::OregamiResult), (String, String)> {
    let new_source = {
        let frontend = system.frontend();
        let mut db = frontend
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        db.edit_rule(&spec.source, phase, rule, text)
            .map_err(|e| (KIND_BAD_REQUEST.to_string(), e.to_string()))?
    };
    let params: Vec<(&str, i64)> = spec.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let result = system
        .map_source(&new_source, &params)
        .map_err(|e| ("map".to_string(), e.to_string()))?;
    Ok((new_source, result))
}

fn apply_line(session: &mut InteractiveSession<'_>, line: &str) -> OpResult {
    let op = match replay::parse_line(line) {
        Ok(Some(op)) => op,
        Ok(None) => {
            return Err((KIND_BAD_REQUEST.to_string(), "empty edit line".to_string()))
        }
        Err(e) => return Err((KIND_BAD_REQUEST.to_string(), e)),
    };
    let delta = match op {
        ReplayOp::Undo => session.undo(),
        ReplayOp::Apply(edit) => match session.apply(edit) {
            Ok(d) => Some(d),
            Err(e) => return Err(("session".to_string(), e.to_string())),
        },
        ReplayOp::Stream(_) => {
            return Err((
                KIND_BAD_REQUEST.to_string(),
                "stream events (spawn/depart/load/recover) need a stream session \
                 (op session_stream)"
                    .to_string(),
            ))
        }
        // program edits are intercepted by the actor loop (they rebuild
        // the whole session); reaching here means no source is in scope
        ReplayOp::Program { .. } => {
            return Err((
                KIND_BAD_REQUEST.to_string(),
                "program edits need an edit session with a source in scope".to_string(),
            ))
        }
    };
    let mut out = obj().field("applied", line).field(
        "edits",
        session.edit_log().len(),
    );
    if let Some(d) = &delta {
        out = out.field("delta", delta_json(d));
    } else {
        out = out.field("delta", Json::Null);
    }
    if let Some(warning) = session.journal_error() {
        out = out.field("journal_warning", warning);
    }
    Ok(out.build())
}

/// Everything a client (or the kill-and-restart test) needs to compare
/// session state byte-for-byte: rendered deterministically, field order
/// fixed.
fn snapshot_json(name: &str, session: &InteractiveSession<'_>) -> Json {
    let assignment: Vec<Json> = session
        .mapping()
        .assignment
        .iter()
        .map(|p| Json::from(u64::from(p.0)))
        .collect();
    obj()
        .field("session", name)
        .field("edits", session.edit_log().len())
        .field("undo_depth", session.undo_depth())
        .field("assignment", Json::Arr(assignment))
        .field("metrics", metric_json(&session.snapshot()))
        .field("report", session.report().render())
        .build()
}

/// One metric snapshot as an ordered object.
pub fn metric_json(s: &MetricSnapshot) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    obj()
        .field("max_link_volume", s.max_link_volume)
        .field("avg_dilation_millis", s.avg_dilation_millis)
        .field("max_dilation", s.max_dilation)
        .field("max_contention", s.max_contention)
        .field("total_ipc", s.total_ipc)
        .field("internalized_volume", s.internalized_volume)
        .field("max_exec_time", s.max_exec_time)
        .field("imbalance_millis", s.imbalance_millis)
        .field("completion_time", opt(s.completion_time))
        .field("comm_time", opt(s.comm_time))
        .build()
}

/// What one edit changed.
pub fn delta_json(d: &MetricsDelta) -> Json {
    obj()
        .field("edges_touched", d.edges_touched)
        .field("before", metric_json(&d.before))
        .field("after", metric_json(&d.after))
        .build()
}

fn write_meta(path: &Path, spec: &MapSpec) -> Result<(), String> {
    let params = Json::Obj(
        spec.params
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect(),
    );
    let meta = obj()
        .field("topology", spec.topology.as_str())
        .field("source", spec.source.as_str())
        .field("label", spec.label.as_str())
        .field("params", params)
        .field(
            "load_bound",
            spec.load_bound.map_or(Json::Null, Json::from),
        )
        .build();
    write_meta_json(path, &meta)
}

/// Stream-session sidecar: just the topology (the churn config is
/// pinned inside the journal itself, as its first frame).
fn write_stream_meta(
    path: &Path,
    topology: &str,
    load_bound: Option<usize>,
) -> Result<(), String> {
    let meta = obj()
        .field("kind", "stream")
        .field("topology", topology)
        .field(
            "load_bound",
            load_bound.map_or(Json::Null, |n| Json::from(n as u64)),
        )
        .build();
    write_meta_json(path, &meta)
}

fn write_meta_json(path: &Path, meta: &Json) -> Result<(), String> {
    let text = meta.render();
    std::fs::write(path, text).map_err(|e| format!("cannot write meta: {e}"))?;
    // fsync so the sidecar survives the same crash the journal does
    match std::fs::File::open(path) {
        Ok(f) => {
            let _ = f.sync_all();
        }
        Err(e) => return Err(format!("cannot sync meta: {e}")),
    }
    Ok(())
}

fn spec_from_meta(meta: &Json) -> Result<MapSpec, String> {
    let topology = meta
        .get("topology")
        .and_then(Json::as_str)
        .ok_or("meta missing 'topology'")?
        .to_string();
    let source = meta
        .get("source")
        .and_then(Json::as_str)
        .ok_or("meta missing 'source'")?
        .to_string();
    let label = meta
        .get("label")
        .and_then(Json::as_str)
        .unwrap_or("inline")
        .to_string();
    let mut params: Vec<(String, i64)> = match meta.get("params") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| v.as_i64().map(|n| (k.clone(), n)).ok_or("bad param"))
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    params.sort();
    let load_bound = meta
        .get("load_bound")
        .and_then(Json::as_u64)
        .map(|n| n as usize);
    Ok(MapSpec {
        source,
        label,
        params,
        topology,
        deadline_ms: None,
        max_steps: None,
        chain: None,
        load_bound,
        fail_procs: Vec::new(),
        fail_links: Vec::new(),
        chaos: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami::larcs::programs;

    fn spec() -> MapSpec {
        MapSpec {
            source: programs::nbody(),
            label: "nbody".to_string(),
            params: vec![
                ("msgsize".to_string(), 4),
                ("n".to_string(), 16),
                ("s".to_string(), 2),
            ],
            topology: "hypercube:3".to_string(),
            deadline_ms: None,
            max_steps: None,
            chain: None,
            load_bound: None,
            fail_procs: Vec::new(),
            fail_links: Vec::new(),
            chaos: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut d = std::env::temp_dir();
        d.push(format!("oregamid-sessions-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn open_edit_snapshot_close_lifecycle() {
        let dir = temp_dir("lifecycle");
        let reg = SessionRegistry::new(dir.clone(), Arc::new(RouteTableCache::new(4)), Arc::new(Mutex::new(oregami::larcs::Db::new())));
        let opened = reg.open("alpha", spec()).unwrap();
        assert_eq!(opened.get("resumed").unwrap().as_u64(), Some(0));
        assert!(dir.join("alpha.jrnl").exists());
        assert!(dir.join("alpha.meta.json").exists());

        // duplicate name is refused
        assert!(reg.open("alpha", spec()).is_err());

        let r = reg.edit("alpha", "reassign 3 1").unwrap();
        assert_eq!(r.get("edits").unwrap().as_u64(), Some(1));
        assert!(r.get("delta").unwrap().get("edges_touched").is_some());
        // a bad edit is a typed error, the session survives
        assert!(reg.edit("alpha", "reassign 9999 0").is_err());
        let snap = reg.snapshot("alpha").unwrap();
        assert_eq!(snap.get("edits").unwrap().as_u64(), Some(1));

        reg.close("alpha").unwrap();
        assert!(!dir.join("alpha.jrnl").exists());
        assert!(!dir.join("alpha.meta.json").exists());
        assert!(reg.edit("alpha", "undo").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_byte_identical_snapshots() {
        let dir = temp_dir("resume");
        let snap_before;
        {
            let reg = SessionRegistry::new(dir.clone(), Arc::new(RouteTableCache::new(4)), Arc::new(Mutex::new(oregami::larcs::Db::new())));
            reg.open("beta", spec()).unwrap();
            reg.edit("beta", "reassign 3 1").unwrap();
            reg.edit("beta", "reassign 4 2").unwrap();
            reg.edit("beta", "undo").unwrap();
            reg.edit("beta", "reassign 5 0").unwrap();
            snap_before = reg.snapshot("beta").unwrap().render();
            // drop WITHOUT close: simulates the daemon dying (journal and
            // meta survive; actors are detached with the registry)
            reg.shutdown();
        }
        let reg = SessionRegistry::new(dir.clone(), Arc::new(RouteTableCache::new(4)), Arc::new(Mutex::new(oregami::larcs::Db::new())));
        let (resumed, failed) = reg.resume_all();
        assert_eq!(resumed, vec!["beta".to_string()]);
        assert!(failed.is_empty(), "{failed:?}");
        let snap_after = reg.snapshot("beta").unwrap().render();
        assert_eq!(snap_before, snap_after, "resume must restore state byte-identically");
        // and the resumed session keeps journalling
        reg.edit("beta", "undo").unwrap();
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
