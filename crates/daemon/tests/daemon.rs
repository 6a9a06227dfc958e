//! End-to-end tests of the oregamid daemon: real processes on real
//! sockets for the crash/restart and signal paths, in-process servers
//! for storms, shedding, and coalescing.

use oregami_daemon::json::{obj, Json};
use oregami_daemon::{Client, Server, ServerConfig};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oregamid-it-{}-{tag}", std::process::id()))
}

/// Kills the child on drop so a failed assertion never leaks a daemon.
struct DaemonProc(Child);

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(socket: &Path, state: &Path, extra: &[&str]) -> DaemonProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_oregamid"));
    cmd.arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    DaemonProc(cmd.spawn().expect("spawn oregamid"))
}

fn connect_within(socket: &Path, timeout: Duration) -> Client {
    let t0 = Instant::now();
    loop {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        assert!(
            t0.elapsed() < timeout,
            "daemon did not come up on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn nbody_params(msgsize: i64) -> Json {
    obj()
        .field("n", 16i64)
        .field("s", 2i64)
        .field("msgsize", msgsize)
        .build()
}

fn map_request(msgsize: i64) -> Json {
    obj()
        .field("op", "map")
        .field("program", "nbody")
        .field("topology", "hypercube:3")
        .field("params", nbody_params(msgsize))
        .build()
}

fn session_op(op: &str, name: &str) -> Json {
    obj().field("op", op).field("session", name).build()
}

fn edit_request(name: &str, line: &str) -> Json {
    obj()
        .field("op", "session_edit")
        .field("session", name)
        .field("edit", line)
        .build()
}

/// The tentpole crash-safety test: SIGKILL the daemon mid-life, restart
/// with `--resume`, and demand byte-identical session snapshots.
#[test]
fn sigkill_and_resume_restores_sessions_byte_identically() {
    let socket = scratch("kill.sock");
    let state = scratch("kill.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    for name in ["alpha", "beta"] {
        let open = obj()
            .field("op", "session_open")
            .field("session", name)
            .field("program", "nbody")
            .field("topology", "hypercube:3")
            .field("params", nbody_params(4))
            .build();
        client.request(&open).expect("session_open");
    }
    for line in ["reassign 3 1", "reassign 4 2", "undo", "reassign 5 0"] {
        client.request(&edit_request("alpha", line)).expect("edit alpha");
    }
    client.request(&edit_request("beta", "reassign 1 3")).expect("edit beta");

    let before_alpha = client
        .request(&session_op("session_snapshot", "alpha"))
        .unwrap()
        .render();
    let before_beta = client
        .request(&session_op("session_snapshot", "beta"))
        .unwrap()
        .render();

    // SIGKILL: no drain, no flush, no goodbye.
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    // the journals and meta sidecars must have survived the kill
    for f in ["alpha.jrnl", "alpha.meta.json", "beta.jrnl", "beta.meta.json"] {
        assert!(state.join(f).exists(), "{f} missing after SIGKILL");
    }

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert_eq!(
        health.get("resumed_sessions").and_then(Json::as_u64),
        Some(2),
        "health: {}",
        health.render()
    );
    assert_eq!(health.get("sessions").and_then(Json::as_u64), Some(2));

    let after_alpha = client
        .request(&session_op("session_snapshot", "alpha"))
        .unwrap()
        .render();
    let after_beta = client
        .request(&session_op("session_snapshot", "beta"))
        .unwrap()
        .render();
    assert_eq!(after_alpha, before_alpha, "alpha diverged across the crash");
    assert_eq!(after_beta, before_beta, "beta diverged across the crash");

    // resumed sessions are live, not read-only husks
    let applied = client
        .request(&edit_request("alpha", "reassign 2 6"))
        .expect("edit after resume");
    assert_eq!(applied.get("edits").and_then(Json::as_u64), Some(5));

    client
        .request(&session_op("session_close", "alpha"))
        .expect("close alpha");
    assert!(!state.join("alpha.jrnl").exists(), "close must delete the journal");
}

/// A `program` line through `session_edit` changes the computation
/// itself: the rule is spliced through the shared incremental front
/// end, recompiled and remapped, and the session rebuilt — edit log
/// reset, fresh journal, meta rewritten to the new source. The
/// rewritten meta must survive a SIGKILL + `--resume`, and a bad edit
/// must be a typed refusal that leaves the session untouched.
#[test]
fn program_edit_recompiles_session_and_survives_resume() {
    let socket = scratch("prog.sock");
    let state = scratch("prog.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let src = "algorithm ring(n);\n\
               nodetype cell: 0..n-1;\n\
               comphase step:\n\
               forall i in 0..n-1 where i < n-1 { cell(i) -> cell(i+1); }\n\
               exephase update cost 2;\n\
               phaseexpr (step; update)^2;\n";
    let open = obj()
        .field("op", "session_open")
        .field("session", "gamma")
        .field("source", src)
        .field("topology", "ring:4")
        .field("params", obj().field("n", 6i64).build())
        .build();
    let opened = client.request(&open).expect("session_open");
    assert_eq!(opened.get("tasks").and_then(Json::as_u64), Some(6));

    client
        .request(&edit_request("gamma", "reassign 0 1"))
        .expect("placement edit before the program edit");

    // bad addressing: typed refusal, session intact
    let err = client
        .request(&edit_request("gamma", "program nophase 0 cell(0) -> cell(1);"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);
    // bad syntax in the new rule text: also refused, with a rendered span
    let err = client
        .request(&edit_request("gamma", "program step 0 forall i in {"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);

    let r = client
        .request(&edit_request(
            "gamma",
            "program step 0 forall i in 0..n-1 where i < n-1 \
             { cell(i) -> cell(i+1) volume 5; }",
        ))
        .expect("program edit");
    assert_eq!(r.get("recompiled").and_then(Json::as_bool), Some(true), "{}", r.render());
    assert_eq!(r.get("tasks").and_then(Json::as_u64), Some(6));
    let snap = r.get("snapshot").expect("snapshot in recompile reply");
    assert_eq!(
        snap.get("edits").and_then(Json::as_u64),
        Some(0),
        "edit log must reset with the recompile: {}",
        r.render()
    );

    // the rebuilt session is live on the new program
    let applied = client
        .request(&edit_request("gamma", "reassign 1 2"))
        .expect("edit after recompile");
    assert_eq!(applied.get("edits").and_then(Json::as_u64), Some(1));

    let before = client
        .request(&session_op("session_snapshot", "gamma"))
        .unwrap()
        .render();

    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    // meta was rewritten before the journal restarted, so resume sees the
    // edited source plus only post-recompile frames
    let meta = std::fs::read_to_string(state.join("gamma.meta.json")).unwrap();
    assert!(meta.contains("volume 5"), "meta must hold the edited source: {meta}");

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let after = client
        .request(&session_op("session_snapshot", "gamma"))
        .unwrap()
        .render();
    assert_eq!(after, before, "session diverged across the crash");

    client
        .request(&session_op("session_close", "gamma"))
        .expect("close gamma");
}

/// The `fmt` op is a stateless source-to-source query: canonical output,
/// idempotent, and a typed `bad_request` (with a caret excerpt) on a
/// parse error.
#[test]
fn fmt_op_formats_canonically_and_rejects_bad_source() {
    let socket = scratch("fmt.sock");
    let state = scratch("fmt.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let config = ServerConfig::new(&socket, &state);
    let _handle = Server::start(config).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let messy = "algorithm   t( n );\nnodetype cell :0..n-1;\n\
                 comphase c: forall i in 0..n-1 where i<n-1 { cell(i)->cell(i+1) ; }\n";
    let r = client
        .request(&obj().field("op", "fmt").field("source", messy).build())
        .expect("fmt");
    let formatted = r.get("formatted").and_then(Json::as_str).expect("formatted field");
    assert!(formatted.contains("algorithm t(n);"), "{formatted}");

    let again = client
        .request(&obj().field("op", "fmt").field("source", formatted).build())
        .expect("refmt");
    assert_eq!(
        again.get("formatted").and_then(Json::as_str),
        Some(formatted),
        "fmt must be idempotent over the wire"
    );

    // builtins resolve by name, same as `map`
    let builtin = client
        .request(&obj().field("op", "fmt").field("program", "nbody").build())
        .expect("fmt builtin");
    assert!(builtin.get("formatted").is_some());

    let err = client
        .request(&obj().field("op", "fmt").field("source", "algorithm ???").build())
        .unwrap_err();
    assert_eq!(err.0, "bad_request");
    assert!(err.1.contains('^'), "parse error must carry its excerpt: {}", err.1);
}

fn stream_request(name: &str, events: &[&str]) -> Json {
    let lines: Vec<Json> = events.iter().map(|e| Json::from(*e)).collect();
    obj()
        .field("op", "session_stream")
        .field("session", name)
        .field("topology", "hypercube:3")
        .field("events", Json::Arr(lines))
        .build()
}

/// Churn-stream crash safety end to end: SIGKILL the daemon mid-stream,
/// tear the journal tail the way a crash mid-write would, restart with
/// `--resume` — the surviving prefix must restore byte-identically and
/// the truncation must show up in the health counters.
#[test]
fn sigkill_and_resume_restores_stream_session_with_torn_tail() {
    let socket = scratch("stream.sock");
    let state = scratch("stream.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let r = client
        .request(&stream_request(
            "churn",
            &[
                "spawn 0 - 2 0",
                "spawn 1 0 3 4",
                "spawn 2 0 1 2",
                "load 1 5",
                "fault proc:1",
                "recover proc:1",
            ],
        ))
        .expect("open + first batch");
    assert_eq!(r.get("accepted").and_then(Json::as_u64), Some(6), "{}", r.render());

    // an edit on a stream session (and vice versa) is a typed refusal
    let err = client
        .request(&edit_request("churn", "reassign 0 1"))
        .unwrap_err();
    assert_eq!(err.0, "bad_request", "{}: {}", err.0, err.1);

    let before = client
        .request(&session_op("session_snapshot", "churn"))
        .unwrap()
        .render();

    // one more event that the torn tail will erase again
    client
        .request(&stream_request("churn", &["load 2 7"]))
        .expect("post-snapshot event");

    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();
    drop(daemon);

    let journal = state.join("churn.jrnl");
    assert!(journal.exists(), "stream journal missing after SIGKILL");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).unwrap();

    let _daemon2 = spawn_daemon(&socket, &state, &["--resume"]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert_eq!(
        health.get("resumed_sessions").and_then(Json::as_u64),
        Some(1),
        "{}",
        health.render()
    );
    assert_eq!(
        health.get("journal_truncations").and_then(Json::as_u64),
        Some(1),
        "torn-tail recovery must be counted: {}",
        health.render()
    );

    let after = client
        .request(&session_op("session_snapshot", "churn"))
        .unwrap()
        .render();
    assert_eq!(after, before, "stream session diverged across the crash");

    // the resumed session is live: more events apply and journal on
    let more = client
        .request(&stream_request("churn", &["depart 2", "spawn 3 1 2 3"]))
        .expect("events after resume");
    assert_eq!(more.get("accepted").and_then(Json::as_u64), Some(2));

    client
        .request(&session_op("session_close", "churn"))
        .expect("close stream session");
    assert!(!journal.exists(), "close must delete the stream journal");
    assert!(!state.join("churn.meta.json").exists());
}

/// SIGTERM must drain gracefully: exit 0, socket unlinked, final stats
/// on stdout.
#[test]
fn sigterm_drains_cleanly_and_removes_socket() {
    let socket = scratch("term.sock");
    let state = scratch("term.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut daemon = spawn_daemon(&socket, &state, &[]);
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    client.request(&map_request(4)).expect("map before drain");

    let pid = daemon.0.id().to_string();
    let ok = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM")
        .success();
    assert!(ok, "kill -TERM failed");

    let t0 = Instant::now();
    let status = loop {
        if let Some(s) = daemon.0.try_wait().expect("try_wait") {
            break s;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "daemon did not drain within 15 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(30));
    };
    assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");
    assert!(!socket.exists(), "socket file must be unlinked on drain");

    let mut stdout = String::new();
    daemon
        .0
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(
        stdout.contains("\"service\"") && stdout.contains("\"draining\":true"),
        "final stats missing from stdout: {stdout}"
    );
}

/// 50 concurrent requests — 5 of them chaos-injected — and every single
/// one gets a typed answer. The daemon survives with zero worker
/// deaths and keeps answering afterwards.
#[test]
fn concurrent_storm_answers_every_request() {
    let socket = scratch("storm.sock");
    let state = scratch("storm.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 4;
    config.max_queue = 64;
    let handle = Server::start(config).expect("start server");

    const THREADS: u64 = 10;
    const PER_THREAD: u64 = 5;
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            gate.wait();
            let mut outcomes = Vec::new();
            for i in 0..PER_THREAD {
                let seq = t * PER_THREAD + i;
                let mut req = map_request(1 + (seq % 4) as i64);
                if seq.is_multiple_of(10) {
                    // every tenth request brings its own chaos, scoped to
                    // the exhaustive stage so the fallback chain (not
                    // luck) is what absorbs every injected panic
                    if let Json::Obj(fields) = &mut req {
                        fields.push((
                            "chaos".to_string(),
                            Json::from(format!(
                                "seed={seq},panic=0.9,stall=0.2,stall-ms=10,only=exhaustive"
                            )),
                        ));
                    }
                }
                outcomes.push(client.request(&req));
            }
            outcomes
        }));
    }

    let allowed = [
        "overloaded",
        "unserviceable",
        "shutting_down",
        "map",
        "fault",
        "repair",
        "internal",
    ];
    let mut total = 0usize;
    let mut served = 0usize;
    for join in joins {
        for outcome in join.join().expect("storm thread panicked") {
            total += 1;
            match outcome {
                Ok(result) => {
                    served += 1;
                    assert!(result.get("assignment").is_some(), "{}", result.render());
                }
                Err((kind, msg)) => assert!(
                    allowed.contains(&kind.as_str()),
                    "untyped outcome {kind}: {msg}"
                ),
            }
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize);
    assert!(served >= 45, "only {served}/{total} requests served");

    // the daemon is still standing and says so
    let mut client = connect_within(&socket, Duration::from_secs(5));
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let health = client.request(&obj().field("op", "health").build()).unwrap();
    assert!(
        health.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 50,
        "{}",
        health.render()
    );
    assert!(health.get("completed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    drop(client);

    let stats = handle.shutdown();
    assert_eq!(
        stats.get("draining").and_then(Json::as_bool),
        Some(true),
        "{}",
        stats.render()
    );
}

/// With one slow worker and a tiny queue, a burst of distinct requests
/// must be shed with the typed `overloaded` error — not queued into a
/// universal timeout.
#[test]
fn overload_sheds_typed_overloaded_errors() {
    let socket = scratch("shed.sock");
    let state = scratch("shed.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 1;
    config.max_queue = 2;
    let handle = Server::start(config).expect("start server");

    const CLIENTS: usize = 12;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let mut req = map_request(c as i64 + 1); // distinct: no coalescing
            if let Json::Obj(fields) = &mut req {
                fields.push((
                    "chaos".to_string(),
                    // stall every stage so the queue actually backs up
                    Json::from(format!("seed={c},stall=1,stall-ms=250")),
                ));
            }
            gate.wait();
            client.request(&req)
        }));
    }

    let mut shed = 0usize;
    let mut served = 0usize;
    for join in joins {
        match join.join().expect("client thread panicked") {
            Ok(_) => served += 1,
            Err((kind, msg)) => {
                assert_eq!(kind, "overloaded", "unexpected shed kind {kind}: {msg}");
                shed += 1;
            }
        }
    }
    assert!(served >= 1, "nothing was served at all");
    assert!(
        shed >= 1,
        "12 stalled requests against queue=2/workers=1 shed nothing"
    );

    let stats = handle.shutdown();
    let shed_counter = stats
        .get("shed")
        .and_then(|s| s.get("overloaded"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(shed_counter as usize, shed, "{}", stats.render());
}

/// Identical in-flight requests coalesce: one computation, every waiter
/// answered with the same payload, and the health counter shows it.
#[test]
fn identical_inflight_requests_coalesce() {
    let socket = scratch("coal.sock");
    let state = scratch("coal.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 2;
    let handle = Server::start(config).expect("start server");

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let sock = socket.clone();
        let gate = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = connect_within(&sock, Duration::from_secs(15));
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let mut req = map_request(7);
            if let Json::Obj(fields) = &mut req {
                // one identical stall spec for everyone: same coalesce
                // key, and a wide window for the others to pile into
                fields.push(("chaos".to_string(), Json::from("seed=3,stall=1,stall-ms=400")));
            }
            gate.wait();
            client.request(&req)
        }));
    }

    let mut renders = Vec::new();
    for join in joins {
        let result = join
            .join()
            .expect("client thread panicked")
            .expect("coalesced request failed");
        renders.push(result.render());
    }
    renders.dedup();
    assert_eq!(renders.len(), 1, "waiters saw different payloads");

    let stats = handle.shutdown();
    let coalesced = stats.get("coalesced").and_then(Json::as_u64).unwrap_or(0);
    assert!(coalesced >= 1, "no coalescing observed: {}", stats.render());
}

#[test]
fn machine_daemon_health_reports_domains_and_compression() {
    let socket = scratch("machine.sock");
    let state = scratch("machine.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);
    let _daemon = spawn_daemon(
        &socket,
        &state,
        &[
            "--machine", "mesh-boards:2x2x2x2",
            "--boot-dead", "150",
            "--boot-seed", "3",
            "--route-budget", "512",
        ],
    );
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let params = obj().field("n", 8i64).field("iters", 2i64).build();

    // A machine-spec map runs route compression against the budget and
    // reports the result inline.
    let map = obj()
        .field("op", "map")
        .field("program", "jacobi")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("params", params.clone())
        .build();
    let text = client.request(&map).expect("machine map").render();
    assert!(text.contains("route_compression"), "{text}");

    // A repair on the machine reports the blast-radius migration split.
    let repair = obj()
        .field("op", "repair")
        .field("program", "jacobi")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("params", params)
        .field("fail_procs", Json::Arr(vec![Json::from(5u64)]))
        .build();
    let text = client.request(&repair).expect("machine repair").render();
    assert!(text.contains("migrations_intra_domain"), "{text}");
    assert!(text.contains("migrations_cross_domain"), "{text}");

    // Client-visible health: the stock CLI client must surface the
    // per-domain liveness and the compression budget headroom.
    let out = Command::new(env!("CARGO_BIN_EXE_oregami"))
        .arg("--socket")
        .arg(&socket)
        .arg("--health")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let health = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"machine\"",
        "mesh-boards:2x2x2x2",
        "domains_total",
        "domains_degraded",
        "alive_per_domain",
        "route_compression",
        "\"budget\"",
        "headroom",
    ] {
        assert!(health.contains(key), "health JSON missing {key}: {health}");
    }

    // Sessions and streams accept the same machine specs as `map`.
    let open = obj()
        .field("op", "session_open")
        .field("session", "boards")
        .field("program", "jacobi")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("params", obj().field("n", 4i64).field("iters", 1i64).build())
        .build();
    client.request(&open).expect("machine session_open");
    client
        .request(&edit_request("boards", "reassign 3 1"))
        .expect("machine session edit");
    let snapshot = client
        .request(&session_op("session_snapshot", "boards"))
        .expect("machine session snapshot");
    assert!(snapshot.get("metrics").is_some(), "{}", snapshot.render());
    let stream = obj()
        .field("op", "session_stream")
        .field("session", "board-churn")
        .field("topology", "mesh-boards:2x2x2x2")
        .field("events", Json::Arr(vec![Json::from("spawn 0 - 2 0")]))
        .build();
    let r = client.request(&stream).expect("machine session_stream");
    assert_eq!(r.get("accepted").and_then(Json::as_u64), Some(1), "{}", r.render());
}

/// A `--chain ml` breaker tripped by injected panics shows up in
/// `health` under `breakers.multilevel`; with the full chain's breakers
/// still closed the service verdict is `degraded`, not `unserviceable`.
#[test]
fn health_reports_a_tripped_multilevel_breaker() {
    let socket = scratch("mlbreaker.sock");
    let state = scratch("mlbreaker.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(&socket, &state);
    config.workers = 1;
    let handle = Server::start(config).expect("start server");
    let mut client = connect_within(&socket, Duration::from_secs(15));
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // the default breaker threshold is three consecutive failures
    for msgsize in 1..=3 {
        let mut req = map_request(msgsize);
        if let Json::Obj(fields) = &mut req {
            fields.push(("chain".to_string(), Json::from("ml")));
            fields.push((
                "chaos".to_string(),
                Json::from(format!("seed={msgsize},panic=1,only=multilevel")),
            ));
        }
        let (kind, msg) = client.request(&req).expect_err("every ml attempt panics");
        assert_eq!(kind, "unserviceable", "{msg}");
    }

    let health = client
        .request(&obj().field("op", "health").build())
        .unwrap();
    let ml = health
        .get("breakers")
        .and_then(|b| b.get("multilevel"))
        .unwrap_or_else(|| panic!("no multilevel breaker: {}", health.render()));
    assert_eq!(
        ml.get("state").and_then(Json::as_str),
        Some("open"),
        "{}",
        health.render()
    );
    assert!(
        ml.get("trips").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{}",
        health.render()
    );
    for kind in ["exhaustive", "heuristic", "identity"] {
        let b = health.get("breakers").and_then(|b| b.get(kind));
        assert_eq!(
            b.and_then(|b| b.get("state")).and_then(Json::as_str),
            Some("closed"),
            "{kind}: {}",
            health.render()
        );
    }
    assert_eq!(
        health.get("service").and_then(Json::as_str),
        Some("degraded"),
        "{}",
        health.render()
    );
    drop(client);
    handle.shutdown();
}

fn one_shot_health(socket: &Path) -> Json {
    let mut client = Client::connect(socket).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
        .request(&obj().field("op", "health").build())
        .expect("one-shot health")
}

fn connections(health: &Json, field: &str) -> u64 {
    health
        .get("connections")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no connections.{field}: {}", health.render()))
}

/// One-shot clients, a fresh connection per request as `oregami
/// --socket` makes them, are accepted as soon as they connect rather
/// than on the accept loop's next tick; and once they hang up the
/// daemon holds no connection for them.
#[test]
fn one_shot_requests_are_accepted_promptly_and_reaped() {
    let socket = scratch("oneshot.sock");
    let state = scratch("oneshot.state");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&socket);

    let handle = Server::start(ServerConfig::new(&socket, &state)).expect("start server");
    drop(connect_within(&socket, Duration::from_secs(15)));

    const ONE_SHOTS: u64 = 200;
    let t0 = Instant::now();
    for _ in 0..ONE_SHOTS {
        one_shot_health(&socket);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "{ONE_SHOTS} sequential one-shot health requests took {elapsed:?}"
    );

    // every client has gone: only the connection asking stays open
    let t0 = Instant::now();
    let health = loop {
        let health = one_shot_health(&socket);
        if connections(&health, "open") <= 1 {
            break health;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "finished connections were not reaped: {}",
            health.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(connections(&health, "accepted") > ONE_SHOTS, "{}", health.render());
    assert_eq!(
        health.get("accept_errors").and_then(Json::as_u64),
        Some(0),
        "{}",
        health.render()
    );

    let stats = handle.shutdown();
    assert_eq!(connections(&stats, "open"), 0, "{}", stats.render());
}
