//! Supervisor resilience tests: the watchdog/hang contract, circuit
//! breaker state machine under real engine runs, and the seeded chaos
//! property — the engine always returns a valid mapping or a typed
//! `Unserviceable` within deadline + grace, never a hang, never a
//! poisoned shared cache.

use oregami_larcs::{compile, programs};
use oregami_mapper::budget::Budget;
use oregami_mapper::engine::{
    run_engine_with, EngineConfig, FallbackChain, StageKind, StageStatus,
};
use oregami_mapper::pipeline::{MapError, MapperOptions};
use oregami_mapper::supervisor::{
    BreakerConfig, BreakerState, ChaosConfig, RetryPolicy, ServiceHealth, SupervisorConfig,
    SupervisorState,
};
use oregami_topology::{builders, RouteTableCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn jacobi16() -> oregami_graph::TaskGraph {
    compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).unwrap()
}

/// Silences the default panic hook for tests that inject panics on
/// worker threads (the panics are contained; the hook's backtrace spam
/// is not).
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

#[test]
fn supervised_clean_run_is_healthy_and_matches_unsupervised() {
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let plain = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &FallbackChain::full(),
        &Budget::unlimited(),
        &EngineConfig::default(),
    )
    .unwrap();
    // supervision combines with every thread count
    for threads in [1, 2, 3, 4, 8] {
        let sup = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited(),
            &EngineConfig::default()
                .threads(threads)
                .supervised(SupervisorConfig::default()),
        )
        .unwrap();
        assert_eq!(sup.engine.served_by, plain.engine.served_by, "{threads} threads");
        assert_eq!(
            sup.report.mapping.assignment, plain.report.mapping.assignment,
            "supervised execution must serve the identical mapping at {threads} threads"
        );
        assert_eq!(sup.engine.health, ServiceHealth::Healthy, "{threads} threads");
        assert!(sup.engine.to_string().contains("health: healthy"));
    }
}

#[test]
fn supervised_stalled_chain_runs_its_stages_in_parallel() {
    // Every attempt of every stage stalls 400 ms without polling. At one
    // worker the chain pays one stall per stage it runs; at three
    // workers the stages stall side by side, so the whole chain costs
    // about one stall — and still serves the same stage.
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let run = |threads: usize| {
        let cfg = EngineConfig::default().threads(threads).supervised(
            SupervisorConfig::default()
                .with_chaos(ChaosConfig::new(1).with_stall(1.0, Duration::from_millis(400))),
        );
        let t0 = Instant::now();
        let outcome = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &Budget::unlimited().with_max_steps(1),
            &cfg,
        )
        .unwrap();
        (outcome, t0.elapsed())
    };
    let (seq, _) = run(1);
    let (par, elapsed) = run(3);
    assert!(
        elapsed < Duration::from_millis(700),
        "supervised 3-thread chain took {elapsed:.1?}, expected about one 400 ms stall"
    );
    assert_eq!(par.engine.served_by, seq.engine.served_by, "{}", par.engine);
    assert!(par.engine.to_string().contains("3 threads"));
    par.report.mapping.validate(&tg, &net).unwrap();
}

#[test]
fn non_polling_stage_is_hung_and_chain_still_serves() {
    // The acceptance test for the tentpole: a stage that never charges
    // its budget (simulated by an injected 5 s non-cooperative stall)
    // used to block run_engine_with forever. Under the supervisor it
    // must return within deadline + grace windows, report the stage
    // Hung, and still serve from the rest of the chain.
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let deadline = Duration::from_millis(120);
    let grace = Duration::from_millis(150);
    let chaos = ChaosConfig::new(1)
        .with_stall(1.0, Duration::from_secs(5))
        .with_only(StageKind::Exhaustive);
    let cfg = EngineConfig::default().supervised(
        SupervisorConfig::default()
            .with_grace(grace)
            .with_chaos(chaos),
    );
    let budget = Budget::unlimited().with_deadline(deadline);
    let t0 = Instant::now();
    let outcome = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &FallbackChain::full(),
        &budget,
        &cfg,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    // one deadline + a grace window per stage, plus scheduling slack —
    // far below the 5 s stall the old engine would have waited out
    assert!(
        elapsed < Duration::from_secs(2),
        "supervised engine took {elapsed:.1?}, expected deadline + grace"
    );
    assert_eq!(
        outcome.engine.stages[0].status,
        StageStatus::Hung,
        "stalled exhaustive stage must be reported hung:\n{}",
        outcome.engine
    );
    assert_ne!(outcome.engine.served_by, StageKind::Exhaustive);
    outcome.report.mapping.validate(&tg, &net).unwrap();
    assert_eq!(outcome.engine.health, ServiceHealth::Degraded);
    assert!(outcome.engine.to_string().contains("hung"));
}

#[test]
fn deadline_less_budget_uses_stage_timeout_watchdog() {
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let chaos = ChaosConfig::new(3)
        .with_stall(1.0, Duration::from_secs(5))
        .with_only(StageKind::Heuristic);
    let cfg = EngineConfig::default().supervised(
        SupervisorConfig::default()
            .with_stage_timeout(Duration::from_millis(100))
            .with_grace(Duration::from_millis(100))
            .with_chaos(chaos),
    );
    let t0 = Instant::now();
    let outcome = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &FallbackChain {
            stages: vec![StageKind::Heuristic, StageKind::Identity],
        },
        &Budget::unlimited(),
        &cfg,
    )
    .unwrap();
    assert!(t0.elapsed() < Duration::from_secs(2));
    assert_eq!(outcome.engine.stages[0].status, StageStatus::Hung);
    assert_eq!(outcome.engine.served_by, StageKind::Identity);
}

#[test]
fn panicking_stage_is_retried_then_breaker_opens_and_reprobes() {
    quiet_panics();
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let state = Arc::new(SupervisorState::new());
    let chain = FallbackChain {
        stages: vec![StageKind::Exhaustive],
    };
    let chaos = ChaosConfig::new(0).with_panic_prob(1.0);
    let breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_secs(3600),
    };
    let sup = SupervisorConfig::default()
        .with_retry(RetryPolicy {
            max_retries: 1,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
        })
        .with_breaker(breaker.clone())
        .with_chaos(chaos)
        .with_state(Arc::clone(&state));
    let cfg = EngineConfig::default().supervised(sup);

    // Run 1: both attempts panic -> Unserviceable, breaker open (the
    // retry counts toward the threshold of 2).
    let err = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &chain,
        &Budget::unlimited(),
        &cfg,
    )
    .unwrap_err();
    assert!(
        matches!(err, MapError::Unserviceable(_)),
        "all-panic supervised chain must be Unserviceable, got {err}"
    );
    let view = state.breaker(StageKind::Exhaustive);
    assert_eq!(view.state, BreakerState::Open);
    assert_eq!(view.consecutive_failures, 2);
    assert_eq!(view.trips, 1);

    // Run 2: cooldown has not elapsed -> the stage is skipped outright
    // (CircuitOpen) without a single attempt.
    let err = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &chain,
        &Budget::unlimited(),
        &cfg,
    )
    .unwrap_err();
    match &err {
        MapError::Unserviceable(details) => assert!(
            details.contains("circuit breaker open"),
            "expected breaker skip, got: {details}"
        ),
        other => panic!("expected Unserviceable, got {other}"),
    }

    // Run 3: zero cooldown + chaos off -> half-open probe runs, succeeds,
    // closes the breaker, and the stage serves again.
    let healed = SupervisorConfig::default()
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        })
        .with_state(Arc::clone(&state));
    let outcome = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &chain,
        &Budget::unlimited(),
        &EngineConfig::default().supervised(healed),
    )
    .unwrap();
    assert_eq!(outcome.engine.served_by, StageKind::Exhaustive);
    let view = state.breaker(StageKind::Exhaustive);
    assert_eq!(view.state, BreakerState::Closed);
    assert_eq!(view.probes, 1);
    assert!(!state.any_tripped());
}

#[test]
fn half_open_probe_race_admits_exactly_one_probe() {
    quiet_panics();
    // Two engine calls racing on one shared Arc<SupervisorState> while a
    // tripped breaker's cooldown has elapsed: exactly one of them may be
    // admitted as the half-open probe; the other must shed the stage
    // (CircuitOpen) and serve from the rest of the chain.
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let state = Arc::new(SupervisorState::new());
    let chain = FallbackChain {
        stages: vec![StageKind::Exhaustive, StageKind::Identity],
    };

    // Trip the breaker: one all-panic run of the exhaustive stage.
    let trip = SupervisorConfig::default()
        .with_retry(RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
        })
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        })
        .with_chaos(
            ChaosConfig::new(2)
                .with_panic_prob(1.0)
                .with_only(StageKind::Exhaustive),
        )
        .with_state(Arc::clone(&state));
    run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &chain,
        &Budget::unlimited(),
        &EngineConfig::default().supervised(trip),
    )
    .unwrap();
    assert_eq!(state.breaker(StageKind::Exhaustive).state, BreakerState::Open);

    // Race: cooldown now zero, and the probe attempt is held in flight
    // by an injected stall long enough (watchdog cuts it at
    // stage_timeout + grace ≈ 800 ms) that the loser's admission check
    // is guaranteed to land while the winner's probe is unresolved.
    let barrier = std::sync::Barrier::new(2);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let run = || {
            s.spawn(|| {
                let sup = SupervisorConfig::default()
                    .with_stage_timeout(Duration::from_millis(400))
                    .with_grace(Duration::from_millis(400))
                    .with_retry(RetryPolicy {
                        max_retries: 0,
                        backoff: Duration::from_millis(1),
                        backoff_cap: Duration::from_millis(1),
                    })
                    .with_breaker(BreakerConfig {
                        failure_threshold: 1,
                        cooldown: Duration::ZERO,
                    })
                    .with_chaos(
                        ChaosConfig::new(5)
                            .with_stall(1.0, Duration::from_secs(5))
                            .with_only(StageKind::Exhaustive),
                    )
                    .with_state(Arc::clone(&state));
                barrier.wait();
                run_engine_with(
                    &tg,
                    &net,
                    &MapperOptions::default(),
                    &chain,
                    &Budget::unlimited(),
                    &EngineConfig::default().supervised(sup),
                )
                .unwrap()
            })
        };
        [run(), run()].into_iter().map(|h| h.join().unwrap()).collect()
    });

    // 1 trip-run probe count is 0; the race must have admitted exactly 1
    assert_eq!(
        state.breaker(StageKind::Exhaustive).probes,
        1,
        "exactly one of the racing calls may probe the half-open breaker"
    );
    let shed = outcomes
        .iter()
        .filter(|o| o.engine.stages[0].status == StageStatus::CircuitOpen)
        .count();
    assert_eq!(shed, 1, "the losing call must shed the stage as CircuitOpen");
    for o in &outcomes {
        assert_eq!(o.engine.served_by, StageKind::Identity);
        o.report.mapping.validate(&tg, &net).unwrap();
    }
}

#[test]
fn transient_panic_is_retried_and_recovers() {
    quiet_panics();
    // seed chosen so the first exhaustive attempt panics and a retry
    // comes up clean: with panic_prob=0.4 the deterministic stream for
    // seed 8 starts Panic, None, ...
    let seed = (0..1000u64)
        .find(|&s| {
            let a = probe_stream(&ChaosConfig::new(s).with_panic_prob(0.4));
            a[0] && !a[1]
        })
        .expect("some seed panics first and only first");
    let chaos = ChaosConfig::new(seed)
        .with_panic_prob(0.4)
        .with_only(StageKind::Exhaustive);
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let sup = SupervisorConfig::default()
        .with_retry(RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        })
        .with_chaos(chaos);
    let outcome = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &FallbackChain {
            stages: vec![StageKind::Exhaustive, StageKind::Identity],
        },
        &Budget::unlimited(),
        &EngineConfig::default().supervised(sup),
    )
    .unwrap();
    let stage0 = &outcome.engine.stages[0];
    assert!(
        stage0.attempts >= 2,
        "first attempt must have been retried: {stage0:?}"
    );
    assert!(matches!(
        stage0.status,
        StageStatus::Served | StageStatus::Candidate
    ));
    assert_eq!(outcome.engine.health, ServiceHealth::Degraded);
    assert!(outcome.engine.to_string().contains("attempts"));
}

/// Which of the first two draws of a fresh clone of this stream panic.
fn probe_stream(template: &ChaosConfig) -> [bool; 2] {
    // fresh stream with the same seed/probabilities: inject() panics are
    // what the supervisor sees, so probe via catch_unwind on a clone
    let probe = ChaosConfig::new(template.seed).with_panic_prob(template.panic_prob);
    let mut out = [false; 2];
    for slot in &mut out {
        *slot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            probe.inject(StageKind::Exhaustive)
        }))
        .is_err();
    }
    out
}

#[test]
fn chaos_storms_always_serve_or_fail_typed_never_hang_or_poison() {
    quiet_panics();
    // The acceptance property: 100+ seeded storms of panics and stalls.
    // Every run must end, within deadline + per-stage grace windows, in
    // a valid mapping or a typed Unserviceable — and the shared cache
    // must stay usable throughout.
    let tg = jacobi16();
    let net = builders::hypercube(2);
    let cache = Arc::new(RouteTableCache::new(8));
    let state = Arc::new(SupervisorState::new());
    let deadline = Duration::from_millis(40);
    let grace = Duration::from_millis(30);
    let mut served = 0u32;
    let mut unserviceable = 0u32;
    for storm in 0..110u64 {
        let chaos = ChaosConfig::new(0xC4A0_5000 + storm)
            .with_panic_prob(0.25)
            .with_stall(0.15, Duration::from_millis(80));
        let sup = SupervisorConfig::default()
            .with_grace(grace)
            .with_retry(RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(1),
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::ZERO, // always re-probe: storms stay independent-ish
            })
            .with_chaos(chaos)
            .with_state(Arc::clone(&state));
        let cfg = EngineConfig {
            cache: Some(Arc::clone(&cache)),
            ..EngineConfig::default()
        }
        .supervised(sup);
        let budget = Budget::unlimited().with_deadline(deadline);
        let t0 = Instant::now();
        let result = run_engine_with(
            &tg,
            &net,
            &MapperOptions::default(),
            &FallbackChain::full(),
            &budget,
            &cfg,
        );
        let elapsed = t0.elapsed();
        // bound: deadline, plus per-stage (watchdog grace + retry), plus
        // generous scheduling slack — the point is "never the 80 ms
        // stall times retries compounding into an unbounded wait"
        assert!(
            elapsed < Duration::from_secs(3),
            "storm {storm} took {elapsed:.1?}"
        );
        match result {
            Ok(outcome) => {
                outcome.report.mapping.validate(&tg, &net).unwrap();
                served += 1;
            }
            Err(MapError::Unserviceable(_)) => unserviceable += 1,
            Err(other) => panic!("storm {storm}: untyped failure {other}"),
        }
        // the shared cache must never be poisoned by an injected panic
        let _ = cache.stats();
    }
    assert!(served > 0, "no storm ever served");
    // panic_prob 0.25 across 110 storms: statistically certain to see
    // both outcomes; if every storm served, chaos wasn't biting
    assert!(
        unserviceable > 0 || served == 110,
        "chaos storms produced neither failures nor full service?"
    );
    let clean = run_engine_with(
        &tg,
        &net,
        &MapperOptions::default(),
        &FallbackChain::full(),
        &Budget::unlimited(),
        &EngineConfig {
            cache: Some(Arc::clone(&cache)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        clean.engine.completion,
        oregami_mapper::budget::Completion::Optimal,
        "cache/state must be fully serviceable after the storm run"
    );
}
