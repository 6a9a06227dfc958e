//! Benchmarks the parallel fallback-chain engine against the sequential
//! scheduler and records the route-table cache hit rate, emitting
//! `BENCH_parallel_engine.json` (the CI bench-smoke artifact).
//!
//! ```sh
//! cargo run --release -p oregami-bench --bin engine_bench            # full
//! cargo run --release -p oregami-bench --bin engine_bench -- --quick
//! ```
//!
//! The budgeted workload gives every mode the same step quota: the
//! sequential engine burns it front-to-back (exhaustive first), while the
//! parallel engine splits it across stages that run concurrently, so the
//! chain's wall-clock drops roughly with the thread count. The two
//! supervised modes run the same chain under the stage supervisor
//! (watchdog, retry, circuit breakers) at one and four threads and must
//! serve the same cost as their unsupervised counterparts. A separate
//! unlimited-budget check asserts the determinism contract: parallel and
//! sequential runs serve the identical candidate.

use oregami::graph::TaskGraph;
use oregami::larcs::{compile, programs};
use oregami::mapper::{run_engine_with, EngineConfig, EngineOutcome, StageStatus, SupervisorConfig};
use oregami::topology::builders;
use oregami::{Budget, FallbackChain, MapperOptions, Network, RouteTableCache};
use oregami_bench::random_permutation_traffic;
use std::sync::Arc;
use std::time::Instant;

/// Step quota for the budgeted workload: large enough that the exhaustive
/// stage runs for a measurable wall-clock slice, small enough that a full
/// run of the benchmark stays in seconds.
const STEP_QUOTA: u64 = 2_000_000;

struct ModeResult {
    label: &'static str,
    threads: usize,
    supervised: bool,
    median_ms: f64,
    min_ms: f64,
    max_ms: f64,
    served_by: String,
    completion: String,
    cost: u64,
}

fn served_cost(outcome: &EngineOutcome) -> u64 {
    outcome
        .engine
        .stages
        .iter()
        .find(|s| s.status == StageStatus::Served)
        .and_then(|s| s.cost)
        .unwrap_or(0)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Runs the budgeted chain `reps` times in one mode and reports the
/// median wall-clock plus what the last run served.
fn run_mode(
    label: &'static str,
    threads: usize,
    supervised: bool,
    tg: &TaskGraph,
    net: &Network,
    cache: &Arc<RouteTableCache>,
    reps: usize,
) -> ModeResult {
    let chain = FallbackChain::full();
    let opts = MapperOptions::default();
    let mut config = EngineConfig::with_cache(Arc::clone(cache)).threads(threads);
    if supervised {
        config = config.supervised(SupervisorConfig::default());
    }
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let budget = Budget::unlimited().with_max_steps(STEP_QUOTA);
        let start = Instant::now();
        let outcome =
            run_engine_with(tg, net, &opts, &chain, &budget, &config).expect("chain serves");
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(outcome);
    }
    let outcome = last.expect("at least one rep");
    let median_ms = median(&mut samples); // sorts the samples
    ModeResult {
        label,
        threads,
        supervised,
        median_ms,
        min_ms: samples[0],
        max_ms: samples[samples.len() - 1],
        served_by: outcome.engine.served_by.name().to_string(),
        completion: outcome.engine.completion.to_string(),
        cost: served_cost(&outcome),
    }
}

/// The determinism contract on an unlimited budget: a 4-thread run must
/// serve the identical candidate as a sequential run. Panics on mismatch
/// so CI fails loudly.
fn determinism_check() -> bool {
    let tg = compile(&programs::jacobi(), &[("n", 4), ("iters", 1)]).expect("jacobi compiles");
    let net = builders::hypercube(2);
    let opts = MapperOptions::default();
    let chain = FallbackChain::full();
    let seq = run_engine_with(
        &tg,
        &net,
        &opts,
        &chain,
        &Budget::unlimited(),
        &EngineConfig::default(),
    )
    .expect("sequential serves");
    let par = run_engine_with(
        &tg,
        &net,
        &opts,
        &chain,
        &Budget::unlimited(),
        &EngineConfig::default().threads(4),
    )
    .expect("parallel serves");
    assert_eq!(seq.engine.served_by, par.engine.served_by, "served stage");
    assert_eq!(seq.engine.completion, par.engine.completion, "completion");
    assert_eq!(served_cost(&seq), served_cost(&par), "served cost");
    assert_eq!(
        seq.report.mapping.assignment, par.report.mapping.assignment,
        "assignment"
    );
    true
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };

    // 16 tasks of permutation traffic on a 16-processor hypercube: the
    // exhaustive stage faces a 16!-sized embedding space and reliably
    // consumes whatever quota it is given.
    let tg = random_permutation_traffic(16, 11);
    let net = builders::hypercube(4);
    let cache = Arc::new(RouteTableCache::new(8));

    println!("engine bench: perm16 on {}, quota {STEP_QUOTA} steps, {reps} reps/mode", net.name);
    let modes = [
        run_mode("sequential", 1, false, &tg, &net, &cache, reps),
        run_mode("threads2", 2, false, &tg, &net, &cache, reps),
        run_mode("threads4", 4, false, &tg, &net, &cache, reps),
        run_mode("supervised", 1, true, &tg, &net, &cache, reps),
        run_mode("supervised-threads4", 4, true, &tg, &net, &cache, reps),
    ];
    for m in &modes {
        println!(
            "  {:<19} median {:8.2} ms  min {:8.2} ms  max {:8.2} ms  served by {} ({}), cost {}",
            m.label, m.median_ms, m.min_ms, m.max_ms, m.served_by, m.completion, m.cost
        );
    }
    // supervision changes how stages are watched, never what is served
    assert_eq!(modes[3].cost, modes[0].cost, "supervised vs sequential cost");
    assert_eq!(modes[4].cost, modes[2].cost, "supervised-threads4 vs threads4 cost");
    let speedup = |m: &ModeResult| modes[0].median_ms / m.median_ms;
    println!(
        "  speedup: {:.2}x (2 threads), {:.2}x (4 threads), {:.2}x (supervised, 4 threads vs 1)",
        speedup(&modes[1]),
        speedup(&modes[2]),
        modes[3].median_ms / modes[4].median_ms
    );

    let stats = cache.stats();
    println!(
        "  route-table cache: {} hits, {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    let determinism_ok = determinism_check();
    println!("  determinism check (unlimited budget, seq vs 4 threads): ok");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"parallel_engine\",\n");
    json.push_str(&format!(
        "  \"workload\": \"random permutation traffic, 16 tasks on {}\",\n",
        net.name
    ));
    json.push_str("  \"chain\": \"exhaustive -> heuristic -> identity\",\n");
    json.push_str(&format!("  \"step_quota\": {STEP_QUOTA},\n"));
    json.push_str(&format!("  \"reps_per_mode\": {reps},\n"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str(&format!("  \"host_nproc\": {nproc},\n"));
    json.push_str("  \"modes\": [\n");
    for (i, m) in modes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"supervised\": {}, \"median_ms\": {:.3}, \
             \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"served_by\": \"{}\", \"completion\": \"{}\", \
             \"cost\": {}}}{}\n",
            m.label,
            m.threads,
            m.supervised,
            m.median_ms,
            m.min_ms,
            m.max_ms,
            m.served_by,
            m.completion,
            m.cost,
            if i + 1 < modes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_threads2\": {:.3},\n  \"speedup_threads4\": {:.3},\n",
        speedup(&modes[1]),
        speedup(&modes[2])
    ));
    json.push_str(&format!(
        "  \"speedup_supervised_threads4\": {:.3},\n",
        modes[3].median_ms / modes[4].median_ms
    ));
    json.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}},\n",
        stats.hits,
        stats.misses,
        stats.hit_rate()
    ));
    json.push_str(&format!("  \"determinism_ok\": {determinism_ok}\n"));
    json.push_str("}\n");

    let path = "BENCH_parallel_engine.json";
    std::fs::write(path, &json).expect("write benchmark artifact");
    println!("  wrote {path}");
}
