//! `corpus`: a closed loop of one-shot maps on one thread, each exactly
//! what `oregami FILE --topology T` runs — build the target, a fresh
//! `Oregami` (cold LaRCS `Db`, cold route-table cache), `map_source`,
//! then render the METRICS report. Every builtin program at scaled
//! parameters × targets from 16 to 1024 processors.

use crate::trace::{self, Trace};
use crate::{median_secs, ratio, Outcome, Run, SETUPS};
use oregami::graph::TaskGraph;
use oregami::larcs::programs;
use oregami::mapper::routing::route_all_phases;
use oregami::mapper::{map_task_graph_budgeted_with_table, mwm_contract_budgeted, nn_embed};
use oregami::metrics::try_analyze_mapping;
use oregami::topology::{LinkId, ProcId};
use oregami::{
    Budget, CostModel, MapperOptions, MetricsEngine, MetricsReport, Network, Oregami,
    RouteTableCache, Strategy,
};
use oregami_bench::rng;
use oregami_daemon::topo::parse_target;
use rand::RngExt;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builtin programs at scaled parameters: tens to hundreds of tasks, so
/// contraction onto 16–64 processors and sparse placement onto 1024
/// both occur.
fn programs() -> Vec<programs::ProgramEntry> {
    vec![
        (
            "nbody",
            programs::nbody(),
            vec![("n", 128), ("s", 4), ("msgsize", 8)],
        ),
        ("broadcast8", programs::broadcast8(), vec![]),
        ("jacobi", programs::jacobi(), vec![("n", 16), ("iters", 4)]),
        ("sor", programs::sor(), vec![("n", 16), ("iters", 4)]),
        (
            "sormulticolor",
            programs::sor_multicolor(),
            vec![("n", 16), ("iters", 2)],
        ),
        ("binomialdnc", programs::binomial_dnc(), vec![("k", 7)]),
        ("fft", programs::fft(), vec![("k", 6)]),
        ("matmul", programs::matmul(), vec![("n", 16)]),
        (
            "pipeline",
            programs::pipeline(),
            vec![("n", 64), ("rounds", 5)],
        ),
        ("wavefront", programs::wavefront(), vec![("n", 8)]),
        (
            "annealing",
            programs::annealing(),
            vec![("n", 128), ("sweeps", 4)],
        ),
    ]
}

/// Targets from 16 to 1024 processors, flat and hierarchical.
const TARGETS: [&str; 5] = [
    "mesh2d:4x4",
    "hypercube:6",
    "torus2d:16x16",
    "hypercube:10",
    "mesh-boards:4x4x8x8",
];

/// Reassign edits applied to each served mapping for the edit latency.
const EDITS_PER_MAP: usize = 3;

struct Input {
    name: &'static str,
    source: String,
    params: Vec<(&'static str, i64)>,
    target: &'static str,
}

/// The seeded request stream, in blocks: each block is every
/// (program, target) input once, in a seeded order, each with the seed
/// of its edits. Whole blocks keep the input mix identical across seeds
/// and runs, so a metric moves with the code and not with the draw.
fn blocks(seed: u64, count: usize, combos: usize) -> Vec<Vec<(usize, u64)>> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| {
            let mut block: Vec<(usize, u64)> = (0..combos)
                .map(|i| (i, r.random_range(0..u64::MAX)))
                .collect();
            for i in (1..combos).rev() {
                block.swap(i, r.random_range(0..=i));
            }
            block
        })
        .collect()
}

fn inputs() -> Vec<Input> {
    let mut out = Vec::new();
    for (name, source, params) in programs() {
        for target in TARGETS {
            out.push(Input {
                name,
                source: source.clone(),
                params: params.clone(),
                target,
            });
        }
    }
    out
}

/// One served map and what it took.
struct Served {
    tg: TaskGraph,
    net: Network,
    cache: Arc<RouteTableCache>,
    strategy: Strategy,
    mapping: oregami::Mapping,
    metrics: MetricsReport,
    elapsed: Duration,
    compile_stats: oregami::larcs::QueryStats,
    route_stats: oregami::CacheStats,
}

/// One request exactly as the CLI runs it, timed from target build to
/// rendered report.
fn serve_plain(input: &Input) -> Result<Served, String> {
    let t0 = Instant::now();
    let (net, _) = parse_target(input.target)?;
    let cache = Arc::new(RouteTableCache::new(16));
    let sys = Oregami::new(net).with_cache(Arc::clone(&cache));
    let result = sys
        .map_source(&input.source, &input.params)
        .map_err(|e| e.to_string())?;
    black_box(result.metrics.render());
    let elapsed = t0.elapsed();
    let compile_stats = sys
        .frontend()
        .lock()
        .map_err(|_| "frontend poisoned")?
        .stats();
    Ok(Served {
        net: sys.network().clone(),
        route_stats: cache.stats(),
        cache,
        strategy: result.report.strategy,
        mapping: result.report.mapping,
        metrics: result.metrics,
        tg: result.task_graph,
        elapsed,
        compile_stats,
    })
}

/// The same request with a span around each layer's public call:
/// exactly the calls `map_source` makes, in its order. General-path
/// requests additionally replay MWM-Contract, NN-Embed and routing on
/// their own inputs to split the dispatch span.
fn serve_traced(input: &Input, tr: &Trace) -> Result<(Served, Duration), String> {
    let t0 = Instant::now();
    let (net, _) = tr.span("topology.build", || parse_target(input.target))?;
    let cache = Arc::new(RouteTableCache::new(16));
    let sys = Oregami::new(net).with_cache(Arc::clone(&cache));
    let net = sys.network();
    let tg = tr
        .span("larcs.compile", || {
            sys.compile_source(&input.source, &input.params)
        })
        .map_err(|e| e.to_string())?;
    let table = tr
        .span("topology.route_build", || cache.get_or_build(net))
        .map_err(|e| e.to_string())?;
    let opts = MapperOptions::default();
    let (report, _) = tr
        .span("mapper.dispatch", || {
            map_task_graph_budgeted_with_table(&tg, net, &opts, &Budget::unlimited(), &table)
        })
        .map_err(|e| e.to_string())?;
    let metrics = tr
        .span("metrics.analyze", || {
            try_analyze_mapping(&tg, net, &report.mapping, &CostModel::default())
                .inspect(|m| drop(black_box(m.render())))
        })
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();

    let replay_start = Instant::now();
    if report.strategy == Strategy::General {
        let (n, p) = (tg.num_tasks(), net.num_procs());
        let bound = opts.load_bound.unwrap_or_else(|| n.div_ceil(p).max(1));
        let (contraction, _) = tr
            .span("mapper.replay.contraction", || {
                mwm_contract_budgeted(&report.collapsed, p, bound, &Budget::unlimited())
            })
            .map_err(|e| e.to_string())?;
        let (quotient, _) = report
            .collapsed
            .quotient(&contraction.cluster_of, contraction.num_clusters);
        let placement = tr
            .span("mapper.replay.embedding", || {
                nn_embed(&quotient, net, &table)
            })
            .map_err(|e| e.to_string())?;
        let assignment: Vec<ProcId> = contraction
            .cluster_of
            .iter()
            .map(|&c| placement[c])
            .collect();
        let routes = tr.span("mapper.replay.routing", || {
            route_all_phases(&tg, &assignment, net, &table, opts.matcher)
        });
        if assignment != report.mapping.assignment || routes != report.mapping.routes {
            return Err(format!(
                "{} on {}: replayed general path differs from the dispatched mapping",
                input.name, input.target
            ));
        }
    }
    let replay = replay_start.elapsed();
    let compile_stats = sys
        .frontend()
        .lock()
        .map_err(|_| "frontend poisoned")?
        .stats();
    Ok((
        Served {
            net: net.clone(),
            route_stats: cache.stats(),
            cache,
            strategy: report.strategy,
            mapping: report.mapping,
            metrics,
            tg,
            elapsed,
            compile_stats,
        },
        replay,
    ))
}

/// Recounts dilation and the busiest link of every phase straight from
/// the routes and compares them with METRICS' report.
fn recount(
    tg: &TaskGraph,
    net: &Network,
    mapping: &oregami::Mapping,
    report: &MetricsReport,
) -> Result<(), String> {
    let mut max_dilation = 0;
    for (k, phase_routes) in mapping.routes.iter().enumerate() {
        let mut per_link = vec![0u64; net.num_links()];
        for path in phase_routes {
            max_dilation = max_dilation.max(path.len().saturating_sub(1));
            for hop in path.windows(2) {
                let LinkId(l) = net
                    .link_between(hop[0], hop[1])
                    .ok_or_else(|| format!("phase {k}: hop {:?} is not a link", hop))?;
                per_link[l as usize] += 1;
            }
        }
        let busiest = per_link.iter().copied().max().unwrap_or(0);
        let reported = report.links.phases.get(k).map(|p| p.max_contention);
        if reported != Some(busiest) {
            return Err(format!(
                "phase {k}: busiest link carries {busiest}, METRICS says {reported:?}"
            ));
        }
    }
    if mapping.routes.len() != tg.num_phases() {
        return Err(format!(
            "{} routed phases for {} phases",
            mapping.routes.len(),
            tg.num_phases()
        ));
    }
    if report.links.max_dilation != max_dilation {
        return Err(format!(
            "max dilation recounts to {max_dilation}, METRICS says {}",
            report.links.max_dilation
        ));
    }
    Ok(())
}

/// Checks one served map, scores it, and applies the seeded edits.
/// Returns (scalar cost, edit latencies in ms).
fn check_and_edit(s: &Served, edit_seed: u64, tr: &Trace) -> Result<(u64, Vec<f64>), String> {
    tr.span("bench.check", || {
        s.mapping
            .validate(&s.tg, &s.net)
            .map_err(|e| format!("invalid mapping: {e}"))?;
        recount(&s.tg, &s.net, &s.mapping, &s.metrics)
    })?;
    let table = tr
        .span("topology.route_lookup", || s.cache.get_or_build(&s.net))
        .map_err(|e| e.to_string())?;
    let (mut engine, cost) = tr
        .span("metrics.scalar_cost", || {
            MetricsEngine::try_new_with_table(
                &s.tg,
                &s.net,
                &s.mapping,
                &CostModel::default(),
                table,
            )
            .map(|e| {
                let cost = e.scalar_cost();
                (e, cost)
            })
        })
        .map_err(|e| e.to_string())?;
    let dims = (s.tg.num_tasks(), s.net.num_procs());
    let lat = crate::timed_edits(&mut engine, dims, edit_seed, EDITS_PER_MAP, tr)?;
    Ok((cost, lat))
}

/// Set-up: draw the stream and warm the process (allocator, code) with
/// one untimed map per distinct input. Caches stay cold per request, as
/// every CLI invocation is.
fn setup(seed: u64, inputs: &[Input]) -> Result<Vec<Vec<(usize, u64)>>, String> {
    let stream = blocks(seed, 1000, inputs.len());
    for input in inputs {
        serve_plain(input)?;
    }
    Ok(stream)
}

/// One closed-loop cycle: serve, check, score, edit.
struct Cycle {
    served: Served,
    cost: u64,
    edit_ms: Vec<f64>,
    /// Time spent replaying general-path stages (traced cycles only).
    replay: Duration,
}

fn cycle(input: &Input, edit_seed: u64, tr: &Trace) -> Result<Cycle, String> {
    let (served, replay) = if tr.is_on() {
        tr.span("bench.request", || serve_traced(input, tr))?
    } else {
        (serve_plain(input)?, Duration::ZERO)
    };
    let (cost, edit_ms) = check_and_edit(&served, edit_seed, tr)?;
    Ok(Cycle {
        served,
        cost,
        edit_ms,
        replay,
    })
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs();
    let mut setups = Vec::new();
    let mut stream = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        match setup(run.seed, &inputs) {
            Ok(s) => stream = s,
            Err(e) => {
                out.fail(format!("setup: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed());
    }
    out.metrics.insert("setup_s", median_secs(&setups));
    if run.trace {
        traced(run, &inputs, &stream, &mut out);
    } else {
        untraced(run, &inputs, &stream, &mut out);
    }
    out
}

/// Whole blocks of requests until the run's time is up.
fn until_deadline<'a>(
    run: &Run,
    stream: &'a [Vec<(usize, u64)>],
) -> impl Iterator<Item = &'a [(usize, u64)]> {
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    stream
        .iter()
        .map(Vec::as_slice)
        .take_while(move |_| Instant::now() < deadline)
}

fn untraced(run: &Run, inputs: &[Input], stream: &[Vec<(usize, u64)>], out: &mut Outcome) {
    let (mut map_ms, mut edit_ms, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut route_hits, mut route_lookups, mut graph_hits, mut graph_lookups) = (0, 0, 0, 0);
    let off = Trace::new(false);
    for &(i, edit_seed) in until_deadline(run, stream).flatten() {
        out.attempted += 1;
        let input = &inputs[i];
        let c = match cycle(input, edit_seed, &off) {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("{} on {}: {e}", input.name, input.target));
                continue;
            }
        };
        map_ms.push(c.served.elapsed.as_secs_f64() * 1e3);
        costs.push(c.cost as f64);
        edit_ms.extend(c.edit_ms);
        let (rs, cs) = (c.served.route_stats, c.served.compile_stats);
        route_hits += rs.hits;
        route_lookups += rs.hits + rs.misses;
        graph_hits += cs.graph_hits;
        graph_lookups += cs.graph_hits + cs.graph_misses;
    }
    crate::closed_loop_metrics(out, map_ms.len(), &map_ms, &edit_ms, &costs);
    out.note("maps", map_ms.len());
    out.note("route_cache_hit_ratio", ratio(route_hits, route_lookups));
    out.note("larcs_graph_hit_ratio", ratio(graph_hits, graph_lookups));
}

/// The traced run: every request runs twice, untraced and traced, in
/// alternating order, so the tracing overhead is measured on the same
/// inputs under the same machine conditions.
fn traced(run: &Run, inputs: &[Input], stream: &[Vec<(usize, u64)>], out: &mut Outcome) {
    let (off, tr) = (Trace::new(false), Trace::new(true));
    let mut strategies = [0u64; 4];
    let (mut graph_hits, mut graph_lookups) = (0, 0);
    let (mut route_hits, mut route_lookups) = (0, 0);
    let (mut untraced_wall, mut traced_wall, mut replay) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (n, &(i, edit_seed)) in until_deadline(run, stream).flatten().enumerate() {
        out.attempted += 1;
        let input = &inputs[i];
        let timed = |trace: &Trace| {
            let t0 = Instant::now();
            let c = cycle(input, edit_seed, trace);
            (c, t0.elapsed())
        };
        let ((plain, plain_wall), (c, wall)) = if n % 2 == 0 {
            let p = timed(&off);
            (p, timed(&tr))
        } else {
            let t = timed(&tr);
            (timed(&off), t)
        };
        let c = match plain.and(c) {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("{} on {}: {e}", input.name, input.target));
                continue;
            }
        };
        untraced_wall += plain_wall;
        traced_wall += wall;
        replay += c.replay;
        strategies[match c.served.strategy {
            Strategy::Canned => 0,
            Strategy::GroupTheoretic => 1,
            Strategy::Systolic => 2,
            _ => 3,
        }] += 1;
        let (rs, cs) = (c.served.route_stats, c.served.compile_stats);
        graph_hits += cs.graph_hits;
        graph_lookups += cs.graph_hits + cs.graph_misses;
        route_hits += rs.hits;
        route_lookups += rs.hits + rs.misses;
    }
    let spans = tr.take();
    let t = trace::totals(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let m = &mut out.metrics;
    m.insert("larcs.compile_calls", graph_lookups as f64);
    m.insert("larcs.compile_ms", get("larcs.compile").mean_ms());
    m.insert("larcs.graph_hit_ratio", ratio(graph_hits, graph_lookups));
    m.insert("topology.build_ms", get("topology.build").mean_ms());
    m.insert("topology.route_builds", (route_lookups - route_hits) as f64);
    m.insert(
        "topology.route_build_ms",
        get("topology.route_build").mean_ms(),
    );
    m.insert(
        "topology.route_cache_hit_ratio",
        ratio(route_hits, route_lookups),
    );
    m.insert("mapper.dispatch_ms", get("mapper.dispatch").mean_ms());
    let strategy_keys = [
        "mapper.strategy.canned",
        "mapper.strategy.group",
        "mapper.strategy.systolic",
        "mapper.strategy.general",
    ];
    for (key, n) in strategy_keys.into_iter().zip(strategies) {
        m.insert(key, n as f64);
    }
    m.insert(
        "mapper.contraction_ms",
        get("mapper.replay.contraction").mean_ms(),
    );
    m.insert(
        "mapper.embedding_ms",
        get("mapper.replay.embedding").mean_ms(),
    );
    m.insert("mapper.routing_ms", get("mapper.replay.routing").mean_ms());
    m.insert("metrics.analyze_ms", get("metrics.analyze").mean_ms());
    m.insert(
        "metrics.scalar_cost_ms",
        get("metrics.scalar_cost").mean_ms(),
    );
    m.insert("metrics.edit_us", get("metrics.edit").mean_ms() * 1e3);
    crate::attribution(out, &spans, traced_wall, untraced_wall, replay);
    for (name, tot) in &t {
        out.note(format!("span.{name}"), tot);
    }
}
