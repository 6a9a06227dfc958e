//! `huge`: the multilevel chain (`--chain ml`) on million-task graphs —
//! `torus_tasks(1000, 1000)` onto `torus2d:32x32` and a 250k-point
//! random geometric graph onto `hypercube:10`, the grid/torus/RGG
//! instance families of the multilevel literature. One request is one
//! round over both instances.

use crate::trace::{self, Trace};
use crate::{median_secs, Outcome, Run, SETUPS};
use oregami::graph::TaskGraph;
use oregami::mapper::multilevel_map_with_report;
use oregami::metrics::try_analyze_mapping;
use oregami::{
    Budget, CostModel, FallbackChain, MapperOptions, Mapping, MetricsEngine, Network, Oregami,
    RouteTableCache,
};
use oregami_bench::{random_geometric_tasks, rng, torus_tasks};
use oregami_daemon::topo::parse_target;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reassign edits applied to each served mapping for the edit latency.
const EDITS_PER_MAP: usize = 500;

struct Instance {
    name: &'static str,
    tg: TaskGraph,
    net: Network,
}

fn setup(seed: u64) -> Result<Vec<Instance>, String> {
    Ok(vec![
        Instance {
            name: "torus1M",
            tg: torus_tasks(1000, 1000),
            net: parse_target("torus2d:32x32")?.0,
        },
        Instance {
            name: "rgg250k",
            tg: random_geometric_tasks(250_000, 0.0028, seed),
            net: parse_target("hypercube:10")?.0,
        },
    ])
}

/// One served map: the mapping, its cost as the chain ranked it, and
/// the time `map_with_budget` took.
struct Served {
    mapping: Mapping,
    cost: u64,
    elapsed: Duration,
    cache: Arc<RouteTableCache>,
}

/// Exactly what `oregami --chain ml` runs for a prebuilt task graph.
fn serve_plain(inst: &Instance) -> Result<Served, String> {
    let tg = inst.tg.clone();
    let t0 = Instant::now();
    let cache = Arc::new(RouteTableCache::new(16));
    let sys = Oregami::new(inst.net.clone()).with_cache(Arc::clone(&cache));
    let chain = FallbackChain::parse("ml")?;
    let result = sys
        .map_with_budget(tg, &chain, &Budget::unlimited())
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    let engine = result.engine.as_ref().ok_or("no engine report")?;
    let cost = engine
        .stages
        .iter()
        .find(|s| s.stage == engine.served_by)
        .and_then(|s| s.cost)
        .ok_or("served stage has no cost")?;
    Ok(Served {
        mapping: result.report.mapping,
        cost,
        elapsed,
        cache,
    })
}

/// Multilevel figures of one traced map.
struct Levels {
    coarsen_s: f64,
    refine_s: f64,
    moves: usize,
    levels: usize,
}

/// The same map with a span around each layer's public call, in the
/// order the engine makes them for a one-stage multilevel chain.
fn serve_traced(inst: &Instance, tr: &Trace) -> Result<(Served, Levels), String> {
    let (tg, net) = (&inst.tg, &inst.net);
    let t0 = Instant::now();
    let cache = Arc::new(RouteTableCache::new(16));
    let table = tr
        .span("topology.route_build", || cache.get_or_build(net))
        .map_err(|e| e.to_string())?;
    let opts = MapperOptions::default();
    let (report, _, ml) = tr
        .span("mapper.multilevel", || {
            multilevel_map_with_report(tg, net, &opts, &Budget::unlimited(), table)
        })
        .map_err(|e| e.to_string())?;
    let cost = tr.span("metrics.scalar_cost", || {
        MetricsEngine::try_new(tg, net, &report.mapping, &CostModel::default())
            .map(|e| e.scalar_cost())
    });
    let cost = cost.map_err(|e| e.to_string())?;
    tr.span("metrics.analyze", || {
        try_analyze_mapping(tg, net, &report.mapping, &CostModel::default())
    })
    .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    let levels = Levels {
        coarsen_s: ml.levels.iter().map(|l| l.coarsen_secs).sum(),
        refine_s: ml.levels.iter().map(|l| l.refine_secs).sum(),
        moves: ml.levels.iter().map(|l| l.moves).sum(),
        levels: ml.levels.len(),
    };
    Ok((
        Served {
            mapping: report.mapping,
            cost,
            elapsed,
            cache,
        },
        levels,
    ))
}

/// Validates a served mapping and times seeded reassign edits on it.
fn check_and_edit(
    inst: &Instance,
    s: &Served,
    edit_seed: u64,
    tr: &Trace,
) -> Result<Vec<f64>, String> {
    tr.span("bench.check", || s.mapping.validate(&inst.tg, &inst.net))
        .map_err(|e| format!("{}: invalid mapping: {e}", inst.name))?;
    let table = tr
        .span("topology.route_lookup", || s.cache.get_or_build(&inst.net))
        .map_err(|e| e.to_string())?;
    let mut engine = tr
        .span("metrics.engine_build", || {
            MetricsEngine::try_new_with_table(
                &inst.tg,
                &inst.net,
                &s.mapping,
                &CostModel::default(),
                table,
            )
        })
        .map_err(|e| e.to_string())?;
    let dims = (inst.tg.num_tasks(), inst.net.num_procs());
    crate::timed_edits(&mut engine, dims, edit_seed, EDITS_PER_MAP, tr)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut instances));
        let t0 = Instant::now();
        match setup(run.seed) {
            Ok(i) => instances = i,
            Err(e) => {
                out.fail(format!("setup: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed());
    }
    out.metrics.insert("setup_s", median_secs(&setups));
    out.note(
        "tasks",
        instances
            .iter()
            .map(|i| format!("{}={}", i.name, i.tg.num_tasks()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let mut edit_seeds = rng(run.seed ^ 0x9e37_79b9_7f4a_7c15);
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    if run.trace {
        traced(deadline, &instances, &mut edit_seeds, &mut out);
        return out;
    }

    let (mut round_ms, mut edit_ms, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    let off = Trace::new(false);
    while Instant::now() < deadline {
        let mut round = Duration::ZERO;
        for inst in &instances {
            out.attempted += 1;
            let result = serve_plain(inst).and_then(|s| {
                let lat = check_and_edit(inst, &s, edit_seeds.random_range(0..u64::MAX), &off)?;
                Ok((s, lat))
            });
            match result {
                Ok((s, lat)) => {
                    round += s.elapsed;
                    costs.push(s.cost as f64);
                    edit_ms.extend(lat);
                }
                Err(e) => out.fail(format!("{}: {e}", inst.name)),
            }
        }
        round_ms.push(round.as_secs_f64() * 1e3);
    }
    let maps = round_ms.len() * instances.len();
    crate::closed_loop_metrics(&mut out, maps, &round_ms, &edit_ms, &costs);
    out.note("rounds", round_ms.len());
    out
}

/// The traced run: each map runs untraced and traced, in alternating
/// order; the traced mapping must equal the untraced one.
fn traced(deadline: Instant, instances: &[Instance], edit_seeds: &mut StdRng, out: &mut Outcome) {
    let (off, tr) = (Trace::new(false), Trace::new(true));
    let (mut untraced_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut levels = Vec::new();
    let mut n = 0;
    while Instant::now() < deadline {
        for inst in instances {
            out.attempted += 1;
            let seed = edit_seeds.random_range(0..u64::MAX);
            let plain = || -> Result<(Served, Duration), String> {
                let t0 = Instant::now();
                let s = serve_plain(inst)?;
                check_and_edit(inst, &s, seed, &off)?;
                Ok((s, t0.elapsed()))
            };
            let traced = || -> Result<(Served, Levels, Duration), String> {
                let t0 = Instant::now();
                let (s, l) = tr.span("bench.request", || serve_traced(inst, &tr))?;
                check_and_edit(inst, &s, seed, &tr)?;
                Ok((s, l, t0.elapsed()))
            };
            n += 1;
            let (p, t) = if n % 2 == 0 {
                let p = plain();
                (p, traced())
            } else {
                let t = traced();
                (plain(), t)
            };
            match (p, t) {
                (Ok((p, pw)), Ok((t, l, tw))) => {
                    if p.mapping.assignment != t.mapping.assignment || p.cost != t.cost {
                        out.fail(format!(
                            "{}: traced map differs from the untraced one",
                            inst.name
                        ));
                    }
                    untraced_wall += pw;
                    traced_wall += tw;
                    levels.push(l);
                }
                (Err(e), _) | (_, Err(e)) => out.fail(format!("{}: {e}", inst.name)),
            }
        }
    }
    let spans = tr.take();
    let t = trace::totals(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per_map =
        |f: &dyn Fn(&Levels) -> f64| levels.iter().map(f).sum::<f64>() / levels.len().max(1) as f64;
    let m = &mut out.metrics;
    m.insert(
        "topology.route_builds",
        get("topology.route_build").count as f64,
    );
    m.insert(
        "topology.route_build_ms",
        get("topology.route_build").mean_ms(),
    );
    m.insert("mapper.dispatch_ms", get("mapper.multilevel").mean_ms());
    m.insert("mapper.multilevel.coarsen_s", per_map(&|l| l.coarsen_s));
    m.insert("mapper.multilevel.refine_s", per_map(&|l| l.refine_s));
    m.insert(
        "mapper.multilevel.refine_moves",
        per_map(&|l| l.moves as f64),
    );
    m.insert("mapper.multilevel.levels", per_map(&|l| l.levels as f64));
    m.insert("metrics.analyze_ms", get("metrics.analyze").mean_ms());
    m.insert(
        "metrics.scalar_cost_ms",
        get("metrics.scalar_cost").mean_ms(),
    );
    m.insert("metrics.edit_us", get("metrics.edit").mean_ms() * 1e3);
    crate::attribution(out, &spans, traced_wall, untraced_wall, Duration::ZERO);
    for (name, tot) in &t {
        out.note(format!("span.{name}"), tot);
    }
}
