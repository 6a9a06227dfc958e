//! The incremental [`MetricsEngine`] against an independent oracle: a
//! naive evaluator, written here and sharing no code with the engine,
//! recounts every ledger and aggregate from the mapping's routes and the
//! cost model after every step of random Reassign / Reroute / Fault /
//! undo sequences. Reroutes add and remove back-and-forth detours, so
//! dilation maxima rise and fall; a targeted case empties the top
//! dilation bucket and refills it through `undo`; route-less (load-only)
//! mappings run the same loop.

use oregami_graph::task_graph::Cost;
use oregami_graph::{PhaseExpr, PhaseId, TaskGraph, TaskId};
use oregami_mapper::routing::baseline::baseline_route_all;
use oregami_mapper::{CostModel, Edit, Mapping, MetricSnapshot, MetricsEngine};
use oregami_topology::{builders, FaultSet, LinkId, Network, ProcId, RouteTable};
use proptest::prelude::*;

/// Everything the engine reports, recounted from scratch.
struct Oracle {
    /// `[phase][edge]` hops of each route (0 without routes).
    dilations: Vec<Vec<usize>>,
    /// `[phase][link]` messages crossing the link.
    link_messages: Vec<Vec<u64>>,
    /// `[phase][link]` volume crossing the link.
    link_volume: Vec<Vec<u64>>,
    /// `[link]` volume over all phases.
    total_link_volume: Vec<u64>,
    tasks_per_proc: Vec<usize>,
    exec_time_per_proc: Vec<u64>,
    /// `[exec phase][proc]` execution time.
    exec_per_proc: Vec<Vec<u64>>,
    total_ipc: u64,
    internalized: u64,
    num_procs: usize,
}

impl Oracle {
    fn count(tg: &TaskGraph, net: &Network, mapping: &Mapping) -> Oracle {
        let nl = net.num_links();
        let np = net.num_procs();
        let mut o = Oracle {
            dilations: Vec::new(),
            link_messages: vec![vec![0; nl]; tg.num_phases()],
            link_volume: vec![vec![0; nl]; tg.num_phases()],
            total_link_volume: vec![0; nl],
            tasks_per_proc: vec![0; np],
            exec_time_per_proc: vec![0; np],
            exec_per_proc: vec![vec![0; np]; tg.exec_phases.len()],
            total_ipc: 0,
            internalized: 0,
            num_procs: np,
        };
        for (k, phase) in tg.comm_phases.iter().enumerate() {
            let mut dils = Vec::new();
            for (i, e) in phase.edges.iter().enumerate() {
                if mapping.assignment[e.src.index()] == mapping.assignment[e.dst.index()] {
                    o.internalized += e.volume;
                } else {
                    o.total_ipc += e.volume;
                }
                if mapping.routes.is_empty() {
                    dils.push(0);
                    continue;
                }
                let path = &mapping.routes[k][i];
                dils.push(path.len() - 1);
                for hop in 0..path.len() - 1 {
                    let l = net
                        .link_between(path[hop], path[hop + 1])
                        .expect("route hop is a link")
                        .index();
                    o.link_messages[k][l] += 1;
                    o.link_volume[k][l] += e.volume;
                    o.total_link_volume[l] += e.volume;
                }
            }
            o.dilations.push(dils);
        }
        for t in 0..tg.num_tasks() {
            let p = mapping.assignment[t].index();
            o.tasks_per_proc[p] += 1;
            for (x, ph) in tg.exec_phases.iter().enumerate() {
                let c = ph.cost.of(TaskId::new(t));
                o.exec_per_proc[x][p] += c;
                o.exec_time_per_proc[p] += c;
            }
        }
        o
    }

    fn phase_max_dilation(&self, k: usize) -> usize {
        self.dilations[k].iter().copied().max().unwrap_or(0)
    }

    fn phase_max_contention(&self, k: usize) -> u64 {
        self.link_messages[k].iter().copied().max().unwrap_or(0)
    }

    fn phase_max_link_volume(&self, k: usize) -> u64 {
        self.link_volume[k].iter().copied().max().unwrap_or(0)
    }

    fn max_dilation(&self) -> usize {
        (0..self.dilations.len())
            .map(|k| self.phase_max_dilation(k))
            .max()
            .unwrap_or(0)
    }

    fn max_contention(&self) -> u64 {
        (0..self.link_messages.len())
            .map(|k| self.phase_max_contention(k))
            .max()
            .unwrap_or(0)
    }

    fn max_total_volume(&self) -> u64 {
        self.total_link_volume.iter().copied().max().unwrap_or(0)
    }

    fn max_exec_time(&self) -> u64 {
        self.exec_time_per_proc.iter().copied().max().unwrap_or(0)
    }

    fn avg_dilation_millis(&self) -> u64 {
        let edges: usize = self.dilations.iter().map(Vec::len).sum();
        let hops: usize = self.dilations.iter().flatten().sum();
        (hops as u64 * 1000).checked_div(edges as u64).unwrap_or(0)
    }

    fn imbalance_millis(&self) -> u64 {
        let total: u64 = self.exec_time_per_proc.iter().sum();
        (self.max_exec_time() * 1000 * self.num_procs as u64)
            .checked_div(total)
            .unwrap_or(0)
    }

    /// One occurrence of comm phase `k`: free when fully internalised,
    /// else startup + busiest link × byte time + longest route × hop
    /// latency.
    fn comm_slot(&self, k: usize, model: &CostModel) -> u64 {
        if self.phase_max_dilation(k) == 0 {
            0
        } else {
            model.startup
                + self.phase_max_link_volume(k) * model.byte_time
                + self.phase_max_dilation(k) as u64 * model.hop_latency
        }
    }

    fn exec_slot(&self, x: usize) -> u64 {
        self.exec_per_proc[x].iter().copied().max().unwrap_or(0)
    }

    /// `(total, comm)` time of one pass of the phase expression.
    fn walk(&self, expr: &PhaseExpr, model: &CostModel) -> (u64, u64) {
        match expr {
            PhaseExpr::Idle => (0, 0),
            PhaseExpr::Comm(p) => {
                let c = self.comm_slot(p.index(), model);
                (c, c)
            }
            PhaseExpr::Exec(x) => (self.exec_slot(x.index()), 0),
            PhaseExpr::Seq(a, b) => {
                let ((ta, ca), (tb, cb)) = (self.walk(a, model), self.walk(b, model));
                (ta + tb, ca + cb)
            }
            PhaseExpr::Repeat(a, k) => {
                let (t, c) = self.walk(a, model);
                (t * k, c * k)
            }
            PhaseExpr::Par(a, b) => {
                let ((ta, ca), (tb, cb)) = (self.walk(a, model), self.walk(b, model));
                (ta.max(tb), ca.max(cb))
            }
        }
    }

    fn snapshot(&self, tg: &TaskGraph, model: &CostModel) -> MetricSnapshot {
        let times = tg.phase_expr.as_ref().map(|e| self.walk(e, model));
        MetricSnapshot {
            max_link_volume: self.max_total_volume(),
            avg_dilation_millis: self.avg_dilation_millis(),
            max_dilation: self.max_dilation(),
            max_contention: self.max_contention(),
            total_ipc: self.total_ipc,
            internalized_volume: self.internalized,
            max_exec_time: self.max_exec_time(),
            imbalance_millis: self.imbalance_millis(),
            completion_time: times.map(|t| t.0),
            comm_time: times.map(|t| t.1),
        }
    }

    fn scalar_cost(&self, tg: &TaskGraph, model: &CostModel) -> u64 {
        match &tg.phase_expr {
            Some(e) => self.walk(e, model).0,
            None => (0..self.dilations.len())
                .map(|k| self.comm_slot(k, model))
                .sum(),
        }
    }
}

/// Asserts that every engine figure equals the oracle's recount of the
/// engine's current mapping and network.
fn check(engine: &MetricsEngine<'_>, tg: &TaskGraph, model: &CostModel, ctx: &str) {
    let net = engine.network();
    let mapping = engine.mapping();
    mapping
        .validate(tg, net)
        .unwrap_or_else(|e| panic!("{ctx}: invalid mapping: {e}"));
    let o = Oracle::count(tg, net, mapping);
    for k in 0..tg.num_phases() {
        assert_eq!(
            engine.phase_dilations(k),
            &o.dilations[k][..],
            "{ctx}: phase {k} dilations"
        );
        assert_eq!(
            engine.phase_link_messages(k),
            &o.link_messages[k][..],
            "{ctx}: phase {k} messages"
        );
        assert_eq!(
            engine.phase_link_volume(k),
            &o.link_volume[k][..],
            "{ctx}: phase {k} volume"
        );
        assert_eq!(
            engine.phase_max_dilation(k),
            o.phase_max_dilation(k),
            "{ctx}: phase {k} max dilation"
        );
        assert_eq!(
            engine.phase_max_contention(k),
            o.phase_max_contention(k),
            "{ctx}: phase {k} max contention"
        );
        assert_eq!(
            engine.comm_slot_cost(k),
            o.comm_slot(k, model),
            "{ctx}: phase {k} slot"
        );
    }
    for x in 0..tg.exec_phases.len() {
        assert_eq!(
            engine.exec_slot_cost(x),
            o.exec_slot(x),
            "{ctx}: exec slot {x}"
        );
    }
    assert_eq!(
        engine.total_link_volume(),
        &o.total_link_volume[..],
        "{ctx}: total link volume"
    );
    assert_eq!(
        engine.tasks_per_proc(),
        &o.tasks_per_proc[..],
        "{ctx}: tasks per proc"
    );
    assert_eq!(
        engine.exec_time_per_proc(),
        &o.exec_time_per_proc[..],
        "{ctx}: exec per proc"
    );
    assert_eq!(
        engine.max_dilation(),
        o.max_dilation(),
        "{ctx}: max dilation"
    );
    assert_eq!(engine.snapshot(), o.snapshot(tg, model), "{ctx}: snapshot");
    assert_eq!(
        engine.scalar_cost(),
        o.scalar_cost(tg, model),
        "{ctx}: scalar cost"
    );
}

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

fn network(which: usize) -> Network {
    match which % 5 {
        0 => builders::hypercube(3),
        1 => builders::mesh2d(3, 3),
        2 => builders::ring(6),
        3 => builders::torus2d(3, 3),
        _ => builders::chain(5),
    }
}

/// 10 tasks, `phases` comm phases of random edges with random volumes,
/// two exec phases with per-task costs, and (optionally) a phase
/// expression mixing `Seq`, `Par` and `Repeat`.
fn workload(rng: &mut XorShift, phases: usize, with_expr: bool) -> TaskGraph {
    let n = 10;
    let mut tg = TaskGraph::new("oracle");
    tg.add_scalar_nodes("t", n);
    for k in 0..phases {
        let ph = tg.add_phase(format!("p{k}"));
        for _ in 0..4 + rng.below(10) {
            let (u, v) = (rng.below(n), rng.below(n));
            tg.add_edge(ph, TaskId::new(u), TaskId::new(v), 1 + rng.below(9) as u64);
        }
    }
    let costs = |rng: &mut XorShift| Cost::PerTask((0..n).map(|_| rng.below(7) as u64).collect());
    let a = tg.add_exec_phase("a", costs(rng));
    let b = tg.add_exec_phase("b", costs(rng));
    if with_expr {
        let mut expr = PhaseExpr::par(PhaseExpr::Exec(a), PhaseExpr::Exec(b));
        for k in 0..phases {
            expr = PhaseExpr::seq(PhaseExpr::Comm(PhaseId::new(k)), expr);
        }
        tg.phase_expr = Some(PhaseExpr::repeat(expr, 3));
    }
    tg
}

/// A route with a back-and-forth detour removed, or (when it has none)
/// one added at a random hop — so dilations both rise and fall.
fn detoured(rng: &mut XorShift, net: &Network, path: &[ProcId]) -> Vec<ProcId> {
    if let Some(j) = (0..path.len().saturating_sub(2)).find(|&j| path[j] == path[j + 2]) {
        let mut p = path.to_vec();
        p.drain(j + 1..j + 3);
        return p;
    }
    let j = rng.below(path.len());
    let here = path[j];
    let nbrs: Vec<ProcId> = net.neighbors(here).collect();
    let mut p = path.to_vec();
    if !nbrs.is_empty() {
        let q = nbrs[rng.below(nbrs.len())];
        p.splice(j + 1..j + 1, [q, here]);
    }
    p
}

/// Runs `steps` random edits and undos, checking the oracle after each
/// and checking that undo restores the previous mapping and snapshot.
fn random_walk(tg: &TaskGraph, net: &Network, mapping: &Mapping, rng: &mut XorShift, steps: usize) {
    let model = CostModel {
        byte_time: 2,
        hop_latency: 3,
        startup: 1,
    };
    let mut engine = MetricsEngine::try_new(tg, net, mapping, &model).unwrap();
    check(&engine, tg, &model, "initial");
    let mut history: Vec<(Mapping, MetricSnapshot)> = Vec::new();
    for step in 0..steps {
        let ctx = format!("step {step}");
        let roll = rng.below(100);
        if roll < 25 {
            let undone = engine.undo();
            match history.pop() {
                Some((m, s)) => {
                    assert_eq!(undone.map(|d| d.after), Some(s), "{ctx}: undo snapshot");
                    assert_eq!(engine.mapping(), &m, "{ctx}: undo mapping");
                }
                None => assert!(undone.is_none(), "{ctx}: undo on an empty log"),
            }
        } else {
            let cur = engine.network();
            let edit = if roll < 60 {
                Edit::Reassign {
                    task: rng.below(tg.num_tasks()),
                    proc: ProcId(rng.below(cur.num_procs()) as u32),
                }
            } else if roll < 92 {
                let k = rng.below(tg.num_phases());
                let i = rng.below(tg.comm_phases[k].edges.len());
                let path = match engine.mapping().routes.get(k) {
                    Some(routes) => detoured(rng, cur, &routes[i]),
                    None => vec![engine.mapping().assignment[0]],
                };
                Edit::Reroute {
                    phase: k,
                    edge: i,
                    path,
                }
            } else if rng.below(2) == 0 {
                Edit::Fault(FaultSet::new().with_link(LinkId(rng.below(cur.num_links()) as u32)))
            } else {
                Edit::Fault(FaultSet::new().with_proc(ProcId(rng.below(cur.num_procs()) as u32)))
            };
            let before = (engine.mapping().clone(), engine.snapshot());
            match engine.apply(edit.clone()) {
                Ok(delta) => {
                    assert_eq!(delta.before, before.1, "{ctx}: {edit} delta.before");
                    assert_eq!(delta.after, engine.snapshot(), "{ctx}: {edit} delta.after");
                    history.push(before);
                }
                Err(e) => {
                    assert_eq!(
                        engine.mapping(),
                        &before.0,
                        "{ctx}: rejected {edit} ({e}) moved the mapping"
                    );
                    assert_eq!(
                        engine.snapshot(),
                        before.1,
                        "{ctx}: rejected {edit} ({e}) moved the metrics"
                    );
                }
            }
        }
        check(&engine, tg, &model, &ctx);
    }
}

fn random_mapping(tg: &TaskGraph, net: &Network, rng: &mut XorShift, routed: bool) -> Mapping {
    let assignment: Vec<ProcId> = (0..tg.num_tasks())
        .map(|_| ProcId(rng.below(net.num_procs()) as u32))
        .collect();
    let routes = if routed {
        let table = RouteTable::try_new(net).unwrap();
        baseline_route_all(tg, &assignment, net, &table)
    } else {
        Vec::new()
    };
    Mapping { assignment, routes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random edit/undo sequences on routed mappings, with and without a
    /// phase expression.
    #[test]
    fn engine_matches_naive_oracle_on_routed_mappings(
        seed in 1u64..u64::MAX,
        which in 0usize..5,
        phases in 1usize..4,
        with_expr in 0u8..2,
    ) {
        let mut rng = XorShift(seed);
        let tg = workload(&mut rng, phases, with_expr == 1);
        let net = network(which);
        let mapping = random_mapping(&tg, &net, &mut rng, true);
        random_walk(&tg, &net, &mapping, &mut rng, 80);
    }

    /// The same walk on route-less (load-only) mappings: link ledgers
    /// stay zero, Reroute is refused, and the load and IPC figures
    /// still track every Reassign and undo.
    #[test]
    fn engine_matches_naive_oracle_on_routeless_mappings(
        seed in 1u64..u64::MAX,
        which in 0usize..5,
        phases in 1usize..3,
        with_expr in 0u8..2,
    ) {
        let mut rng = XorShift(seed);
        let tg = workload(&mut rng, phases, with_expr == 1);
        let net = network(which);
        let mapping = random_mapping(&tg, &net, &mut rng, false);
        random_walk(&tg, &net, &mapping, &mut rng, 60);
    }
}

/// Empties the top dilation bucket and refills it through `undo`: a
/// single long detour holds the phase's maximum, shortening it must drop
/// the maximum to the next occupied bucket, and undo must restore it —
/// while a shared top bucket keeps the maximum when one of its edges
/// leaves.
#[test]
fn top_dilation_bucket_empties_and_refills_through_undo() {
    // a 4-task chain on every other processor of an 8-ring: each edge
    // runs 2 hops
    let mut tg = TaskGraph::new("chain4");
    tg.add_scalar_nodes("t", 4);
    let ph = tg.add_phase("c");
    for t in 0..3 {
        tg.add_edge(ph, TaskId::new(t), TaskId::new(t + 1), 1);
    }
    let net = builders::ring(8);
    let p = |i: u32| ProcId(i);
    let mapping = Mapping {
        assignment: vec![p(0), p(2), p(4), p(6)],
        routes: vec![vec![
            vec![p(0), p(1), p(2)],
            vec![p(2), p(3), p(4)],
            vec![p(4), p(5), p(6)],
        ]],
    };
    let model = CostModel::default();
    let mut engine = MetricsEngine::try_new(&tg, &net, &mapping, &model).unwrap();
    check(&engine, &tg, &model, "initial");
    assert_eq!(engine.max_dilation(), 2);

    let detour = |edge: usize, path: Vec<ProcId>| Edit::Reroute {
        phase: 0,
        edge,
        path,
    };
    // edge 1 alone in the top bucket (4 hops)
    engine
        .apply(detour(1, vec![p(2), p(3), p(2), p(3), p(4)]))
        .unwrap();
    check(&engine, &tg, &model, "edge 1 detoured");
    assert_eq!(engine.max_dilation(), 4);
    // shorten it back: the top bucket empties, the maximum walks down
    engine.apply(detour(1, vec![p(2), p(3), p(4)])).unwrap();
    check(&engine, &tg, &model, "edge 1 shortened");
    assert_eq!(engine.max_dilation(), 2);
    // undo refills the emptied bucket
    engine.undo().unwrap();
    check(&engine, &tg, &model, "shortening undone");
    assert_eq!(engine.max_dilation(), 4);

    // a second edge joins the top bucket; shortening one keeps the max
    engine
        .apply(detour(0, vec![p(0), p(1), p(0), p(1), p(2)]))
        .unwrap();
    engine.apply(detour(1, vec![p(2), p(3), p(4)])).unwrap();
    check(&engine, &tg, &model, "shared top bucket, one left");
    assert_eq!(engine.max_dilation(), 4);
    // a reassign that co-locates edge 0's ends empties the bucket again
    engine
        .apply(Edit::Reassign {
            task: 0,
            proc: p(2),
        })
        .unwrap();
    check(&engine, &tg, &model, "top bucket emptied by reassign");
    assert_eq!(engine.max_dilation(), 2);
    // unwind everything back to the start
    while engine.undo().is_some() {
        check(&engine, &tg, &model, "unwinding");
    }
    assert_eq!(engine.mapping(), &mapping);
    assert_eq!(engine.max_dilation(), 2);
}
