//! One command for the OREGAMI benchmark: runs a named workload for a
//! fixed time, checks every output, prints each metric by name with its
//! unit, and ends with one JSON line:
//!
//! ```sh
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. See `perf/NOTES.md` for why each workload exists.

mod corpus;
mod huge;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics the benchmark gates, with their units. Each
/// workload reports all of them (NOTES.md says what each means on each
/// workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("maps_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("mapping_cost_geomean", "model-units"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics every untraced run prints beside the gated ones
/// but that are not gated: on a shared 2-core host their run-to-run
/// spread exceeds any bound a regression gate could use (NOTES.md).
pub const UNGATED: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("edit_latency_p50_ms", "ms"),
    ("edit_latency_p99_ms", "ms"),
];

/// Every per-layer metric of the traced run, with its unit. A layer that
/// does no such work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("larcs.compile_calls", "count"),
    ("larcs.compile_ms", "ms"),
    ("larcs.graph_hit_ratio", "ratio"),
    ("topology.build_ms", "ms"),
    ("topology.route_builds", "count"),
    ("topology.route_build_ms", "ms"),
    ("topology.route_cache_hit_ratio", "ratio"),
    ("mapper.dispatch_ms", "ms"),
    ("mapper.strategy.canned", "count"),
    ("mapper.strategy.group", "count"),
    ("mapper.strategy.systolic", "count"),
    ("mapper.strategy.general", "count"),
    ("mapper.contraction_ms", "ms"),
    ("mapper.embedding_ms", "ms"),
    ("mapper.routing_ms", "ms"),
    ("mapper.multilevel.coarsen_s", "s"),
    ("mapper.multilevel.refine_s", "s"),
    ("mapper.multilevel.refine_moves", "count"),
    ("mapper.multilevel.levels", "count"),
    ("mapper.repair_ms", "ms"),
    ("mapper.repair_escalations", "count"),
    ("mapper.churn_ms", "ms"),
    ("metrics.analyze_ms", "ms"),
    ("metrics.scalar_cost_ms", "ms"),
    ("metrics.edit_us", "us"),
    ("daemon.connect_ms", "ms"),
    ("daemon.roundtrip_ms", "ms"),
    ("daemon.server_ms", "ms"),
    ("daemon.admitted", "count"),
    ("daemon.shed", "count"),
    ("daemon.coalesced", "count"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_ms", "ms"),
    ("bench.attributed_pct", "%"),
];

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// What a workload is asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A scratch directory inside the checkout (sockets, journals).
    pub workdir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// One line per failed or invalid operation.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts, percentiles actually reported, cache-hit ratios and
    /// other context for the summary.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.insert(key.into(), value.to_string());
    }

    /// Records a tail latency with the percentile and sample count it
    /// really was read at.
    pub fn tail(&mut self, name: &'static str, t: stats::Tail) {
        self.metrics.insert(name, t.value);
        self.note(format!("{name}.percentile"), format!("{:.2}", t.percentile));
        self.note(format!("{name}.samples"), t.samples);
    }
}

/// Records the traced run's bookkeeping: tracing overhead against the
/// untraced wall time of the same operations (replays, which only the
/// traced run does, excluded), and how much traced wall time no named
/// span covers.
pub fn attribution(
    out: &mut Outcome,
    spans: &[trace::Span],
    traced_wall: Duration,
    untraced_wall: Duration,
    replay: Duration,
) {
    let attributed = trace::attributed(spans).min(traced_wall);
    let overhead = traced_wall.saturating_sub(replay).as_secs_f64() / untraced_wall.as_secs_f64();
    let m = &mut out.metrics;
    m.insert("bench.trace_overhead_pct", (overhead - 1.0) * 100.0);
    m.insert(
        "bench.unattributed_ms",
        (traced_wall - attributed).as_secs_f64() * 1e3,
    );
    m.insert(
        "bench.attributed_pct",
        attributed.as_secs_f64() / traced_wall.as_secs_f64() * 100.0,
    );
}

/// Applies `count` seeded `reassign` edits to a METRICS engine, timing
/// each (the `--edits` path of the CLI); returns the latencies in ms.
pub fn timed_edits(
    engine: &mut oregami::MetricsEngine<'_>,
    (tasks, procs): (usize, usize),
    seed: u64,
    count: usize,
    tr: &trace::Trace,
) -> Result<Vec<f64>, String> {
    use rand::RngExt;
    let mut r = oregami_bench::rng(seed);
    (0..count)
        .map(|_| {
            let edit = oregami::Edit::Reassign {
                task: r.random_range(0..tasks),
                proc: oregami::topology::ProcId(r.random_range(0..procs as u32)),
            };
            let t0 = std::time::Instant::now();
            tr.span("metrics.edit", || engine.apply(edit))
                .map_err(|e| e.to_string())?;
            Ok(t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// The end-to-end metrics of a closed loop with one client: its
/// completion rate (which is also the highest rate it sustains), the
/// request latencies, the edit latencies, the mappings' cost and the
/// peak memory.
pub fn closed_loop_metrics(
    out: &mut Outcome,
    maps: usize,
    request_ms: &[f64],
    edit_ms: &[f64],
    costs: &[f64],
) {
    let rate = maps as f64 / (request_ms.iter().sum::<f64>() / 1e3);
    out.metrics.insert("maps_per_s", rate);
    out.metrics.insert("max_rate_rps", rate);
    out.metrics
        .insert("latency_p50_ms", stats::median(request_ms));
    out.tail("latency_p99_ms", stats::tail(request_ms, 99.0));
    out.metrics
        .insert("edit_latency_p50_ms", stats::median(edit_ms));
    out.tail("edit_latency_p99_ms", stats::tail(edit_ms, 99.0));
    match stats::geomean(costs) {
        Some(g) => {
            out.metrics.insert("mapping_cost_geomean", g);
        }
        None => out.fail("a served mapping has no positive cost".into()),
    }
    if let Some(mb) = stats::own_peak_rss_mb() {
        out.metrics.insert("peak_rss_mb", mb);
    }
}

/// Cache hits over lookups (0 when nothing was looked up).
pub fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The median of the set-up durations, in seconds.
pub fn median_secs(times: &[Duration]) -> f64 {
    stats::median(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload corpus|huge|service is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit under test: the git HEAD when the checkout has one, else a
/// fingerprint of the sources the benchmark builds.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return format!("git:{}", sha.trim());
        }
    } else if !head.is_empty() {
        return format!("git:{head}");
    }
    let mut files = Vec::new();
    for root in ["crates", "perf/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    format!("tree-fnv64:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(catalogue: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(values[name]),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Removes the scratch directory however the run ends.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perf_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = Workdir(PathBuf::from(".perf_tmp").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&workdir.0) {
        eprintln!("perf: cannot create {}: {e}", workdir.0.display());
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workdir: workdir.0.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perf: workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match args.workload.as_str() {
        "corpus" => corpus::run(&run),
        "huge" => huge::run(&run),
        "service" => service::run(&run),
        other => {
            eprintln!("perf: unknown workload '{other}' (corpus, huge or service)");
            return ExitCode::from(2);
        }
    };

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<(&str, &str)> = if args.trace {
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        PER_LAYER.to_vec()
    } else {
        [END_TO_END, UNGATED].concat()
    };
    for (name, _) in &printed {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            _ => outcome.fail(format!("metric {name} was not measured")),
        }
        outcome.metrics.entry(name).or_insert(f64::NAN);
    }
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(failed).max(1);
    let failed_share = failed as f64 / attempted as f64;
    let correct = failed == 0;

    for (name, unit) in &printed {
        println!("  {name:<32} {:>14.4} {unit}", outcome.metrics[name]);
    }
    println!("  {:<32} {:>14.4} ratio", "failed_share", failed_share);
    for f in outcome.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "summary: {{\"bench\": \"oregami-perf\", \"workload\": {}, \"claim\": null, \
         \"provenance\": {{\"seed\": {}, \"nproc\": {nproc}, \"commit\": {}, \"trace\": {}, \
         \"seconds\": {}}}, \"failed_share\": {}, \"metrics\": {}, \"notes\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        json_str(&commit()),
        args.trace,
        args.seconds,
        json_num(failed_share),
        metrics_json(&printed, &outcome.metrics),
        notes.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(catalogue, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
