//! The repository benchmark: two workloads of the dpnet serving daemon,
//! run from one workload seed, timed from outside the program and checked
//! for correct output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-interactive --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the traced
//! run that prints the per-layer metrics. Human-readable lines come first;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! makes the run exit 1. See `perfbench/README.md` for the workloads, the
//! metrics and the layer each one measures.

mod seed;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short analyst sessions of cheap `count` queries over loopback TCP.
    ServeInteractive,
    /// Long-lived sessions issuing a weighted mix of all nine analyses.
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-interactive" => Some(Workload::ServeInteractive),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Length of the measurement, seconds.
    pub seconds: f64,
    /// Make the traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

const USAGE: &str = "usage: dpnet-perfbench --workload serve-interactive|serve-mix \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The load shape: how many client threads and connections drive the
/// program, and how many pool workers it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Client threads, each with one connection.
    pub clients: usize,
    /// Worker threads of the program's `ExecPool`.
    pub workers: usize,
}

impl Shape {
    /// The shape on `nproc` cores: `nproc` client threads drive the
    /// daemon, and the program gets `nproc` pool workers.
    pub fn new(nproc: usize) -> Result<Shape, String> {
        let clients = nproc;
        check_shape(clients, nproc)?;
        Ok(Shape {
            nproc,
            clients,
            workers: nproc,
        })
    }
}

/// The load-shape guard. More client threads than cores would measure the
/// load generator's contention, not the program, so it is refused.
pub fn check_shape(clients: usize, nproc: usize) -> Result<(), String> {
    if clients == 0 || clients > nproc {
        return Err(format!(
            "{clients} client threads; the load generator may use 1..={nproc} (nproc)"
        ));
    }
    Ok(())
}

/// Timed set-up repetitions before the windows, and again after them;
/// `setup_s` is the median of all. The machine's speed drifts over
/// seconds, so timing set-ups at both ends of the run steadies the median.
pub const SETUP_REPS: usize = 8;

/// Run `set_up` once untimed, then [`SETUP_REPS`] times recording each
/// timing, and return the last result. The first set-up in the process
/// pays for a fresh heap and cold caches (it runs 25–70% slower than the
/// rest), which is not what a repeated set-up costs. Each result is
/// dropped before the next set-up, so set-ups do not overlap. `set_up`
/// gets the repetition's label, counted from `first`.
pub fn repeat_setup<T>(
    out: &mut Outcome,
    first: usize,
    mut set_up: impl FnMut(usize) -> Result<(T, SetupTimes), String>,
) -> Result<T, String> {
    let mut last = Some(set_up(first)?.0);
    for rep in first + 1..=first + SETUP_REPS {
        drop(last.take());
        let (t, times) = set_up(rep)?;
        out.setups.push(times);
        last = Some(t);
    }
    Ok(last.expect("at least one set-up"))
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything the workload needs before its first op, seconds.
    pub total_s: f64,
    /// Hotspot trace generation, seconds.
    pub generate_s: f64,
    /// Cutting the packets into shards, seconds.
    pub shard_s: f64,
}

/// One measurement window: untraced, or traced (per-layer spans on).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Index, which seeds the window's scripts.
    pub index: u64,
    /// How long the window issues new work.
    pub length: Duration,
    /// Whether the window records spans.
    pub traced: bool,
}

/// The windows of a run: one untraced window, or, in a traced run, four
/// windows in the order untraced, traced, traced, untraced, so that drift
/// over the run cancels out of the tracing-overhead estimate.
pub fn windows(seconds: f64, trace: bool) -> Vec<Window> {
    let plan: &[bool] = if trace {
        &[false, true, true, false]
    } else {
        &[false]
    };
    let length = Duration::from_secs_f64(seconds / plan.len() as f64);
    plan.iter()
        .enumerate()
        .map(|(i, &traced)| Window {
            index: i as u64,
            length,
            traced,
        })
        .collect()
}

/// Client-observed op latencies and throughput of the untraced or the
/// traced windows.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// One latency per completed op, ms.
    pub lat_ms: Vec<f64>,
    /// Per connection: ops completed and the time spent issuing them.
    conns: BTreeMap<u64, (u64, Duration)>,
}

impl Timing {
    /// Add `ops` ops that connection `conn` completed in `busy`.
    pub fn add_conn(&mut self, conn: u64, ops: u64, busy: Duration) {
        let c = self.conns.entry(conn).or_default();
        c.0 += ops;
        c.1 += busy;
    }

    /// Σ over connections of completed ops ÷ that connection's time. A
    /// connection stops only after a whole unit of work (a session, a deck
    /// of analyses), so each one ends at its own time; summing per
    /// connection keeps the first to finish from idling in the figure.
    pub fn ops_per_s(&self) -> f64 {
        self.conns
            .values()
            .filter(|(_, t)| !t.is_zero())
            .map(|&(ops, t)| ops as f64 / t.as_secs_f64())
            .sum()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload hands back to be reported.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per set-up repetition.
    pub setups: Vec<SetupTimes>,
    /// Packets in the generated trace.
    pub packets: usize,
    /// [`seed::trace_digest`] of the generated trace.
    pub trace_digest: u64,
    /// Ops attempted (plus run-level checks that failed).
    pub attempted: u64,
    /// Ops that failed or failed their check, plus failed run-level checks.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    /// The untraced windows.
    pub untraced: Timing,
    /// The traced windows (traced runs only).
    pub traced: Timing,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Context lines: reconciliation and tail details.
    pub notes: Vec<String>,
}

/// Most problem messages a run keeps; the rest are only counted.
pub const MAX_PROBLEMS: usize = 20;

impl Outcome {
    /// Record a failed op or run-level check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Record a failed run-level check (one that no single op owns): it
    /// counts as one more attempted and failed operation.
    pub fn fail_check(&mut self, problem: String) {
        self.attempted += 1;
        self.fail(problem);
    }

    /// Fold in a failure tally gathered on another thread.
    pub fn absorb(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(problems.into_iter().take(room));
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `.perfbench-tmp/<tag>-<pid>`.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let path = PathBuf::from(".perfbench-tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Median of each set-up field.
fn setup_medians(setups: &[SetupTimes]) -> SetupTimes {
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&stats::sorted(setups.iter().map(f).collect())).unwrap_or(0.0)
    };
    SetupTimes {
        total_s: med(|s| s.total_s),
        generate_s: med(|s| s.generate_s),
        shard_s: med(|s| s.shard_s),
    }
}

/// The end-to-end metrics of the untraced windows.
fn end_to_end(out: &Outcome, peak_mb: f64) -> (Vec<Metric>, Option<stats::Tail>) {
    let lat = stats::sorted(out.untraced.lat_ms.clone());
    let tail = stats::tail(&lat);
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    let metrics = vec![
        metric("setup_s", setup_medians(&out.setups).total_s, "s"),
        metric("op_p50_ms", stats::median(&lat).unwrap_or(0.0), "ms"),
        metric("op_tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
        metric("ops_per_s", out.untraced.ops_per_s(), "1/s"),
        metric("ok_frac", ok, "frac"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ];
    (metrics, tail)
}

/// Every per-layer metric with its unit, in report order: the `per_layer`
/// list of `BENCHMARK.json`. A traced run prints all of them; a layer the
/// workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_tail_ms", "ms"),
    ("serve.outside_exec_p50_ms", "ms"),
    ("serve.outside_exec_tail_ms", "ms"),
    ("req.open_p50_ms", "ms"),
    ("req.query_p50_ms", "ms"),
    ("req.spend_p50_ms", "ms"),
    ("req.close_p50_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("registry.count_p50_ms", "ms"),
    ("registry.heavy-hosts_p50_ms", "ms"),
    ("registry.lengths_p50_ms", "ms"),
    ("registry.ports_p50_ms", "ms"),
    ("registry.rtt_p50_ms", "ms"),
    ("registry.loss_p50_ms", "ms"),
    ("registry.retx-cdf_p50_ms", "ms"),
    ("registry.itemsets_p50_ms", "ms"),
    ("registry.worm_p50_ms", "ms"),
    ("kernel.refused_frac", "frac"),
    ("audit.bytes_per_query", "bytes"),
    ("exec.run_calls_per_op", "count"),
    ("exec.run_self_ms_per_op", "ms"),
    ("exec.busy_frac", "frac"),
    ("plan.materialize_calls_per_op", "count"),
    ("plan.materialize_ms_per_op", "ms"),
    ("aggregates.noisy_count_calls_per_op", "count"),
    ("aggregates.noisy_count_self_ms_per_op", "ms"),
    ("aggregates.partition_noisy_counts_ms_per_op", "ms"),
    ("trace.generate_s", "s"),
    ("trace.shard_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
];

/// The engine layers, from the spans the program emits itself, per op of
/// the traced windows.
pub fn program_layers(fold: &stats::SpanFold, ops: u64, workers: usize) -> Vec<Metric> {
    vec![
        metric(
            "exec.run_calls_per_op",
            fold.calls_per_op("exec/run", ops),
            "count",
        ),
        metric(
            "exec.run_self_ms_per_op",
            fold.self_ms_per_op("exec/run", ops),
            "ms",
        ),
        metric("exec.busy_frac", fold.busy_frac(workers), "frac"),
        metric(
            "plan.materialize_calls_per_op",
            fold.calls_per_op("plan/materialize", ops),
            "count",
        ),
        metric(
            "plan.materialize_ms_per_op",
            fold.total_ms_per_op("plan/materialize", ops),
            "ms",
        ),
        metric(
            "aggregates.noisy_count_calls_per_op",
            fold.calls_per_op("noisy_count", ops),
            "count",
        ),
        metric(
            "aggregates.noisy_count_self_ms_per_op",
            fold.self_ms_per_op("noisy_count", ops),
            "ms",
        ),
        metric(
            "aggregates.partition_noisy_counts_ms_per_op",
            fold.total_ms_per_op("partition_noisy_counts", ops),
            "ms",
        ),
    ]
}

/// Order `measured` by [`LAYERS`], filling the layers the workload did not
/// exercise with 0. Returns the metrics and the names filled.
fn all_layers(measured: Vec<Metric>) -> (Vec<Metric>, Vec<&'static str>) {
    for m in &measured {
        assert!(
            LAYERS.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "layer metric {} ({}) missing from LAYERS",
            m.name,
            m.unit
        );
    }
    let mut absent = Vec::new();
    let metrics = LAYERS
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => {
                    absent.push(name);
                    metric(name, 0.0, unit)
                }
            },
        )
        .collect();
    (metrics, absent)
}

/// Per-layer metrics common to every workload: set-up stages and the
/// tracing overhead.
fn common_layers(out: &Outcome) -> Vec<Metric> {
    let s = setup_medians(&out.setups);
    let p50 = |t: &Timing| stats::median(&stats::sorted(t.lat_ms.clone())).unwrap_or(0.0);
    let (plain, traced) = (p50(&out.untraced), p50(&out.traced));
    let overhead = if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    };
    vec![
        metric("trace.generate_s", s.generate_s, "s"),
        metric("trace.shard_s", s.shard_s, "s"),
        metric("obs.trace_overhead_frac", overhead, "frac"),
    ]
}

/// One JSON number. Every value is finite by construction; a non-finite
/// one is a bug in this benchmark.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = Shape::new(nproc)?;
    let calibrate_ns = dpnet_bench::report::calibrate_ns();
    let wins = windows(args.seconds, args.trace);
    let start = Instant::now();
    let mut out = match args.workload {
        Workload::ServeInteractive => serve::interactive(args, &shape, &wins)?,
        Workload::ServeMix => serve::mix(args, &shape, &wins)?,
    };
    let peak_mb = peak_rss_mb()?;
    if out.attempted == 0 {
        out.attempted = 1;
        out.fail("no op completed in the measurement window".to_string());
    }
    println!(
        "context: nproc {} workers {} clients {} packets {} trace_digest {:016x} \
         calibrate_ns {calibrate_ns} seed {} seconds {} run_s {:.3}",
        shape.nproc,
        shape.workers,
        shape.clients,
        out.packets,
        out.trace_digest,
        args.seed,
        args.seconds,
        start.elapsed().as_secs_f64()
    );
    let (e2e, tail) = end_to_end(&out, peak_mb);
    let fail_frac = out.failed as f64 / out.attempted as f64;
    println!(
        "ops: attempted {} failed {} fail_frac {fail_frac}",
        out.attempted, out.failed
    );
    match tail {
        Some(t) => println!(
            "op_tail_ms is p{:.2} of {} untraced ops ({} beyond it)",
            t.pct,
            t.n,
            stats::TAIL_BEYOND
        ),
        None => println!("op_tail_ms: too few untraced ops for a tail; reported as 0"),
    }
    for note in &out.notes {
        println!("{note}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics = if args.trace {
        let mut layers = std::mem::take(&mut out.layers);
        layers.extend(common_layers(&out));
        let (layers, absent) = all_layers(layers);
        if !absent.is_empty() {
            println!(
                "not exercised by this workload, reported as 0: {}",
                absent.join(" ")
            );
        }
        layers
    } else {
        e2e
    };
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dpnet-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn load_shape_refuses_more_clients_than_cores() {
        assert_eq!(
            Shape::new(2),
            Ok(Shape {
                nproc: 2,
                clients: 2,
                workers: 2
            })
        );
        assert!(check_shape(2, 2).is_ok());
        assert!(check_shape(3, 2).is_err());
        assert!(check_shape(0, 2).is_err());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-interactive",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-interactive",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve-interactive",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn traced_runs_alternate_windows() {
        let w = windows(20.0, true);
        assert_eq!(
            w.iter().map(|w| w.traced).collect::<Vec<_>>(),
            [false, true, true, false]
        );
        assert_eq!(w[0].length, Duration::from_secs(5));
        let w = windows(20.0, false);
        assert_eq!(w.len(), 1);
        assert!(!w[0].traced);
    }

    #[test]
    fn layer_list_matches_the_benchmark_file_and_the_registry() {
        let file = include_str!("../../BENCHMARK.json");
        let per_layer = &file[file.find("\"per_layer\"").expect("per_layer key")..];
        for &(name, unit) in LAYERS {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYERS.len());
        for spec in dpnet_bench::registry::REGISTRY {
            let name = format!("registry.{}_p50_ms", spec.name);
            assert!(LAYERS.iter().any(|&(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn absent_layers_read_zero_in_list_order() {
        let (m, absent) = all_layers(vec![metric("exec.busy_frac", 0.5, "frac")]);
        assert_eq!(m.len(), LAYERS.len());
        assert_eq!(absent.len(), LAYERS.len() - 1);
        let busy = m.iter().find(|m| m.name == "exec.busy_frac").unwrap();
        assert_eq!(busy.value, 0.5);
        assert!(m.iter().zip(LAYERS).all(|(m, &(n, _))| m.name == n));
    }

    #[test]
    fn throughput_sums_connections() {
        let mut t = Timing::default();
        t.add_conn(0, 10, Duration::from_secs(2));
        t.add_conn(1, 30, Duration::from_secs(3));
        t.add_conn(1, 10, Duration::from_secs(1));
        assert_eq!(t.ops_per_s(), 5.0 + 10.0);
        t.add_conn(2, 0, Duration::ZERO);
        assert_eq!(t.ops_per_s(), 15.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("op_p50_ms", 44.0, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 44.0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(0.25), "0.25");
    }
}
