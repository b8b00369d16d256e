//! Instrumented experiment runs — the one driver behind `repro`,
//! `bench_guard record`, `dpnet profile` and `dpnet explain`.
//!
//! [`run_experiment`] maps an experiment id to its implementation in
//! [`crate::experiments`]. [`run_instrumented`] runs one experiment with
//! the process-wide observers it is asked for — an event sink, a span
//! recorder, an explain recorder — and returns everything they saw. [`run_profiled`] is the `dpnet profile` front end: it folds
//! the captured spans into a [`RunReport`] (per-operator time attribution
//! in `BENCH_<id>-wN.json`) and optionally writes a Chrome-trace/Perfetto
//! JSON of the run.
//!
//! When an overhead ceiling is requested, the experiment is first run
//! *unprofiled* on the same pool and the profiled wall time is compared
//! against that baseline — CI uses this to keep the profiler honest.

use crate::experiments as exp;
use crate::report::RunReport;
use dpnet_obs::{
    install_recorder, set_global_sink, uninstall_recorder, write_chrome_trace, AggregatedSpans,
    CompletedSpan, CounterSample, Event, MemorySink, SpanMode, TraceRecorder,
};
use pinq::{
    install_explain_recorder, uninstall_explain_recorder, ExecCtx, ExecPool, ExplainRecorder,
    ExplainReport,
};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every experiment id, in paper order.
pub const IDS: [&str; 18] = [
    "table1",
    "example23",
    "fig1",
    "table4",
    "itemsets",
    "fig2",
    "worm",
    "fig3",
    "table5",
    "fig4",
    "fig5",
    "table2",
    "rules",
    "connections",
    "principals",
    "ablation",
    "graphdist",
    "classify",
];

/// Run one experiment by id, returning its printable output. The
/// experiments whose queries take an execution context (`fig1`,
/// `itemsets`, `worm`) run on `ctx`; the rest ignore it.
pub fn run_experiment(id: &str, ctx: &ExecCtx) -> Result<String, String> {
    match id {
        "table1" => Ok(exp::table1::run(3000).1),
        "example23" => Ok(exp::example23::run(400).1),
        "fig1" => exp::fig1::run(1.0, ctx.clone())
            .map(|(_, s)| s)
            .map_err(|e| e.to_string()),
        "table4" => Ok(exp::table4::run(10, 1.0).1),
        "itemsets" => Ok(exp::itemsets_exp::run(1.0, ctx.clone()).1),
        "fig2" => Ok(exp::fig2::run().1),
        "worm" => Ok(exp::worm_exp::run(ctx.clone()).1),
        "fig3" => Ok(exp::fig3::run().1),
        "table5" => Ok(exp::table5::run().1),
        "fig4" => Ok(exp::fig4::run().1),
        "fig5" => Ok(exp::fig5::run(10).1),
        "table2" => Ok(exp::table2::run().1),
        "rules" => Ok(exp::rules_exp::run().1),
        "connections" => Ok(exp::connections_exp::run().1),
        "principals" => Ok(exp::principals::run(400).1),
        "ablation" => Ok(exp::ablation::run().1),
        "graphdist" => Ok(exp::graphdist_exp::run().1),
        "classify" => Ok(exp::classify_exp::run().1),
        other => Err(format!("unknown experiment id '{other}'")),
    }
}

/// Which process-wide observers a [`run_instrumented`] run installs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observe {
    /// Capture every event in a global [`MemorySink`].
    pub events: bool,
    /// Record spans with a recorder in this mode.
    pub spans: Option<SpanMode>,
    /// Fold each charge into an [`ExplainReport`].
    pub explain: bool,
}

/// Everything one [`run_instrumented`] run produced.
pub struct InstrumentedRun {
    /// The experiment's own printable output.
    pub output: String,
    /// End-to-end wall time of the experiment, ns.
    pub wall_ns: u64,
    /// Every event the global sink captured: charges, aggregations and
    /// toolkit phases (empty unless events were asked for).
    pub events: Vec<Event>,
    /// Individually recorded spans (empty when no recorder was asked for).
    pub spans: Vec<CompletedSpan>,
    /// Aggregation spans a [`SpanMode::Aggregate`] recorder folded.
    pub aggregated: Vec<AggregatedSpans>,
    /// Names of the span tracks (worker lanes).
    pub track_names: BTreeMap<u64, Arc<str>>,
    /// The folded charge-path predictions, titled with the experiment id,
    /// when an explain recorder was asked for.
    pub explain: Option<ExplainReport>,
}

/// Run experiment `id` on `ctx` with the observers `observe` asks for.
/// They are process-wide, so instrumented runs must not overlap; all are
/// removed before returning.
pub fn run_instrumented(
    id: &str,
    ctx: &ExecCtx,
    observe: Observe,
) -> Result<InstrumentedRun, String> {
    let sink = observe.events.then(|| {
        let sink = Arc::new(MemorySink::new());
        set_global_sink(Some(sink.clone()));
        sink
    });
    let tracer = observe.spans.map(|mode| {
        let rec = Arc::new(TraceRecorder::with_mode(mode));
        install_recorder(rec.clone());
        rec
    });
    let explainer = observe.explain.then(|| {
        let rec = Arc::new(ExplainRecorder::new());
        install_explain_recorder(rec.clone());
        rec
    });
    let start = Instant::now();
    let result = run_experiment(id, ctx);
    let wall_ns = (start.elapsed().as_nanos() as u64).max(1);
    if tracer.is_some() {
        uninstall_recorder();
    }
    if explainer.is_some() {
        uninstall_explain_recorder();
    }
    if sink.is_some() {
        set_global_sink(None);
    }
    let output = result?;
    let explain = explainer.map(|rec| {
        let mut report = rec.report();
        report.title = id.to_string();
        report
    });
    let (spans, aggregated, track_names) = match tracer {
        Some(rec) => (rec.take(), rec.take_aggregated(), rec.track_names()),
        None => Default::default(),
    };
    Ok(InstrumentedRun {
        output,
        wall_ns,
        events: sink.map(|s| s.drain()).unwrap_or_default(),
        spans,
        aggregated,
        track_names,
        explain,
    })
}

/// What [`run_profiled`] should do.
pub struct ProfileConfig {
    /// Experiment id (one of [`IDS`]).
    pub experiment: String,
    /// Worker count for the shared [`ExecPool`].
    pub workers: usize,
    /// Where `BENCH_<experiment>-w<workers>.json` is written.
    pub report_dir: PathBuf,
    /// Optional path for the Chrome-trace JSON of the profiled run.
    pub trace_out: Option<PathBuf>,
    /// When set, also time an *unprofiled* run first and fail if the
    /// profiled run is more than `(1 + ceiling)` times slower.
    pub max_overhead: Option<f64>,
    /// How the recorder treats high-frequency aggregation spans:
    /// [`SpanMode::Full`] keeps every span; [`SpanMode::Aggregate`] folds
    /// them into count + total-ns rows per charge path (`--spans agg`),
    /// which keeps large partitioned runs from materializing millions of
    /// span records.
    pub span_mode: SpanMode,
}

/// Everything one profiled run produced.
pub struct ProfileOutcome {
    /// The experiment's own printable output.
    pub output: String,
    /// Rendered per-operator attribution table (empty if no spans).
    pub attribution: String,
    /// Path of the written `BENCH_*.json` report.
    pub report_path: PathBuf,
    /// Path of the written trace, when requested.
    pub trace_path: Option<PathBuf>,
    /// Wall time of the profiled run.
    pub profiled_wall_ns: u64,
    /// Wall time of the unprofiled baseline run, when one was made.
    pub baseline_wall_ns: Option<u64>,
    /// Number of individually recorded spans.
    pub spans: usize,
    /// Number of aggregate rows the recorder folded (aggregate mode only).
    pub aggregated: usize,
}

impl ProfileOutcome {
    /// Profiler overhead as a fraction of the unprofiled baseline
    /// (`0.03` = 3% slower), when a baseline run was made.
    pub fn overhead(&self) -> Option<f64> {
        self.baseline_wall_ns
            .map(|base| self.profiled_wall_ns as f64 / base.max(1) as f64 - 1.0)
    }
}

/// Run `cfg.experiment` with the span profiler installed, write the
/// attribution-bearing report (and optionally a Chrome trace), and check
/// the overhead ceiling if one was requested.
pub fn run_profiled(cfg: &ProfileConfig) -> Result<ProfileOutcome, String> {
    let ctx = ExecCtx::Pool(ExecPool::new(cfg.workers).map_err(|e| e.to_string())?);

    // Unprofiled baseline first: same pool, recorder not installed, so
    // the per-span cost reduces to one relaxed atomic load.
    let baseline_wall_ns = match cfg.max_overhead {
        Some(_) => Some(run_instrumented(&cfg.experiment, &ctx, Observe::default())?.wall_ns),
        None => None,
    };
    let observe = Observe {
        events: true,
        spans: Some(cfg.span_mode),
        explain: false,
    };
    let run = run_instrumented(&cfg.experiment, &ctx, observe)?;

    let mut report = RunReport::new(&format!("{}-w{}", cfg.experiment, cfg.workers));
    report.set_workers(cfg.workers);
    report.record(
        &cfg.experiment,
        run.wall_ns,
        &run.events,
        &run.spans,
        &run.aggregated,
    );
    let attribution = report.render_attribution_report();
    let report_path = report
        .write_json(&cfg.report_dir)
        .map_err(|e| format!("could not write run report: {e}"))?;

    let trace_path = match &cfg.trace_out {
        Some(path) => {
            write_trace(path, &run, &[])?;
            Some(path.clone())
        }
        None => None,
    };

    let outcome = ProfileOutcome {
        attribution,
        report_path,
        trace_path,
        profiled_wall_ns: run.wall_ns,
        baseline_wall_ns,
        spans: run.spans.len(),
        aggregated: run.aggregated.len(),
        output: run.output,
    };
    if let (Some(ceiling), Some(overhead)) = (cfg.max_overhead, outcome.overhead()) {
        if overhead > ceiling {
            return Err(format!(
                "profiler overhead {:.1}% exceeds the {:.1}% ceiling \
                 (unprofiled {} ns, profiled {} ns)",
                overhead * 100.0,
                ceiling * 100.0,
                outcome.baseline_wall_ns.unwrap_or(0),
                outcome.profiled_wall_ns,
            ));
        }
    }
    Ok(outcome)
}

/// Write `run`'s spans (and any ε `counters`) as a Chrome-trace JSON.
pub(crate) fn write_trace(
    path: &Path,
    run: &InstrumentedRun,
    counters: &[CounterSample],
) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    write_chrome_trace(
        BufWriter::new(file),
        &run.spans,
        &run.track_names,
        counters,
        &run.aggregated,
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_global_guard as global_guard;

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(run_experiment("nope", &ExecCtx::Sequential).is_err());
    }

    #[test]
    fn instrumented_runs_capture_what_was_asked_and_uninstall_it() {
        let _g = global_guard();
        let observe = Observe {
            events: true,
            spans: None,
            explain: true,
        };
        let run = run_instrumented("example23", &ExecCtx::Sequential, observe).expect("run");
        assert!(run.events.iter().any(|e| matches!(e, Event::Charge(_))));
        assert!(run.spans.is_empty() && run.aggregated.is_empty());
        assert_eq!(
            run.explain.expect("explain was asked for").title,
            "example23"
        );
        let all = Observe {
            spans: Some(SpanMode::Full),
            ..observe
        };
        assert!(run_instrumented("nope", &ExecCtx::Sequential, all).is_err());
        // Observers come off on success and on failure alike.
        assert!(!dpnet_obs::profiling_enabled());
        assert!(dpnet_obs::global_sink().is_none());
    }

    #[test]
    fn profiled_run_writes_report_with_attribution_and_trace() {
        let _g = global_guard();
        let dir = std::env::temp_dir().join("dpnet-profile-test");
        let cfg = ProfileConfig {
            experiment: "example23".to_string(),
            workers: 1,
            report_dir: dir.clone(),
            trace_out: Some(dir.join("trace.json")),
            max_overhead: None,
            span_mode: SpanMode::Full,
        };
        let out = run_profiled(&cfg).expect("profiled run");
        assert!(out.spans > 0, "experiment should record spans");
        assert_eq!(out.aggregated, 0, "full mode folds nothing");
        assert!(!out.attribution.is_empty());
        let report = std::fs::read_to_string(&out.report_path).unwrap();
        assert!(report.contains("\"target\":\"example23-w1\""));
        assert!(report.contains("\"attribution\":[{\"name\":"));
        let trace = std::fs::read_to_string(out.trace_path.as_ref().unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregate_mode_folds_aggregation_spans_and_still_exports_a_trace() {
        let _g = global_guard();
        let dir = std::env::temp_dir().join("dpnet-profile-agg-test");
        let run = |span_mode| {
            let cfg = ProfileConfig {
                experiment: "fig1".to_string(),
                workers: 1,
                report_dir: dir.clone(),
                trace_out: Some(dir.join(format!("trace-{span_mode:?}.json"))),
                max_overhead: None,
                span_mode,
            };
            run_profiled(&cfg).expect("profiled run")
        };
        let full = run(SpanMode::Full);
        let agg = run(SpanMode::Aggregate);
        assert!(agg.aggregated > 0, "fig1 charges through aggregation spans");
        assert!(
            agg.spans < full.spans,
            "aggregate mode must store fewer individual spans ({} vs {})",
            agg.spans,
            full.spans
        );
        // The attribution table still names the folded operators.
        assert!(agg.attribution.contains("noisy_count"));
        // The trace stays loadable and gains the dedicated aggregate lane.
        let trace = std::fs::read_to_string(agg.trace_path.as_ref().unwrap()).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("aggregated spans"));
        assert!(trace.contains("\"cat\":\"dpnet-agg\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
