//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                 # every experiment, in paper order
//! repro <id> [<id> ...]     # one or more of:
//!       table1 example23 fig1 table4 itemsets fig2 worm fig3
//!       table5 fig4 fig5 table2
//! repro --workers N <id>…   # run on an N-worker execution context
//! repro --profile <id>…     # record spans; adds per-operator attribution
//! repro --explain <id>…     # also write bench-reports/EXPLAIN_<id>.txt
//! ```
//!
//! With `--workers N` (N ≥ 1), every experiment gets one
//! [`pinq::ExecCtx`] backed by an N-worker [`pinq::ExecPool`]; the ones
//! whose queries take a context (`fig1`, `itemsets`, `worm`) bind it to
//! their protected trace, the rest ignore it. Output is deterministic: for
//! a fixed seed, any two worker counts produce identical results. The
//! report target gains a `-wN` suffix when N > 1, so `BENCH_fig1.json` and
//! `BENCH_fig1-w4.json` can be compared side by side.
//!
//! Each experiment runs through [`run_instrumented`], which captures every
//! engine charge and toolkit phase in an event sink. After the experiment
//! output, `repro` prints a per-phase ε/latency budget report and writes
//! `bench-reports/BENCH_<target>.json` with the same data in
//! machine-readable form.
//!
//! With `--profile`, spans are recorded too: the report gains per-operator
//! time attribution, and an attribution table is printed after the budget
//! report. (For single-experiment profiled runs with a Chrome trace, use
//! `dpnet profile` instead.)
//!
//! With `--explain`, a [`pinq::ExplainRecorder`] is installed as well:
//! every aggregation's charge-path predictions are folded per experiment
//! and written to `bench-reports/EXPLAIN_<id>.txt` — the committed
//! `EXPLAIN_fig1.txt` / `EXPLAIN_worm.txt` artifacts come from this flag.
//! (For a single experiment with the measured overlay or the DOT/JSON
//! forms, use `dpnet explain` instead.)

use dpnet_bench::profile::{run_instrumented, Observe, IDS};
use dpnet_bench::report::RunReport;
use dpnet_obs::SpanMode;
use pinq::{ExecCtx, ExecPool, ExplainReport};
use std::path::Path;
use std::time::Duration;

/// Split `--workers N` / `--workers=N` / `--profile` / `--explain` out of
/// the raw argument list, returning the worker count, the two flags, and
/// the remaining (non-flag) arguments.
fn parse_flags(raw: Vec<String>) -> Result<(usize, bool, bool, Vec<String>), String> {
    let mut workers = 1usize;
    let mut profile = false;
    let mut explain = false;
    let mut rest = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--workers" {
            let val = it.next().ok_or("--workers requires a value")?;
            workers = val
                .parse()
                .map_err(|_| format!("invalid --workers value '{val}'"))?;
        } else if let Some(val) = arg.strip_prefix("--workers=") {
            workers = val
                .parse()
                .map_err(|_| format!("invalid --workers value '{val}'"))?;
        } else if arg == "--profile" {
            profile = true;
        } else if arg == "--explain" {
            explain = true;
        } else {
            rest.push(arg);
        }
    }
    Ok((workers, profile, explain, rest))
}

/// Write one experiment's explain tree to `bench-reports/EXPLAIN_<id>.txt`.
fn write_explain(id: &str, report: &ExplainReport) -> Result<std::path::PathBuf, String> {
    let dir = Path::new("bench-reports");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("EXPLAIN_{id}.txt"));
    std::fs::write(&path, report.render_text(None))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (workers, profile, explain, args) = match parse_flags(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: repro [--workers N] [--profile] [--explain] all | <id> [<id> ...]\nids: {}",
            IDS.join(" ")
        );
        std::process::exit(2);
    }
    let ctx = match ExecPool::new(workers) {
        Ok(pool) => ExecCtx::Pool(pool),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let all = args.iter().any(|a| a == "all");
    let ids: Vec<&str> = if all {
        IDS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut target = if all {
        "all".to_string()
    } else {
        ids.join("-")
    };
    if workers > 1 {
        target.push_str(&format!("-w{workers}"));
    }
    let mut report = RunReport::new(&target);
    report.set_workers(workers);

    let observe = Observe {
        events: true,
        spans: profile.then_some(SpanMode::Full),
        explain,
    };
    let mut failed = false;
    for id in ids {
        match run_instrumented(id, &ctx, observe) {
            Ok(run) => {
                println!("{}", run.output);
                println!(
                    "[{id} completed in {:.1?}]",
                    Duration::from_nanos(run.wall_ns)
                );
                report.record(id, run.wall_ns, &run.events, &run.spans, &run.aggregated);
                if let Some(explained) = &run.explain {
                    match write_explain(id, explained) {
                        Ok(path) => println!("explain report: {}", path.display()),
                        Err(e) => {
                            eprintln!("could not write explain report for {id}: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }

    println!("{}", report.render_budget_report());
    let attribution = report.render_attribution_report();
    if !attribution.is_empty() {
        println!("{attribution}");
    }
    match report.write_json(Path::new("bench-reports")) {
        Ok(path) => println!("run report: {}", path.display()),
        Err(e) => eprintln!("could not write run report: {e}"),
    }
    if failed {
        std::process::exit(1);
    }
}
