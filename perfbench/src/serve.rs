//! The two serve workloads: analyst clients over loopback TCP against a
//! daemon this process starts with `dpnet_serve::serve`, the owner's
//! production set-up. Both are closed loops: each connection sends its
//! next request only after the previous reply arrived.

use crate::seed::{self, MixScript, Stream};
use crate::spans::{self, OwnSpan, OwnSpans, ProgramSpans};
use crate::stats::{self, SpanFold};
use crate::{
    metric, repeat_setup, Args, Metric, Outcome, Scratch, SetupTimes, Shape, Window, SETUP_REPS,
};
use dpnet_bench::registry;
use dpnet_serve::protocol::{ErrorKind, Request, Response};
use dpnet_serve::{Client, ServeConfig, ServerHandle};
use dpnet_trace::gen::hotspot;
use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `serve-interactive` ε per query and analyst cap. Both are dyadic, so
/// every sum of charges is exact in `f64` and the kernel's refusals fall
/// on a known query: each session affords `CAP / EPS` queries.
const EPS: f64 = 0.0625;
const CAP: f64 = 0.25;
const AFFORDABLE: u64 = 4;
/// Queries per `serve-interactive` session; the last two are refused.
const QUERIES_PER_SESSION: u64 = 6;
/// A `count` answer must lie within this many noise scales (1/ε) of the
/// true packet count; Laplace noise exceeds it with probability e^-30.
const COUNT_SLACK: f64 = 30.0;
/// Global budget, and `serve-mix`'s analyst cap: dyadic and never reached.
const UNBOUNDED: f64 = 1_073_741_824.0;

/// The daemon under test.
struct Daemon {
    handle: ServerHandle,
    packets: usize,
    /// Where the daemon streams its audit JSONL, when it does.
    audit: Option<PathBuf>,
}

/// How a workload's daemon is set up.
struct DaemonSpec<'a> {
    args: &'a Args,
    shape: &'a Shape,
    /// The daemons stream audit JSONL under here when it is given.
    scratch: Option<&'a Scratch>,
    analyst_cap: f64,
}

impl DaemonSpec<'_> {
    /// Generate the trace, shard it and start the daemon: the set-up the
    /// owner pays once.
    fn start(&self, rep: usize) -> Result<(Daemon, SetupTimes), String> {
        let audit = self.scratch.map(|s| s.path().join(format!("audit-{rep}")));
        let t = Instant::now();
        let trace = hotspot::generate(seed::trace_config(self.args.seed));
        let generate_s = t.elapsed().as_secs_f64();
        let packets = trace.packets.len();
        let shards = dpnet_serve::shard_packets(trace.packets);
        let shard_s = t.elapsed().as_secs_f64() - generate_s;
        let handle = dpnet_serve::serve(
            shards,
            NoiseSource::seeded(seed::derive(self.args.seed, Stream::Noise, 0)),
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                global_eps: UNBOUNDED,
                analyst_cap: self.analyst_cap,
                workers: self.shape.workers,
                audit_dir: audit.clone(),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let times = SetupTimes {
            total_s: t.elapsed().as_secs_f64(),
            generate_s,
            shard_s,
        };
        let daemon = Daemon {
            handle,
            packets,
            audit,
        };
        Ok((daemon, times))
    }

    /// Set up [`SETUP_REPS`] times and keep the last daemon.
    fn setup(&self, out: &mut Outcome) -> Result<Daemon, String> {
        let daemon = repeat_setup(out, 0, |rep| self.start(rep))?;
        out.packets = daemon.packets;
        let shards = daemon.handle.broker().manager().shards();
        out.trace_digest = seed::trace_digest(shards.iter().flat_map(|s| s.iter()));
        Ok(daemon)
    }

    /// Time [`SETUP_REPS`] more set-ups once the run is over.
    fn setup_after(&self, out: &mut Outcome) -> Result<(), String> {
        repeat_setup(out, SETUP_REPS + 1, |rep| self.start(rep)).map(drop)
    }
}

/// An answered query: which analysis, the client's latency and the
/// server's execution time.
#[derive(Debug, Clone, Copy)]
struct Answered {
    analysis: &'static str,
    latency_ns: u64,
    wall_ns: u64,
}

/// What the connections of one window observed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    lat_ms: Vec<f64>,
    answered: Vec<Answered>,
    queries: u64,
    refused: u64,
    sessions: u64,
    closed_spent: f64,
    /// Per connection: ops completed and the time from the window's start
    /// until the connection finished its last unit of work.
    busy: Vec<(u64, u64, Duration)>,
    /// Traced windows: every request and its reply, for the codec replay.
    frames: Vec<(u64, Request, Response)>,
    /// Traced windows: the benchmark's spans around each request.
    spans: Vec<OwnSpan>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.problems.extend(o.problems);
        self.lat_ms.extend(o.lat_ms);
        self.answered.extend(o.answered);
        self.queries += o.queries;
        self.refused += o.refused;
        self.sessions += o.sessions;
        self.closed_spent += o.closed_spent;
        self.busy.extend(o.busy);
        self.frames.extend(o.frames);
        self.spans.extend(o.spans);
    }
}

/// One analyst connection.
struct Conn {
    client: Client,
    tally: Tally,
    spans: Option<OwnSpans>,
    /// The open session's span, parent of its requests' spans.
    session_span: Option<usize>,
    /// Op ids are `thread << 40 | sequence`, unique across threads.
    next_op: u64,
}

impl Conn {
    fn new(addr: SocketAddr, thread: u64, traced: Option<Instant>) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            client,
            tally: Tally::default(),
            spans: traced.map(OwnSpans::new),
            session_span: None,
            next_op: thread << 40,
        })
    }

    /// Record a failure. `is_op` failures were already counted as
    /// attempted; others (a `serve-mix` open or close) count as one more
    /// attempted and failed operation.
    fn fail(&mut self, is_op: bool, problem: String) {
        if !is_op {
            self.tally.attempted += 1;
        }
        self.tally.failed += 1;
        if self.tally.problems.len() < crate::MAX_PROBLEMS {
            self.tally.problems.push(problem);
        }
    }

    /// Send `req` and time the round trip. `None` means the connection
    /// broke; the failure is recorded and the caller stops.
    fn call(&mut self, name: &'static str, req: Request, is_op: bool) -> Option<(Response, u64)> {
        let op = self.next_op;
        self.next_op += 1;
        if is_op {
            self.tally.attempted += 1;
        }
        let parent = self.session_span;
        let span = self.spans.as_mut().map(|s| s.open(name, op, parent));
        let t = Instant::now();
        let res = self.client.request(&req);
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(s), Some(i)) = (self.spans.as_mut(), span) {
            s.close(i);
        }
        match res {
            Ok(resp) => {
                if is_op {
                    self.tally.lat_ms.push(ns as f64 / 1e6);
                }
                if self.spans.is_some() {
                    self.tally.frames.push((op, req, resp.clone()));
                }
                Some((resp, ns))
            }
            Err(e) => {
                self.fail(is_op, format!("{name}: {e}"));
                None
            }
        }
    }

    /// Open a session as `analyst`. `false` when the connection broke.
    fn open(&mut self, analyst: String, is_op: bool) -> bool {
        // The session span shares its op id with the `open` request.
        let op = self.next_op;
        self.session_span = self
            .spans
            .as_mut()
            .map(|s| s.open("client/session", op, None));
        let Some((resp, _)) = self.call("client/open", Request::Open { analyst }, is_op) else {
            return false;
        };
        if !matches!(resp, Response::Opened { .. }) {
            self.fail(is_op, format!("open: unexpected reply {resp:?}"));
        }
        self.tally.sessions += 1;
        true
    }

    /// Close the session, checking its final spend when `expected` is
    /// given. `false` when the connection broke.
    fn close(&mut self, expected: Option<f64>, is_op: bool) -> bool {
        let closed = self.call("client/close", Request::Close, is_op);
        if let (Some(s), Some(i)) = (self.spans.as_mut(), self.session_span.take()) {
            s.close(i);
        }
        let Some((resp, _)) = closed else {
            return false;
        };
        match resp {
            Response::Closed { session_spent, .. }
                if expected.map_or(true, |e| e == session_spent) =>
            {
                self.tally.closed_spent += session_spent
            }
            other => self.fail(
                is_op,
                format!("close: expected a spend of {expected:?}, got {other:?}"),
            ),
        }
        true
    }

    fn finish(mut self) -> Tally {
        match self.spans.take().map(OwnSpans::into_spans) {
            Some(Ok(spans)) => self.tally.spans = spans,
            Some(Err(p)) => self.fail(false, p),
            None => {}
        }
        self.tally
    }
}

/// Run `body` on `clients` connections for one window and merge what they
/// saw. Returns the tally and, for a traced window, the program's spans.
fn run_window(
    addr: SocketAddr,
    shape: &Shape,
    window: Window,
    body: impl Fn(&mut Conn, u64, Instant) + Sync,
) -> (Tally, Option<SpanFold>) {
    let program = window.traced.then(ProgramSpans::start);
    let epoch = Instant::now();
    let deadline = epoch + window.length;
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.clients as u64)
            .map(|c| {
                let body = &body;
                scope.spawn(move || {
                    let traced = window.traced.then_some(epoch);
                    match Conn::new(addr, c, traced) {
                        Ok(mut conn) => {
                            body(&mut conn, c, deadline);
                            let ops = conn.tally.lat_ms.len() as u64;
                            conn.tally.busy.push((c, ops, epoch.elapsed()));
                            conn.finish()
                        }
                        Err(e) => Tally {
                            attempted: 1,
                            failed: 1,
                            problems: vec![e],
                            ..Tally::default()
                        },
                    }
                })
            })
            .collect();
        for h in handles {
            tally.merge(h.join().expect("client thread panicked"));
        }
    });
    (tally, program.map(ProgramSpans::finish))
}

/// Everything measured over a run's windows.
#[derive(Default)]
struct Measured {
    all: Tally,
    traced: Tally,
    fold: SpanFold,
}

fn measure(
    daemon: &Daemon,
    shape: &Shape,
    wins: &[Window],
    out: &mut Outcome,
    body: impl Fn(&mut Conn, u64, Window, Instant) + Sync,
) -> Measured {
    let mut m = Measured::default();
    for &w in wins {
        let (mut tally, fold) = run_window(daemon.handle.addr(), shape, w, |conn, c, deadline| {
            body(conn, c, w, deadline)
        });
        let timing = if w.traced {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        timing.lat_ms.extend_from_slice(&tally.lat_ms);
        for &(c, ops, busy) in &tally.busy {
            timing.add_conn(c, ops, busy);
        }
        if let Some(fold) = fold {
            m.fold.merge(&fold);
            m.traced.lat_ms.extend_from_slice(&tally.lat_ms);
            m.traced.answered.extend_from_slice(&tally.answered);
            m.traced.queries += tally.queries;
            m.traced.refused += tally.refused;
            m.traced.frames.append(&mut tally.frames);
            m.traced.spans.append(&mut tally.spans);
        }
        m.all.merge(tally);
    }
    let problems = std::mem::take(&mut m.all.problems);
    out.absorb(m.all.attempted, m.all.failed, problems);
    m
}

/// Flag answered queries whose server time exceeds the client's latency,
/// which one monotonic clock cannot produce.
fn check_outside_exec(all: &Tally, out: &mut Outcome) {
    for a in &all.answered {
        if let Err(e) = stats::outside_exec_ns(a.latency_ns, a.wall_ns) {
            out.fail(format!("{}: {e}", a.analysis));
        }
    }
}

/// Exact global books: the daemon's global spend equals the sum of the
/// session spends the clients saw at close and the owner's ledger total.
fn check_books(daemon: &Daemon, closed_spent: f64, exact: bool, out: &mut Outcome) {
    let manager = daemon.handle.broker().manager();
    let global = manager.global().spent();
    let ledger: f64 = manager.ledger().iter().map(|(_, e)| e).sum();
    let agree = |a: f64, b: f64| {
        if exact {
            a == b
        } else {
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
        }
    };
    if !(agree(global, closed_spent) && agree(global, ledger)) {
        out.fail_check(format!(
            "global ε {global} ≠ Σ session spends {closed_spent} or ledger total {ledger}"
        ));
    }
}

/// `serve-interactive`: back-to-back short sessions of `count` queries,
/// each followed by a `spend` read.
pub fn interactive(args: &Args, shape: &Shape, wins: &[Window]) -> Result<Outcome, String> {
    let scratch = Scratch::new("serve-interactive").map_err(|e| format!("scratch dir: {e}"))?;
    let mut out = Outcome::default();
    let spec = DaemonSpec {
        args,
        shape,
        scratch: Some(&scratch),
        analyst_cap: CAP,
    };
    let daemon = spec.setup(&mut out)?;
    let n = daemon.packets as f64;
    let m = measure(&daemon, shape, wins, &mut out, |conn, c, w, deadline| {
        let mut k = 0;
        while Instant::now() < deadline {
            if !interactive_session(conn, seed::analyst_name(args.seed, w.index, c, k), n) {
                return;
            }
            k += 1;
        }
    });
    check_outside_exec(&m.all, &mut out);
    let predicted = m.all.sessions * (QUERIES_PER_SESSION - AFFORDABLE);
    if m.all.refused != predicted {
        out.fail_check(format!(
            "{} queries refused, {predicted} predicted",
            m.all.refused
        ));
    }
    check_books(&daemon, m.all.closed_spent, true, &mut out);
    out.notes.push(format!(
        "sessions {} queries {} refused {} (predicted {predicted})",
        m.all.sessions, m.all.queries, m.all.refused
    ));
    if wins.iter().any(|w| w.traced) {
        out.layers = serve_layers(&daemon, &m, shape, &mut out)?;
    }
    // Stopped first, so the extra set-ups do not add to peak memory.
    drop(daemon);
    spec.setup_after(&mut out)?;
    Ok(out)
}

/// One `serve-interactive` session. `false` when the connection broke.
fn interactive_session(conn: &mut Conn, analyst: String, packets: f64) -> bool {
    if !conn.open(analyst, true) {
        return false;
    }
    for q in 0..QUERIES_PER_SESSION {
        let query = Request::Query {
            analysis: "count".to_string(),
            eps: EPS,
        };
        let Some((resp, latency_ns)) = conn.call("client/query", query, true) else {
            return false;
        };
        conn.tally.queries += 1;
        match resp {
            Response::Values {
                values, wall_ns, ..
            } if q < AFFORDABLE => {
                conn.tally.answered.push(Answered {
                    analysis: "count",
                    latency_ns,
                    wall_ns,
                });
                let ok = matches!(values.as_slice(), [(_, v)]
                    if v.is_finite() && (v - packets).abs() <= COUNT_SLACK / EPS);
                if !ok {
                    conn.fail(
                        true,
                        format!("count {values:?} not within 30/ε of {packets}"),
                    );
                }
            }
            Response::Error(e) if q >= AFFORDABLE && e.kind == ErrorKind::BudgetExhausted => {
                conn.tally.refused += 1
            }
            other => conn.fail(true, format!("query {q}: unexpected reply {other:?}")),
        }
        let Some((resp, _)) = conn.call("client/spend", Request::Spend, true) else {
            return false;
        };
        let expected = EPS * (q + 1).min(AFFORDABLE) as f64;
        match resp {
            Response::Spend(s) if s.session_spent == expected => {}
            other => conn.fail(
                true,
                format!("spend after query {q}: expected {expected}, got {other:?}"),
            ),
        }
    }
    conn.close(Some(EPS * AFFORDABLE as f64), true)
}

/// `serve-mix`: one long-lived session per connection and window issuing a
/// seeded, weighted sequence over all nine registry analyses.
///
/// The daemon runs without audit streams here. With them, each `worm`
/// request writes about 50 MB of per-charge JSONL, which takes about a
/// second, five times its execution, and varies so much from run to run
/// that no bound could hold; `serve-interactive` measures the audit path.
pub fn mix(args: &Args, shape: &Shape, wins: &[Window]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = DaemonSpec {
        args,
        shape,
        scratch: None,
        analyst_cap: UNBOUNDED,
    };
    let daemon = spec.setup(&mut out)?;
    // The library path's charge per analysis at its default ε; computing
    // it also warms the trace's pages before the first window.
    let charges = library_charges(&daemon, args.seed, shape.workers)?;
    let m = measure(&daemon, shape, wins, &mut out, |conn, c, w, deadline| {
        if !conn.open(seed::analyst_name(args.seed, w.index, c, 0), false) {
            return;
        }
        // Stop only between whole blocks, so every connection's queries
        // have the deck's exact composition whatever the timing.
        let mut script = MixScript::new(args.seed, w.index, c);
        while !(script.between_blocks() && Instant::now() >= deadline) {
            let name = script.next().expect("the script never ends");
            let spec = registry::find(name).expect("the deck names registry analyses");
            let query = Request::Query {
                analysis: name.to_string(),
                eps: spec.default_eps,
            };
            let Some((resp, latency_ns)) = conn.call("client/query", query, true) else {
                return;
            };
            conn.tally.queries += 1;
            match resp {
                Response::Values {
                    values, wall_ns, ..
                } => {
                    conn.tally.answered.push(Answered {
                        analysis: name,
                        latency_ns,
                        wall_ns,
                    });
                    if let Some((k, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
                        conn.fail(true, format!("{name}: released {k} = {v}"));
                    }
                }
                other => conn.fail(true, format!("{name}: unexpected reply {other:?}")),
            }
        }
        conn.close(None, false);
    });
    check_outside_exec(&m.all, &mut out);
    let expected: f64 = m.all.answered.iter().map(|a| charges[a.analysis]).sum();
    let booked = daemon.handle.broker().manager().global().spent();
    if (booked - expected).abs() > 1e-9 * expected.abs().max(f64::MIN_POSITIVE) {
        out.fail_check(format!(
            "daemon booked ε {booked}, the library path charges {expected} for the same requests"
        ));
    }
    check_books(&daemon, m.all.closed_spent, false, &mut out);
    out.notes.push(format!(
        "sessions {} queries {} booked ε {booked}",
        m.all.sessions, m.all.queries
    ));
    if wins.iter().any(|w| w.traced) {
        out.layers = serve_layers(&daemon, &m, shape, &mut out)?;
    }
    // Stopped first, so the extra set-ups do not add to peak memory.
    drop(daemon);
    spec.setup_after(&mut out)?;
    Ok(out)
}

/// What `registry::find(..).run` charges on a fresh view for each
/// analysis at its default ε.
fn library_charges(
    daemon: &Daemon,
    seed: u64,
    workers: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let pool = ExecPool::new(workers).map_err(|e| e.to_string())?;
    let shards = daemon.handle.broker().manager().shards().to_vec();
    let mut charges = BTreeMap::new();
    for (i, spec) in registry::REGISTRY.iter().enumerate() {
        let budget = Accountant::new(UNBOUNDED);
        let noise = NoiseSource::seeded(seed::derive(seed, Stream::Noise, 1 + i as u64));
        let q = Queryable::from_shared_shards(shards.clone(), &budget, &noise)
            .with_ctx(ExecCtx::pool(&pool));
        spec.run(&q, spec.default_eps)
            .map_err(|e| format!("library run of {}: {e}", spec.name))?;
        charges.insert(spec.name, budget.spent());
    }
    Ok(charges)
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Median, or 0 for an empty sample.
fn p50(v: Vec<f64>) -> f64 {
    stats::median(&stats::sorted(v)).unwrap_or(0.0)
}

/// Tail by the ten-beyond rule; the maximum when the sample is too small
/// to have one, 0 when empty.
fn tail_or_max(v: Vec<f64>) -> f64 {
    let v = stats::sorted(v);
    stats::tail(&v)
        .map(|t| t.value)
        .or(v.last().copied())
        .unwrap_or(0.0)
}

/// Per-layer metrics of a serve workload, from its traced windows.
fn serve_layers(
    daemon: &Daemon,
    m: &Measured,
    shape: &Shape,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let t = &m.traced;
    let ops = t.lat_ms.len() as u64;
    let exec_ms: Vec<f64> = t.answered.iter().map(|a| a.wall_ns as f64 / 1e6).collect();
    let outside_ms: Vec<f64> = t
        .answered
        .iter()
        .filter_map(|a| stats::outside_exec_ns(a.latency_ns, a.wall_ns).ok())
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let outside_p50 = p50(outside_ms.clone());
    let mut layers = vec![
        metric("serve.exec_p50_ms", p50(exec_ms.clone()), "ms"),
        metric("serve.exec_tail_ms", tail_or_max(exec_ms), "ms"),
        metric("serve.outside_exec_p50_ms", outside_p50, "ms"),
        metric("serve.outside_exec_tail_ms", tail_or_max(outside_ms), "ms"),
    ];
    for req in ["open", "query", "spend", "close"] {
        let name = format!("client/{req}");
        layers.push(metric(
            format!("req.{req}_p50_ms"),
            p50(spans::durations_ms(&t.spans, &name)),
            "ms",
        ));
    }
    layers.extend(replay_protocol(&t.frames, out));
    for spec in registry::REGISTRY {
        let wall: Vec<f64> = t
            .answered
            .iter()
            .filter(|a| a.analysis == spec.name)
            .map(|a| a.wall_ns as f64 / 1e6)
            .collect();
        layers.push(metric(
            format!("registry.{}_p50_ms", spec.name),
            p50(wall),
            "ms",
        ));
    }
    let refused = t.refused as f64 / t.queries.max(1) as f64;
    layers.push(metric("kernel.refused_frac", refused, "frac"));
    if let Some(dir) = &daemon.audit {
        let audit = dir_bytes(dir)? as f64 / m.all.queries.max(1) as f64;
        layers.push(metric("audit.bytes_per_query", audit, "bytes"));
    }
    layers.extend(crate::program_layers(&m.fold, ops, shape.workers));
    let op_p50 = p50(t.lat_ms.clone());
    if op_p50 > 0.0 {
        out.notes.push(format!(
            "reconcile: serve.outside_exec_p50_ms is {:.1}% of the traced op_p50_ms {op_p50:.3}",
            100.0 * outside_p50 / op_p50
        ));
    }
    Ok(layers)
}

/// Replay the captured frames through the codec in-process: the server's
/// request parse and response encode, and the client's request encode and
/// response parse. Each frame must round-trip to the value it came from.
fn replay_protocol(frames: &[(u64, Request, Response)], out: &mut Outcome) -> Vec<Metric> {
    let (mut encode, mut parse) = (Duration::ZERO, Duration::ZERO);
    let mut bytes = 0usize;
    for (op, req, resp) in frames {
        let t = Instant::now();
        let (rq, rs) = (req.to_json(), resp.to_json());
        encode += t.elapsed();
        bytes += rs.len();
        let t = Instant::now();
        let parsed = (
            Request::parse(rq.as_bytes()),
            Response::parse(rs.as_bytes()),
        );
        parse += t.elapsed();
        match parsed {
            (Ok(a), Ok(b)) if &a == req && &b == resp => {}
            other => out.fail(format!("frame {op} does not round-trip: {other:?}")),
        }
    }
    let n = frames.len().max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    vec![
        metric("protocol.encode_us", us(encode), "us"),
        metric("protocol.parse_us", us(parse), "us"),
        metric("protocol.response_bytes", bytes as f64 / n, "bytes"),
    ]
}
