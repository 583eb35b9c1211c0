//! The three workloads, their untraced (end-to-end) and traced (per-layer)
//! runs, and the deterministic counters.
//!
//! Every workload reports every end-to-end metric:
//!
//! * `table1-dense` and `reduce-10k` time their checks in-process, then
//!   drive a hits-only control stream of the repository's example decks
//!   through the daemon (the `serve_*` figures, which their checks bypass);
//! * `serve-mixed` drives the daemon with the mixed open-loop stream, then
//!   times the checks of the fresh decks it sent in-process (the `*_cost_*`
//!   figures of small decks).
//!
//! In-process checks run one at a time on the calling thread, each between
//! two runs of the calibration kernel ([`crate::cal`]).

use crate::alloc;
use crate::cal::{peak_rss_mb, Calibrator, SchedWindow};
use crate::decks::{self, Case, Rng, Source};
use crate::report::Report;
use crate::serve::{self, Class, Daemon, Payload, PhaseResult, Planned};
use crate::staged;
use crate::stats::{median, quantile};
use ds_obs::trace::{self, Trace};
use ds_passivity_suite::circuits::generators::CircuitModel;
use ds_passivity_suite::harness::store::ResultStore;
use ds_passivity_suite::harness::sweep::TaskStatus;
use ds_passivity_suite::harness::{Method, SweepRecord};
use ds_passivity_suite::netlist::parse_deck;
use ds_passivity_suite::shh::krylov::ReduceSpec;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Names of the workloads, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["table1-dense", "reduce-10k", "serve-mixed"];

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// State order of the table1-dense decks (compact-WY kernels active).
const TABLE1_ORDER: usize = 100;
/// Cases in the table1-dense pool (one in four non-passive).
const TABLE1_POOL: usize = 16;
/// Ladder sections of the reduce-10k decks: state order 2·5000 + 1.
const REDUCE_SECTIONS: usize = 5000;
/// Decks in the reduce-10k pool.
const REDUCE_POOL: usize = 4;
/// Reduced models the reduce-10k baseline checks.
const REDUCED_MODELS: usize = 2;
/// Open-loop arrival rate of every daemon stream, requests per second.
const SERVE_RATE: f64 = 200.0;
/// Generated decks in the serve-mixed hot set (plus the example corpus).
const HOT_GENERATED: usize = 60;
/// In-memory cache entries of the daemon: about half the hot set.
const DAEMON_CACHE: usize = 32;
/// State orders of the generated serve decks: hot decks vary, fresh decks
/// (the ones the daemon computes) all have the largest order.
const HOT_MIN_ORDER: usize = 8;
const FRESH_ORDER: usize = 16;
/// Back-to-back checks per timed sample of a small (order-16) deck.
const SMALL_BATCH: usize = 16;
/// State order of the LMI baseline's single traced check.
const LMI_ORDER: usize = 12;
/// Share of serve-mixed's seconds given to its mixed stream; the rest goes
/// to its in-process checks.
const MAIN_SHARE: f64 = 0.75;
/// reduce-10k's main share: its checks are slow, its p90 needs samples.
const REDUCE_MAIN_SHARE: f64 = 0.8;
/// table1-dense's main share: its checks are quick, and its control
/// stream needs four p99 windows to ride out a disturbed one.
const TABLE1_MAIN_SHARE: f64 = 0.5;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The release `ds-serve` binary.
    pub serve_bin: PathBuf,
    /// The release `ds-trace` binary, to prove the trace renders.
    pub trace_bin: Option<PathBuf>,
    /// Checkout root (holds `examples/decks`).
    pub root: PathBuf,
    /// Scratch directory for stores and traces.
    pub out_dir: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (the benchmark cannot run); wrong verdicts and failed
/// requests are counted in the report instead.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    match args.workload.as_str() {
        "table1-dense" => table1_dense(args),
        "reduce-10k" => reduce_10k(args),
        "serve-mixed" => serve_mixed(args),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}

/// One in-process operation: a case through one method, `repeat` times
/// back to back (small cases are timed in batches, so a sample is not
/// dwarfed by the calibration kernel around it; its cost is per check).
#[derive(Clone)]
struct Op {
    case: Arc<Case>,
    method: Method,
    reduce: bool,
    repeat: usize,
}

impl Op {
    fn check(&self) -> ds_passivity_suite::PassivityCheck {
        let check = self.case.check(self.method);
        match self.reduce {
            true => check.reduce(ReduceSpec::default()),
            false => check,
        }
    }
}

/// Calibrated costs and raw times of an in-process phase.
#[derive(Default)]
struct Costs {
    proposed: Vec<f64>,
    weierstrass: Vec<f64>,
    raw_proposed_ms: Vec<f64>,
    raw_weierstrass_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    runq_ms: f64,
    /// Index into the plan of the next operation.
    next: usize,
}

impl Costs {
    fn ops(&self) -> usize {
        self.proposed.len() + self.weierstrass.len()
    }
}

/// Runs `plan` round-robin for `seconds` (and until both methods have a
/// sample), continuing where the last call on `costs` stopped, checking
/// every verdict against ground truth.
fn run_ops(
    cal: &mut Calibrator,
    plan: &[Op],
    seconds: f64,
    report: &mut Report,
    costs: &mut Costs,
) {
    let window = SchedWindow::open();
    let start = Instant::now();
    cal.reset();
    while start.elapsed().as_secs_f64() < seconds
        || costs.proposed.is_empty()
        || costs.weierstrass.is_empty()
    {
        let op = &plan[costs.next % plan.len()];
        costs.next += 1;
        let checks: Vec<_> = (0..op.repeat).map(|_| op.check()).collect();
        let (results, raw_s, cost) =
            cal.measure(|| checks.into_iter().map(|c| c.run()).collect::<Vec<_>>());
        let mut all_ok = true;
        for result in results {
            match result {
                Ok(o) if o.status == TaskStatus::Ok && o.passive == Some(op.case.passive) => {
                    report.ok()
                }
                Ok(o) => {
                    all_ok = false;
                    report.fail(format!(
                        "{} via {}: passive={:?} ({}), expected {}",
                        op.case.kind, op.method, o.passive, o.reason, op.case.passive
                    ))
                }
                Err(e) => {
                    all_ok = false;
                    report.fail(format!("{} via {}: {e}", op.case.kind, op.method))
                }
            }
        }
        if all_ok {
            let (samples, raw) = match op.method {
                Method::Weierstrass => (&mut costs.weierstrass, &mut costs.raw_weierstrass_ms),
                _ => (&mut costs.proposed, &mut costs.raw_proposed_ms),
            };
            samples.push(cost / op.repeat as f64);
            raw.push(raw_s * 1e3 / op.repeat as f64);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (cpu_share, runq_ms) = window.close();
    costs.wall_s += wall_s;
    costs.cpu_s += cpu_share * wall_s;
    costs.runq_ms += runq_ms;
}

/// Rounds of an in-process workload: its checks and its control stream
/// alternate, so a slow spell of the host touches both alike.
const ROUNDS: usize = 4;

/// The in-process checks for `main_s` and the control stream for `side_s`,
/// in [`ROUNDS`] alternating rounds.
fn checks_and_control(
    cal: &mut Calibrator,
    plan: &[Op],
    control: &Control,
    seed: u64,
    (main_s, side_s): (f64, f64),
    report: &mut Report,
) -> (Costs, PhaseResult) {
    let mut costs = Costs::default();
    let mut phase = PhaseResult::default();
    for round in 0..ROUNDS {
        run_ops(cal, plan, main_s / ROUNDS as f64, report, &mut costs);
        phase.absorb(control.phase(seed, round, side_s / ROUNDS as f64));
    }
    (costs, phase)
}

/// Runs each op once, untimed, and insists on the right verdict.
fn warm_up(plan: &[Op]) -> Result<(), String> {
    for op in plan {
        let outcome = op
            .check()
            .run()
            .map_err(|e| format!("warm-up {}: {e}", op.case.kind))?;
        if outcome.passive != Some(op.case.passive) {
            return Err(format!(
                "warm-up {} via {}: passive={:?} ({})",
                op.case.kind, op.method, outcome.passive, outcome.reason
            ));
        }
    }
    Ok(())
}

/// Both methods on every case, alternating which goes first.
fn both_methods(cases: &[Arc<Case>], repeat: usize) -> Vec<Op> {
    let mut plan = Vec::with_capacity(2 * cases.len());
    for (i, case) in cases.iter().enumerate() {
        let mut pair = [Method::Proposed, Method::Weierstrass];
        if i % 2 == 1 {
            pair.reverse();
        }
        for method in pair {
            plan.push(Op {
                case: Arc::clone(case),
                method,
                reduce: false,
                repeat,
            });
        }
    }
    plan
}

/// Sets the cost figures of an untimed-phase result.
fn set_costs(report: &mut Report, costs: &Costs, traced: bool) {
    if traced {
        report.set("raw.proposed_ms_p50", median(&costs.raw_proposed_ms));
        report.set("raw.weierstrass_ms_p50", median(&costs.raw_weierstrass_ms));
        report.set("raw.checks_per_s", costs.ops() as f64 / costs.wall_s);
        report.set("bench.cpu_share", costs.cpu_s / costs.wall_s);
        report.set(
            "bench.runq_wait_ms",
            costs.runq_ms / costs.ops().max(1) as f64,
        );
    } else {
        report.set("proposed_cost_p50", median(&costs.proposed));
        report.set("proposed_cost_p90", quantile(&costs.proposed, 0.9));
        report.set("weierstrass_cost_p50", median(&costs.weierstrass));
        report.set("weierstrass_cost_p90", quantile(&costs.weierstrass, 0.9));
    }
}

/// Counts a daemon phase's requests into the report.
fn count_phase(report: &mut Report, phase: &PhaseResult) {
    report.attempted += phase.due;
    report.failed += phase.failed;
    for note in &phase.notes {
        if report.notes.len() < 8 {
            report.notes.push(note.clone());
        }
    }
}

/// Sets the serve figures of a daemon phase.  The p99 is a per-layer
/// figure: host disturbances move it too much to bound it (see
/// `METRICS.md`).
fn set_serve(report: &mut Report, phase: &PhaseResult, view: &serve::ServerView, traced: bool) {
    let summary = phase.summary();
    if traced {
        report.set("serve_p99_ms", summary.p99_ms);
        let due = phase.due.max(1) as f64;
        report.set(
            "serve.accept_wait_ms_p50",
            median(&phase.service_ms) - view.check_p50_ms,
        );
        report.set("serve.hit_share", phase.tiers[0] as f64 / due);
        report.set("serve.store_hit_share", phase.tiers[1] as f64 / due);
        report.set("serve.miss_share", phase.tiers[2] as f64 / due);
        report.set("serve.queue_wait_ms_p50", view.queue_wait_p50_ms);
        report.set("serve.server_check_ms_p50", view.check_p50_ms);
        report.set("serve.connect_ms_p50", median(&phase.connect_ms));
        report.set(
            "serve.rejected_429",
            phase.rejected.max(view.rejected as u64) as f64,
        );
        report.set("bench.gen_lag_ms_p99", quantile(&phase.lag_ms, 0.99));
    } else {
        report.set("serve_p50_ms", summary.p50_ms);
        report.set("serve_ok_share", summary.ok_share);
    }
}

/// Daemon workers: the client thread takes one CPU, the workers the rest.
fn daemon_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// The repository's example decks, with their ground truth and hash.
fn corpus(root: &Path) -> Result<Vec<Arc<Payload>>, String> {
    let dir = root.join("examples").join("decks");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cir"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let deck = parse_deck(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Arc::new(Payload {
                passive: deck.expected_passive(),
                hash: deck.content_hash(),
                text: text.into(),
            }))
        })
        .collect()
}

fn payload(case: &Case) -> Arc<Payload> {
    let text = case.text().expect("serve cases are decks");
    Arc::new(Payload {
        passive: case.passive,
        hash: decks::deck_hash(text),
        text: text.into(),
    })
}

/// Sends every payload once and checks the reply (status, verdict, hash).
fn prime(daemon: &Daemon, payloads: &[Arc<Payload>]) -> Result<(), String> {
    let plan: Vec<Planned> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| Planned {
            due_s: i as f64 * 0.002,
            class: Class::Fresh,
            payload: Arc::clone(p),
        })
        .collect();
    let phase = serve::run_open_loop(&daemon.addr, &plan, 0.0);
    match phase.notes.first() {
        Some(note) => Err(format!("priming the daemon: {note}")),
        None => Ok(()),
    }
}

/// The control stream of the in-process workloads: a daemon that has
/// answered every example deck once, then repeats of them (cache hits).
struct Control {
    daemon: Daemon,
    corpus: Vec<Arc<Payload>>,
}

impl Control {
    fn boot(args: &Args, tag: usize) -> Result<Control, String> {
        let store = args.out_dir.join(format!("store-control-{tag}"));
        let daemon = Daemon::boot(&args.serve_bin, &store, daemon_workers(), DAEMON_CACHE)?;
        let corpus = corpus(&args.root)?;
        prime(&daemon, &corpus)?;
        Ok(Control { daemon, corpus })
    }

    fn phase(&self, seed: u64, round: usize, seconds: f64) -> PhaseResult {
        let mut rng = Rng::new(seed, 7 + round as u64);
        let plan = serve::poisson_schedule(&mut rng, SERVE_RATE, seconds, |rng| {
            (
                Class::Hot,
                Arc::clone(&self.corpus[rng.below(self.corpus.len())]),
            )
        });
        serve::run_open_loop(&self.daemon.addr, &plan, 0.0)
    }
}

/// Kernel time of the reference host `setup_s` is expressed on.
const REFERENCE_KERNEL_S: f64 = 0.010;

/// Runs `make` [`SETUP_REPEATS`] times, keeping the last result; returns it
/// with the median set-up time.  Set-up is CPU-bound work (deck generation,
/// warm-up checks), so each wall time is calibrated like a check and
/// expressed in seconds on a reference host whose kernel takes
/// [`REFERENCE_KERNEL_S`]: raw set-up times of one build drift by half
/// between runs with the host's speed.
fn repeated_setup<T>(
    cal: &mut Calibrator,
    mut make: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        drop(kept.take()); // stops the previous repeat's daemon first
        cal.reset();
        let (made, _, cost) = cal.measure(|| make(rep));
        kept = Some(made?);
        times.push(cost * REFERENCE_KERNEL_S);
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Seconds of a run's main and side phases; a traced run spends half its
/// time untraced and half traced.
fn phase_seconds(args: &Args, main_share: f64) -> (f64, f64) {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    (budget * main_share, budget * (1.0 - main_share))
}

fn table1_dense(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut cal = Calibrator::default();
    let ((cases, control), setup_s) = repeated_setup(&mut cal, |rep| {
        let cases: Vec<Arc<Case>> = decks::table1_pool(args.seed, TABLE1_ORDER, TABLE1_POOL)
            .into_iter()
            .map(Arc::new)
            .collect();
        let first_bad = cases
            .iter()
            .position(|c| !c.passive)
            .expect("pool has non-passive cases");
        let first_good = cases
            .iter()
            .position(|c| c.passive)
            .expect("pool has passive cases");
        warm_up(&both_methods(
            &[
                Arc::clone(&cases[first_good]),
                Arc::clone(&cases[first_bad]),
            ],
            1,
        ))?;
        Ok((cases, Control::boot(args, rep)?))
    })?;
    let plan = both_methods(&cases, 1);
    let seconds = phase_seconds(args, TABLE1_MAIN_SHARE);
    let (costs, phase) =
        checks_and_control(&mut cal, &plan, &control, args.seed, seconds, &mut report);
    count_phase(&mut report, &phase);
    set_costs(&mut report, &costs, args.trace);
    let view = serve::server_view(&control.daemon.addr)?;
    set_serve(&mut report, &phase, &view, args.trace);
    control.daemon.shutdown()?;
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
        return Ok(report);
    }
    report.set(
        "passivity.table1_ratio",
        median(&costs.proposed) / median(&costs.weierstrass),
    );
    let mut book = TraceBook::new(args);
    let traced = traced_dense(
        &mut cal,
        &cases,
        true,
        1,
        args.seconds / 2.0,
        &mut book,
        &mut report,
    );
    report.set(
        "obs.trace_overhead_share",
        (median(&traced) - median(&costs.proposed)) / median(&costs.proposed),
    );
    lmi_check(args.seed, &mut book, &mut report);
    report.set("bench.cal_ms", cal.median_ms());
    book.finish(&mut report, counters("table1-dense", args.seed)?);
    Ok(report)
}

fn reduce_10k(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut cal = Calibrator::default();
    let ((decks, models, control), setup_s) = repeated_setup(&mut cal, |rep| {
        let decks: Vec<Arc<Case>> = decks::reduce_pool(args.seed, REDUCE_SECTIONS, REDUCE_POOL)
            .into_iter()
            .map(Arc::new)
            .collect();
        let models = decks[..REDUCED_MODELS]
            .iter()
            .map(|case| reduced_model(case).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((decks, models, Control::boot(args, rep)?))
    })?;
    let mut plan = Vec::new();
    for (i, deck) in decks.iter().enumerate() {
        plan.push(Op {
            case: Arc::clone(deck),
            method: Method::Proposed,
            reduce: true,
            repeat: 1,
        });
        for j in 0..REDUCED_MODELS {
            plan.push(Op {
                case: Arc::clone(&models[(i + j) % REDUCED_MODELS]),
                method: Method::Weierstrass,
                reduce: false,
                repeat: 1,
            });
        }
    }
    let seconds = phase_seconds(args, REDUCE_MAIN_SHARE);
    let (costs, phase) =
        checks_and_control(&mut cal, &plan, &control, args.seed, seconds, &mut report);
    count_phase(&mut report, &phase);
    set_costs(&mut report, &costs, args.trace);
    let view = serve::server_view(&control.daemon.addr)?;
    set_serve(&mut report, &phase, &view, args.trace);
    control.daemon.shutdown()?;
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
        return Ok(report);
    }
    let mut book = TraceBook::new(args);
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds / 2.0 || i == 0 {
        let deck = &decks[i % decks.len()];
        let text = deck.text().expect("reduce cases are decks");
        trace::begin(&book.id(i, "reduce"));
        let run = staged::reduce_then_verify(text);
        book.push(trace::end());
        let staged_ms = book.last_root_ms();
        book.note_parse(text.len());
        let check = deck.check(Method::Proposed).reduce(ReduceSpec::default());
        let id = book.id(i, "pipeline");
        let pipeline = traced_pipeline(&mut cal, &mut book, &id, check, 1);
        match (run, pipeline) {
            (Err(e), _) => report.fail(format!("traced reduce: {e}")),
            (_, (Err(e), _, _)) => report.fail(format!("pipeline reduce: {e}")),
            (Ok(run), (Ok(outcome), pipeline_ms, cost)) => {
                traced.push(cost);
                agree(&mut report, deck, &run.verdict, &outcome);
                book.overhead_ms.push(pipeline_ms - staged_ms);
                if let Some(a44) = &run.proposed.a44 {
                    book.kernels(i, a44, &mut report);
                }
            }
        }
        trace::begin(&book.id(i, "sparse_lu"));
        if let Err(e) = staged::sparse_lu_probe(text) {
            report.fail(format!("sparse LU probe: {e}"));
        }
        book.push(trace::end());
        let model = &models[i % models.len()];
        book.weierstrass(i, model, &mut report);
        i += 1;
    }
    report.set(
        "obs.trace_overhead_share",
        (median(&traced) - median(&costs.proposed)) / median(&costs.proposed),
    );
    report.set("bench.cal_ms", cal.median_ms());
    book.finish(&mut report, counters("reduce-10k", args.seed)?);
    Ok(report)
}

/// Sparse stamp and PRIMA reduction of a reduce-10k deck: the model the
/// reduce path hands the dense check, as a case of its own.
fn reduced_model(case: &Case) -> Result<Case, String> {
    let text = case.text().expect("reduce cases are decks");
    let run = staged::reduce_then_verify(text)?;
    if !run.verdict.passive {
        return Err("a reduced passive ladder was found non-passive".into());
    }
    Ok(Case {
        kind: "reduced_ladder_model",
        passive: true,
        source: Source::Model(Box::new(CircuitModel {
            name: "reduced_ladder".into(),
            system: run.reduced,
            expected_passive: true,
            has_impulsive_modes: false,
        })),
    })
}

/// The serve-mixed traffic: hot set, reformatted repeats and the schedule.
struct Traffic {
    daemon: Daemon,
    plan: Vec<Planned>,
    fresh: Vec<Arc<Case>>,
}

fn serve_traffic(args: &Args, tag: usize, seconds: f64) -> Result<Traffic, String> {
    let mut seen = HashSet::new();
    let mut hot = corpus(&args.root)?;
    seen.extend(hot.iter().map(|p| p.hash));
    let mut rng = Rng::new(args.seed, 3);
    let corpus_len = hot.len();
    while hot.len() < corpus_len + HOT_GENERATED {
        let p = payload(&decks::small_deck(&mut rng, HOT_MIN_ORDER, FRESH_ORDER));
        if seen.insert(p.hash) {
            hot.push(p);
        }
    }
    let reformatted: Vec<Arc<Payload>> = hot
        .iter()
        .map(|p| {
            Arc::new(Payload {
                text: decks::reformat(&p.text).into(),
                passive: p.passive,
                hash: p.hash,
            })
        })
        .collect();
    let mut fresh = Vec::new();
    let mut fresh_rng = Rng::new(args.seed, 5);
    let mut rng = Rng::new(args.seed, 4);
    let plan = serve::poisson_schedule(&mut rng, SERVE_RATE, seconds, |rng| {
        let u = rng.unit();
        if u < 0.75 {
            (Class::Hot, Arc::clone(&hot[rng.below(hot.len())]))
        } else if u < 0.85 {
            (
                Class::Reformatted,
                Arc::clone(&reformatted[rng.below(hot.len())]),
            )
        } else {
            loop {
                let case = decks::small_deck(&mut fresh_rng, FRESH_ORDER, FRESH_ORDER);
                let p = payload(&case);
                if seen.insert(p.hash) {
                    fresh.push(Arc::new(case));
                    return (Class::Fresh, p);
                }
            }
        }
    });
    let store = args.out_dir.join(format!("store-serve-{tag}"));
    let daemon = Daemon::boot(&args.serve_bin, &store, daemon_workers(), DAEMON_CACHE)?;
    prime(&daemon, &hot)?;
    Ok(Traffic {
        daemon,
        plan,
        fresh,
    })
}

fn serve_mixed(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (main_s, side_s) = phase_seconds(args, MAIN_SHARE);
    let stream_s = if args.trace { 2.0 * main_s } else { main_s };
    let mut cal = Calibrator::default();
    let (traffic, setup_s) = repeated_setup(&mut cal, |rep| serve_traffic(args, rep, stream_s))?;
    let split = traffic.plan.partition_point(|p| p.due_s < main_s);
    let phase = serve::run_open_loop(&traffic.daemon.addr, &traffic.plan[..split], 0.0);
    count_phase(&mut report, &phase);
    let view = serve::server_view(&traffic.daemon.addr)?;
    set_serve(&mut report, &phase, &view, args.trace);
    let sent = traffic.plan[..split]
        .iter()
        .filter(|p| p.class == Class::Fresh)
        .count();
    if traffic.fresh.is_empty() {
        return Err("the schedule holds no fresh deck; run longer".into());
    }
    let fresh: Vec<Arc<Case>> = traffic.fresh[..sent.clamp(1, traffic.fresh.len())].to_vec();
    let mut costs = Costs::default();
    let plan = both_methods(&fresh, SMALL_BATCH);
    run_ops(&mut cal, &plan, side_s, &mut report, &mut costs);
    set_costs(&mut report, &costs, args.trace);
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set(
            "peak_rss_mb",
            peak_rss_mb(Some(traffic.daemon.pid())).unwrap_or(0.0),
        );
        traffic.daemon.shutdown()?;
        return Ok(report);
    }
    let mut book = TraceBook::new(args);
    trace::begin(&format!("{}-client", book.prefix));
    let traced_phase = serve::run_open_loop(&traffic.daemon.addr, &traffic.plan[split..], main_s);
    book.push(trace::end());
    count_phase(&mut report, &traced_phase);
    // The daemon keeps its last 256 traces; every tenth request was
    // sampled, so the last 20 samples are still in its ring.
    let tail = traced_phase.sampled_traces.len().saturating_sub(20);
    for id in &traced_phase.sampled_traces[tail..] {
        match serve::request(&traffic.daemon.addr, "GET", &format!("/trace/{id}"), b"") {
            Ok(reply) if reply.status == 200 => book.daemon_jsonl.push(reply.body),
            Ok(reply) => report.fail(format!("/trace/{id}: status {}", reply.status)),
            Err(e) => report.fail(format!("/trace/{id}: {e}")),
        }
    }
    traffic.daemon.shutdown()?;
    let traced = traced_dense(
        &mut cal,
        &traffic.fresh,
        false,
        SMALL_BATCH,
        side_s,
        &mut book,
        &mut report,
    );
    report.set(
        "obs.trace_overhead_share",
        (median(&traced) - median(&costs.proposed)) / median(&costs.proposed),
    );
    report.set("bench.cal_ms", cal.median_ms());
    book.finish(&mut report, counters("serve-mixed", args.seed)?);
    Ok(report)
}

/// Wall time of `f` in milliseconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the pipeline's own check, calibrated, with a trace collector armed
/// (so the pipeline records its spans): the traced counterpart of the
/// untraced costs.  Returns the outcome, raw ms and calibrated cost.
fn traced_pipeline(
    cal: &mut Calibrator,
    book: &mut TraceBook,
    id: &str,
    check: ds_passivity_suite::PassivityCheck,
    repeat: usize,
) -> (
    Result<ds_passivity_suite::CheckOutcome, ds_passivity_suite::SuiteError>,
    f64,
    f64,
) {
    let checks: Vec<_> = (0..repeat).map(|_| check.clone()).collect();
    trace::begin(id);
    cal.reset();
    let (outcomes, raw_s, cost) =
        cal.measure(|| checks.into_iter().map(|c| c.run()).collect::<Vec<_>>());
    book.push(trace::end());
    // Every run checks the same input; the last outcome stands for all.
    let outcome = outcomes.into_iter().last().expect("at least one run");
    (outcome, raw_s * 1e3 / repeat as f64, cost / repeat as f64)
}

/// Compares a replica's verdict with the pipeline's and with ground truth.
fn agree(
    report: &mut Report,
    case: &Case,
    staged: &staged::Verdict,
    outcome: &ds_passivity_suite::CheckOutcome,
) {
    if outcome.passive != Some(staged.passive) || outcome.reason != staged.reason {
        report.fail(format!(
            "{}: staged verdict {:?}/{} differs from the pipeline's {:?}/{}",
            case.kind, staged.passive, staged.reason, outcome.passive, outcome.reason
        ));
    } else if staged.passive != case.passive {
        report.fail(format!(
            "{}: staged verdict passive={}",
            case.kind, staged.passive
        ));
    } else {
        report.ok();
    }
}

/// The traced phase of the dense cases: staged replicas of both methods
/// under spans (the proposed one calibrated), each compared with the
/// pipeline's verdict; kernel probes on the regularized Hamiltonian.
/// Returns the calibrated costs of the traced proposed replicas.
fn traced_dense(
    cal: &mut Calibrator,
    cases: &[Arc<Case>],
    probe_kernels: bool,
    repeat: usize,
    seconds: f64,
    book: &mut TraceBook,
    report: &mut Report,
) -> Vec<f64> {
    let mut traced = Vec::new();
    let start = Instant::now();
    cal.reset();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i == 0 {
        let case = &cases[i % cases.len()];
        // The pipeline runs before the replica on odd rounds, after it on
        // even ones, so warm caches favour neither in the overhead figure.
        let id = book.id(i, "pipeline");
        let early = (i % 2 == 1)
            .then(|| traced_pipeline(cal, book, &id, case.check(Method::Proposed), repeat));
        trace::begin(&book.id(i, "proposed"));
        cal.reset();
        let (run, _, _) = cal.measure(|| {
            let sys = match &case.source {
                Source::Deck(text) => staged::parse_and_stamp(text)?,
                Source::Model(model) => model.system.clone(),
            };
            staged::proposed(&sys)
        });
        book.push(trace::end());
        let staged_ms = book.last_root_ms();
        if let Some(text) = case.text() {
            book.note_parse(text.len());
        }
        let (outcome, pipeline_ms, cost) = early.unwrap_or_else(|| {
            traced_pipeline(cal, book, &id, case.check(Method::Proposed), repeat)
        });
        match (run, outcome) {
            (Ok(run), Ok(outcome)) => {
                traced.push(cost);
                agree(report, case, &run.verdict, &outcome);
                book.overhead_ms.push(pipeline_ms - staged_ms);
                if let Some(record) = outcome.record {
                    book.records.push(record);
                }
                if let (true, Some(a44)) = (probe_kernels && case.passive, &run.a44) {
                    book.kernels(i, a44, report);
                }
            }
            (Err(e), _) => report.fail(format!("traced {}: {e}", case.kind)),
            (_, Err(e)) => report.fail(format!("pipeline {}: {e}", case.kind)),
        }
        book.weierstrass(i, case, report);
        i += 1;
    }
    cal.reset();
    traced
}

/// One traced LMI check on a small Table-1 deck.
fn lmi_check(seed: u64, book: &mut TraceBook, report: &mut Report) {
    let mut rng = Rng::new(seed, 6);
    let netlist = decks::table1_netlist(LMI_ORDER);
    let text = ds_passivity_suite::netlist::render_netlist(&netlist, Some(true));
    let text = decks::restyle(&text, &mut rng);
    trace::begin(&book.id(0, "lmi"));
    let outcome = {
        let _s = trace::span("check_lmi");
        ds_passivity_suite::PassivityCheck::deck_text(text)
            .method(Method::Lmi)
            .run()
    };
    book.push(trace::end());
    match outcome {
        Ok(o) if o.passive == Some(true) => report.ok(),
        Ok(o) => report.fail(format!("LMI check: passive={:?} ({})", o.passive, o.reason)),
        Err(e) => report.fail(format!("LMI check: {e}")),
    }
}

/// Spans of the traced phase and what the per-layer figures need besides.
struct TraceBook {
    prefix: String,
    path: PathBuf,
    trace_bin: Option<PathBuf>,
    store_dir: PathBuf,
    traces: Vec<Trace>,
    daemon_jsonl: Vec<String>,
    overhead_ms: Vec<f64>,
    records: Vec<SweepRecord>,
    parse_mb_per_s: Vec<f64>,
    matmul_gflops: Vec<f64>,
    lu_gflops: Vec<f64>,
}

impl TraceBook {
    fn new(args: &Args) -> TraceBook {
        let prefix = format!("{}-seed{}", args.workload, args.seed);
        TraceBook {
            path: args.out_dir.join(format!("{prefix}.trace.jsonl")),
            store_dir: args.out_dir.join(format!("store-append-{prefix}")),
            prefix,
            trace_bin: args.trace_bin.clone(),
            traces: Vec::new(),
            daemon_jsonl: Vec::new(),
            overhead_ms: Vec::new(),
            records: Vec::new(),
            parse_mb_per_s: Vec::new(),
            matmul_gflops: Vec::new(),
            lu_gflops: Vec::new(),
        }
    }

    fn id(&self, i: usize, kind: &str) -> String {
        format!("{}-{i}-{kind}", self.prefix)
    }

    fn push(&mut self, trace: Option<Trace>) {
        self.traces.extend(trace);
    }

    /// Parse throughput of the last staged trace, whose deck had `bytes`.
    fn note_parse(&mut self, bytes: usize) {
        let parse = self
            .traces
            .last()
            .and_then(|t| t.spans.iter().find(|s| s.name == "parse_deck"));
        if let Some(span) = parse {
            let seconds = span.elapsed_ns.max(1) as f64 / 1e9;
            self.parse_mb_per_s
                .push(bytes as f64 / (1 << 20) as f64 / seconds);
        }
    }

    fn last_root_ms(&self) -> f64 {
        self.traces.last().map_or(0.0, |t| t.root_ns() as f64 / 1e6)
    }

    /// Dense kernel probes on `a44` under their own trace.
    fn kernels(&mut self, i: usize, a44: &ds_passivity_suite::linalg::Matrix, report: &mut Report) {
        trace::begin(&self.id(i, "kernels"));
        let probed = staged::kernel_probes(a44);
        let trace = trace::end();
        match probed {
            Ok((_, n)) => {
                // Flops computed from the dimension, not counted.
                let n = n as f64;
                if let Some(t) = &trace {
                    let ns = |name: &str| {
                        t.spans
                            .iter()
                            .find(|s| s.name == name)
                            .map(|s| s.elapsed_ns.max(1) as f64)
                    };
                    self.matmul_gflops
                        .extend(ns("matmul").map(|ns| 2.0 * n * n * n / ns));
                    self.lu_gflops
                        .extend(ns("lu_factor").map(|ns| 2.0 * n * n * n / 3.0 / ns));
                }
            }
            Err(e) => report.fail(format!("kernel probes: {e}")),
        }
        self.push(trace);
    }

    /// The traced Weierstrass replica on `case`, compared with the pipeline.
    fn weierstrass(&mut self, i: usize, case: &Case, report: &mut Report) {
        trace::begin(&self.id(i, "weierstrass"));
        let run = match &case.source {
            Source::Deck(text) => {
                staged::parse_and_stamp(text).and_then(|s| staged::weierstrass(&s))
            }
            Source::Model(model) => staged::weierstrass(&model.system),
        };
        self.push(trace::end());
        match (run, case.check(Method::Weierstrass).run()) {
            (Ok(verdict), Ok(outcome)) => agree(report, case, &verdict, &outcome),
            (Err(e), _) => report.fail(format!("traced weierstrass {}: {e}", case.kind)),
            (_, Err(e)) => report.fail(format!("pipeline weierstrass {}: {e}", case.kind)),
        }
    }

    /// Median over traces whose id ends with one of `kinds` of the summed
    /// self time (span minus its children) of spans named `name`, in ms.
    fn self_ms(&self, kinds: &[&str], name: &str) -> f64 {
        let samples: Vec<f64> = self
            .traces
            .iter()
            .filter(|t| kinds.iter().any(|k| t.id.ends_with(&format!("-{k}"))))
            .filter_map(|t| self_time_ns(t).get(name).map(|ns| *ns as f64 / 1e6))
            .collect();
        median(&samples)
    }

    /// Sets every per-layer figure the traces hold, appends store segments
    /// of the recorded outcomes, writes the trace file and renders it with
    /// the `ds-trace` binary.
    fn finish(mut self, report: &mut Report, counters: BTreeMap<&'static str, f64>) {
        const PROPOSED: &[&str] = &["proposed", "reduce"];
        for (metric, span) in [
            ("passivity.impulse_ms", "cancel_impulsive_modes"),
            ("passivity.nondynamic_ms", "remove_nondynamic_modes"),
            ("passivity.residue_ms", "extract_m1"),
            ("passivity.regularize_ms", "regularize"),
            ("passivity.split_ms", "extract_stable_part"),
            ("shh.build_phi_ms", "build_phi"),
            ("shh.pr_test_ms", "test_positive_real"),
            ("netlist.parse_ms", "parse_deck"),
            ("circuits.stamp_ms", "stamp"),
        ] {
            report.set(metric, self.self_ms(PROPOSED, span));
        }
        for (metric, kinds, span) in [
            ("descriptor.decompose_ms", "weierstrass", "decompose"),
            ("descriptor.stability_ms", "weierstrass", "is_stable"),
            ("linalg.sign_ms", "kernels", "matrix_sign_into"),
            ("linalg.schur_ms", "kernels", "real_schur"),
            ("linalg.sparse_lu_ms", "sparse_lu", "sparse_lu_factor"),
            ("shh.reduce_ms", "reduce", "reduce_prima"),
            ("circuits.stamp_sparse_ms", "reduce", "stamp_sparse"),
        ] {
            report.set(metric, self.self_ms(&[kinds], span));
        }
        // The LMI check runs through the pipeline, whose own spans nest
        // under `check_lmi`: its figure is the whole span.
        let lmi: Vec<f64> = self
            .traces
            .iter()
            .flat_map(|t| t.spans.iter().filter(|s| s.name == "check_lmi"))
            .map(|s| s.elapsed_ns as f64 / 1e6)
            .collect();
        report.set("lmi.check_ms", median(&lmi));
        report.set("linalg.matmul_gflops", median(&self.matmul_gflops));
        report.set("linalg.lu_gflops", median(&self.lu_gflops));
        report.set("netlist.parse_mb_per_s", median(&self.parse_mb_per_s));
        report.set("pipeline.overhead_ms", median(&self.overhead_ms));
        if !self.records.is_empty() {
            match append_segments(&self.store_dir, &self.records) {
                Ok(ms) => report.set("harness.store_append_ms", ms),
                Err(e) => report.fail(format!("store append: {e}")),
            }
        }
        for (name, value) in counters {
            report.set(name, value);
        }
        let mut jsonl: String = self.traces.iter().map(Trace::render_jsonl).collect();
        jsonl.extend(self.daemon_jsonl.drain(..));
        if let Err(e) = std::fs::write(&self.path, jsonl) {
            report.fail(format!("writing {}: {e}", self.path.display()));
            return;
        }
        if let Some(bin) = &self.trace_bin {
            match std::process::Command::new(bin).arg(&self.path).output() {
                Ok(out) if out.status.success() && !out.stdout.is_empty() => report.ok(),
                Ok(out) => report.fail(format!(
                    "ds-trace could not render {}: {}",
                    self.path.display(),
                    String::from_utf8_lossy(&out.stderr)
                )),
                Err(e) => report.fail(format!("running ds-trace: {e}")),
            }
        }
    }
}

/// Self time per span name: each span's duration minus its children's.
fn self_time_ns(trace: &Trace) -> BTreeMap<&str, u64> {
    let mut children_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            *children_ns.entry(parent).or_default() += span.elapsed_ns;
        }
    }
    let mut out: BTreeMap<&str, u64> = BTreeMap::new();
    for span in &trace.spans {
        let own = span
            .elapsed_ns
            .saturating_sub(children_ns.get(&span.seq).copied().unwrap_or(0));
        *out.entry(span.name.as_str()).or_default() += own;
    }
    out
}

/// Median wall time of appending the records as one store segment, over
/// five appends to a fresh store, in ms.
fn append_segments(dir: &Path, records: &[SweepRecord]) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ResultStore::open(dir)?;
    let mut times = Vec::new();
    for i in 0..5 {
        let (result, ms) = timed(|| store.append_segment(&format!("calbench-{i}"), records));
        result?;
        times.push(ms);
    }
    Ok(median(&times))
}

/// The deterministic counters of a workload on `seed`: allocations of one
/// steady-state check per method (the second of two on a fresh thread, so
/// the thread-local workspace pools are warm and nothing else allocates on
/// that thread), sign iterations, the proper Φ order and, for the reduce
/// path, the sparse structure and the reduction.  Same seed, same values.
///
/// # Errors
///
/// Failed checks.
pub fn counters(workload: &str, seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let workload = workload.to_string();
    std::thread::scope(|scope| {
        scope
            .spawn(move || counters_on_this_thread(&workload, seed))
            .join()
            .map_err(|_| "counter thread panicked".to_string())?
    })
}

fn steady_allocs(op: impl Fn() -> Result<(), String>) -> Result<(u64, u64), String> {
    op()?;
    let (result, count, bytes) = alloc::counted(&op);
    result.map(|()| (count, bytes))
}

fn check_allocs(case: &Case, method: Method, reduce: bool) -> Result<(u64, u64), String> {
    steady_allocs(|| {
        let mut check = case.check(method);
        if reduce {
            check = check.reduce(ReduceSpec::default());
        }
        let outcome = check.run().map_err(|e| e.to_string())?;
        match outcome.passive == Some(case.passive) {
            true => Ok(()),
            false => Err(format!(
                "{}: wrong verdict {:?}",
                case.kind, outcome.passive
            )),
        }
    })
}

fn counters_on_this_thread(
    workload: &str,
    seed: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let dense_case = match workload {
        "table1-dense" => decks::table1_pool(seed, TABLE1_ORDER, TABLE1_POOL)
            .into_iter()
            .find(|c| c.passive && c.text().is_some()),
        "serve-mixed" => {
            let mut rng = Rng::new(seed, 5);
            std::iter::repeat_with(|| decks::small_deck(&mut rng, FRESH_ORDER, FRESH_ORDER))
                .find(|c| c.passive)
        }
        "reduce-10k" => {
            let deck = decks::reduce_pool(seed, REDUCE_SECTIONS, 1).remove(0);
            let (count, bytes) = check_allocs(&deck, Method::Proposed, true)?;
            out.insert("alloc.reduce_per_check", count as f64);
            out.insert("alloc.mb_per_check", mb(bytes));
            let run = staged::reduce_then_verify(deck.text().expect("deck"))?;
            out.insert("circuits.nnz", run.nnz as f64);
            out.insert("shh.reduced_order", run.reduced_order as f64);
            out.insert("shh.reduce_residual", run.residual);
            Some(reduced_model(&deck)?)
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    let case = dense_case.ok_or("no passive case among the inputs")?;
    let (count, bytes) = check_allocs(&case, Method::Proposed, false)?;
    out.insert("alloc.proposed_per_check", count as f64);
    out.entry("alloc.mb_per_check").or_insert(mb(bytes));
    let (count, _) = check_allocs(&case, Method::Weierstrass, false)?;
    out.insert("alloc.weierstrass_per_check", count as f64);
    let sys = match &case.source {
        Source::Deck(text) => staged::parse_and_stamp(text)?,
        Source::Model(model) => model.system.clone(),
    };
    let run = staged::proposed(&sys)?;
    out.insert("passivity.proper_phi_order", run.proper_phi_order as f64);
    let a44 = run
        .a44
        .ok_or("the proposed flow stopped before regularizing")?;
    out.insert("linalg.sign_iters", staged::kernel_probes(&a44)?.0 as f64);
    Ok(out)
}
