//! `imcis_perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <served-table1|imcis-search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! traced run that yields the per-layer metrics (see `README.md`). The
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero whenever a job failed or an output check did not hold.

mod layers;
mod manifests;
mod stack;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use imcis_perfbench::stats::{self, ClosedLoop, JobStatus};
use imcis_perfbench::trace::{self, Recorder, Span};

use stack::Stack;
use workloads::{ImcisSearch, ServedTable1};

/// Set-up runs in two rounds, one before the timed phase and one after
/// it, so its samples span the whole run rather than one moment of the
/// host. Each round runs it at least `SETUP_REPS` times, and more (up to
/// `SETUP_MAX_REPS`) until `SETUP_SECONDS` have been spent, so a cheap
/// set-up gets enough samples for a steady median; `setup_s` is the
/// median of both rounds.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_SECONDS: f64 = 1.0;

/// The end-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_us", "us"),
    ("cache.hit_frac", "frac"),
    ("cache.builds", "count"),
    ("session.run_ms.smc", "ms"),
    ("session.run_ms.standard-is", "ms"),
    ("session.run_ms.zero-variance", "ms"),
    ("session.run_ms.cross-entropy", "ms"),
    ("session.run_ms.imcis", "ms"),
    ("report.serialize_us", "us"),
    ("report.bytes", "bytes"),
    ("json.parse_us", "us"),
    ("json.parse_mb_per_s", "MB/s"),
    ("serve.inprocess_ms", "ms"),
    ("serve.direct_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.first_member_ms", "ms"),
    ("serve.rejected", "count"),
    ("router.hop_ms", "ms"),
    ("router.jobs_routed", "count"),
    ("ratio.routed_over_direct", "x"),
    ("models.build_ms.repair", "ms"),
    ("models.build_ms.repair-fleet", "ms"),
    ("models.build_ms.swat", "ms"),
    ("models.build_ms.parametric-repair", "ms"),
    ("dsl.compile_ms", "ms"),
    ("markov.csr_states_per_s", "1/s"),
    ("numeric.solve_ms", "ms"),
    ("sampling.sample_ms", "ms"),
    ("sampling.prepare_ms", "ms"),
    ("sampling.prepared_evals_per_s", "1/s"),
    ("sampling.naive_evals_per_s", "1/s"),
    ("ratio.prepared_over_naive", "x"),
    ("optim.compile_ms", "ms"),
    ("optim.search_ms", "ms"),
    ("optim.rounds", "count"),
    ("optim.useful_frac", "frac"),
    ("optim.rounds_per_s.sequential", "1/s"),
    ("optim.rounds_per_s.batched", "1/s"),
    ("ratio.batched_over_sequential", "x"),
    ("sim.traces_per_s.small.t1", "1/s"),
    ("sim.traces_per_s.small.tN", "1/s"),
    ("sim.traces_per_s.large.t1", "1/s"),
    ("sim.traces_per_s.large.tN", "1/s"),
    ("sim.speedup.small", "x"),
    ("sim.speedup.large", "x"),
    ("sim.steps_per_trace", "count"),
    ("trace.overhead_frac", "frac"),
    ("env.nproc", "count"),
    ("env.tail_percentile", "pct"),
    ("env.tail_samples", "count"),
];

/// Metric values under construction. The first value put under a name
/// wins, so workload-specific sources go in before the generic probes.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `value` under `name` unless a value is already there.
    pub fn put(&mut self, name: &str, value: f64) {
        if self.get(name).is_none() && value.is_finite() {
            self.rows.push((name.to_string(), value));
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One benchmark workload: how to set it up, run one job, and check the
/// outputs afterwards.
pub trait Workload: Sized + Sync {
    /// Per-connection (or per-caller) state, owned by one load thread.
    type Client: Send;
    /// What a job leaves behind for the untimed output checks.
    type Output: Send;

    /// Binds servers, builds the manifests, connects the clients and
    /// runs one warm-up job: everything timed as `setup_s`.
    fn setup(seed: u64) -> Result<(Self, Vec<Self::Client>), String>;

    /// Runs one job; spans and counts go to `rec` (a no-op when the
    /// phase is untraced).
    fn job(
        &self,
        client: &mut Self::Client,
        job: u64,
        rec: &mut Recorder,
    ) -> (JobStatus, Option<Self::Output>);

    /// The untimed output checks: returns `(job index, reason)` for
    /// every job whose output is wrong.
    fn check(
        &self,
        seed: u64,
        clients: &mut [Self::Client],
        outputs: &[Option<Self::Output>],
    ) -> Vec<(usize, String)>;

    /// The traced run's layer pass: re-runs a sample of this workload's
    /// own inputs call by call under spans. Returns failed checks.
    fn layers(&self, rec: &mut Recorder, metrics: &mut Metrics) -> Result<Vec<String>, String>;

    /// The serving stack, for workloads that run one.
    fn stack(&self) -> Option<&Stack> {
        None
    }

    /// Stops what `setup` started.
    fn close(self, clients: Vec<Self::Client>) -> Result<(), String>;
}

/// The outcome of one closed-loop phase.
pub struct Phase<O> {
    /// Every attempted job, in client order.
    pub ledger: ClosedLoop,
    /// Job outputs, index-aligned with the ledger.
    pub outputs: Vec<Option<O>>,
    /// Merged spans of every client.
    pub spans: Vec<Span>,
    /// Merged counts of every client.
    pub notes: Vec<(String, f64)>,
}

/// Runs a closed loop for `seconds`: every client issues its next job as
/// soon as the previous one returns. Jobs started before the deadline
/// finish and count; the phase ends when the last one does.
fn closed_loop<W: Workload>(
    workload: &W,
    clients: &mut [W::Client],
    seconds: f64,
    traced: bool,
    origin: Instant,
    job_base: u64,
) -> Phase<W::Output> {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let drive = |c: usize, client: &mut W::Client| {
        let mut rec = Recorder::new(origin, traced);
        let mut ledger = ClosedLoop::new();
        let mut outputs = Vec::new();
        let mut seq = 0u64;
        while Instant::now() < deadline {
            let id = job_base + ((c as u64) << 32) + seq;
            let started = Instant::now();
            let (status, output) = rec.span("job", id, |rec| workload.job(client, id, rec));
            ledger.record(
                status,
                started.elapsed().as_secs_f64() * 1e3,
                start.elapsed().as_secs_f64(),
            );
            outputs.push(output);
            seq += 1;
        }
        (ledger, outputs, rec.into_parts())
    };
    // A lone caller runs on this thread, the one that ran set-up and the
    // warm-up job, so both use the same allocator arena and the peak RSS
    // does not depend on which thread built what.
    let per_client = match clients {
        [client] => vec![drive(0, client)],
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| scope.spawn(move || drive(c, client)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect::<Vec<_>>()
        }),
    };
    let mut phase = Phase {
        ledger: ClosedLoop::new(),
        outputs: Vec::new(),
        spans: Vec::new(),
        notes: Vec::new(),
    };
    for (ledger, outputs, (spans, notes)) in per_client {
        phase.ledger.merge(ledger);
        phase.outputs.extend(outputs);
        let offset = phase.spans.len();
        phase.spans.extend(trace::rebase(spans, offset));
        phase.notes.extend(notes);
    }
    phase.ledger.set_elapsed(start.elapsed().as_secs_f64());
    phase
}

/// Runs the output checks over a phase, failing the jobs they reject.
fn check_phase<W: Workload>(
    workload: &W,
    seed: u64,
    clients: &mut [W::Client],
    phase: &mut Phase<W::Output>,
    problems: &mut Vec<String>,
) {
    for (index, reason) in workload.check(seed, clients, &phase.outputs) {
        phase.ledger.fail(index);
        problems.push(format!("job {index}: {reason}"));
    }
}

/// Puts the per-layer values read off a span set — medians of span
/// durations (self time for the leaf-level µs metrics) and of recorded
/// counts — under the metric names `keep` accepts.
pub(crate) fn span_metrics(
    spans: &[Span],
    notes: &[(String, f64)],
    out: &mut Metrics,
    keep: impl Fn(&str) -> bool,
) {
    let mut m = Metrics::default();
    span_values(spans, notes, &mut m);
    for (name, value) in m.rows {
        if keep(&name) {
            out.put(&name, value);
        }
    }
}

fn span_values(spans: &[Span], notes: &[(String, f64)], m: &mut Metrics) {
    let by = trace::by_name(spans);
    let self_us = |name: &str| by.get(name).map(|s| stats::median(&s.self_ms) * 1e3);
    let dur_ms = |name: &str| by.get(name).map(|s| stats::median(&s.durations_ms));
    for (metric, span) in [
        ("spec.parse_us", "spec.parse"),
        ("report.serialize_us", "report.serialize"),
        ("json.parse_us", "json.parse"),
    ] {
        if let Some(v) = self_us(span) {
            m.put(metric, v);
        }
    }
    let mut timed: Vec<(String, String)> = [
        "serve.accept",
        "serve.first_member",
        "dsl.compile",
        "sampling.sample",
        "optim.compile",
        "optim.search",
    ]
    .iter()
    .map(|s| (format!("{s}_ms"), s.to_string()))
    .collect();
    for method in [
        "smc",
        "standard-is",
        "zero-variance",
        "cross-entropy",
        "imcis",
    ] {
        timed.push((
            format!("session.run_ms.{method}"),
            format!("session.run.{method}"),
        ));
    }
    for kind in ["repair", "repair-fleet", "swat", "parametric-repair"] {
        timed.push((
            format!("models.build_ms.{kind}"),
            format!("models.build.{kind}"),
        ));
    }
    for (metric, span) in timed {
        if let Some(v) = dur_ms(&span) {
            m.put(&metric, v);
        }
    }
    let values = |name: &str| -> Vec<f64> {
        notes
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect()
    };
    for metric in ["report.bytes", "optim.rounds", "optim.useful_frac"] {
        let v = values(metric);
        if !v.is_empty() {
            m.put(metric, stats::median(&v));
        }
    }
    let lookups: f64 = values("cache.lookups").iter().sum();
    if lookups > 0.0 {
        let builds: f64 = values("cache.builds").iter().sum();
        m.put("cache.builds", builds);
        m.put("cache.hit_frac", 1.0 - builds / lookups);
    }
}

/// Hands freed heap pages back to the OS after a set-up is torn down, so
/// the discarded set-ups do not add to the peak resident set. Never
/// called in the timed phase: there the program's own allocator
/// behaviour is part of what `peak_rss_mb` measures.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
    // from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one run reports.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    env: Vec<(&'static str, String)>,
    spans: Vec<Span>,
}

/// One round of set-ups (see [`SETUP_REPS`]): all but the last are torn
/// down, and each set-up's time is appended to `times`.
fn set_up<W: Workload>(seed: u64, times: &mut Vec<f64>) -> Result<(W, Vec<W::Client>), String> {
    let first = times.len();
    let mut current: Option<(W, Vec<W::Client>)> = None;
    while times.len() - first < SETUP_REPS
        || (times[first..].iter().sum::<f64>() < SETUP_SECONDS
            && times.len() - first < SETUP_MAX_REPS)
    {
        // Tear the previous set-up down first: two live set-ups would
        // double the resident set and skew `peak_rss_mb`.
        if let Some((old, clients)) = current.take() {
            old.close(clients)?;
        }
        release_free_memory();
        let started = Instant::now();
        current = Some(W::setup(seed)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(current.expect("at least one set-up"))
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let (workload, mut clients) = set_up::<W>(args.seed, &mut setup_s)?;

    let mut problems = Vec::new();
    let mut metrics = Metrics::default();
    let mut untraced = closed_loop(&workload, &mut clients, args.seconds, false, origin, 0);
    check_phase(
        &workload,
        args.seed,
        &mut clients,
        &mut untraced,
        &mut problems,
    );
    let ledger = &untraced.ledger;
    let tail = ledger.tail();
    metrics.put("jobs_per_s", ledger.jobs_per_s());
    metrics.put("job_p50_ms", ledger.p50_ms());
    metrics.put(
        "job_tail_ms",
        tail.map_or_else(
            || ledger.latencies().last().copied().unwrap_or(f64::NAN),
            |t| t.value,
        ),
    );
    metrics.put("ok_frac", ledger.ok_frac());
    let (tail_pct, tail_samples) =
        tail.map_or((100.0, ledger.attempted()), |t| (t.percentile, t.samples));
    let nproc = imc_sim::parallel::available_threads();
    metrics.put("env.nproc", nproc as f64);
    metrics.put("env.tail_percentile", tail_pct);
    metrics.put("env.tail_samples", tail_samples as f64);
    let mut attempted = ledger.attempted();
    let mut failed = ledger.failed();
    let mut env = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("commit", commit()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("tail_percentile", format!("{tail_pct:.3}")),
        ("tail_samples", tail_samples.to_string()),
        ("tail_beyond", tail.map_or(0, |t| t.beyond).to_string()),
    ];

    let mut spans = Vec::new();
    // Layer-pass and probe check failures belong to no timed job; each
    // counts as one attempted, failed check.
    let mut unattributed = 0;
    if args.trace {
        let mut traced = closed_loop(&workload, &mut clients, args.seconds, true, origin, 1 << 48);
        check_phase(
            &workload,
            args.seed,
            &mut clients,
            &mut traced,
            &mut problems,
        );
        attempted += traced.ledger.attempted();
        failed += traced.ledger.failed();
        metrics.put(
            "trace.overhead_frac",
            1.0 - traced.ledger.jobs_per_s() / ledger.jobs_per_s(),
        );
        metrics.put("serve.rejected", traced.ledger.rejected() as f64);
        span_metrics(&traced.spans, &traced.notes, &mut metrics, |_| true);

        let mut layer_rec = Recorder::new(origin, true);
        let layer_problems = workload.layers(&mut layer_rec, &mut metrics)?;
        unattributed += layer_problems.len();
        problems.extend(layer_problems);
        span_metrics(layer_rec.spans(), layer_rec.notes(), &mut metrics, |_| true);

        let mut probe_rec = Recorder::new(origin, true);
        let probe_problems =
            layers::probes(args.seed, workload.stack(), &mut probe_rec, &mut metrics)?;
        unattributed += probe_problems.len();
        problems.extend(probe_problems);
        span_metrics(probe_rec.spans(), probe_rec.notes(), &mut metrics, |_| true);

        spans = traced.spans;
        for rec in [layer_rec, probe_rec] {
            let offset = spans.len();
            spans.extend(trace::rebase(rec.into_parts().0, offset));
        }
    }
    workload.close(clients)?;
    let (again, clients) = set_up::<W>(args.seed, &mut setup_s)?;
    again.close(clients)?;
    metrics.put("setup_s", stats::median(&setup_s));
    env.push((
        "setup_s_samples",
        format!(
            "{:?}",
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        ),
    ));
    // Read last: the high-water mark covers the whole run.
    metrics.put("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        metrics,
        attempted: attempted + unattributed,
        failed: failed + unattributed,
        problems,
        env,
        spans,
    })
}

/// The commit under test, when the checkout is a git repository.
fn commit() -> String {
    // Only this checkout's own history counts, never an enclosing one.
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: imcis_perfbench --workload <served-table1|imcis-search> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad `{flag}` value `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where run records go: under the cargo target directory, so a
/// checkout's tracked files are never touched.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-runs")
}

fn json_str(s: &str) -> String {
    serde::json::Value::Str(s.to_string()).to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "served-table1" => run::<ServedTable1>(&args),
        "imcis-search" => run::<ImcisSearch>(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut rows = Vec::new();
    for &(name, unit) in wanted {
        match outcome.metrics.get(name) {
            Some(value) => {
                eprintln!("{name:>36} = {value} {unit}");
                rows.push(format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                ));
            }
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        return ExitCode::FAILURE;
    }
    let env_json = outcome
        .env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        rows.join(", ")
    );

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!("{{\"env\": {{{env_json}}}, \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), &record))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.json")),
                    trace::write_json(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write run record under {}: {e}",
            dir.display()
        );
    }
    println!("{{\"env\": {{{env_json}}}}}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
