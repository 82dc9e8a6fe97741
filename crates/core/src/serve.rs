//! The serving layer: a long-running daemon that executes [`SuiteSpec`]s
//! over a shared scenario cache and streams results over TCP.
//!
//! [`Server`] turns the batch suite layer into a front end: clients
//! connect over plain TCP, `submit` a suite manifest, and receive the
//! member outcomes as newline-delimited JSON events while the suite is
//! still running, followed by the complete [`SuiteReport`]. A persistent
//! **supervised** worker pool executes member sessions from a bounded
//! job queue, and every job resolves scenarios through one process-wide
//! [`SetupCache`] — so repeated scenarios never rebuild their `Setup`,
//! even across clients and jobs (the expensive step for the
//! 40320-state `repair` model and the learned `swat` models).
//!
//! DSL workloads travel the same path: a submitted member whose
//! scenario is the `{"dsl": "<source>"}` form (see
//! [`crate::dsl`]) is compiled **server-side** through the scenario
//! registry's `dsl` entry, and the built `Setup` lands in the same
//! shared cache under the canonical `(source, params)` key — so a
//! sweep grid over one source compiles the model once per parameter
//! point and every resubmission (from any client) hits the cache. A
//! source that fails to compile is rejected at `submit` validation
//! with its spanned diagnostic, before the job is enqueued.
//!
//! Everything here is `std`-only ([`std::net`] + [`std::thread`]),
//! consistent with the workspace's vendored-shim policy: no async
//! runtime, no registry access.
//!
//! # The wire protocol (`imcis.wire/2`)
//!
//! Both directions speak **newline-delimited JSON**: every message is one
//! compact JSON object on one line, tagged `"wire": "imcis.wire/2"` and
//! `"type": ...`. `docs/FORMATS.md` is the normative field-by-field
//! reference (its examples run through [`parse_request`] and
//! [`validate_event`]); in short:
//!
//! * **Requests**: `submit` (an embedded `suite` manifest or a
//!   server-side `file`, with an optional positive `deadline_ms`
//!   enforced at member boundaries), `cancel {job_id}` (at the next
//!   member boundary), `status`, `health` (answered without touching the
//!   job queue — the [router](crate::router)'s heartbeat), `ping`, and
//!   `shutdown` (stop accepting, drain active jobs, exit).
//! * **Job events**: `accepted {job_id, members, setups_built,
//!   cache_size}`, then one `member_report` or `member_error` per member
//!   in *completion* order — tagged `(job_id, member_index)` so clients
//!   reassemble manifest order — with a `stage_report` per finished
//!   campaign stage in between, and a terminal `suite_report`
//!   byte-identical to `imcis suite` on the same manifest. A full queue
//!   or an exceeded per-connection rate ([`ServeConfig::rate`]) answers
//!   `rejected {retry_after_ms}` instead: the job was not enqueued.
//! * **Other answers**: `cancelled`, `status` (a daemon's flat snapshot
//!   or a router's aggregation — [`StatusSnapshot`] decodes both),
//!   `health`, `pong`, `shutting_down` (in-flight job dispositions) and
//!   `error` (class `wire` | `spec` | `session` | `queue`; the
//!   connection stays open).
//!
//! Timing is the only volatile data and travels **in event envelopes
//! only** (`elapsed_ms`): the embedded report payloads are the stable
//! forms, so the determinism contract survives the network hop.
//!
//! Framing: the daemon, the router and [`Client`] disable Nagle's
//! algorithm (`TCP_NODELAY`) on every socket, and each event or request
//! is one write of one complete line. A line is sent when it is
//! written, not held back until the peer acknowledges the previous one
//! (a delayed ACK costs ~40 ms per job otherwise). Third-party clients
//! should set `TCP_NODELAY` too.
//!
//! A client that disconnects mid-job stops costing compute: the first
//! failed event write cancels the job, so its unstarted members are
//! skipped (the router likewise drops its backend stream, which the
//! backend daemon sees as the same disconnect).
//!
//! # Supervision and degradation
//!
//! Member sessions run under `catch_unwind`
//! ([`run_member_supervised`](crate::suite)): a panicking member becomes
//! a typed `member_error` event and a `status: "panic"` entry in the
//! suite report — the worker survives and the [`SetupCache`] stays warm.
//! Connections are served by the endpoint the daemon shares with the
//! [router](crate::router) (the crate-private `wire` module): transient
//! `accept()` and write failures are survived, reads carry a poll
//! deadline so a stalled client can never pin the shutdown drain, and a
//! request line over 4 MiB is discarded unbuffered and answered with a
//! `wire` error.
//! The deterministic fault-injection harness ([`crate::fault`], gated
//! behind `IMCIS_FAULT_INJECTION=1`) exists to prove all of this
//! reproducibly — see `tests/fault.rs`.
//!
//! # Determinism contract
//!
//! The daemon adds scheduling, not semantics: member sessions land in
//! member-index slots exactly as in [`Suite::run`], every session is
//! seed-deterministic and thread-count invariant, and the worker count
//! only steers wall-clock. The `suite_report` payload is therefore
//! **byte-identical to `imcis suite <manifest>`'s stable output at every
//! worker count** (pinned by `tests/serve.rs` at {1, 2, 8}) — including
//! suites with injected faults (pinned by `tests/fault.rs`).
//!
//! # Example
//!
//! ```
//! use imcis_core::serve::{Client, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Bind on an ephemeral port and serve in the background.
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     queue: 16,
//!     rate: 0,
//! })?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! // Submit a tiny two-member suite and collect the streamed reports.
//! let suite = r#"{
//!         "runs": [
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "smc", "n_traces": 200}, "threads": 1},
//!             {"scenario": {"name": "illustrative"},
//!              "method": {"name": "standard-is", "n_traces": 200}, "threads": 1}
//!         ],
//!         "threads": 1
//!     }"#
//!     .parse()?;
//! let mut client = Client::connect(addr)?;
//! let outcome = client.submit(&suite, |_line, _event| {})?;
//! assert_eq!(outcome.members.len(), 2);
//! // One illustrative build serves both members.
//! assert_eq!(outcome.setups_built, 1);
//!
//! // Shut the daemon down cleanly.
//! client.shutdown()?;
//! handle.join().expect("server thread")?;
//! # Ok(())
//! # }
//! ```

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imc_models::ScenarioRegistry;
use serde::json::{self, Value};

use crate::fault::FaultPlan;
use crate::report::Timing;
use crate::session::Session;
use crate::suite::{
    run_campaign_supervised, run_member_supervised, validate_member_entry, CampaignHooks,
    CampaignSpec, MemberOutcome, MemberStatus, SetupCache, StageOutcome, Suite, SuiteReport,
    SuiteSpec,
};
use crate::wire::{disable_nagle, error_event, event, rejected_event, write_line, Endpoint, Role};

/// Schema tag carried by every wire message, both directions.
pub const WIRE_SCHEMA: &str = "imcis.wire/2";

/// The backoff hint a `rejected` event carries when the queue is full.
pub const RETRY_AFTER_MS: u64 = 100;

/// Everything that can go wrong while serving or talking to a server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(String),
    /// The peer violated the wire protocol (bad JSON, missing fields,
    /// out-of-order events).
    Protocol(String),
    /// The server reported an error event (`error` carries the class,
    /// `message` the pinned text).
    Remote {
        /// Error class (`wire` | `spec` | `session` | `queue`).
        error: String,
        /// Human-readable message (pinned by the failure-path tests).
        message: String,
    },
    /// The server's queue was full and the job was not enqueued;
    /// resubmit after the hinted backoff.
    Rejected {
        /// Server-suggested minimum backoff before resubmitting.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "serve i/o error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
            ServeError::Remote { error, message } => {
                write!(f, "server reported {error} error: {message}")
            }
            ServeError::Rejected { retry_after_ms } => {
                write!(f, "server queue is full (retry after {retry_after_ms} ms)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Daemon configuration: where to listen and how much to run at once.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port).
    pub addr: String,
    /// Persistent worker threads executing member sessions
    /// (`0` = all cores). Scheduling only — results are byte-identical
    /// at every count.
    pub workers: usize,
    /// Bounded member-task queue capacity. A submit whose members do not
    /// fit the remaining capacity is answered with `rejected
    /// {retry_after_ms}` — backpressure is explicit, never a blocked
    /// connection.
    pub queue: usize,
    /// Per-connection submit rate limit in submits/second (token
    /// bucket, burst capacity = the rate). Over-limit submits are
    /// answered with the same `rejected {retry_after_ms}` shape a full
    /// queue produces. `0` disables rate limiting (the default).
    /// Probes (`ping` / `status` / `health`) are never limited.
    pub rate: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7414".into(),
            workers: 0,
            queue: 64,
            rate: 0,
        }
    }
}

/// Cancellation/deadline state shared between one job's submitter, the
/// workers running its members, and `cancel`/`status`/`shutdown`
/// handlers on other connections.
struct JobControl {
    job_id: u64,
    /// Set by a `cancel` request, or when the submitting client vanishes.
    cancelled: AtomicBool,
    /// Absolute member-start cutoff, measured from request receipt.
    deadline: Option<Instant>,
    /// The requested bound, kept for the deterministic timeout message.
    deadline_ms: Option<u64>,
    members_total: usize,
    members_done: AtomicUsize,
    /// Per-member campaign stage progress: `(member_index, last finished
    /// stage)`. Run members never appear; a campaign member appears once
    /// its first stage completes and is dropped with the job.
    campaign_stages: Mutex<Vec<(usize, usize)>>,
}

impl JobControl {
    /// The typed disposition a member gets *instead of running* when its
    /// job was cancelled or its deadline has passed — `None` means run
    /// it. Checked at member start only for runs, and at every stage
    /// boundary for campaigns: running members/stages always finish.
    fn skip_disposition(&self) -> Option<(MemberStatus, String)> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Some((
                MemberStatus::Cancelled,
                "job cancelled by request".to_string(),
            ));
        }
        if let (Some(deadline), Some(ms)) = (self.deadline, self.deadline_ms) {
            if Instant::now() >= deadline {
                return Some((
                    MemberStatus::Timeout,
                    format!("job deadline of {ms} ms exceeded"),
                ));
            }
        }
        None
    }

    /// Records a campaign member's latest finished stage (for `status`
    /// and `shutting_down` progress reporting).
    fn note_stage(&self, member: usize, stage: usize) {
        let mut stages = self
            .campaign_stages
            .lock()
            .expect("stage progress poisoned");
        match stages.iter_mut().find(|(m, _)| *m == member) {
            Some(entry) => entry.1 = stage,
            None => stages.push((member, stage)),
        }
    }

    /// The campaign progress snapshot, member order: `(member, last
    /// finished stage)`.
    fn stage_snapshot(&self) -> Vec<(usize, usize)> {
        let mut stages = self
            .campaign_stages
            .lock()
            .expect("stage progress poisoned")
            .clone();
        stages.sort_unstable();
        stages
    }
}

/// One member session queued for the worker pool.
struct MemberTask {
    member_index: usize,
    session: Arc<Session>,
    /// The member's campaign stage plan; `None` for a plain run member.
    campaign: Option<CampaignSpec>,
    rep_threads: usize,
    fault: Option<Arc<FaultPlan>>,
    control: Arc<JobControl>,
    /// The server-wide queue depth this task holds one reservation in;
    /// released when the task finishes.
    queue_depth: Arc<AtomicUsize>,
    reply: mpsc::Sender<WorkerEvent>,
}

/// A worker-to-submitter message: a finished campaign stage (streamed
/// mid-member) or the member's terminal outcome.
enum WorkerEvent {
    Stage(StageDone),
    Done(MemberDone),
}

/// A finished campaign stage, routed back for the `stage_report` stream.
struct StageDone {
    member_index: usize,
    /// The finished stage's index.
    stage: usize,
    /// Whether this stage met the campaign's stopping rule.
    converged: bool,
    elapsed_ms: f64,
    /// The stage's stable report JSON.
    report: Value,
}

/// A finished member, routed back to the submitting connection.
struct MemberDone {
    member_index: usize,
    elapsed_ms: f64,
    outcome: MemberOutcome,
}

/// The daemon role: state shared by connection handlers and workers.
struct ServerState {
    registry: ScenarioRegistry,
    /// The process-wide scenario cache: every job on every connection
    /// resolves setups here, so repeated scenarios build exactly once
    /// for the server's whole lifetime.
    cache: Mutex<SetupCache>,
    next_job: AtomicU64,
    /// Repetition-fanout budget handed to each member session so the
    /// pool divides the machine instead of oversubscribing it.
    rep_threads: usize,
    workers: usize,
    /// Per-connection submit rate limit ([`ServeConfig::rate`]); `0`
    /// disables.
    rate: u64,
    /// Enqueued-but-unfinished member tasks across all jobs. Submits
    /// reserve their member count up front (or get `rejected`); workers
    /// release one reservation per finished task.
    queue_depth: Arc<AtomicUsize>,
    queue_capacity: usize,
    /// Active jobs, registration order — the `cancel`/`status`/
    /// `shutdown` handlers' view of in-flight work.
    jobs: Mutex<Vec<Arc<JobControl>>>,
    /// The worker pool's task sender; taken (and so dropped) after the
    /// drain, which retires the pool.
    tasks: Mutex<Option<SyncSender<MemberTask>>>,
}

impl ServerState {
    fn register_job(&self, control: Arc<JobControl>) {
        self.jobs.lock().expect("job list poisoned").push(control);
    }

    fn deregister_job(&self, job_id: u64) {
        self.jobs
            .lock()
            .expect("job list poisoned")
            .retain(|job| job.job_id != job_id);
    }

    /// Every active job's campaign progress, flattened for the `status`
    /// answer: `{job_id, member, stage, stages_done}` entries in
    /// `(job, member)` order. Empty when nothing campaign-shaped is in
    /// flight (and then omitted from the event).
    fn campaign_progress(&self) -> Vec<Value> {
        self.jobs
            .lock()
            .expect("job list poisoned")
            .iter()
            .flat_map(|job| {
                job.stage_snapshot()
                    .into_iter()
                    .map(|(member, stage)| campaign_progress_value(Some(job.job_id), member, stage))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl Role for ServerState {
    /// The connection's submit token bucket, `(tokens, last refill)`:
    /// capacity = refill rate = submits per second. A fresh connection
    /// starts full, so bursts up to the rate go through; beyond that,
    /// submits cost a token each and the deficit converts directly into
    /// the `retry_after_ms` hint.
    type Connection = (f64, Instant);

    fn connection(&self) -> Self::Connection {
        (self.rate as f64, Instant::now())
    }

    fn workers(&self) -> u64 {
        self.workers as u64
    }

    fn submit(
        &self,
        bucket: &mut Self::Connection,
        spec: &SuiteSpec,
        deadline_ms: Option<u64>,
        writer: &mut TcpStream,
    ) -> bool {
        match take_rate_token(self.rate, &mut bucket.0, &mut bucket.1) {
            Some(retry_after_ms) => write_line(writer, &rejected_event(retry_after_ms)),
            None => run_job(spec, deadline_ms, writer, self),
        }
    }

    /// Flags an active job for cancellation at its next member boundary.
    fn cancel(&self, job_id: u64) -> String {
        let jobs = self.jobs.lock().expect("job list poisoned");
        match jobs.iter().find(|job| job.job_id == job_id) {
            Some(job) => {
                job.cancelled.store(true, Ordering::SeqCst);
                event("cancelled", [("job_id".to_string(), Value::UInt(job_id))])
            }
            None => error_event("queue", &format!("job {job_id} is not active")),
        }
    }

    fn status(&self, uptime_ms: u64) -> String {
        let cache_size = self.cache.lock().expect("setup cache poisoned").len();
        let active_jobs = self.jobs.lock().expect("job list poisoned").len();
        let mut fields = vec![
            (
                "queue_depth".to_string(),
                Value::UInt(self.queue_depth.load(Ordering::SeqCst) as u64),
            ),
            (
                "queue_capacity".to_string(),
                Value::UInt(self.queue_capacity as u64),
            ),
            ("active_jobs".to_string(), Value::UInt(active_jobs as u64)),
            ("workers".to_string(), Value::UInt(self.workers as u64)),
            ("cache_size".to_string(), Value::UInt(cache_size as u64)),
            ("uptime_ms".to_string(), Value::UInt(uptime_ms)),
        ];
        // Per-campaign stage progress, present exactly when a campaign
        // member is mid-flight: run-only traffic keeps its pre-campaign
        // event shape.
        let campaigns = self.campaign_progress();
        if !campaigns.is_empty() {
            fields.push(("campaigns".to_string(), Value::Array(campaigns)));
        }
        event("status", fields)
    }

    /// The in-flight job dispositions reported by `shutting_down`. A job
    /// with campaign members mid-flight additionally carries their
    /// per-member stage progress (`campaigns` is present exactly when
    /// non-empty, so run-only jobs keep their pre-campaign shape).
    fn job_dispositions(&self) -> Vec<Value> {
        self.jobs
            .lock()
            .expect("job list poisoned")
            .iter()
            .map(|job| {
                let mut pairs = vec![
                    ("job_id".to_string(), Value::UInt(job.job_id)),
                    ("members".to_string(), Value::UInt(job.members_total as u64)),
                    (
                        "members_done".to_string(),
                        Value::UInt(job.members_done.load(Ordering::SeqCst) as u64),
                    ),
                ];
                let campaigns: Vec<Value> = job
                    .stage_snapshot()
                    .into_iter()
                    .map(|(member, stage)| campaign_progress_value(None, member, stage))
                    .collect();
                if !campaigns.is_empty() {
                    pairs.push(("campaigns".to_string(), Value::Array(campaigns)));
                }
                Value::Object(pairs)
            })
            .collect()
    }
}

/// One campaign progress entry: `stage` is the last finished stage,
/// `stages_done` the count so far. `job_id` is included in the flat
/// `status` form and omitted inside a `shutting_down` job disposition
/// (the enclosing object already names the job).
fn campaign_progress_value(job_id: Option<u64>, member: usize, stage: usize) -> Value {
    let mut pairs = Vec::with_capacity(4);
    if let Some(job_id) = job_id {
        pairs.push(("job_id".to_string(), Value::UInt(job_id)));
    }
    pairs.extend([
        ("member".to_string(), Value::UInt(member as u64)),
        ("stage".to_string(), Value::UInt(stage as u64)),
        ("stages_done".to_string(), Value::UInt(stage as u64 + 1)),
    ]);
    Value::Object(pairs)
}

/// The suite-serving daemon. See the [module docs](self) for the wire
/// protocol and determinism contract.
pub struct Server {
    endpoint: Arc<Endpoint<ServerState>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket and starts the persistent worker pool.
    /// The server does not accept connections until [`Server::run`] (or
    /// [`Server::spawn`]) is called.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        let workers = imc_sim::parallel::resolve_threads(config.workers);
        let queue_capacity = config.queue.max(1);
        // The channel is as deep as the advertised capacity and submits
        // reserve their members before sending, so `send` never blocks.
        let (tasks, task_rx) = mpsc::sync_channel::<MemberTask>(queue_capacity);
        let state = ServerState {
            registry: ScenarioRegistry::builtin(),
            cache: Mutex::new(SetupCache::new()),
            next_job: AtomicU64::new(1),
            rep_threads: (imc_sim::parallel::available_threads() / workers).max(1),
            workers,
            rate: config.rate,
            queue_depth: Arc::new(AtomicUsize::new(0)),
            queue_capacity,
            jobs: Mutex::new(Vec::new()),
            tasks: Mutex::new(Some(tasks)),
        };
        let endpoint = Endpoint::bind(&config.addr, state)?;
        let task_rx = Arc::new(Mutex::new(task_rx));
        let pool = (0..workers)
            .map(|_| {
                let task_rx = Arc::clone(&task_rx);
                std::thread::spawn(move || worker_loop(&task_rx))
            })
            .collect();
        Ok(Server {
            endpoint,
            workers: pool,
        })
    }

    /// The bound listen address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Accepts and serves connections until a client sends `shutdown`,
    /// then drains active jobs and joins the worker pool.
    ///
    /// Transient accept failures never kill the daemon; only a
    /// persistently failing listener gives up, and even then the drain
    /// runs first.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop fails irrecoverably.
    pub fn run(self) -> Result<(), ServeError> {
        let result = self.endpoint.serve();
        // Every connection (and hence every enqueued job) has finished:
        // retire the pool by dropping the last task sender.
        drop(
            self.endpoint
                .role
                .tasks
                .lock()
                .expect("task sender poisoned")
                .take(),
        );
        for worker in self.workers {
            worker.join().expect("worker thread panicked");
        }
        result
    }

    /// Runs the server on a background thread (tests, in-process use).
    /// Join the handle after a client sends `shutdown`.
    pub fn spawn(self) -> std::thread::JoinHandle<Result<(), ServeError>> {
        std::thread::spawn(move || self.run())
    }
}

/// A worker: pull one member task at a time, check its job's
/// cancellation/deadline disposition, run it **supervised**, route the
/// outcome back to the submitting connection. A panicking member is
/// caught inside [`run_member_supervised`] — the worker survives every
/// member. Send failures mean the submitter disconnected mid-stream —
/// the outcome is discarded and the worker lives on.
fn worker_loop(tasks: &Mutex<Receiver<MemberTask>>) {
    loop {
        let task = {
            let guard = tasks.lock().expect("task queue poisoned");
            guard.recv()
        };
        let Ok(task) = task else {
            return; // all senders gone: server shut down
        };
        let clock = Instant::now();
        let outcome = match &task.campaign {
            None => match task.control.skip_disposition() {
                Some((status, message)) => MemberOutcome::Failed { status, message },
                None => run_member_supervised(
                    &task.session,
                    task.rep_threads,
                    task.fault.as_deref(),
                    task.member_index,
                ),
            },
            // A campaign member checks its job's disposition at every
            // stage boundary (a cancelled/expired job becomes a typed
            // final-stage entry) and streams each finished stage back as
            // a `stage_report` event.
            Some(campaign) => {
                let control = &task.control;
                let reply = &task.reply;
                let member_index = task.member_index;
                let stage_clock = std::cell::Cell::new(Instant::now());
                run_campaign_supervised(
                    &task.session,
                    campaign,
                    task.rep_threads,
                    task.fault.as_deref(),
                    member_index,
                    &CampaignHooks {
                        skip: Some(&|| control.skip_disposition()),
                        on_stage: Some(&|stage, outcome, converged| {
                            let elapsed_ms = stage_clock.get().elapsed().as_secs_f64() * 1e3;
                            stage_clock.set(Instant::now());
                            control.note_stage(member_index, stage);
                            if let StageOutcome::Ok(report) = outcome {
                                let _ = reply.send(WorkerEvent::Stage(StageDone {
                                    member_index,
                                    stage,
                                    converged: converged == Some(stage),
                                    elapsed_ms,
                                    report: report.to_json_stable(),
                                }));
                            }
                        }),
                    },
                )
            }
        };
        task.control.members_done.fetch_add(1, Ordering::SeqCst);
        task.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let _ = task.reply.send(WorkerEvent::Done(MemberDone {
            member_index: task.member_index,
            elapsed_ms: clock.elapsed().as_secs_f64() * 1e3,
            outcome,
        }));
    }
}

/// A parsed wire request.
#[derive(Debug)]
pub enum Request {
    /// Execute a suite manifest, optionally bounded by a deadline.
    Submit {
        /// The validated manifest.
        spec: SuiteSpec,
        /// Optional member-start cutoff in milliseconds from receipt.
        deadline_ms: Option<u64>,
    },
    /// Cancel an active job at its next member boundary.
    Cancel {
        /// The job to cancel (from its `accepted` event).
        job_id: u64,
    },
    /// Load snapshot request.
    Status,
    /// Lightweight liveness/identity probe: answered without touching
    /// the job queue or any lock (the router heartbeat primitive).
    Health,
    /// Liveness probe.
    Ping,
    /// Stop the server after draining active jobs.
    Shutdown,
}

/// Parses and validates one request line's JSON value. This is the
/// server's own entry point, public so the format-reference tests can
/// run the documented examples through the real validator.
///
/// # Errors
///
/// A `(class, message)` pair matching the `error` event the server would
/// emit: class `wire` for malformed envelopes, `spec` for submit bodies
/// that fail [`SuiteSpec`] validation.
pub fn parse_request(value: &Value) -> Result<Request, (String, String)> {
    let wire_err = |msg: String| ("wire".to_string(), msg);
    let Some(pairs) = value.as_object() else {
        return Err(wire_err("request must be a JSON object".into()));
    };
    if let Some(tag) = value.get("wire") {
        let tag = tag
            .as_str()
            .ok_or_else(|| wire_err("`wire` must be a string".into()))?;
        if tag != WIRE_SCHEMA {
            return Err(wire_err(format!(
                "unsupported wire schema `{tag}` (expected `{WIRE_SCHEMA}`)"
            )));
        }
    }
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| wire_err("request needs a string `type`".into()))?;
    match kind {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "status" => Ok(Request::Status),
        "health" => Ok(Request::Health),
        "cancel" => {
            if let Some((key, _)) = pairs
                .iter()
                .find(|(k, _)| !matches!(k.as_str(), "wire" | "type" | "job_id"))
            {
                return Err(wire_err(format!("unknown cancel key `{key}`")));
            }
            let job_id = value
                .get("job_id")
                .and_then(Value::as_u64)
                .ok_or_else(|| wire_err("cancel needs an unsigned `job_id`".into()))?;
            Ok(Request::Cancel { job_id })
        }
        "submit" => {
            if let Some((key, _)) = pairs.iter().find(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "wire" | "type" | "suite" | "file" | "deadline_ms"
                )
            }) {
                return Err(wire_err(format!("unknown submit key `{key}`")));
            }
            let deadline_ms = match value.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    let ms = v.as_u64().ok_or_else(|| {
                        wire_err("`deadline_ms` must be an unsigned integer".into())
                    })?;
                    if ms == 0 {
                        return Err(wire_err("`deadline_ms` must be positive".into()));
                    }
                    Some(ms)
                }
            };
            let spec = match (value.get("suite"), value.get("file")) {
                (Some(suite), None) => SuiteSpec::from_json_with_base(suite, None)
                    .map_err(|e| ("spec".to_string(), e.to_string()))?,
                (None, Some(path)) => {
                    let path = path
                        .as_str()
                        .ok_or_else(|| wire_err("`file` must be a string path".into()))?;
                    SuiteSpec::load(path).map_err(|e| ("spec".to_string(), e.to_string()))?
                }
                _ => {
                    return Err(wire_err(
                        "submit needs exactly one of `suite` (embedded manifest) \
                         or `file` (server-side path)"
                            .into(),
                    ))
                }
            };
            Ok(Request::Submit { spec, deadline_ms })
        }
        other => Err(wire_err(format!(
            "unknown request type `{other}` \
             (submit | cancel | status | health | ping | shutdown)"
        ))),
    }
}

/// Takes one token from a per-connection submit bucket. `None` means
/// the submit may proceed; `Some(retry_after_ms)` is the backoff hint
/// to answer with (`rejected`). `rate == 0` disables limiting.
fn take_rate_token(rate: u64, tokens: &mut f64, refilled: &mut Instant) -> Option<u64> {
    if rate == 0 {
        return None;
    }
    let now = Instant::now();
    *tokens =
        (*tokens + now.duration_since(*refilled).as_secs_f64() * rate as f64).min(rate as f64);
    *refilled = now;
    if *tokens >= 1.0 {
        *tokens -= 1.0;
        return None;
    }
    // Time until the bucket holds one full token again, rounded up so
    // a client honouring the hint is never rejected twice in a row.
    let deficit_ms = ((1.0 - *tokens) / rate as f64 * 1e3).ceil() as u64;
    Some(deficit_ms.max(1))
}

/// Executes one submitted suite: resolve through the shared cache,
/// reserve queue capacity (or reject), enqueue member tasks, stream
/// events as members complete, emit the terminal report. Returns
/// `false` when the client vanished and the connection should be
/// dropped.
fn run_job(
    spec: &SuiteSpec,
    deadline_ms: Option<u64>,
    writer: &mut TcpStream,
    state: &ServerState,
) -> bool {
    let started = Instant::now();
    // Resolve every member against the process-wide cache. The lock is
    // held across builds so concurrent jobs never build the same
    // scenario twice; builds are deterministic, so serializing them
    // changes wall-clock only.
    let (suite, cache_size) = {
        let mut cache = state.cache.lock().expect("setup cache poisoned");
        let suite = match Suite::from_spec_with_cache(spec.clone(), &state.registry, &mut cache) {
            Ok(suite) => suite,
            Err(e) => return write_line(writer, &error_event("session", &e.to_string())),
        };
        (suite, cache.len())
    };
    let members = suite.sessions().len();
    // Backpressure: reserve every member's queue slot up front. A full
    // queue answers `rejected` instead of parking the connection in a
    // blocking `send`; an oversized suite can never fit and is a typed
    // `queue` error.
    if members > state.queue_capacity {
        let message = format!(
            "suite has {members} members but the queue capacity is {}",
            state.queue_capacity
        );
        return write_line(writer, &error_event("queue", &message));
    }
    if state
        .queue_depth
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |depth| {
            (depth + members <= state.queue_capacity).then_some(depth + members)
        })
        .is_err()
    {
        return write_line(writer, &rejected_event(RETRY_AFTER_MS));
    }
    let job_id = state.next_job.fetch_add(1, Ordering::SeqCst);
    let control = Arc::new(JobControl {
        job_id,
        cancelled: AtomicBool::new(false),
        deadline: deadline_ms.map(|ms| started + Duration::from_millis(ms)),
        deadline_ms,
        members_total: members,
        members_done: AtomicUsize::new(0),
        campaign_stages: Mutex::new(Vec::new()),
    });
    state.register_job(Arc::clone(&control));
    let alive = stream_job(&suite, job_id, cache_size, &control, started, writer, state);
    state.deregister_job(job_id);
    alive
}

/// The streaming phase of [`run_job`]: `accepted`, member events in
/// completion order, terminal `suite_report`. Queue reservations are
/// already held; workers release them task by task.
fn stream_job(
    suite: &Suite,
    job_id: u64,
    cache_size: usize,
    control: &Arc<JobControl>,
    started: Instant,
    writer: &mut TcpStream,
    state: &ServerState,
) -> bool {
    let sessions = suite.sessions();
    let members = sessions.len();
    let accepted = event(
        "accepted",
        [
            ("job_id".to_string(), Value::UInt(job_id)),
            ("members".to_string(), Value::UInt(members as u64)),
            (
                "setups_built".to_string(),
                Value::UInt(suite.unique_setups() as u64),
            ),
            ("cache_size".to_string(), Value::UInt(cache_size as u64)),
        ],
    );
    if !write_line(writer, &accepted) {
        // Nothing was enqueued: hand the reservations back.
        state.queue_depth.fetch_sub(members, Ordering::SeqCst);
        return false;
    }
    let fault = suite.spec().fault.clone().map(Arc::new);
    let (reply, done_rx) = mpsc::channel::<WorkerEvent>();
    let tasks = state.tasks.lock().expect("task sender poisoned").clone();
    for (member_index, session) in sessions.iter().enumerate() {
        let task = MemberTask {
            member_index,
            session: Arc::clone(session),
            campaign: suite.spec().runs[member_index].campaign().cloned(),
            rep_threads: state.rep_threads,
            fault: fault.clone(),
            control: Arc::clone(control),
            queue_depth: Arc::clone(&state.queue_depth),
            reply: reply.clone(),
        };
        if tasks.as_ref().is_none_or(|tasks| tasks.send(task).is_err()) {
            // Pool retired under us (server terminating); hand back the
            // reservations that never reached the queue.
            state
                .queue_depth
                .fetch_sub(members - member_index, Ordering::SeqCst);
            return write_line(writer, &error_event("queue", "server is shutting down"));
        }
    }
    drop(reply); // done_rx ends after the last member reports
    let mut slots: Vec<Option<MemberOutcome>> = (0..members).map(|_| None).collect();
    let mut per_run_ms = vec![0.0f64; members];
    // If the client disconnects mid-stream we stop writing and cancel
    // the job (see `write_job_event`), but keep draining: the workers
    // still hold reply senders for this job.
    let mut client_alive = true;
    for message in done_rx {
        let done = match message {
            WorkerEvent::Stage(stage) => {
                if client_alive {
                    let line = event(
                        "stage_report",
                        [
                            ("job_id".to_string(), Value::UInt(job_id)),
                            (
                                "member_index".to_string(),
                                Value::UInt(stage.member_index as u64),
                            ),
                            ("stage".to_string(), Value::UInt(stage.stage as u64)),
                            (
                                "stages_done".to_string(),
                                Value::UInt(stage.stage as u64 + 1),
                            ),
                            ("converged".to_string(), Value::Bool(stage.converged)),
                            ("elapsed_ms".to_string(), Value::Float(stage.elapsed_ms)),
                            ("report".to_string(), stage.report),
                        ],
                    );
                    client_alive = write_job_event(writer, &line, control);
                }
                continue;
            }
            WorkerEvent::Done(done) => done,
        };
        per_run_ms[done.member_index] = done.elapsed_ms;
        if client_alive {
            let mut fields = vec![
                ("job_id".to_string(), Value::UInt(job_id)),
                (
                    "member_index".to_string(),
                    Value::UInt(done.member_index as u64),
                ),
                ("elapsed_ms".to_string(), Value::Float(done.elapsed_ms)),
            ];
            let kind = match &done.outcome {
                MemberOutcome::Ok(report) => {
                    fields.push(("report".to_string(), report.to_json_stable()));
                    "member_report"
                }
                // A campaign member's terminal event carries the whole
                // member entry — stage sequence included, failed or not
                // — exactly as the suite report embeds it.
                MemberOutcome::Campaign(_) => {
                    fields.push(("entry".to_string(), done.outcome.to_json_stable()));
                    "member_report"
                }
                MemberOutcome::Failed { status, message } => {
                    fields.push(("status".to_string(), Value::Str(status.as_str().into())));
                    fields.push(("message".to_string(), Value::Str(message.clone())));
                    "member_error"
                }
            };
            let line = event(kind, fields);
            client_alive = write_job_event(writer, &line, control);
        }
        slots[done.member_index] = Some(done.outcome);
    }
    let report = SuiteReport {
        spec: suite.spec().clone(),
        members: slots
            .into_iter()
            .map(|slot| slot.expect("every member reported"))
            .collect(),
        timing: Timing {
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            per_run_ms,
        },
    };
    if !client_alive {
        return false;
    }
    let line = event(
        "suite_report",
        [
            ("job_id".to_string(), Value::UInt(job_id)),
            (
                "elapsed_ms".to_string(),
                Value::Float(report.timing.total_ms),
            ),
            ("suite_report".to_string(), report.to_json_stable()),
        ],
    );
    write_line(writer, &line)
}

/// Writes one mid-job event. A failed write means the client vanished:
/// the job is cancelled, so its unstarted members are skipped instead
/// of computed for nobody. `false` when the client is gone.
fn write_job_event(writer: &mut TcpStream, line: &str, control: &JobControl) -> bool {
    let alive = write_line(writer, line);
    if !alive {
        control.cancelled.store(true, Ordering::SeqCst);
    }
    alive
}

/// A snapshot of daemon load, answered to a `status` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    /// Enqueued-but-unfinished member tasks across all jobs.
    pub queue_depth: u64,
    /// The bounded queue's capacity ([`ServeConfig::queue`]).
    pub queue_capacity: u64,
    /// Jobs accepted and not yet terminal.
    pub active_jobs: u64,
    /// Persistent worker threads.
    pub workers: u64,
    /// Distinct `(scenario, params)` setups in the shared cache.
    pub cache_size: u64,
    /// Milliseconds since the server was bound.
    pub uptime_ms: u64,
    /// In-flight campaign members' stage progress, `(job, member)`
    /// order; empty when nothing campaign-shaped is running (the wire
    /// form omits the array entirely then).
    pub campaigns: Vec<CampaignProgress>,
}

/// One in-flight campaign member's stage progress inside a daemon
/// `status` answer (echoed verbatim through router aggregations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// The job the campaign member belongs to.
    pub job_id: u64,
    /// The member's manifest index.
    pub member: u64,
    /// The last finished stage (0-based).
    pub stage: u64,
    /// Stages finished so far (`stage + 1`).
    pub stages_done: u64,
}

/// The answer to a `health` request: identity and liveness, no load
/// data (and, server-side, no lock acquisition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthInfo {
    /// The serving process's crate version.
    pub version: String,
    /// Worker threads (daemon) or live backends (router).
    pub workers: u64,
    /// Milliseconds since the process started serving.
    pub uptime_ms: u64,
}

/// One backend's entry in a router `status` aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStatus {
    /// The backend's configured address.
    pub addr: String,
    /// Whether the router's heartbeat currently considers the backend
    /// alive (dead backends are evicted from the hash ring).
    pub healthy: bool,
    /// The backend's own load snapshot, freshly polled for the
    /// aggregation; `None` when the backend is unreachable.
    pub status: Option<ServerStatus>,
}

/// The aggregated `status` answer of a router (`"role": "router"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStatus {
    /// Jobs currently proxied through the router.
    pub active_jobs: u64,
    /// Jobs routed since the router started.
    pub jobs_routed: u64,
    /// Milliseconds since the router started.
    pub uptime_ms: u64,
    /// Per-backend health + load, in configured backend order.
    pub backends: Vec<BackendStatus>,
}

/// A decoded `status` answer: daemons and routers share the event tag
/// but not the shape — this is the single type clients branch on (the
/// `imcis submit --status` printer is shape-tolerant through it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusSnapshot {
    /// A single daemon's flat load snapshot.
    Daemon(ServerStatus),
    /// A router's aggregated per-backend view.
    Router(RouterStatus),
}

/// A parsed, validated server event — the single decode path shared by
/// [`validate_event`] (docs/examples) and [`Client`] (live streams), so
/// every `imcis.wire/2` event is validated in exactly one place.
#[derive(Debug)]
pub(crate) enum Event {
    Accepted {
        job_id: u64,
        members: usize,
        setups_built: u64,
    },
    MemberReport {
        job_id: u64,
        member_index: usize,
        /// The member's stable `reports[]` entry: rebuilt around the
        /// `report` payload for a run member, carried verbatim for a
        /// campaign member — either way exactly what the suite report
        /// embeds at this index.
        entry: Value,
    },
    StageReport {
        job_id: u64,
        member_index: usize,
        #[allow(dead_code)] // decoded for validation; observational only
        stage: usize,
    },
    MemberError {
        job_id: u64,
        member_index: usize,
        status: MemberStatus,
        message: String,
    },
    SuiteReport {
        job_id: u64,
        suite_report: Value,
    },
    Error {
        class: String,
        message: String,
    },
    Rejected {
        retry_after_ms: u64,
    },
    Cancelled {
        job_id: u64,
    },
    Status(StatusSnapshot),
    Health(HealthInfo),
    Pong,
    ShuttingDown,
}

/// Parses one server event value against the `imcis.wire/2` shape,
/// validating embedded payloads with the real report validators.
pub(crate) fn parse_event(value: &Value) -> Result<Event, String> {
    if value.as_object().is_none() {
        return Err("event must be a JSON object".into());
    }
    match value.get("wire").and_then(Value::as_str) {
        Some(WIRE_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected wire schema `{other}`")),
        None => return Err("event is missing the `wire` schema tag".into()),
    }
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or("event needs a string `type`")?;
    let need_u64 = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("`{kind}` event needs an unsigned `{key}`"))
    };
    let need_str = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_str)
            .ok_or(format!("`{kind}` event needs a string `{key}`"))
    };
    match kind {
        "accepted" => {
            let job_id = need_u64("job_id")?;
            let members = need_u64("members")? as usize;
            let setups_built = need_u64("setups_built")?;
            need_u64("cache_size")?;
            Ok(Event::Accepted {
                job_id,
                members,
                setups_built,
            })
        }
        "member_report" => {
            let job_id = need_u64("job_id")?;
            let member_index = need_u64("member_index")? as usize;
            value
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .ok_or("`member_report` event needs a numeric `elapsed_ms`")?;
            let entry = match (value.get("report"), value.get("entry")) {
                (Some(report), None) => {
                    crate::report::validate_report_json(report)
                        .map_err(|e| format!("embedded report: {e}"))?;
                    // Rebuild the wrapped stable entry, exactly as the
                    // suite report embeds it.
                    Value::object([
                        ("status".into(), Value::Str("ok".into())),
                        ("report".into(), report.clone()),
                    ])
                }
                (None, Some(entry)) => {
                    validate_member_entry(entry, true)
                        .map_err(|e| format!("embedded campaign entry: {e}"))?;
                    entry.clone()
                }
                _ => {
                    return Err("`member_report` event needs exactly one of `report` \
                         (run member) or `entry` (campaign member)"
                        .into())
                }
            };
            Ok(Event::MemberReport {
                job_id,
                member_index,
                entry,
            })
        }
        "stage_report" => {
            let job_id = need_u64("job_id")?;
            let member_index = need_u64("member_index")? as usize;
            let stage = need_u64("stage")? as usize;
            let stages_done = need_u64("stages_done")? as usize;
            if stages_done != stage + 1 {
                return Err(format!(
                    "`stage_report` stages_done must be stage + 1, got stage {stage} with \
                     stages_done {stages_done}"
                ));
            }
            value
                .get("converged")
                .and_then(Value::as_bool)
                .ok_or("`stage_report` event needs a boolean `converged`")?;
            value
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .ok_or("`stage_report` event needs a numeric `elapsed_ms`")?;
            let report = value
                .get("report")
                .ok_or("`stage_report` event needs a `report` payload")?;
            crate::report::validate_report_json(report)
                .map_err(|e| format!("embedded stage report: {e}"))?;
            Ok(Event::StageReport {
                job_id,
                member_index,
                stage,
            })
        }
        "member_error" => {
            let job_id = need_u64("job_id")?;
            let member_index = need_u64("member_index")? as usize;
            value
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .ok_or("`member_error` event needs a numeric `elapsed_ms`")?;
            let tag = need_str("status")?;
            let status = MemberStatus::from_tag(tag)
                .filter(|s| *s != MemberStatus::Ok)
                .ok_or(format!(
                    "`member_error` status must be one of error | panic | timeout | cancelled, \
                     got `{tag}`"
                ))?;
            let message = need_str("message")?;
            if message.is_empty() {
                return Err("`member_error` event needs a non-empty `message`".into());
            }
            Ok(Event::MemberError {
                job_id,
                member_index,
                status,
                message: message.to_string(),
            })
        }
        "suite_report" => {
            let job_id = need_u64("job_id")?;
            let report = value
                .get("suite_report")
                .ok_or("`suite_report` event needs a `suite_report` payload")?;
            crate::suite::validate_suite_report_json(report)
                .map_err(|e| format!("embedded suite report: {e}"))?;
            Ok(Event::SuiteReport {
                job_id,
                suite_report: report.clone(),
            })
        }
        "error" => Ok(Event::Error {
            class: need_str("error")?.to_string(),
            message: need_str("message")?.to_string(),
        }),
        "rejected" => Ok(Event::Rejected {
            retry_after_ms: need_u64("retry_after_ms")?,
        }),
        "cancelled" => Ok(Event::Cancelled {
            job_id: need_u64("job_id")?,
        }),
        "status" => match value.get("role").and_then(Value::as_str) {
            None => Ok(Event::Status(StatusSnapshot::Daemon(parse_server_status(
                value,
                "`status` event",
            )?))),
            Some("router") => {
                let backends = value
                    .get("backends")
                    .and_then(Value::as_array)
                    .ok_or("router `status` event needs a `backends` array")?;
                let mut parsed = Vec::with_capacity(backends.len());
                for (i, backend) in backends.iter().enumerate() {
                    let context = format!("`status` backends[{i}]");
                    let addr = backend
                        .get("addr")
                        .and_then(Value::as_str)
                        .ok_or(format!("{context} needs a string `addr`"))?
                        .to_string();
                    let healthy = backend
                        .get("healthy")
                        .and_then(Value::as_bool)
                        .ok_or(format!("{context} needs a boolean `healthy`"))?;
                    let status = match backend.get("queue_depth") {
                        Some(_) => Some(parse_server_status(backend, &context)?),
                        None => None,
                    };
                    parsed.push(BackendStatus {
                        addr,
                        healthy,
                        status,
                    });
                }
                Ok(Event::Status(StatusSnapshot::Router(RouterStatus {
                    active_jobs: need_u64("active_jobs")?,
                    jobs_routed: need_u64("jobs_routed")?,
                    uptime_ms: need_u64("uptime_ms")?,
                    backends: parsed,
                })))
            }
            Some(other) => Err(format!(
                "`status` role must be absent (daemon) or `router`, got `{other}`"
            )),
        },
        "health" => {
            let version = need_str("version")?;
            if version.is_empty() {
                return Err("`health` event needs a non-empty `version`".into());
            }
            Ok(Event::Health(HealthInfo {
                version: version.to_string(),
                workers: need_u64("workers")?,
                uptime_ms: need_u64("uptime_ms")?,
            }))
        }
        "pong" => Ok(Event::Pong),
        "shutting_down" => {
            let jobs = value
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or("`shutting_down` event needs a `jobs` disposition array")?;
            for (i, job) in jobs.iter().enumerate() {
                for key in ["job_id", "members", "members_done"] {
                    if job.get(key).and_then(Value::as_u64).is_none() {
                        return Err(format!(
                            "`shutting_down` jobs[{i}] needs an unsigned `{key}`"
                        ));
                    }
                }
                // In-flight campaign members report their stage progress
                // (the entries omit `job_id` — the job object names it).
                if let Some(campaigns) = job.get("campaigns") {
                    let entries = campaigns.as_array().ok_or(format!(
                        "`shutting_down` jobs[{i}] `campaigns` must be an array"
                    ))?;
                    for (j, entry) in entries.iter().enumerate() {
                        for key in ["member", "stage", "stages_done"] {
                            if entry.get(key).and_then(Value::as_u64).is_none() {
                                return Err(format!(
                                    "`shutting_down` jobs[{i}] campaigns[{j}] needs an \
                                     unsigned `{key}`"
                                ));
                            }
                        }
                    }
                }
            }
            Ok(Event::ShuttingDown)
        }
        other => Err(format!("unknown event type `{other}`")),
    }
}

/// Parses a daemon's flat load snapshot: a daemon `status` event, or
/// one backend entry of a router aggregation.
fn parse_server_status(value: &Value, context: &str) -> Result<ServerStatus, String> {
    let field = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{context} needs an unsigned `{key}`"))
    };
    Ok(ServerStatus {
        queue_depth: field("queue_depth")?,
        queue_capacity: field("queue_capacity")?,
        active_jobs: field("active_jobs")?,
        workers: field("workers")?,
        cache_size: field("cache_size")?,
        uptime_ms: field("uptime_ms")?,
        campaigns: parse_campaign_progress(value, context)?,
    })
}

/// Parses the optional `campaigns` progress array of a daemon `status`
/// answer (or a router aggregation's backend entry). Absence means "no
/// campaign member in flight" — the typed form is an empty vector.
fn parse_campaign_progress(value: &Value, context: &str) -> Result<Vec<CampaignProgress>, String> {
    let Some(campaigns) = value.get("campaigns") else {
        return Ok(Vec::new());
    };
    let entries = campaigns
        .as_array()
        .ok_or(format!("{context} `campaigns` must be an array"))?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let field = |key: &str| {
                entry.get(key).and_then(Value::as_u64).ok_or(format!(
                    "{context} campaigns[{i}] needs an unsigned `{key}`"
                ))
            };
            let stage = field("stage")?;
            let stages_done = field("stages_done")?;
            if stages_done != stage + 1 {
                return Err(format!(
                    "{context} campaigns[{i}] stages_done must be stage + 1"
                ));
            }
            Ok(CampaignProgress {
                job_id: field("job_id")?,
                member: field("member")?,
                stage,
                stages_done,
            })
        })
        .collect()
}

/// Validates one server event value against the `imcis.wire/2` shape.
/// Used by [`Client`] on every received event and by the format-reference
/// tests on the documented examples. (A thin wrapper over the shared
/// typed parser, so docs examples and live streams go through the same
/// validation.)
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_event(value: &Value) -> Result<(), String> {
    parse_event(value).map(|_| ())
}

/// The fields of a `submit` request: the spec re-embedded (a `file`
/// submit reaches a router's backends as an embedded manifest — they
/// need no shared filesystem) plus the optional deadline.
pub(crate) fn submit_fields(spec: &SuiteSpec, deadline_ms: Option<u64>) -> Vec<(String, Value)> {
    let mut fields = vec![("suite".to_string(), spec.to_json())];
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::UInt(ms)));
    }
    fields
}

/// The result of one [`Client::submit`]: the terminal suite report plus
/// the per-member outcome entries in manifest order, reassembled from
/// the streamed events.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Scenario builds this job caused on the server (0 = everything was
    /// already cached from earlier jobs).
    pub setups_built: u64,
    /// The stable suite report JSON (`imcis.suitereport/2` for run-only
    /// manifests, `/3` with campaign members) — byte-identical to the
    /// stable output of `imcis suite` on the same manifest.
    pub suite_report: Value,
    /// Stable member outcome entries (`{"status": "ok", "report": …}` /
    /// `{"status": …, "message": …}` / campaign entries with their
    /// `campaign` stage sequence) in manifest order, reassembled from
    /// the completion-order `member_report`/`member_error` events.
    pub members: Vec<Value>,
}

/// A wire-protocol client over one TCP connection, with Nagle's
/// algorithm disabled like every `imcis.wire/2` socket.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established or
    /// `TCP_NODELAY` cannot be set on it.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let writer = TcpStream::connect(addr)?;
        disable_nagle(&writer)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Connects the router to a backend: a 1 s connect timeout, so a
    /// dead host fails fast, and with `probe` a 2 s read timeout, so a
    /// wedged backend cannot hang a heartbeat or status poll. Proxy
    /// streams read without a deadline — a long member session is
    /// progress, and a killed backend surfaces as EOF, not silence.
    pub(crate) fn connect_backend(addr: &str, probe: bool) -> Result<Self, ServeError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Io(format!("cannot resolve `{addr}`: {e}")))?
            .next()
            .ok_or_else(|| ServeError::Io(format!("`{addr}` resolves to no address")))?;
        let writer = TcpStream::connect_timeout(&resolved, Duration::from_secs(1))
            .map_err(|e| ServeError::Io(format!("cannot connect to `{addr}`: {e}")))?;
        disable_nagle(&writer)?;
        if probe {
            writer.set_read_timeout(Some(Duration::from_secs(2)))?;
        }
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, kind: &str, fields: Vec<(String, Value)>) -> Result<(), ServeError> {
        // The client frames requests exactly as the server frames
        // events — one shared envelope builder, so the two sides cannot
        // drift — and sends each as one write of one complete line.
        self.writer.write_all(event(kind, fields).as_bytes())?;
        Ok(())
    }

    /// Reads one event line, decoding it through the shared typed
    /// parser. `error` events are returned as values, not yet converted
    /// to [`ServeError::Remote`] — callers log them first (the
    /// `--events` file must contain every received line, errors
    /// included).
    pub(crate) fn read_event(&mut self) -> Result<(String, Value, Event), ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Protocol(
                "server closed the connection mid-stream".into(),
            ));
        }
        line.truncate(line.trim_end().len());
        let value = json::parse(&line)
            .map_err(|e| ServeError::Protocol(format!("event is not valid JSON: {e}")))?;
        let event = parse_event(&value).map_err(ServeError::Protocol)?;
        Ok((line, value, event))
    }

    /// Sends one request and reads its first answer, keeping the raw
    /// value beside the typed view (the router forwards and relabels
    /// it).
    pub(crate) fn request(
        &mut self,
        kind: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<(Value, Event), ServeError> {
        self.send(kind, fields)?;
        let (_, value, event) = self.read_event()?;
        Ok((value, event))
    }

    /// Sends one request and picks its typed answer: `pick` hands an
    /// unexpected event back, and an `error` event becomes
    /// [`ServeError::Remote`].
    fn call<T>(
        &mut self,
        kind: &str,
        fields: Vec<(String, Value)>,
        expected: &str,
        pick: impl FnOnce(Event) -> Result<T, Event>,
    ) -> Result<T, ServeError> {
        match pick(self.request(kind, fields)?.1) {
            Ok(answer) => Ok(answer),
            Err(Event::Error { class, message }) => Err(ServeError::Remote {
                error: class,
                message,
            }),
            Err(other) => Err(ServeError::Protocol(format!(
                "expected `{expected}`, got {other:?}"
            ))),
        }
    }

    /// Liveness probe: sends `ping`, waits for `pong`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.call("ping", Vec::new(), "pong", |event| match event {
            Event::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Requests a load snapshot: sends `status`, waits for the typed
    /// answer. A daemon answers [`StatusSnapshot::Daemon`]; a router
    /// answers [`StatusSnapshot::Router`] — callers that only ever talk
    /// to daemons can use [`Client::daemon_status`] instead.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn status(&mut self) -> Result<StatusSnapshot, ServeError> {
        self.call("status", Vec::new(), "status", |event| match event {
            Event::Status(status) => Ok(status),
            other => Err(other),
        })
    }

    /// [`Client::status`] against a known daemon: unwraps the flat
    /// snapshot, treating a router answer as a protocol violation.
    ///
    /// # Errors
    ///
    /// As for [`Client::status`], plus [`ServeError::Protocol`] when
    /// the peer turns out to be a router.
    pub fn daemon_status(&mut self) -> Result<ServerStatus, ServeError> {
        match self.status()? {
            StatusSnapshot::Daemon(status) => Ok(status),
            StatusSnapshot::Router(_) => Err(ServeError::Protocol(
                "expected a daemon status, got a router aggregation".into(),
            )),
        }
    }

    /// Lightweight liveness/identity probe: sends `health`, waits for
    /// the typed answer. The daemon answers without touching the job
    /// queue, so this is safe to poll at heartbeat frequency.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn health(&mut self) -> Result<HealthInfo, ServeError> {
        self.call("health", Vec::new(), "health", |event| match event {
            Event::Health(info) => Ok(info),
            other => Err(other),
        })
    }

    /// Cancels an active job at its next member boundary (typically
    /// from a second connection while the first streams the job).
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] (class `queue`) when no such job is
    /// active; [`ServeError::Protocol`] when the acknowledgement names
    /// another job; [`ServeError`] on socket failures.
    pub fn cancel(&mut self, job_id: u64) -> Result<(), ServeError> {
        let fields = vec![("job_id".to_string(), Value::UInt(job_id))];
        let acked = self.call("cancel", fields, "cancelled", |event| match event {
            Event::Cancelled { job_id } => Ok(job_id),
            other => Err(other),
        })?;
        if acked != job_id {
            return Err(ServeError::Protocol(format!(
                "cancelled job {job_id} but the acknowledgement names job {acked}"
            )));
        }
        Ok(())
    }

    /// Asks the server to drain and exit; waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on socket or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.call(
            "shutdown",
            Vec::new(),
            "shutting_down",
            |event| match event {
                Event::ShuttingDown => Ok(()),
                other => Err(other),
            },
        )
    }

    /// Submits a suite and blocks until the terminal `suite_report`
    /// event, reassembling the member outcome entries into manifest
    /// order along the way. `on_event` sees every raw event line (for
    /// logging or `--events` files) before it is interpreted.
    ///
    /// The reassembled entries are cross-checked against the terminal
    /// report's embedded members, so a [`SubmitOutcome`] is proof the
    /// stream arrived complete and consistent regardless of completion
    /// order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when the server reports a
    /// spec/session/queue failure, [`ServeError::Rejected`] when the
    /// queue was full (back off and resubmit),
    /// [`ServeError::Protocol`] on wire violations.
    pub fn submit(
        &mut self,
        spec: &SuiteSpec,
        on_event: impl FnMut(&str, &Value),
    ) -> Result<SubmitOutcome, ServeError> {
        self.submit_with_deadline(spec, None, on_event)
    }

    /// [`Client::submit`] with an optional job deadline: members not yet
    /// started `deadline_ms` after the server receives the job are
    /// reported as typed `timeout` member errors.
    ///
    /// # Errors
    ///
    /// As for [`Client::submit`].
    pub fn submit_with_deadline(
        &mut self,
        spec: &SuiteSpec,
        deadline_ms: Option<u64>,
        mut on_event: impl FnMut(&str, &Value),
    ) -> Result<SubmitOutcome, ServeError> {
        self.send("submit", submit_fields(spec, deadline_ms))?;
        let (line, value, first) = self.read_event()?;
        on_event(&line, &value);
        let (job_id, members, setups_built) = match first {
            Event::Accepted {
                job_id,
                members,
                setups_built,
            } => (job_id, members, setups_built),
            Event::Error { class, message } => {
                return Err(ServeError::Remote {
                    error: class,
                    message,
                })
            }
            Event::Rejected { retry_after_ms } => {
                return Err(ServeError::Rejected { retry_after_ms })
            }
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected `accepted`, got {other:?}"
                )))
            }
        };
        let mut slots: Vec<Option<Value>> = (0..members).map(|_| None).collect();
        loop {
            let (line, value, event) = self.read_event()?;
            on_event(&line, &value);
            // Stage reports are progress, not outcomes: the terminal
            // campaign entry repeats every stage, so nothing to
            // reassemble for them.
            let (event_job, outcome, terminal) = match event {
                Event::MemberReport {
                    job_id,
                    member_index,
                    entry,
                } => (job_id, Some((member_index, entry)), None),
                Event::MemberError {
                    job_id,
                    member_index,
                    status,
                    message,
                } => {
                    let entry = Value::object([
                        ("status".into(), Value::Str(status.as_str().into())),
                        ("message".into(), Value::Str(message)),
                    ]);
                    (job_id, Some((member_index, entry)), None)
                }
                Event::StageReport { job_id, .. } => (job_id, None, None),
                Event::SuiteReport {
                    job_id,
                    suite_report,
                } => (job_id, None, Some(suite_report)),
                Event::Error { class, message } => {
                    return Err(ServeError::Remote {
                        error: class,
                        message,
                    })
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected mid-stream event {other:?}"
                    )))
                }
            };
            if event_job != job_id {
                return Err(ServeError::Protocol("event for a different job".into()));
            }
            if let Some((index, entry)) = outcome {
                let slot = slots.get_mut(index).ok_or_else(|| {
                    ServeError::Protocol(format!(
                        "member index {index} out of range (members = {members})"
                    ))
                })?;
                if slot.replace(entry).is_some() {
                    return Err(ServeError::Protocol(format!(
                        "duplicate outcome for member {index}"
                    )));
                }
            }
            let Some(suite_report) = terminal else {
                continue;
            };
            let member_entries: Vec<Value> = slots
                .into_iter()
                .enumerate()
                .map(|(i, slot)| {
                    slot.ok_or_else(|| {
                        ServeError::Protocol(format!("terminal report arrived before member {i}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            // The reassembly is the point of the (job_id, index)
            // tagging: manifest order from completion order.
            let embedded = suite_report
                .get("reports")
                .and_then(Value::as_array)
                .expect("validated");
            if embedded != member_entries.as_slice() {
                return Err(ServeError::Protocol(
                    "reassembled member outcomes disagree with the terminal suite report".into(),
                ));
            }
            return Ok(SubmitOutcome {
                job_id,
                setups_built,
                suite_report,
                members: member_entries,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn tiny_suite() -> SuiteSpec {
        SuiteSpec::from_str(
            r#"{
                "runs": [
                    {"scenario": {"name": "illustrative"},
                     "method": {"name": "smc", "n_traces": 150}, "seed": 9, "threads": 1}
                ],
                "threads": 1
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn request_parser_accepts_the_five_kinds_and_rejects_garbage() {
        let submit = json::parse(&format!(
            "{{\"wire\": \"imcis.wire/2\", \"type\": \"submit\", \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        assert!(matches!(
            parse_request(&submit),
            Ok(Request::Submit {
                deadline_ms: None,
                ..
            })
        ));
        let bounded = json::parse(&format!(
            "{{\"type\": \"submit\", \"deadline_ms\": 250, \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        assert!(matches!(
            parse_request(&bounded),
            Ok(Request::Submit {
                deadline_ms: Some(250),
                ..
            })
        ));
        let ping = json::parse("{\"type\": \"ping\"}").unwrap();
        assert!(matches!(parse_request(&ping), Ok(Request::Ping)));
        let health = json::parse("{\"type\": \"health\"}").unwrap();
        assert!(matches!(parse_request(&health), Ok(Request::Health)));
        let down = json::parse("{\"type\": \"shutdown\"}").unwrap();
        assert!(matches!(parse_request(&down), Ok(Request::Shutdown)));
        let status = json::parse("{\"type\": \"status\"}").unwrap();
        assert!(matches!(parse_request(&status), Ok(Request::Status)));
        let cancel = json::parse("{\"type\": \"cancel\", \"job_id\": 3}").unwrap();
        assert!(matches!(
            parse_request(&cancel),
            Ok(Request::Cancel { job_id: 3 })
        ));

        for (text, class) in [
            ("{\"type\": \"teleport\"}", "wire"),
            ("{\"wire\": \"imcis.wire/9\", \"type\": \"ping\"}", "wire"),
            ("{\"type\": \"submit\"}", "wire"),
            ("{\"type\": \"submit\", \"suite\": {\"runs\": []}}", "spec"),
            ("{\"type\": \"cancel\"}", "wire"),
            ("{\"type\": \"cancel\", \"job_id\": 1, \"wat\": 2}", "wire"),
            ("[1, 2]", "wire"),
        ] {
            let value = json::parse(text).unwrap();
            let (got, _) = parse_request(&value).unwrap_err();
            assert_eq!(got, class, "{text}");
        }
        // `deadline_ms: 0` is a pinned usage error, not an instant
        // timeout for every member.
        let zero = json::parse(&format!(
            "{{\"type\": \"submit\", \"deadline_ms\": 0, \"suite\": {}}}",
            tiny_suite().to_json()
        ))
        .unwrap();
        let (class, message) = parse_request(&zero).unwrap_err();
        assert_eq!(class, "wire");
        assert_eq!(message, "`deadline_ms` must be positive");
    }

    #[test]
    fn end_to_end_submit_matches_the_direct_suite_run() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 4,
            rate: 0,
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let spec = tiny_suite();
        let direct = crate::suite::Suite::from_spec(spec.clone())
            .unwrap()
            .run()
            .unwrap()
            .to_json_stable()
            .pretty();

        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        let health = client.health().unwrap();
        assert_eq!(health.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(health.workers, 2);
        let status = client.daemon_status().unwrap();
        assert_eq!(status.queue_capacity, 4);
        assert_eq!(status.workers, 2);
        assert_eq!(status.active_jobs, 0);
        assert_eq!(status.cache_size, 0);
        let mut events = Vec::new();
        let outcome = client
            .submit(&spec, |line, _| events.push(line.to_string()))
            .unwrap();
        assert_eq!(outcome.suite_report.pretty(), direct);
        assert_eq!(outcome.members.len(), 1);
        assert!(events.iter().any(|l| l.contains("\"member_report\"")));

        // Second job over the same scenario: served from the shared cache.
        let again = client.submit(&spec, |_, _| {}).unwrap();
        assert_eq!(again.setups_built, 0);
        assert_eq!(again.suite_report.pretty(), direct);
        assert!(again.job_id > outcome.job_id);
        assert_eq!(client.daemon_status().unwrap().cache_size, 1);

        // Cancelling a finished job is a typed `queue` error.
        let err = client.cancel(outcome.job_id).unwrap_err();
        match err {
            ServeError::Remote { error, message } => {
                assert_eq!(error, "queue");
                assert_eq!(message, format!("job {} is not active", outcome.job_id));
            }
            other => panic!("expected a remote queue error, got {other}"),
        }

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A role that answers every `submit` with `pong`, recording whether
    /// the stream the endpoint handed it has Nagle disabled.
    struct NagleProbe(Mutex<Vec<bool>>);

    impl Role for NagleProbe {
        type Connection = ();

        fn connection(&self) {}

        fn workers(&self) -> u64 {
            0
        }

        fn submit(
            &self,
            _: &mut (),
            _: &SuiteSpec,
            _: Option<u64>,
            writer: &mut TcpStream,
        ) -> bool {
            self.0.lock().unwrap().push(writer.nodelay().unwrap());
            write_line(writer, &event("pong", []))
        }

        fn cancel(&self, _: u64) -> String {
            unreachable!("the probe is never asked to cancel")
        }

        fn status(&self, _: u64) -> String {
            unreachable!("the probe is never asked for status")
        }

        fn job_dispositions(&self) -> Vec<Value> {
            Vec::new()
        }
    }

    /// Every wire socket disables Nagle: the stream a role's `submit`
    /// writes to, a `Client::connect` socket and a router backend
    /// socket. No timing is involved, so this cannot flake.
    #[test]
    fn every_wire_socket_disables_nagle() {
        let endpoint = Endpoint::bind("127.0.0.1:0", NagleProbe(Mutex::new(Vec::new()))).unwrap();
        let addr = endpoint.local_addr();
        let serving = {
            let endpoint = Arc::clone(&endpoint);
            std::thread::spawn(move || endpoint.serve())
        };

        let mut client = Client::connect(addr).unwrap();
        assert!(client.writer.nodelay().unwrap(), "Client::connect socket");
        let backend = Client::connect_backend(&addr.to_string(), false).unwrap();
        assert!(
            backend.writer.nodelay().unwrap(),
            "Client::connect_backend socket"
        );
        drop(backend);

        let (_, answer) = client
            .request("submit", submit_fields(&tiny_suite(), None))
            .unwrap();
        assert!(matches!(answer, Event::Pong), "got {answer:?}");
        assert_eq!(
            *endpoint.role.0.lock().unwrap(),
            [true],
            "the accepted stream a role submits to"
        );

        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
    }
}
