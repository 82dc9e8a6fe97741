//! The front-line router: one `imcis.wire/2` endpoint fanning jobs out
//! over a fleet of [`Server`](crate::serve::Server) daemons with
//! **cache affinity**.
//!
//! The daemon's expensive asset is its process-wide
//! [`SetupCache`](crate::suite::SetupCache): a scenario built once is
//! free for every later job. A generic load balancer destroys that —
//! spreading identical `(scenario, params)` jobs round-robin rebuilds
//! the same `Setup` on every backend. [`Router`] instead places each
//! job by the **dominant cache key of its manifest** (the most frequent
//! [`ScenarioRef::cache_key`](crate::spec::ScenarioRef::cache_key)
//! among its members, ties broken by the lexicographically smallest
//! key) on a consistent-hash ring of backends: identical workloads land
//! on the same daemon and find its cache warm, and adding or removing a
//! backend only moves the keys adjacent to its ring points.
//!
//! DSL members need no special casing here: a `{"dsl": "<source>"}`
//! scenario's cache key is the canonical JSON of its source plus bound
//! parameters ([`crate::dsl`]), so resubmitted sources — and sweep
//! grids expanded from one manifest, whose members usually share a
//! dominant source — route to the backend that already compiled them.
//!
//! Clients need no new protocol: the router speaks `imcis.wire/2` on
//! both sides, so `imcis submit` works against a router unchanged. It
//! serves clients through the same endpoint as the daemon (the
//! crate-private `wire` module: accept loop, drain, the request-line
//! reader with its 4 MiB cap, request decoding, `ping`, `health` and
//! the `shutdown` acknowledgement) and reaches its backends through
//! [`Client`]. Backend event streams are read without a line cap,
//! because backends are trusted. Per request:
//!
//! * `submit` — validated router-side (a `file` path resolves on the
//!   router's filesystem), then proxied to the job's preferred live
//!   backend. A backend answering `rejected {retry_after_ms}` makes the
//!   job **spill** to the next distinct backend on the ring walk; only
//!   when every live backend rejects does the client see `rejected`
//!   (with the largest hint). The backend's event stream —
//!   `accepted`, `member_report` / `member_error` in completion order,
//!   terminal `suite_report` — is proxied back verbatim except for the
//!   `job_id`, which is relabelled to the router's own id space. If the
//!   client disconnects, relaying stops and the backend stream is
//!   closed, so the backend cancels the job's unstarted members.
//! * `cancel` — mapped from the router job id to the owning backend and
//!   forwarded there; the acknowledgement is relabelled back.
//! * `status` — answered as the **aggregated** router shape
//!   (`"role": "router"`): per-backend health + freshly polled load
//!   snapshots ([`StatusSnapshot::Router`](crate::serve::StatusSnapshot)
//!   decodes it).
//! * `health` — `workers` counts live backends.
//! * `shutdown` — fanned out to every live backend before the
//!   acknowledgement, then the router drains and exits.
//!
//! # Failover
//!
//! A heartbeat thread probes every backend with the lightweight
//! `health` request. A backend that stops answering is marked dead and
//! thereby evicted from routing (ring *walks* simply skip it); when it
//! answers again it rejoins — with a cold cache, which costs wall-clock
//! only, never bytes. If a backend dies **mid-job**, the router
//! resubmits the whole manifest to the next live backend on the ring
//! walk, swallows the duplicate `accepted`, and suppresses member
//! events for indices the client already received. Because every member
//! session is a pure function of the manifest, the re-run members are
//! byte-identical to what the dead backend would have sent — the
//! determinism contract is exactly what makes transparent re-routing
//! sound, and the terminal `suite_report` stays `cmp`-identical to the
//! batch artefact (pinned by `tests/router.rs` and the CI router smoke
//! step).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use imc_models::fnv1a64;
use serde::json::Value;

use crate::serve::{submit_fields, Client, Event, ServeError, RETRY_AFTER_MS};
use crate::suite::SuiteSpec;
use crate::wire::{error_event, event, rejected_event, write_line, Endpoint, Role};

/// Virtual ring points per backend: enough to spread keys evenly at
/// small fleet sizes without making ring construction noticeable.
const VNODES: usize = 64;

/// Router configuration: where to listen and which fleet to front.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port `0` binds an ephemeral port).
    pub addr: String,
    /// Backend daemon addresses, in the order `status` reports them.
    pub backends: Vec<String>,
    /// Maximum concurrently proxied jobs; a submit beyond it is
    /// answered `rejected {retry_after_ms}` without contacting any
    /// backend.
    pub queue: usize,
    /// Heartbeat interval: every backend is `health`-probed this often.
    pub heartbeat_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7400".into(),
            backends: Vec::new(),
            queue: 64,
            heartbeat_ms: 500,
        }
    }
}

/// A consistent-hash ring over backend indices. Public so tests can
/// predict placements (e.g. arrange for a particular backend to be a
/// key's first choice).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds the ring: `VNODES` (64) points per backend, each at
    /// `splitmix64(fnv1a64("{addr}#{vnode}"))`. The splitmix finaliser
    /// matters: raw FNV of near-identical short strings (adjacent
    /// ports, consecutive vnode suffixes) clusters on the ring and
    /// starves backends. Deterministic in the address list, so every
    /// router process fronting the same fleet places every key
    /// identically.
    pub fn new(backends: &[String]) -> Self {
        let mut points = Vec::with_capacity(backends.len() * VNODES);
        for (index, addr) in backends.iter().enumerate() {
            for vnode in 0..VNODES {
                let point = imc_sim::splitmix64(fnv1a64(format!("{addr}#{vnode}").as_bytes()));
                points.push((point, index));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            backends: backends.len(),
        }
    }

    /// The full preference order for `key`: every distinct backend
    /// index, in the order a clockwise ring walk from `key`'s point
    /// first meets them. The head is the affinity target; the tail is
    /// the spill/failover order.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|(point, _)| *point < key);
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !order.contains(&index) {
                order.push(index);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

/// The dominant cache key of a manifest: the most frequent member
/// cache key, ties broken by the lexicographically smallest key — a
/// pure function of the manifest, so every router places a given suite
/// identically. Returns the key's stable fingerprint for the ring.
pub fn dominant_cache_fingerprint(spec: &SuiteSpec) -> u64 {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for member in &spec.runs {
        let key = member.run_spec().scenario.cache_key();
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|(ka, na), (kb, nb)| na.cmp(nb).then_with(|| kb.cmp(ka)))
        .map(|(key, _)| fnv1a64(key.as_bytes()))
        .unwrap_or(0)
}

/// One backend's routing state.
struct Backend {
    addr: String,
    /// The heartbeat's verdict; dead backends are skipped by every ring
    /// walk (the "eviction") and rejoin as soon as they answer again.
    alive: AtomicBool,
}

impl Backend {
    /// Probes the backend with `health` and records the verdict.
    fn probe(&self) {
        let healthy = Client::connect_backend(&self.addr, true)
            .and_then(|mut conn| conn.health())
            .is_ok();
        self.alive.store(healthy, Ordering::SeqCst);
    }
}

/// One job currently proxied through the router.
struct RouterJob {
    /// Router-side id (what the client sees and cancels with).
    job_id: u64,
    /// The owning backend's address — updated on failover so a late
    /// `cancel` reaches the backend actually running the job.
    backend: String,
    /// The backend-side job id to forward in `cancel`.
    backend_job: u64,
    members_total: usize,
    members_done: Arc<AtomicUsize>,
}

/// The router role: state shared by connection handlers and the
/// heartbeat thread.
struct RouterState {
    backends: Vec<Backend>,
    ring: HashRing,
    next_job: AtomicU64,
    jobs_routed: AtomicU64,
    active_jobs: AtomicUsize,
    queue_capacity: usize,
    jobs: Mutex<Vec<RouterJob>>,
}

impl Role for RouterState {
    type Connection = ();

    fn connection(&self) {}

    /// A router's `health` counts live backends.
    fn workers(&self) -> u64 {
        self.backends
            .iter()
            .filter(|b| b.alive.load(Ordering::SeqCst))
            .count() as u64
    }

    fn submit(
        &self,
        _: &mut (),
        spec: &SuiteSpec,
        deadline_ms: Option<u64>,
        writer: &mut TcpStream,
    ) -> bool {
        if self
            .active_jobs
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
                (active < self.queue_capacity).then_some(active + 1)
            })
            .is_err()
        {
            return write_line(writer, &rejected_event(RETRY_AFTER_MS));
        }
        let alive = proxy_job(spec, deadline_ms, writer, self);
        self.active_jobs.fetch_sub(1, Ordering::SeqCst);
        alive
    }

    /// Forwards a `cancel` to the backend owning the router job,
    /// answering the relabelled acknowledgement (or the pinned `queue`
    /// error when no such job is proxied).
    fn cancel(&self, job_id: u64) -> String {
        let target = {
            let jobs = self.jobs.lock().expect("job list poisoned");
            jobs.iter()
                .find(|job| job.job_id == job_id)
                .map(|job| (job.backend.clone(), job.backend_job))
        };
        let Some((backend, backend_job)) = target else {
            return error_event("queue", &format!("job {job_id} is not active"));
        };
        let forwarded = Client::connect_backend(&backend, true).and_then(|mut conn| {
            conn.request(
                "cancel",
                vec![("job_id".to_string(), Value::UInt(backend_job))],
            )
        });
        match forwarded {
            Ok((value, Event::Cancelled { .. })) => relabel_job_id(value, job_id),
            Ok((value, Event::Error { .. })) => format!("{value}\n"),
            _ => error_event(
                "queue",
                &format!("backend `{backend}` did not acknowledge the cancel"),
            ),
        }
    }

    /// The aggregated `status` answer: per-backend health (heartbeat
    /// verdict refreshed by this very poll) plus each reachable
    /// backend's own load snapshot, flattened into its entry.
    fn status(&self, uptime_ms: u64) -> String {
        let mut backends = Vec::with_capacity(self.backends.len());
        for backend in &self.backends {
            let mut fields = vec![("addr".to_string(), Value::Str(backend.addr.clone()))];
            let snapshot = poll_backend_status(&backend.addr);
            let healthy = snapshot.is_some();
            backend.alive.store(healthy, Ordering::SeqCst);
            fields.push(("healthy".to_string(), Value::Bool(healthy)));
            if let Some(status) = snapshot {
                fields.extend(status);
            }
            backends.push(Value::Object(fields));
        }
        event(
            "status",
            [
                ("role".to_string(), Value::Str("router".into())),
                (
                    "active_jobs".to_string(),
                    Value::UInt(self.active_jobs.load(Ordering::SeqCst) as u64),
                ),
                (
                    "jobs_routed".to_string(),
                    Value::UInt(self.jobs_routed.load(Ordering::SeqCst)),
                ),
                ("uptime_ms".to_string(), Value::UInt(uptime_ms)),
                ("backends".to_string(), Value::Array(backends)),
            ],
        )
    }

    fn job_dispositions(&self) -> Vec<Value> {
        self.jobs
            .lock()
            .expect("job list poisoned")
            .iter()
            .map(|job| {
                Value::object([
                    ("job_id".into(), Value::UInt(job.job_id)),
                    ("members".into(), Value::UInt(job.members_total as u64)),
                    (
                        "members_done".into(),
                        Value::UInt(job.members_done.load(Ordering::SeqCst) as u64),
                    ),
                ])
            })
            .collect()
    }

    /// Fans the shutdown out to every live backend before the router
    /// acknowledges it: the fleet drains as one unit.
    fn shutdown(&self) {
        for backend in &self.backends {
            if backend.alive.load(Ordering::SeqCst) {
                if let Ok(mut conn) = Client::connect_backend(&backend.addr, true) {
                    let _ = conn.shutdown();
                }
            }
        }
    }
}

/// Serialises an event value with its `job_id` replaced; every other
/// field keeps its value and position.
fn relabel_job_id(mut value: Value, job_id: u64) -> String {
    if let Value::Object(pairs) = &mut value {
        for (key, field) in pairs {
            if key == "job_id" {
                *field = Value::UInt(job_id);
            }
        }
    }
    format!("{value}\n")
}

/// The cache-affinity front-line router. See the [module docs](self)
/// for the routing, spill and failover semantics.
pub struct Router {
    endpoint: Arc<Endpoint<RouterState>>,
    heartbeat_ms: u64,
}

impl Router {
    /// Sweeps the fleet once, so routing starts from real liveness,
    /// not optimism, and binds the listen socket. The heartbeat thread
    /// starts with [`Router::run`] / [`Router::spawn`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when no backend is configured or the address
    /// cannot be bound.
    pub fn bind(config: RouterConfig) -> Result<Self, ServeError> {
        if config.backends.is_empty() {
            return Err(ServeError::Io(
                "router needs at least one --backend address".into(),
            ));
        }
        let backends: Vec<Backend> = config
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                alive: AtomicBool::new(false),
            })
            .collect();
        backends.iter().for_each(Backend::probe);
        let state = RouterState {
            backends,
            ring: HashRing::new(&config.backends),
            next_job: AtomicU64::new(1),
            jobs_routed: AtomicU64::new(0),
            active_jobs: AtomicUsize::new(0),
            queue_capacity: config.queue.max(1),
            jobs: Mutex::new(Vec::new()),
        };
        Ok(Router {
            endpoint: Endpoint::bind(&config.addr, state)?,
            heartbeat_ms: config.heartbeat_ms.max(1),
        })
    }

    /// The bound listen address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Accepts and serves connections until a client sends `shutdown`
    /// (which is fanned out to the fleet first), then drains.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop fails irrecoverably.
    pub fn run(self) -> Result<(), ServeError> {
        // The heartbeat: probe every backend, flip its aliveness, sleep
        // in short slices so shutdown is prompt. A dead backend is
        // evicted from routing on the next walk; a recovered one
        // rejoins (cold cache — wall-clock, never bytes).
        let heartbeat = {
            let endpoint = Arc::clone(&self.endpoint);
            let interval = Duration::from_millis(self.heartbeat_ms);
            std::thread::spawn(move || {
                while !endpoint.is_shutting_down() {
                    for backend in &endpoint.role.backends {
                        backend.probe();
                        if endpoint.is_shutting_down() {
                            return;
                        }
                    }
                    let mut slept = Duration::ZERO;
                    while slept < interval && !endpoint.is_shutting_down() {
                        let slice = (interval - slept).min(Duration::from_millis(50));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
        };
        let result = self.endpoint.serve();
        heartbeat.join().expect("heartbeat thread panicked");
        result
    }

    /// Runs the router on a background thread (tests, in-process use).
    pub fn spawn(self) -> std::thread::JoinHandle<Result<(), ServeError>> {
        std::thread::spawn(move || self.run())
    }
}

/// Polls one backend's `status`, returning its raw field pairs (to be
/// flattened into the aggregation entry) or `None` when unreachable.
fn poll_backend_status(addr: &str) -> Option<Vec<(String, Value)>> {
    let mut conn = Client::connect_backend(addr, true).ok()?;
    match conn.request("status", Vec::new()).ok()? {
        (Value::Object(mut fields), Event::Status(_)) => {
            fields.retain(|(key, _)| !matches!(key.as_str(), "wire" | "type"));
            Some(fields)
        }
        _ => None,
    }
}

/// A backend stream opened for a job: the connection, the backend's
/// index, and the backend-side `accepted` (raw value and fields).
struct Opened {
    conn: Client,
    backend: usize,
    accepted: Value,
    job_id: u64,
    members: usize,
}

/// Opens the stream on the first backend that accepts: walks the
/// preference order, spills past `rejected`, marks connect/read
/// failures dead. `Err` carries the terminal line to answer the client
/// with.
fn open_stream(
    spec: &SuiteSpec,
    deadline_ms: Option<u64>,
    state: &RouterState,
    exclude: &[usize],
) -> Result<Opened, String> {
    let fingerprint = dominant_cache_fingerprint(spec);
    let mut rejected_hint: Option<u64> = None;
    for index in state.ring.preference(fingerprint) {
        let backend = &state.backends[index];
        if exclude.contains(&index) || !backend.alive.load(Ordering::SeqCst) {
            continue;
        }
        let opened = Client::connect_backend(&backend.addr, false).and_then(|mut conn| {
            let answer = conn.request("submit", submit_fields(spec, deadline_ms))?;
            Ok((conn, answer))
        });
        match opened {
            Ok((
                conn,
                (
                    accepted,
                    Event::Accepted {
                        job_id, members, ..
                    },
                ),
            )) => {
                return Ok(Opened {
                    conn,
                    backend: index,
                    accepted,
                    job_id,
                    members,
                })
            }
            // Spill: the next distinct ring node gets the job. Keep the
            // largest hint in case everybody rejects.
            Ok((_, (_, Event::Rejected { retry_after_ms }))) => {
                rejected_hint =
                    Some(rejected_hint.map_or(retry_after_ms, |h| h.max(retry_after_ms)));
            }
            // Deterministic refusals (bad spec, oversized suite) fail
            // identically on every backend: forward verbatim, never spill.
            Ok((_, (value, Event::Error { .. }))) => return Err(format!("{value}\n")),
            _ => backend.alive.store(false, Ordering::SeqCst),
        }
    }
    Err(match rejected_hint {
        Some(hint) => rejected_event(hint),
        None => error_event("queue", "no live backend can take the job"),
    })
}

/// Proxies one job: forward the relabelled stream, dedup member indices
/// across failovers, resubmit on backend death. Returns `false` when
/// the client vanished: relaying stops at the first failed write and
/// the backend stream is dropped, so the backend sees the disconnect and
/// cancels the job's unstarted members.
fn proxy_job(
    spec: &SuiteSpec,
    deadline_ms: Option<u64>,
    writer: &mut TcpStream,
    state: &RouterState,
) -> bool {
    let mut stream = match open_stream(spec, deadline_ms, state, &[]) {
        Ok(opened) => opened,
        Err(line) => return write_line(writer, &line),
    };
    let members = stream.members;
    let job_id = state.next_job.fetch_add(1, Ordering::SeqCst);
    state.jobs_routed.fetch_add(1, Ordering::SeqCst);
    let members_done = Arc::new(AtomicUsize::new(0));
    state
        .jobs
        .lock()
        .expect("job list poisoned")
        .push(RouterJob {
            job_id,
            backend: state.backends[stream.backend].addr.clone(),
            backend_job: stream.job_id,
            members_total: members,
            members_done: Arc::clone(&members_done),
        });
    let mut client_alive = write_line(writer, &relabel_job_id(stream.accepted, job_id));
    let mut delivered = vec![false; members];
    let mut dead_backends: Vec<usize> = Vec::new();
    while client_alive {
        match stream.conn.read_event() {
            Ok((_, value, decoded)) => match decoded {
                Event::MemberReport { member_index, .. }
                | Event::MemberError { member_index, .. }
                    // After a failover the replacement backend re-runs
                    // every member; indices the client already has are
                    // suppressed (determinism makes the re-run
                    // byte-identical, so dropping duplicates is exact).
                    if member_index < members && !delivered[member_index] => {
                        delivered[member_index] = true;
                        members_done.fetch_add(1, Ordering::SeqCst);
                        client_alive = write_line(writer, &relabel_job_id(value, job_id));
                    }
                // Campaign stage progress rides along for members the
                // client is still waiting on; after a failover, stages a
                // replacement backend re-runs for already-delivered
                // members are suppressed with their member events.
                Event::StageReport { member_index, .. }
                    if member_index < members && !delivered[member_index] => {
                        client_alive = write_line(writer, &relabel_job_id(value, job_id));
                    }
                Event::SuiteReport { .. } => {
                    client_alive = write_line(writer, &relabel_job_id(value, job_id));
                    break;
                }
                Event::Error { .. } => {
                    client_alive = write_line(writer, &format!("{value}\n"));
                    break;
                }
                // Unsolicited event kinds on a submit stream: drop them
                // rather than poison the client's reassembly.
                _ => {}
            },
            Err(_) => {
                // The backend died mid-job. Evict it, resubmit the
                // whole manifest to the next live preference, and keep
                // the client's stream seamless: the duplicate
                // `accepted` is swallowed, already-delivered members
                // are suppressed above.
                state.backends[stream.backend]
                    .alive
                    .store(false, Ordering::SeqCst);
                dead_backends.push(stream.backend);
                match open_stream(spec, deadline_ms, state, &dead_backends) {
                    Ok(next) => {
                        stream = next;
                        let mut jobs = state.jobs.lock().expect("job list poisoned");
                        if let Some(job) = jobs.iter_mut().find(|job| job.job_id == job_id) {
                            job.backend = state.backends[stream.backend].addr.clone();
                            job.backend_job = stream.job_id;
                        }
                    }
                    Err(_) => {
                        client_alive = write_line(
                            writer,
                            &error_event(
                                "queue",
                                "backend died mid-job and no live backend can take the \
                                 re-route",
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }
    state
        .jobs
        .lock()
        .expect("job list poisoned")
        .retain(|job| job.job_id != job_id);
    client_alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WIRE_SCHEMA;
    use serde::json;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7500 + i)).collect()
    }

    #[test]
    fn ring_walks_are_deterministic_and_cover_every_backend() {
        let backends = addrs(3);
        let ring = HashRing::new(&backends);
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let order = ring.preference(key);
            assert_eq!(order.len(), 3, "every distinct backend appears");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(order, ring.preference(key), "walks are pure");
        }
        // The ring is a function of the address list, not of process
        // state: a rebuilt ring places keys identically.
        assert_eq!(HashRing::new(&backends).preference(42), ring.preference(42));
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = HashRing::new(&addrs(3));
        let mut first_choice = [0usize; 3];
        for key in 0..300u64 {
            first_choice[ring.preference(fnv1a64(&key.to_le_bytes()))[0]] += 1;
        }
        for (index, count) in first_choice.iter().enumerate() {
            assert!(
                *count > 30,
                "backend {index} got only {count}/300 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn dominant_fingerprint_prefers_frequency_then_smallest_key() {
        let spec: SuiteSpec = r#"{
            "runs": [
                {"scenario": {"name": "illustrative"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "repair"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "repair"},
                 "method": {"name": "standard-is", "n_traces": 100}, "threads": 1}
            ],
            "threads": 1
        }"#
        .parse()
        .unwrap();
        let repair_key = spec.runs[1].run_spec().scenario.cache_key();
        assert_eq!(
            dominant_cache_fingerprint(&spec),
            fnv1a64(repair_key.as_bytes()),
            "`repair` appears twice and must dominate"
        );
        // A frequency tie resolves to the lexicographically smallest
        // key — a pure manifest property, identical on every router.
        let tied: SuiteSpec = r#"{
            "runs": [
                {"scenario": {"name": "repair"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1},
                {"scenario": {"name": "illustrative"},
                 "method": {"name": "smc", "n_traces": 100}, "threads": 1}
            ],
            "threads": 1
        }"#
        .parse()
        .unwrap();
        let keys = [
            tied.runs[0].run_spec().scenario.cache_key(),
            tied.runs[1].run_spec().scenario.cache_key(),
        ];
        let smallest = keys.iter().min().unwrap();
        assert_eq!(
            dominant_cache_fingerprint(&tied),
            fnv1a64(smallest.as_bytes())
        );
    }

    #[test]
    fn relabelling_rewrites_only_the_job_id() {
        let value = json::parse(
            r#"{"wire": "imcis.wire/2", "type": "accepted", "job_id": 7,
                "members": 3, "setups_built": 1, "cache_size": 1}"#,
        )
        .unwrap();
        let line = relabel_job_id(value, 42);
        let relabelled = json::parse(line.trim_end()).unwrap();
        assert_eq!(relabelled.get("job_id").and_then(Value::as_u64), Some(42));
        assert_eq!(relabelled.get("members").and_then(Value::as_u64), Some(3));
        assert_eq!(
            relabelled.get("wire").and_then(Value::as_str),
            Some(WIRE_SCHEMA)
        );
    }

    #[test]
    fn binding_without_backends_is_refused() {
        let err = match Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            queue: 4,
            heartbeat_ms: 100,
        }) {
            Err(err) => err,
            Ok(_) => panic!("binding with no backends must fail"),
        };
        assert!(err.to_string().contains("at least one --backend"));
    }
}
