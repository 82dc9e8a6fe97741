//! The harness shared by the serving tests (`tests/serve.rs`,
//! `tests/router.rs`, `tests/campaign.rs`, `tests/fault.rs`): daemons
//! and routers on ephemeral ports, a clean shutdown, the batch reference
//! report, and a raw wire connection for tests that send invalid bytes
//! or act at a precise point in an event stream.

// Every test binary compiles this module but uses only part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imcis_core::serve::{Client, ServeConfig, ServeError, Server};
use imcis_core::{Router, RouterConfig, Suite, SuiteSpec};
use serde::json::{self, Value};

/// The thread running a spawned daemon or router.
pub type Handle = JoinHandle<Result<(), ServeError>>;

/// A daemon with `workers` workers and a `queue`-deep member queue, no
/// rate limit.
pub fn spawn_daemon(workers: usize, queue: usize) -> (SocketAddr, Handle) {
    spawn_daemon_with(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue,
        rate: 0,
    })
}

/// A daemon with an explicit configuration (its `addr` should bind an
/// ephemeral port).
pub fn spawn_daemon_with(config: ServeConfig) -> (SocketAddr, Handle) {
    let server = Server::bind(config).expect("ephemeral daemon bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

/// A router fronting `backends`: job queue 64, heartbeat every 100 ms.
pub fn spawn_router(backends: Vec<String>) -> (SocketAddr, Handle) {
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        queue: 64,
        heartbeat_ms: 100,
    })
    .expect("ephemeral router bind");
    let addr = router.local_addr();
    (addr, router.spawn())
}

/// Sends `shutdown` and waits for the daemon or router to drain and exit.
pub fn shut_down(addr: SocketAddr, handle: Handle) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The stable batch report of `spec` — the reference every served run
/// must match byte for byte.
pub fn batch_stable(spec: &SuiteSpec) -> String {
    Suite::from_spec(spec.clone())
        .unwrap()
        .run()
        .unwrap()
        .to_json_stable()
        .pretty()
}

/// A cheap two-member illustrative suite (SMC + standard IS).
pub fn tiny_suite(seed: u64) -> SuiteSpec {
    format!(
        r#"{{
            "runs": [
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "smc", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}},
                {{"scenario": {{"name": "illustrative"}},
                 "method": {{"name": "standard-is", "n_traces": 200}},
                 "seed": {seed}, "threads": 1}}
            ],
            "threads": 1
        }}"#
    )
    .parse()
    .unwrap()
}

/// A suite of `members` cheap SMC members that each sleep `delay_ms`
/// before running: on a 1-worker daemon it holds the worker for
/// `members × delay_ms`. Requires `IMCIS_FAULT_INJECTION=1`.
pub fn all_delayed_suite(seed: u64, members: usize, delay_ms: u64) -> SuiteSpec {
    let runs: Vec<String> = (0..members as u64)
        .map(|i| {
            format!(
                r#"{{"scenario": {{"name": "illustrative"}},
                    "method": {{"name": "smc", "n_traces": 200}},
                    "seed": {}, "threads": 1}}"#,
                seed + i
            )
        })
        .collect();
    let injections: Vec<String> = (0..members)
        .map(|i| format!(r#"{{"member": {i}, "kind": "delay", "delay_ms": {delay_ms}}}"#))
        .collect();
    format!(
        r#"{{"runs": [{}], "threads": 1,
             "fault": {{"seed": 1, "injections": [{}]}}}}"#,
        runs.join(", "),
        injections.join(", ")
    )
    .parse()
    .unwrap()
}

/// Submits `spec` on a raw wire, reads its `accepted` event and hangs
/// up without reading another byte. Returns the `accepted` event.
pub fn submit_and_vanish(addr: SocketAddr, spec: &SuiteSpec) -> Value {
    let mut wire = RawWire::connect(addr);
    wire.send(&format!(
        "{{\"type\": \"submit\", \"suite\": {}}}",
        spec.to_json()
    ));
    let accepted = wire.read_event();
    assert_eq!(event_type(&accepted), "accepted");
    accepted
}

/// Polls the daemon at `addr` until no job is active and its queue is
/// empty. Panics once `bound` has passed.
pub fn wait_until_idle(addr: SocketAddr, bound: Duration) {
    let started = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    loop {
        let status = client.daemon_status().unwrap();
        let waited = started.elapsed();
        if status.active_jobs == 0 && status.queue_depth == 0 {
            return;
        }
        assert!(
            waited < bound,
            "daemon still busy after {waited:?}: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A raw wire connection.
pub struct RawWire {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl RawWire {
    pub fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        RawWire { reader, writer }
    }

    /// Sends `line` plus its newline.
    pub fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    pub fn read_event(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        json::parse(line.trim_end()).expect("events are valid JSON")
    }
}

pub fn event_type(event: &Value) -> &str {
    event
        .get("type")
        .and_then(Value::as_str)
        .unwrap_or("<none>")
}
