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
