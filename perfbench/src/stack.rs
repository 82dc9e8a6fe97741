//! The in-process serving stack: one daemon behind one router.
//!
//! The router fronts a single backend on purpose: `HashRing` hashes
//! backend *addresses*, so with several daemons on ephemeral ports the
//! placement of a manifest — and with it which cache is warm — would
//! change from run to run.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Instant;

use imcis_core::{
    Client, Router, RouterConfig, ServeConfig, ServeError, Server, StatusSnapshot, SubmitOutcome,
    SuiteSpec,
};
use imcis_perfbench::trace::Recorder;
use serde::json::Value;

/// A running daemon + router pair on ephemeral localhost ports.
pub struct Stack {
    /// The daemon's address (direct submits bypass the router).
    pub daemon: SocketAddr,
    /// The router's address.
    pub router: SocketAddr,
    handles: Vec<JoinHandle<Result<(), ServeError>>>,
}

impl Stack {
    /// Binds a daemon with `workers` workers and a router in front of it.
    pub fn start(workers: usize) -> Result<Self, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue: 64,
            rate: 0,
        })
        .map_err(|e| format!("daemon bind: {e}"))?;
        let daemon = server.local_addr();
        let daemon_handle = server.spawn();
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![daemon.to_string()],
            queue: 64,
            heartbeat_ms: 500,
        })
        .map_err(|e| format!("router bind: {e}"))?;
        let router_addr = router.local_addr();
        let router_handle = router.spawn();
        Ok(Stack {
            daemon,
            router: router_addr,
            handles: vec![router_handle, daemon_handle],
        })
    }

    /// Jobs the router has placed so far.
    pub fn jobs_routed(&self) -> Result<u64, String> {
        let mut client = Client::connect(self.router).map_err(|e| e.to_string())?;
        match client.status().map_err(|e| e.to_string())? {
            StatusSnapshot::Router(status) => Ok(status.jobs_routed),
            StatusSnapshot::Daemon(_) => Err("router answered as a daemon".into()),
        }
    }

    /// Shuts the router down (which fans out to the daemon) and waits for
    /// both threads. Every client connection must be closed first.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        if self.handles.is_empty() {
            return Ok(());
        }
        let mut client = Client::connect(self.router).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        drop(client);
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("server exited with {e}")),
                Err(_) => return Err("server thread panicked".into()),
            }
        }
        Ok(())
    }
}

/// One `Client::submit` with the arrival times of its first `accepted`
/// and first member event.
pub struct TimedSubmit {
    /// What the submit returned.
    pub result: Result<SubmitOutcome, ServeError>,
    /// When the request was sent.
    pub sent: Instant,
    /// When the submit returned.
    pub done: Instant,
    accepted: Option<Instant>,
    first_member: Option<Instant>,
}

impl TimedSubmit {
    /// Submits `spec` on `client`, noting when the events arrive.
    pub fn run(client: &mut Client, spec: &SuiteSpec) -> Self {
        let sent = Instant::now();
        let mut accepted = None;
        let mut first_member = None;
        let result = client.submit(spec, |_, event| {
            match event.get("type").and_then(Value::as_str) {
                Some("accepted") => {
                    accepted.get_or_insert_with(Instant::now);
                }
                Some("member_report" | "member_error") => {
                    first_member.get_or_insert_with(Instant::now);
                }
                _ => {}
            }
        });
        TimedSubmit {
            result,
            sent,
            done: Instant::now(),
            accepted,
            first_member,
        }
    }

    /// Records the `serve.accept` and `serve.first_member` spans, both
    /// measured from the moment the request was sent.
    pub fn record_events(&self, rec: &mut Recorder, job: u64) {
        if let Some(at) = self.accepted {
            rec.record("serve.accept", job, self.sent, at);
        }
        if let Some(at) = self.first_member {
            rec.record("serve.first_member", job, self.sent, at);
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Error paths still stop the servers so the process can exit.
        let _ = self.shutdown();
    }
}
