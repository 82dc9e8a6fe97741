//! The one `imcis.wire/2` endpoint under both serving roles: the
//! daemon ([`crate::serve::Server`]) and the router
//! ([`crate::router::Router`]).
//!
//! Everything the two roles do identically lives here: binding, the
//! accept loop, the connection registry and its read-shutdown drain,
//! the shutdown flag and the wake-up connection, the polled and
//! **bounded** request-line reader, request decoding, and the
//! role-independent answers (`ping`, `health`, the `shutdown`
//! acknowledgement). A role plugs in through [`Role`] and supplies only
//! what differs: `submit`, `cancel`, `status`, its in-flight job
//! dispositions and, optionally, a `shutdown` fan-out.
//!
//! Request lines are capped at [`MAX_REQUEST_LINE_BYTES`]: a longer
//! line is discarded up to its newline without being buffered and
//! answered with one `wire`-class `error` event; the connection stays
//! open. The cap applies to client input only. The router reads its
//! backends' event streams through [`crate::serve::Client`] without a
//! cap, because backends are trusted.
//!
//! Framing: every wire socket — each accepted connection here, and
//! each [`crate::serve::Client`] connection (the CLI's, the router's
//! backend streams) — has Nagle's algorithm disabled (`TCP_NODELAY`)
//! through [`disable_nagle`], and every event or request goes out as
//! one write of one complete line ([`write_line`]). A line therefore
//! leaves the socket as soon as it is written instead of waiting for
//! the peer's delayed ACK of the previous one (~40 ms), and no line is
//! split into extra segments.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::json::{self, Value};

use crate::serve::{parse_request, Request, ServeError, WIRE_SCHEMA};
use crate::suite::SuiteSpec;

/// Poll interval for connection reads: a handler blocked on a silent
/// client re-checks the shutdown flag this often, so a stalled client
/// can never pin the drain.
const READ_POLL_MS: u64 = 200;

/// The longest request line either role accepts, newline excluded
/// (4 MiB). A constant, not an option: the largest checked-in suite
/// manifest is far below it.
pub(crate) const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// What a serving role answers itself. Everything else about a
/// connection is the endpoint's.
pub(crate) trait Role: Send + Sync + 'static {
    /// Per-connection state, created when a connection is accepted (the
    /// daemon's submit token bucket).
    type Connection;

    /// Fresh per-connection state.
    fn connection(&self) -> Self::Connection;

    /// The `workers` count a `health` answer reports.
    fn workers(&self) -> u64;

    /// Serves one `submit`, writing every event of the job. Returns
    /// `false` when the client vanished and the connection should close.
    fn submit(
        &self,
        connection: &mut Self::Connection,
        spec: &SuiteSpec,
        deadline_ms: Option<u64>,
        writer: &mut TcpStream,
    ) -> bool;

    /// The answer line to `cancel`.
    fn cancel(&self, job_id: u64) -> String;

    /// The answer line to `status`.
    fn status(&self, uptime_ms: u64) -> String;

    /// In-flight job dispositions for the `shutting_down` answer.
    fn job_dispositions(&self) -> Vec<Value>;

    /// Runs after the shutdown flag is set and before the
    /// acknowledgement is written.
    fn shutdown(&self) {}
}

/// A bound endpoint serving one role.
pub(crate) struct Endpoint<R> {
    pub(crate) role: R,
    listener: TcpListener,
    local_addr: SocketAddr,
    started: Instant,
    shutdown: AtomicBool,
    next_connection: AtomicU64,
    /// Open connections: `(id, read handle)`. The count drives the
    /// drain-on-shutdown wait; the handles let the drain read-shutdown
    /// idle connections (the fast path — the read poll interval is the
    /// backstop for connections the sweep misses), while handlers
    /// mid-job keep streaming — write halves are untouched.
    connections: Mutex<Vec<(u64, TcpStream)>>,
    idle: Condvar,
}

/// One outcome of [`read_request_line`].
enum Line {
    /// A complete line sits in the buffer.
    Request,
    /// The line exceeded [`MAX_REQUEST_LINE_BYTES`] and was discarded.
    TooLong,
    /// EOF, a hard error, or shutdown: close the connection.
    Closed,
}

impl<R: Role> Endpoint<R> {
    /// Binds the listen socket; nothing is accepted before [`Self::serve`].
    pub(crate) fn bind(addr: &str, role: R) -> Result<Arc<Self>, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("cannot bind `{addr}`: {e}")))?;
        Ok(Arc::new(Endpoint {
            role,
            local_addr: listener.local_addr()?,
            listener,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            next_connection: AtomicU64::new(1),
            connections: Mutex::new(Vec::new()),
            idle: Condvar::new(),
        }))
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Accepts and serves connections until a client sends `shutdown`,
    /// then drains. The role's own teardown runs after this returns.
    ///
    /// Transient accept failures (a queued connection reset before it
    /// was accepted, momentary fd exhaustion) never stop the endpoint —
    /// in-flight jobs must stream to completion. Only a persistently
    /// failing listener gives up, and even then the drain runs first.
    pub(crate) fn serve(self: &Arc<Self>) -> Result<(), ServeError> {
        let mut accept_result = Ok(());
        let mut consecutive_errors = 0u32;
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => {
                    consecutive_errors = 0;
                    stream
                }
                Err(e) => {
                    if self.is_shutting_down() {
                        break;
                    }
                    consecutive_errors += 1;
                    if consecutive_errors >= 100 {
                        accept_result = Err(ServeError::Io(format!(
                            "accept failed {consecutive_errors} times in a row: {e}"
                        )));
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.is_shutting_down() {
                break;
            }
            let Some(id) = self.register_connection(&stream) else {
                drop(stream); // untrackable (fd pressure): refuse it
                continue;
            };
            let endpoint = Arc::clone(self);
            std::thread::spawn(move || {
                endpoint.handle_connection(stream);
                endpoint.deregister_connection(id);
            });
        }
        // Set on the error path too, so role threads watching the flag
        // (the router heartbeat) stop.
        self.shutdown.store(true, Ordering::SeqCst);
        self.drain_connections();
        accept_result
    }

    /// Registers a connection for the shutdown drain. `None` means the
    /// drain handle could not be cloned (fd pressure) — the caller must
    /// refuse the connection: serving it untracked would leave the
    /// drain unable to unblock its reader, hanging shutdown forever.
    fn register_connection(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let id = self.next_connection.fetch_add(1, Ordering::SeqCst);
        self.connections
            .lock()
            .expect("connection list poisoned")
            .push((id, handle));
        Some(id)
    }

    fn deregister_connection(&self, id: u64) {
        let mut connections = self.connections.lock().expect("connection list poisoned");
        connections.retain(|(conn, _)| *conn != id);
        if connections.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Unblocks every handler parked in a read, then waits for all
    /// connections to finish (in-flight jobs stream to completion —
    /// only the read halves are closed).
    fn drain_connections(&self) {
        let mut connections = self.connections.lock().expect("connection list poisoned");
        for (_, stream) in connections.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        while !connections.is_empty() {
            connections = self
                .idle
                .wait(connections)
                .expect("connection list poisoned");
        }
    }

    /// Serves one connection: a loop of requests, each answered by one
    /// or more events. Returns when the client disconnects, the shutdown
    /// drain begins, or after handling `shutdown`.
    fn handle_connection(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        // A finite read timeout turns a blocked reader into a poll: a
        // client that connects and never sends a line cannot delay the
        // shutdown drain.
        let _ = read_half.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)));
        // Best effort, like the timeout: a socket that keeps Nagle on
        // still serves, only slower.
        let _ = disable_nagle(&stream);
        let mut writer = stream;
        let mut reader = BufReader::new(read_half);
        let mut connection = self.role.connection();
        let mut line = Vec::new();
        loop {
            let wire_error = |message: String| Err(("wire".to_string(), message));
            let request = match read_request_line(&mut reader, &self.shutdown, &mut line) {
                Line::Closed => return,
                Line::TooLong => wire_error(format!(
                    "request line exceeds the {MAX_REQUEST_LINE_BYTES}-byte limit"
                )),
                Line::Request => match std::str::from_utf8(&line).map(str::trim_end) {
                    Ok("") => continue,
                    Ok(text) => match json::parse(text) {
                        Ok(value) => parse_request(&value),
                        Err(e) => wire_error(format!("request is not valid JSON: {e}")),
                    },
                    Err(e) => wire_error(format!("request is not valid UTF-8: {e}")),
                },
            };
            let keep_going = match request {
                Err((class, message)) => write_line(&mut writer, &error_event(&class, &message)),
                Ok(Request::Ping) => write_line(&mut writer, &event("pong", [])),
                Ok(Request::Health) => write_line(&mut writer, &self.health_event()),
                Ok(Request::Status) => write_line(
                    &mut writer,
                    &self.role.status(self.started.elapsed().as_millis() as u64),
                ),
                Ok(Request::Cancel { job_id }) => {
                    write_line(&mut writer, &self.role.cancel(job_id))
                }
                Ok(Request::Submit { spec, deadline_ms }) => {
                    self.role
                        .submit(&mut connection, &spec, deadline_ms, &mut writer)
                }
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::SeqCst);
                    self.role.shutdown();
                    let jobs = Value::Array(self.role.job_dispositions());
                    write_line(
                        &mut writer,
                        &event("shutting_down", [("jobs".to_string(), jobs)]),
                    );
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(wake_addr(self.local_addr));
                    false
                }
            };
            if !keep_going {
                return;
            }
        }
    }

    /// The `health` answer: version + the role's worker count + uptime.
    fn health_event(&self) -> String {
        event(
            "health",
            [
                (
                    "version".to_string(),
                    Value::Str(env!("CARGO_PKG_VERSION").into()),
                ),
                ("workers".to_string(), Value::UInt(self.role.workers())),
                (
                    "uptime_ms".to_string(),
                    Value::UInt(self.started.elapsed().as_millis() as u64),
                ),
            ],
        )
    }
}

/// Disables Nagle's algorithm on a wire socket. Each event is one
/// [`write_line`], so there is nothing to coalesce; with Nagle on, a
/// small line written while the previous one is unacknowledged waits
/// for the peer's delayed ACK.
pub(crate) fn disable_nagle(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Writes one event line — one `write_all` of the complete line, so a
/// socket without Nagle sends it whole; `false` when the client is
/// gone.
pub(crate) fn write_line(writer: &mut TcpStream, line: &str) -> bool {
    writer.write_all(line.as_bytes()).is_ok()
}

/// Reads one request line under the connection's poll deadline and the
/// line cap. Bytes read before a poll timeout stay in `line`. A line
/// over the cap is discarded up to its newline (never buffered past the
/// cap) and reported as [`Line::TooLong`].
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
    line: &mut Vec<u8>,
) -> Line {
    line.clear();
    // Room for the longest accepted line plus its newline.
    let limit = MAX_REQUEST_LINE_BYTES + 1;
    let read = polled(shutdown, || {
        let remaining = (limit - line.len()) as u64;
        reader.by_ref().take(remaining).read_until(b'\n', line)
    });
    match read {
        None => Line::Closed,
        Some(_) if line.is_empty() => Line::Closed,
        // A complete line, or a final unterminated one at EOF.
        Some(_) if line.ends_with(b"\n") || line.len() < limit => Line::Request,
        Some(_) => {
            line.clear();
            match polled(shutdown, || reader.skip_until(b'\n')) {
                Some(_) => Line::TooLong,
                None => Line::Closed,
            }
        }
    }
}

/// Retries `read` across poll timeouts, re-checking the shutdown flag
/// each time. `None` on a hard error or once shutdown begins.
fn polled<T>(shutdown: &AtomicBool, mut read: impl FnMut() -> io::Result<T>) -> Option<T> {
    loop {
        match read() {
            Ok(value) => return Some(value),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && !shutdown.load(Ordering::SeqCst) => {}
            Err(_) => return None,
        }
    }
}

/// Builds one compact single-line event with the common envelope.
pub(crate) fn event(kind: &str, fields: impl IntoIterator<Item = (String, Value)>) -> String {
    let mut pairs = vec![
        ("wire".to_string(), Value::Str(WIRE_SCHEMA.into())),
        ("type".to_string(), Value::Str(kind.into())),
    ];
    pairs.extend(fields);
    format!("{}\n", Value::Object(pairs))
}

pub(crate) fn error_event(class: &str, message: &str) -> String {
    event(
        "error",
        [
            ("error".to_string(), Value::Str(class.into())),
            ("message".to_string(), Value::Str(message.into())),
        ],
    )
}

/// The `rejected` answer: the job was not enqueued; retry after the hint.
pub(crate) fn rejected_event(retry_after_ms: u64) -> String {
    event(
        "rejected",
        [("retry_after_ms".to_string(), Value::UInt(retry_after_ms))],
    )
}

/// The address the shutdown handler connects to so the blocking accept
/// loop wakes up and observes the flag: the bound address itself, with
/// a wildcard IP (`0.0.0.0` / `::`) replaced by the matching loopback —
/// a wildcard is a *listen* address, not a connectable destination on
/// every platform.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::submit_fields;

    /// Every checked-in suite manifest, re-embedded as the submit line a
    /// client sends, stays at least 10× under the request-line cap.
    #[test]
    fn checked_in_suites_fit_well_under_the_line_cap() {
        let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut suites = 0;
        for entry in std::fs::read_dir(specs).expect("specs directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable manifest");
            let value = json::parse(&text).expect("manifests are JSON");
            if value.get("runs").is_none() {
                continue; // a RunSpec, not a suite
            }
            let spec = SuiteSpec::load(&path).expect("checked-in suites load");
            let line = event("submit", submit_fields(&spec, None));
            assert!(
                line.len() * 10 <= MAX_REQUEST_LINE_BYTES,
                "{}: a {}-byte submit line is within 10x of the cap",
                path.display(),
                line.len()
            );
            suites += 1;
        }
        assert!(suites >= 5, "found only {suites} suite manifests");
    }
}
