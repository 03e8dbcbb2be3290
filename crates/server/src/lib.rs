//! `xqdb-server`: a concurrent multi-session TCP front end over one shared
//! durable catalog.
//!
//! Architecture (DESIGN.md §12 has the full picture):
//!
//! * **Framing** — every request/response travels in one CRC-framed
//!   message ([`protocol`]), validated before it is interpreted.
//! * **Threading** — one accept loop plus one handler per connection, all
//!   spawned through [`xqdb_runtime::spawn_service`] (thread creation
//!   stays in the runtime crate).
//! * **Sessions** — every connection is a session over *one* shared
//!   [`SqlSession`] behind an `RwLock`: read statements (the SELECT family
//!   and all XQuery forms) run concurrently under the read lock against
//!   the catalog state frozen for the statement; writes (`CREATE`,
//!   `INSERT`) take the write lock and serialize through the WAL hook, so
//!   every admitted statement sees a consistent epoch.
//! * **Admission** — the [`admission::Admission`] gate turns the resource
//!   governor into a global budget split into per-request leases; excess
//!   requests queue with a deadline and are shed with a typed
//!   `Busy{retry_after_ms}` response, never a dropped connection.
//! * **Degradation** — per-request `Limits` (deadline + step cap) cancel
//!   runaway statements via the budget's cancellation checkpoints; slow
//!   clients hit per-frame read deadlines; stalled readers hit write
//!   deadlines.
//! * **Drain** — [`ServerHandle::shutdown`] stops accepting, lets
//!   in-flight requests finish, joins every handler, checkpoints a
//!   durable session through the WAL path, and reports what happened.

pub mod admission;
pub mod chaos;
pub mod protocol;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use xqdb_core::sqlxml::SqlSession;
use xqdb_core::ExecOptions;
use xqdb_obs::{Counter, Gauge, Obs};
use xqdb_runtime::{spawn_service, ServiceThread};
use xqdb_xdm::{ErrorCode, Limits, XdmError};

use admission::Admission;
use protocol::{FrameReadError, ProtocolReason, Request, Response};

/// Server tuning knobs. The defaults suit tests and small deployments;
/// `xqdb serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Statements allowed to execute concurrently (admission leases).
    pub max_sessions: usize,
    /// Evaluation-step cap per admitted statement (`None` = unlimited).
    /// Together with `max_sessions` this bounds total concurrent work.
    pub session_budget: Option<u64>,
    /// Requests allowed to wait for a lease before shedding starts.
    pub queue_depth: usize,
    /// How long a queued request may wait before it is shed.
    pub queue_timeout: Duration,
    /// Wall-clock deadline per admitted statement (`None` = unlimited).
    pub request_timeout: Option<Duration>,
    /// Whole-frame read deadline once a request's first byte arrives
    /// (slow-loris defense).
    pub frame_read_timeout: Duration,
    /// Deadline for writing a response to a stalled client.
    pub write_timeout: Duration,
    /// Back-off hint carried by `Busy` responses, in milliseconds.
    pub retry_after_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            session_budget: None,
            queue_depth: 16,
            queue_timeout: Duration::from_millis(500),
            request_timeout: None,
            frame_read_timeout: Duration::from_millis(2_000),
            write_timeout: Duration::from_millis(5_000),
            retry_after_ms: 50,
        }
    }
}

/// What a drain observed; returned by [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub connections_served: u64,
    /// Handler threads that panicked (must be 0 — the chaos matrix
    /// asserts it).
    pub connection_panics: usize,
    /// Whether the accept loop itself panicked.
    pub accept_panicked: bool,
    /// WAL sequence covered by the shutdown checkpoint, for durable
    /// sessions that checkpointed cleanly.
    pub checkpoint_seq: Option<u64>,
    /// Error text if the shutdown checkpoint failed.
    pub checkpoint_error: Option<String>,
}

struct Shared {
    cfg: ServerConfig,
    session: RwLock<SqlSession>,
    admission: Admission,
    obs: Obs,
    stop: AtomicBool,
    open_connections: AtomicU64,
    connections_served: AtomicU64,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running detached;
/// call `shutdown` for a graceful drain.
pub struct Server;

/// Handle to a started server: its bound address plus drain control.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: ServiceThread<Vec<ServiceThread<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 to let the OS pick) and serve `session`.
    /// The session's [`Obs`] handle is shared with the server's own
    /// admission metrics, so one registry tells the whole story.
    pub fn start(
        addr: &str,
        cfg: ServerConfig,
        session: SqlSession,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let obs = session.obs.clone();
        let admission = Admission::new(
            cfg.max_sessions,
            cfg.queue_depth,
            cfg.queue_timeout,
            cfg.retry_after_ms,
        );
        let shared = Arc::new(Shared {
            cfg,
            session: RwLock::new(session),
            admission,
            obs,
            stop: AtomicBool::new(false),
            open_connections: AtomicU64::new(0),
            connections_served: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = spawn_service("xqdb-accept", move || {
            accept_loop(&accept_shared, &listener)
        })?;
        Ok(ServerHandle { local_addr, shared, accept })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open (accepted and not yet closed).
    pub fn open_connections(&self) -> u64 {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// join every handler thread, checkpoint a durable session, report.
    pub fn shutdown(self) -> DrainReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        let mut connection_panics = 0usize;
        let accept_panicked = match self.accept.join() {
            Some(handlers) => {
                for h in handlers {
                    if h.join().is_none() {
                        connection_panics += 1;
                    }
                }
                false
            }
            None => true,
        };
        let (checkpoint_seq, checkpoint_error) = match self.shared.session.write() {
            Ok(mut session) => match session.checkpoint() {
                Ok(seq) => (seq, None),
                Err(e) => (None, Some(e.to_string())),
            },
            Err(_) => (None, Some("session lock poisoned".to_string())),
        };
        DrainReport {
            connections_served: self.shared.connections_served.load(Ordering::SeqCst),
            connection_panics,
            accept_panicked,
            checkpoint_seq,
            checkpoint_error,
        }
    }
}

/// Accept until the stop flag flips; returns every handler thread so the
/// drain can join them (counting panics).
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<ServiceThread<()>> {
    let mut handlers: Vec<ServiceThread<()>> = Vec::new();
    let mut joined: Vec<ServiceThread<()>> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(shared);
                let id = shared.connections_served.fetch_add(1, Ordering::SeqCst);
                match spawn_service(&format!("xqdb-conn-{id}"), move || {
                    handle_connection(&conn_shared, stream)
                }) {
                    Ok(handle) => handlers.push(handle),
                    // The OS refused a thread (burst beyond its limits):
                    // the TcpStream drops here, which closes the
                    // connection — the client sees a clean close and
                    // retries; the server stays up.
                    Err(_) => shared.obs.incr(Counter::SessionsShed),
                }
                // Reap finished handlers so a long-lived server does not
                // accumulate one JoinHandle per historical connection.
                let mut i = 0;
                while i < handlers.len() {
                    if handlers[i].is_finished() {
                        joined.push(handlers.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    handlers.append(&mut joined);
    handlers
}

/// Decrements the connection accounting even if the handler unwinds.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        // Gauge first: whoever sees the count reach zero must also see the
        // gauge back at zero.
        self.0.obs.dec_gauge(Gauge::ActiveConnections);
        self.0.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.open_connections.fetch_add(1, Ordering::SeqCst);
    shared.obs.inc_gauge(Gauge::ActiveConnections);
    let _guard = ConnGuard(shared);
    let idle_poll = Duration::from_millis(20);
    let stop = || shared.stop.load(Ordering::SeqCst);
    loop {
        let frame = protocol::read_frame(
            &mut stream,
            idle_poll,
            shared.cfg.frame_read_timeout,
            &stop,
        );
        let response = match frame {
            Ok(payload) => match Request::decode(&payload) {
                Ok(Request::Ping) => Response::Ok { body: "pong".into() },
                Ok(Request::Statement(text)) => serve_statement(shared, &text),
                Err(e) => {
                    // Typed reply, then close: the stream may be
                    // desynchronized after a malformed payload.
                    let resp = Response::Protocol {
                        reason: ProtocolReason::Malformed,
                        message: e.to_string(),
                    };
                    let _ = protocol::write_frame(
                        &mut stream,
                        &resp.encode(),
                        shared.cfg.write_timeout,
                    );
                    return;
                }
            },
            // Clean end of session, peer vanished mid-frame, or drain.
            Err(FrameReadError::Closed)
            | Err(FrameReadError::Truncated)
            | Err(FrameReadError::Shutdown)
            | Err(FrameReadError::Io(_)) => return,
            Err(FrameReadError::Deadline) => {
                let resp = Response::Protocol {
                    reason: ProtocolReason::ReadTimeout,
                    message: format!(
                        "frame not completed within {:?}",
                        shared.cfg.frame_read_timeout
                    ),
                };
                let _ = protocol::write_frame(
                    &mut stream,
                    &resp.encode(),
                    shared.cfg.write_timeout,
                );
                return;
            }
            Err(FrameReadError::Oversized(claimed)) => {
                let resp = Response::Protocol {
                    reason: ProtocolReason::Oversized,
                    message: format!(
                        "frame of {claimed} bytes exceeds the {} byte maximum",
                        protocol::MAX_FRAME
                    ),
                };
                let _ = protocol::write_frame(
                    &mut stream,
                    &resp.encode(),
                    shared.cfg.write_timeout,
                );
                return;
            }
            Err(FrameReadError::CrcMismatch) => {
                let resp = Response::Protocol {
                    reason: ProtocolReason::CrcMismatch,
                    message: "frame payload failed its CRC check".into(),
                };
                let _ = protocol::write_frame(
                    &mut stream,
                    &resp.encode(),
                    shared.cfg.write_timeout,
                );
                return;
            }
        };
        if protocol::write_frame(&mut stream, &response.encode(), shared.cfg.write_timeout)
            .is_err()
        {
            return;
        }
    }
}

/// Admission, execution, and typed error mapping for one statement.
fn serve_statement(shared: &Arc<Shared>, text: &str) -> Response {
    let lease = match shared.admission.admit() {
        Ok(lease) => lease,
        Err(shed) => {
            shared.obs.incr(Counter::SessionsShed);
            return Response::Busy { retry_after_ms: shed.retry_after_ms };
        }
    };
    shared.obs.incr(Counter::SessionsAdmitted);
    let limits = request_limits(&shared.cfg);
    let started = Instant::now();
    let result = if is_read_statement(text) {
        match shared.session.read() {
            Ok(session) => run_read_statement(&session, text, &limits),
            Err(_) => Err(XdmError::internal("session lock poisoned")),
        }
    } else {
        match shared.session.write() {
            Ok(mut session) => run_write_statement(&mut session, text, &limits),
            Err(_) => Err(XdmError::internal("session lock poisoned")),
        }
    };
    drop(lease);
    match result {
        Ok(body) => Response::Ok { body },
        Err(e) => {
            let timed_out = e.code == ErrorCode::Cancelled
                || (e.code == ErrorCode::ResourceExhausted
                    && shared
                        .cfg
                        .request_timeout
                        .is_some_and(|t| started.elapsed() >= t));
            if timed_out {
                shared.obs.incr(Counter::RequestsTimedOut);
            }
            Response::Error { code: e.code.to_string(), message: e.message }
        }
    }
}

/// Per-request limits derived from the server configuration.
pub fn request_limits(cfg: &ServerConfig) -> Limits {
    let mut l = Limits::unlimited();
    if let Some(steps) = cfg.session_budget {
        l = l.with_max_steps(steps);
    }
    if let Some(t) = cfg.request_timeout {
        l = l.with_timeout(t);
    }
    l
}

/// Statement classifier shared by the lock router and the test baselines:
/// the XQuery forms and the SQL SELECT family are reads; `CREATE`,
/// `INSERT`, `DELETE`, `UPDATE` — and `EXPLAIN ANALYZE` over DML, which
/// executes the statement it reports on — are writes and serialize under
/// the session's exclusive write lock.
pub fn is_read_statement(text: &str) -> bool {
    let lower = text.trim_start().to_ascii_lowercase();
    lower.starts_with("xquery") || !SqlSession::is_write_statement(text)
}

/// Options for an XQuery statement run on `session`'s catalog: its thread
/// degree, its observability handle and its access switches.
pub fn exec_options(session: &SqlSession, limits: &Limits) -> ExecOptions {
    ExecOptions {
        limits: limits.clone(),
        threads: session.catalog.runtime.effective_threads(),
        obs: session.obs.clone(),
        prefilter: session.access.prefilter,
        twig: session.access.twig,
        cost: session.access.cost,
    }
}

/// Run a read statement and render its result exactly as the wire protocol
/// ships it. Public so tests and the bench harness can compute the
/// single-session baseline through the *same* renderer the server uses —
/// byte-identity comparisons compare engine results, not formatting.
pub fn run_read_statement(
    session: &SqlSession,
    text: &str,
    limits: &Limits,
) -> Result<String, XdmError> {
    let stmt = text.trim();
    let lower = stmt.to_ascii_lowercase();
    if lower.starts_with("explain analyze xquery") {
        let rest = stmt["explain analyze xquery".len()..].trim();
        let opts = exec_options(session, limits);
        let (report, _out) = xqdb_core::explain_analyze_xquery(&session.catalog, rest, &opts)?;
        return Ok(report);
    }
    if lower.starts_with("explain xquery") {
        let rest = stmt["explain xquery".len()..].trim();
        let q = xqdb_xquery::parse_query(rest)
            .map_err(|e| XdmError::new(ErrorCode::XPST0003, e.to_string()))?;
        let plan = xqdb_core::plan_query(&session.catalog, q, &xqdb_core::AnalysisEnv::new());
        return Ok(xqdb_core::explain_with_threads(
            &plan,
            session.catalog.runtime.effective_threads(),
        ));
    }
    if lower.starts_with("xquery") {
        let rest = stmt["xquery".len()..].trim();
        let opts = exec_options(session, limits);
        let out = xqdb_core::run_xquery_with_options(&session.catalog, rest, &opts)?;
        let mut body = String::new();
        for (i, item) in out.sequence.iter().enumerate() {
            body.push_str(&format!(
                "row {}: {}\n",
                i + 1,
                xqdb_xmlparse::serialize_sequence(std::slice::from_ref(item))
            ));
        }
        body.push_str(&format!("-- {} item(s)\n", out.sequence.len()));
        return Ok(body);
    }
    let result = session.execute_read(stmt, limits)?;
    Ok(render_sql_result(&result))
}

/// Run a write statement (exclusive access) and render its confirmation.
pub fn run_write_statement(
    session: &mut SqlSession,
    text: &str,
    limits: &Limits,
) -> Result<String, XdmError> {
    let result = session.execute_with_limits(text.trim(), limits)?;
    Ok(render_sql_result(&result))
}

/// Route one statement through the same read/write split the server uses.
/// This is the single-session baseline the chaos matrix compares against.
pub fn run_statement(
    session: &mut SqlSession,
    text: &str,
    limits: &Limits,
) -> Result<String, XdmError> {
    if is_read_statement(text) {
        run_read_statement(session, text, limits)
    } else {
        run_write_statement(session, text, limits)
    }
}

fn render_sql_result(result: &xqdb_core::SqlResult) -> String {
    let mut body = result.render();
    if !result.rows.is_empty() {
        body.push_str(&format!("-- {} row(s)\n", result.rows.len()));
    }
    body
}
