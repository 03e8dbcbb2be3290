//! Chaos matrix for the concurrent server: under every connection-level
//! fault × load level, admitted statements return results
//! byte-identical to the single-session baseline, shed requests get typed
//! `Busy` responses within their deadline, malformed traffic gets typed
//! protocol errors, and the server never panics or leaks sessions (the
//! connection gauge returns to zero after every drain). A separate case
//! drives the `xqdb serve` binary end-to-end: SIGTERM under load finishes
//! in-flight requests, checkpoints through the WAL path, exits 0, and the
//! data directory replays cleanly afterwards.

// Test target: unwrap/expect are the assertion idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use xqdb_core::{Obs, ObsConfig};
use xqdb_obs::{Counter, Gauge};
use xqdb_runtime::WorkerPool;
use xqdb_server::chaos::{ChaosClient, ChaosOutcome, Client};
use xqdb_server::protocol::{ProtocolReason, Response};
use xqdb_server::{Server, ServerConfig, ServerHandle};
use xqdb_xdm::{ConnectionFault, ErrorCode, FaultInjector, FaultMode, Limits};

/// Start a server over the paper fixture with a metrics-enabled registry.
fn paper_server(cfg: ServerConfig, indexed: bool) -> (ServerHandle, Obs) {
    let mut session = common::paper_session(indexed);
    let obs = Obs::new(ObsConfig::metrics_only());
    session.set_obs(obs.clone());
    let handle = Server::start("127.0.0.1:0", cfg, session).expect("server binds loopback");
    (handle, obs)
}

/// The statements the matrix replays — a cross-section of the paper's
/// XQuery forms plus a SQL/XML SELECT — with their expected wire bodies,
/// computed through the *same* renderer the server uses, on a separate
/// single-session baseline with identical setup.
fn baseline(indexed: bool) -> Vec<(String, String)> {
    let mut session = common::paper_session(indexed);
    let stmts: Vec<String> = common::PAPER_QUERIES[..4]
        .iter()
        .map(|(_, q)| format!("xquery {q}"))
        .chain(std::iter::once(
            "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > 100]' \
             passing orddoc as \"o\")"
                .to_string(),
        ))
        .collect();
    stmts
        .into_iter()
        .map(|stmt| {
            let body = xqdb_server::run_statement(&mut session, &stmt, &Limits::unlimited())
                .expect("baseline statement runs");
            (stmt, body)
        })
        .collect()
}

/// Wait for every connection to close (clients dropped, handlers noticed).
fn await_zero_connections(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.open_connections() > 0 {
        assert!(Instant::now() < deadline, "connections must drain to zero");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn chaos_matrix_byte_identity_no_panics_no_leaks() {
    let faults = [
        ConnectionFault::DisconnectMidFrame,
        ConnectionFault::SlowLoris,
        ConnectionFault::CorruptFrame,
        ConnectionFault::OversizedFrame,
        ConnectionFault::Burst,
    ];
    let expected = baseline(true);
    for fault in faults {
        for clients in [1usize, 4] {
            let cfg = ServerConfig {
                // Generous admission so this test isolates fault
                // handling; shedding has its own test below.
                max_sessions: 8,
                queue_depth: 32,
                queue_timeout: Duration::from_secs(2),
                // Short frame deadline so SlowLoris resolves quickly.
                frame_read_timeout: Duration::from_millis(250),
                ..ServerConfig::default()
            };
            let (handle, obs) = paper_server(cfg, true);
            let addr = handle.local_addr().to_string();
            let tag = format!("{fault:?}, {clients} client(s)");
            let injector = Arc::new(FaultInjector::new(FaultMode::EveryNth(3)));
            let expected_ref = &expected;
            let addr_ref = &addr;
            let injector_ref = &injector;
            let tag_ref = &tag;
            let per_client = WorkerPool::new(clients).run(clients, |ci| {
                let mut cc =
                    ChaosClient::new(addr_ref, fault, Arc::clone(injector_ref));
                let mut oks = 0usize;
                let mut injected = 0usize;
                for (stmt, want) in expected_ref {
                    match cc.statement(stmt) {
                        Ok(ChaosOutcome::Response(Response::Ok { body })) => {
                            assert_eq!(
                                &body, want,
                                "{tag_ref}: client {ci} got a divergent body for {stmt:?}"
                            );
                            oks += 1;
                        }
                        Ok(ChaosOutcome::Response(Response::Busy { .. })) => {}
                        Ok(ChaosOutcome::Response(other)) => {
                            panic!("{tag_ref}: unexpected response {other:?} for {stmt:?}")
                        }
                        Ok(ChaosOutcome::FaultInjected(f, reply)) => {
                            injected += 1;
                            check_fault_reply(f, reply, tag_ref);
                        }
                        // The connection died from an earlier injected
                        // fault; the client reconnects next round.
                        Err(_) => {}
                    }
                }
                (oks, injected)
            });
            let oks: usize = per_client.iter().map(|(o, _)| o).sum();
            let injected: usize = per_client.iter().map(|(_, i)| i).sum();
            assert!(oks > 0, "{tag}: some statements must be admitted and answered");
            assert!(injected > 0, "{tag}: the injector must have fired (EveryNth(3))");
            await_zero_connections(&handle);
            let snap = obs.metrics_snapshot().expect("metrics on");
            assert_eq!(
                snap.gauge(Gauge::ActiveConnections),
                0,
                "{tag}: the connection gauge must return to zero"
            );
            let report = handle.shutdown();
            assert!(!report.accept_panicked, "{tag}: accept loop must not panic");
            assert_eq!(
                report.connection_panics, 0,
                "{tag}: no handler may panic under chaos"
            );
            assert!(report.connections_served > 0, "{tag}: connections were served");
        }
    }
}

/// Each fault's reply, when one arrived before the connection died, must be
/// the *matching* typed protocol error (or a successful response for the
/// benign burst shape) — never a panic, never silence plus a hang.
fn check_fault_reply(fault: ConnectionFault, reply: Option<Response>, tag: &str) {
    match (fault, reply) {
        (_, None) => {} // the server closed before (or instead of) replying
        (ConnectionFault::CorruptFrame, Some(resp)) => assert!(
            matches!(resp, Response::Protocol { reason: ProtocolReason::CrcMismatch, .. }),
            "{tag}: corrupt frame must be refused with CrcMismatch, got {resp:?}"
        ),
        (ConnectionFault::OversizedFrame, Some(resp)) => assert!(
            matches!(resp, Response::Protocol { reason: ProtocolReason::Oversized, .. }),
            "{tag}: oversized frame must be refused with Oversized, got {resp:?}"
        ),
        (ConnectionFault::SlowLoris, Some(resp)) => assert!(
            matches!(resp, Response::Protocol { reason: ProtocolReason::ReadTimeout, .. }),
            "{tag}: a slow-loris frame must be refused with ReadTimeout, got {resp:?}"
        ),
        (ConnectionFault::Burst, Some(resp)) => assert!(
            matches!(resp, Response::Ok { .. } | Response::Busy { .. }),
            "{tag}: burst requests get ordinary admission outcomes, got {resp:?}"
        ),
        (ConnectionFault::DisconnectMidFrame, Some(resp)) => {
            panic!("{tag}: no reply can follow a mid-frame disconnect, got {resp:?}")
        }
    }
}

/// A statement whose evaluation cannot complete within any configured
/// request deadline here (millions of budget ticks), so it reliably holds
/// its admission slot until the per-request timeout cancels it.
const HEAVY: &str = "xquery for $a in 1 to 4000 for $b in 1 to 4000 return $a * $b";

#[test]
fn overload_sheds_typed_busy_within_deadline_and_reconciles_counters() {
    let cfg = ServerConfig {
        max_sessions: 1,
        queue_depth: 0,
        queue_timeout: Duration::from_millis(20),
        request_timeout: Some(Duration::from_millis(10)),
        retry_after_ms: 37,
        ..ServerConfig::default()
    };
    let (handle, obs) = paper_server(cfg, true);
    let addr = handle.local_addr().to_string();

    // Sanity on an idle server: the heavy statement is admitted, then the
    // per-request deadline cancels it with a typed resource error.
    let mut probe = Client::connect(&addr).expect("connect");
    match probe.statement(HEAVY).expect("typed response") {
        Response::Error { code, .. } => assert_eq!(
            code,
            ErrorCode::ResourceExhausted.to_string(),
            "the deadline surfaces as the typed resource-exhausted error"
        ),
        other => panic!("heavy statement must hit its deadline, got {other:?}"),
    }
    drop(probe);
    let base = obs.metrics_snapshot().expect("metrics on");
    assert_eq!(base.counter(Counter::SessionsAdmitted), 1);
    assert_eq!(base.counter(Counter::RequestsTimedOut), 1);

    // Overload: six clients hammer a single execution slot with no queue.
    let addr_ref = &addr;
    let per_client = WorkerPool::new(6).run(6, |_| {
        let mut client = Client::connect(addr_ref).expect("connect");
        let mut busy = 0u64;
        let mut errors = 0u64;
        let mut oks = 0u64;
        for _ in 0..3 {
            let t0 = Instant::now();
            match client.statement(HEAVY).expect("every request gets a typed response") {
                Response::Busy { retry_after_ms } => {
                    assert_eq!(retry_after_ms, 37, "shed carries the configured hint");
                    busy += 1;
                }
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::ResourceExhausted.to_string());
                    errors += 1;
                }
                Response::Ok { .. } => oks += 1,
                other => panic!("unexpected response under overload: {other:?}"),
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "every outcome must arrive within queue + request deadlines"
            );
        }
        (busy, errors, oks)
    });
    let busy: u64 = per_client.iter().map(|(b, _, _)| b).sum();
    let errors: u64 = per_client.iter().map(|(_, e, _)| e).sum();
    let oks: u64 = per_client.iter().map(|(_, _, o)| o).sum();
    assert_eq!(oks, 0, "the heavy statement can never finish inside 10ms");
    assert!(busy > 0, "a single slot with no queue must shed under 6 clients");
    assert!(errors > 0, "admitted requests must reach the deadline");

    let snap = obs.metrics_snapshot().expect("metrics on");
    assert_eq!(
        snap.counter(Counter::SessionsAdmitted) - base.counter(Counter::SessionsAdmitted),
        errors,
        "every admitted request is counted exactly once"
    );
    assert_eq!(
        snap.counter(Counter::SessionsShed),
        busy,
        "every Busy response is a counted shed"
    );
    assert_eq!(
        snap.counter(Counter::RequestsTimedOut) - base.counter(Counter::RequestsTimedOut),
        errors,
        "every admitted heavy request timed out"
    );
    assert_eq!(busy + errors, 18, "admission is a partition: every request shed or admitted");

    await_zero_connections(&handle);
    let report = handle.shutdown();
    assert_eq!(report.connection_panics, 0);
    assert!(!report.accept_panicked);
    assert_eq!(
        obs.metrics_snapshot().expect("metrics on").gauge(Gauge::ActiveConnections),
        0,
        "the gauge reconciles with zero open connections after drain"
    );
}

#[test]
fn cross_connection_plan_cache_invalidation_on_ddl() {
    let (handle, obs) = paper_server(ServerConfig::default(), false);
    let addr = handle.local_addr().to_string();
    let query = "SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > 100]' \
                 passing orddoc as \"o\")";

    let mut conn_a = Client::connect(&addr).expect("connect A");
    let mut conn_b = Client::connect(&addr).expect("connect B");

    let first = match conn_a.statement(query).expect("first run") {
        Response::Ok { body } => body,
        other => panic!("expected rows, got {other:?}"),
    };
    let before = obs.metrics_snapshot().expect("metrics on");
    match conn_a.statement(query).expect("second run") {
        Response::Ok { body } => assert_eq!(body, first),
        other => panic!("expected rows, got {other:?}"),
    }
    let after = obs.metrics_snapshot().expect("metrics on");
    assert_eq!(
        after.counter(Counter::PlanCacheHits) - before.counter(Counter::PlanCacheHits),
        1,
        "the repeated statement on connection A hits the shared plan cache"
    );

    // DDL on connection B must invalidate A's cached plan (shared epoch).
    match conn_b
        .statement(
            "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN \
             '//lineitem/@price' AS double",
        )
        .expect("DDL runs")
    {
        Response::Ok { .. } => {}
        other => panic!("DDL must succeed, got {other:?}"),
    }
    let before = obs.metrics_snapshot().expect("metrics on");
    let third = match conn_a.statement(query).expect("post-DDL run") {
        Response::Ok { body } => body,
        other => panic!("expected rows, got {other:?}"),
    };
    let after = obs.metrics_snapshot().expect("metrics on");
    assert_eq!(
        after.counter(Counter::PlanCacheMisses) - before.counter(Counter::PlanCacheMisses),
        1,
        "connection B's DDL must invalidate connection A's cached plan"
    );
    assert_eq!(
        after.counter(Counter::PlanCacheHits),
        before.counter(Counter::PlanCacheHits),
        "the stale plan must not be reused"
    );
    assert_eq!(third, first, "the index is a pure pre-filter: identical rows after DDL");
    assert!(
        after.counter(Counter::IndexProbes) > before.counter(Counter::IndexProbes),
        "the replanned statement actually uses the new index"
    );

    drop(conn_a);
    drop(conn_b);
    await_zero_connections(&handle);
    let report = handle.shutdown();
    assert_eq!(report.connection_panics, 0);
}

#[test]
fn writes_serialize_against_concurrent_reads() {
    // Four writers insert disjoint rows while four readers run the paper
    // query; afterwards the table holds every row exactly once and a fresh
    // read agrees with a baseline session replaying the same writes.
    let (handle, _obs) = paper_server(ServerConfig::default(), true);
    let addr = handle.local_addr().to_string();
    let addr_ref = &addr;
    WorkerPool::new(8).run(8, |i| {
        let mut client = Client::connect(addr_ref).expect("connect");
        if i < 4 {
            let stmt = format!(
                r#"INSERT INTO orders VALUES ({}, '<order><custid>{}</custid><lineitem price="{}.00"/></order>')"#,
                100 + i,
                2000 + i,
                300 + i
            );
            match client.statement(&stmt).expect("write") {
                Response::Ok { .. } => {}
                other => panic!("writer {i}: {other:?}"),
            }
        } else {
            for _ in 0..3 {
                match client.statement("xquery db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custid")
                    .expect("read")
                {
                    Response::Ok { .. } | Response::Busy { .. } => {}
                    other => panic!("reader {i}: {other:?}"),
                }
            }
        }
    });
    let mut client = Client::connect(&addr).expect("connect");
    let got = match client
        .statement("SELECT ordid FROM orders")
        .expect("final read")
    {
        Response::Ok { body } => body,
        other => panic!("expected rows, got {other:?}"),
    };
    // Replay the same writes on a baseline session; SELECT without a
    // predicate returns rows in insertion-independent table order only if
    // the store is append-ordered per writer — compare as sorted row sets.
    let mut baseline_session = common::paper_session(true);
    for i in 0..4 {
        baseline_session
            .execute(&format!(
                r#"INSERT INTO orders VALUES ({}, '<order><custid>{}</custid><lineitem price="{}.00"/></order>')"#,
                100 + i,
                2000 + i,
                300 + i
            ))
            .expect("baseline write");
    }
    let want = xqdb_server::run_statement(
        &mut baseline_session,
        "SELECT ordid FROM orders",
        &Limits::unlimited(),
    )
    .expect("baseline read");
    // Row labels depend on arrival order under concurrency; compare the
    // value sets.
    let values = |body: &str| {
        let mut vals: Vec<String> = body
            .lines()
            .filter_map(|l| l.strip_prefix("row ").and_then(|r| r.split_once(": ")))
            .map(|(_, v)| v.to_string())
            .collect();
        vals.sort();
        vals
    };
    let got_vals = values(&got);
    let want_vals = values(&want);
    assert_eq!(got_vals, want_vals, "all 8 rows present exactly once");

    drop(client);
    await_zero_connections(&handle);
    assert_eq!(handle.shutdown().connection_panics, 0);
}

#[test]
fn readers_never_observe_half_removed_documents() {
    // DELETE and REPLACE are atomic to concurrent connections: every
    // marker document here carries exactly three lineitems, so a reader
    // admitted mid-delete that counted anything not divisible by three
    // would have seen a half-removed document, and the row being flipped
    // by concurrent REPLACEs must always show exactly three (never zero,
    // six, or a partial mix of old and new).
    let (handle, _obs) = paper_server(ServerConfig::default(), true);
    let addr = handle.local_addr().to_string();
    let doc = |price: u32| {
        format!(
            r#"<order><custid>2000</custid><lineitem price="{price}.00"/><lineitem price="{price}.00"/><lineitem price="{price}.00"/></order>"#
        )
    };
    let mut setup = Client::connect(&addr).expect("connect for setup");
    for i in 0..6u32 {
        let stmt = format!("INSERT INTO orders VALUES ({}, '{}')", 200 + i, doc(5001 + i));
        match setup.statement(&stmt).expect("setup insert") {
            Response::Ok { .. } => {}
            other => panic!("setup insert failed: {other:?}"),
        }
    }
    match setup
        .statement(&format!("INSERT INTO orders VALUES (250, '{}')", doc(6001)))
        .expect("setup insert")
    {
        Response::Ok { .. } => {}
        other => panic!("setup insert failed: {other:?}"),
    }
    drop(setup);

    let count_of = |body: &str, what: &str| -> u64 {
        body.lines()
            .next()
            .and_then(|l| l.strip_prefix("row 1: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{what} must return one number, got {body:?}"))
    };
    let addr_ref = &addr;
    let doc_ref = &doc;
    let count_ref = &count_of;
    // 3 deleters (two disjoint rows each), 1 replacer flipping row 250,
    // 4 readers probing through XQuery counts and the indexed SQL path.
    WorkerPool::new(8).run(8, |i| {
        let mut client = Client::connect(addr_ref).expect("connect");
        if i < 3 {
            for k in 0..2 {
                let stmt = format!("DELETE FROM orders WHERE ordid = {}", 200 + i * 2 + k);
                match client.statement(&stmt).expect("delete") {
                    Response::Ok { body } => assert!(
                        body.contains("1 row(s) deleted"),
                        "deleter {i}: each target exists exactly once, got {body:?}"
                    ),
                    other => panic!("deleter {i}: {other:?}"),
                }
            }
        } else if i == 3 {
            for flip in 0..4u32 {
                let price = if flip % 2 == 0 { 6002 } else { 6001 };
                let stmt = format!(
                    "UPDATE orders SET orddoc = '{}' WHERE ordid = 250",
                    doc_ref(price)
                );
                match client.statement(&stmt).expect("replace") {
                    Response::Ok { body } => assert!(
                        body.contains("1 row(s) updated"),
                        "replacer: row 250 always exists, got {body:?}"
                    ),
                    other => panic!("replacer: {other:?}"),
                }
            }
        } else {
            for _ in 0..6 {
                match client
                    .statement(
                        "xquery count(db2-fn:xmlcolumn('ORDERS.ORDDOC')\
                         //lineitem[@price > 5000 and @price < 6000])",
                    )
                    .expect("read")
                {
                    Response::Ok { body } => {
                        let n = count_ref(&body, "delete-marker count");
                        assert!(
                            n % 3 == 0 && n <= 18,
                            "reader {i}: a count of {n} exposes a half-removed document"
                        );
                    }
                    Response::Busy { .. } => {}
                    other => panic!("reader {i}: {other:?}"),
                }
                match client
                    .statement(
                        "xquery count(db2-fn:xmlcolumn('ORDERS.ORDDOC')\
                         //lineitem[@price > 6000])",
                    )
                    .expect("read")
                {
                    Response::Ok { body } => assert_eq!(
                        count_ref(&body, "replace-marker count"),
                        3,
                        "reader {i}: a REPLACE must swap the document wholesale"
                    ),
                    Response::Busy { .. } => {}
                    other => panic!("reader {i}: {other:?}"),
                }
                // The indexed probe runs against the same churn: every row
                // it returns must be a marker row that still fully exists.
                match client
                    .statement(
                        "SELECT ordid FROM orders WHERE XMLExists(\
                         '$o//lineitem[@price > 5000]' passing orddoc as \"o\")",
                    )
                    .expect("read")
                {
                    Response::Ok { body } => {
                        for val in body.lines().filter_map(|l| {
                            l.strip_prefix("row ").and_then(|r| r.split_once(": ")).map(|(_, v)| v)
                        }) {
                            let id: u32 = val.trim().parse().expect("ordid is an integer");
                            assert!(
                                (200..206).contains(&id) || id == 250,
                                "reader {i}: indexed probe surfaced a phantom row {id}"
                            );
                        }
                    }
                    Response::Busy { .. } => {}
                    other => panic!("reader {i}: {other:?}"),
                }
            }
        }
    });

    // Final state: byte-identical to a baseline session replaying the same
    // net effect (all six marker rows deleted, row 250 on its last flip).
    let mut baseline_session = common::paper_session(true);
    for i in 0..6u32 {
        baseline_session
            .execute(&format!("INSERT INTO orders VALUES ({}, '{}')", 200 + i, doc(5001 + i)))
            .expect("baseline insert");
    }
    baseline_session
        .execute(&format!("INSERT INTO orders VALUES (250, '{}')", doc(6001)))
        .expect("baseline insert");
    for i in 0..6u32 {
        baseline_session
            .execute(&format!("DELETE FROM orders WHERE ordid = {}", 200 + i))
            .expect("baseline delete");
    }
    baseline_session
        .execute(&format!("UPDATE orders SET orddoc = '{}' WHERE ordid = 250", doc(6001)))
        .expect("baseline replace");
    let mut client = Client::connect(&addr).expect("connect");
    for probe in [
        "SELECT ordid FROM orders",
        "xquery db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 5000]",
    ] {
        let got = match client.statement(probe).expect("final read") {
            Response::Ok { body } => body,
            other => panic!("final read: {other:?}"),
        };
        let want = xqdb_server::run_statement(&mut baseline_session, probe, &Limits::unlimited())
            .expect("baseline read");
        assert_eq!(got, want, "final state diverged from the serial baseline for {probe:?}");
    }

    drop(client);
    await_zero_connections(&handle);
    assert_eq!(handle.shutdown().connection_panics, 0);
}

/// End-to-end drain: run the real `xqdb serve` binary on a durable data
/// directory, load it over the wire, SIGTERM it with a request in flight,
/// and verify: the in-flight request completes, the exit code is 0, the
/// shutdown checkpoint is written, and `xqdb recover` replays cleanly.
#[test]
#[cfg(unix)]
fn sigterm_drains_checkpoints_and_recovers() {
    use std::io::BufRead;

    let dir = std::env::temp_dir().join(format!("xqdb-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");

    let bin = env!("CARGO_BIN_EXE_xqdb");
    let mut child = std::process::Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn xqdb serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read server stdout") > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let mut client = Client::connect(&addr).expect("connect to served addr");
    for stmt in common::paper_setup_stmts(true) {
        match client.statement(&stmt).expect("setup over the wire") {
            Response::Ok { .. } => {}
            other => panic!("setup statement failed: {other:?}"),
        }
    }
    // Fire a read, then SIGTERM while it is in flight: drain must finish it.
    let in_flight = "xquery for $a in 1 to 100 for $b in 1 to 100 \
                     return count(db2-fn:xmlcolumn('ORDERS.ORDDOC'))";
    client.send_statement(in_flight).expect("request goes out before the signal");
    let kill = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -TERM {}", child.id()))
        .status()
        .expect("send SIGTERM");
    assert!(kill.success(), "kill -TERM must succeed");
    match client.read_reply().expect("in-flight request completes during drain") {
        Response::Ok { body } => assert!(
            body.ends_with("-- 10000 item(s)\n"),
            "in-flight result is complete — body tail: {:?}",
            &body[body.len().saturating_sub(40)..]
        ),
        other => panic!("in-flight request must finish, got {other:?}"),
    }
    drop(client);

    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful drain must exit 0, got {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drain output");
    assert!(rest.contains("draining:"), "drain banner printed — output:\n{rest}");
    assert!(
        rest.contains("checkpoint written: manifest covers sequence"),
        "SIGTERM must checkpoint through the WAL path — output:\n{rest}"
    );

    // The drained directory replays cleanly.
    let recover = std::process::Command::new(bin)
        .arg("recover")
        .arg(&dir)
        .output()
        .expect("run xqdb recover");
    assert!(recover.status.success(), "recover must exit 0");
    let out = String::from_utf8_lossy(&recover.stdout);
    assert!(out.contains("table ORDERS"), "recovered state lists the table — output:\n{out}");
    assert!(
        out.contains("index LI_PRICE"),
        "recovered state rebuilt the paper index — output:\n{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
