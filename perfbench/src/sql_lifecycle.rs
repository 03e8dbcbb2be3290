//! `sql_lifecycle`: SQL/XML through a loopback `xqdb-server`. Two
//! connections each run the order lifecycle (insert, amend, delete, hot-key
//! skew) over their own key range with `XMLEXISTS` and point SELECTs mixed
//! in, against a durable session. Reads and writes share one table and pass
//! through wire, admission, the write lock, the SQL front end, DML match
//! resolution, derived-state maintenance and the WAL.
//!
//! The server exposes no checkpoint request, so every
//! [`CHECKPOINT_EVERY`] statements the benchmark drains it — the drain
//! checkpoints — reopens the directory and serves the recovered session.
//! The clients wait meanwhile; that pause is outside the window.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xqdb_core::sqlxml::parse_sql;
use xqdb_core::{verify_derived_state, Obs, ObsConfig, SqlSession};
use xqdb_obs::{Counter, MetricsSnapshot};
use xqdb_server::chaos::Client as Wire;
use xqdb_server::protocol::Response;
use xqdb_server::{Server, ServerConfig, ServerHandle};
use xqdb_workload::{DmlOp, MixedDmlParams, MixedDmlScenario, OrderGenerator, OrderParams};

use crate::common::{
    data_dir, heap_file_bytes, median, ms_since, span_ms, span_self_ms, Args, EndToEnd, Latencies,
    Layers, Metrics, Outcome,
};
use crate::durable;
use crate::xq_access::{account, fetch_us_per_row, overhead_pct, parse_us_per_kb, reconcile};

/// Orders loaded before the window; the clients never touch them.
pub const PRELOAD: usize = 5_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Reopens after each drain, and again after the window, whose fastest is
/// `recovery_s`. A reopen takes a fraction of a second, so back-to-back
/// reopens at the end alone fit inside one slow stretch of the run; spread
/// over the drains, they sample the whole run.
const REOPENS: usize = 4;
/// Connections, each a closed-loop client.
pub const CLIENTS: usize = 2;
/// Statements between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 250;
/// Client `c` owns ordids `(c + 1) * KEY_RANGE ..`.
const KEY_RANGE: i64 = 10_000_000;
/// Share of statements that are mixed-in reads beside the lifecycle.
const READ_SHARE: f64 = 0.3;

/// Lineitem prices of one order document.
fn prices(xml: &str) -> Vec<f64> {
    xml.split("price=\"")
        .skip(1)
        .filter_map(|r| r.split('"').next()?.parse().ok())
        .collect()
}

/// What a statement must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A write's confirmation.
    Message(&'static str),
    /// A read's ordids within the keys the client can predict: the preload
    /// and its own range.
    Rows(BTreeSet<i64>),
}

/// One statement of a client's stream.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub sql: String,
    pub write: bool,
    pub expect: Expect,
    /// XML text bytes the statement writes.
    pub doc_bytes: usize,
}

/// The preload: documents and their prices by ordid.
pub struct Preload {
    pub docs: Vec<String>,
    prices: Vec<Vec<f64>>,
}

impl Preload {
    pub fn new(seed: u64) -> Preload {
        let mut g = OrderGenerator::new(OrderParams {
            seed: seed ^ 0x9E10AD,
            ..Default::default()
        });
        let docs: Vec<String> = (0..PRELOAD).map(|_| g.next_order()).collect();
        let prices = docs.iter().map(|d| prices(d)).collect();
        Preload { docs, prices }
    }
}

/// One connection's deterministic statement stream and its shadow of the
/// keys it owns (ordid → lineitem prices and document bytes).
pub struct Client {
    scenario: MixedDmlScenario,
    rng: StdRng,
    offset: i64,
    live: HashMap<i64, (Vec<f64>, usize)>,
}

impl Client {
    pub fn new(seed: u64, id: usize) -> Client {
        let s = seed.wrapping_mul(1000).wrapping_add(id as u64);
        Client {
            // Inserts are about a third of the writes, so the write median
            // lies inside the amend/delete mode rather than between the
            // sub-millisecond inserts and the matching statements.
            scenario: MixedDmlScenario::new(MixedDmlParams {
                seed: s,
                insert_weight: 30,
                amend_weight: 35,
                query_weight: 15,
                delete_weight: 20,
                order: OrderParams {
                    seed: s ^ 0x0D0C,
                    ..Default::default()
                },
                ..Default::default()
            }),
            rng: StdRng::seed_from_u64(s ^ 0x5E1EC7),
            offset: (id as i64 + 1) * KEY_RANGE,
            live: HashMap::new(),
        }
    }

    /// Keys whose rows this client can predict.
    fn owns(&self, k: i64) -> bool {
        (0..PRELOAD as i64).contains(&k) || (self.offset..self.offset + KEY_RANGE).contains(&k)
    }

    /// Live rows in the client's view.
    pub fn live_rows(&self) -> usize {
        self.live.len()
    }

    /// XML bytes of the client's live documents.
    pub fn live_doc_bytes(&self) -> usize {
        self.live.values().map(|v| v.1).sum()
    }

    fn matching(&self, pre: &Preload, pred: impl Fn(f64) -> bool) -> BTreeSet<i64> {
        let mut keys: BTreeSet<i64> = (0..PRELOAD)
            .filter(|&k| pre.prices[k].iter().any(|&p| pred(p)))
            .map(|k| k as i64)
            .collect();
        keys.extend(
            self.live
                .iter()
                .filter(|(_, v)| v.0.iter().any(|&p| pred(p)))
                .map(|(k, _)| *k),
        );
        keys
    }

    fn price_read(&self, pre: &Preload, t: f64) -> Stmt {
        Stmt {
            sql: format!(
                "SELECT ordid FROM orders WHERE XMLEXISTS('$o//lineitem[@price > {t}]' passing orddoc as \"o\")"
            ),
            write: false,
            expect: Expect::Rows(self.matching(pre, |p| p > t)),
            doc_bytes: 0,
        }
    }

    /// The next statement; the shadow advances as if it succeeds.
    pub fn next(&mut self, pre: &Preload) -> Stmt {
        if self.rng.random_bool(READ_SHARE) {
            return match self.rng.random_range(0..3u32) {
                0 => {
                    let t = 990.0 + 2.5 * f64::from(self.rng.random_range(0..4u32));
                    self.price_read(pre, t)
                }
                1 => {
                    let a = 100.5 + 200.0 * f64::from(self.rng.random_range(0..4u32));
                    let b = a + 2.0;
                    Stmt {
                        sql: format!(
                            "SELECT ordid FROM orders WHERE XMLEXISTS('$o//lineitem[@price > {a} and @price < {b}]' passing orddoc as \"o\")"
                        ),
                        write: false,
                        expect: Expect::Rows(self.matching(pre, |p| p > a && p < b)),
                        doc_bytes: 0,
                    }
                }
                _ => {
                    let k = match self.rng.random_range(0..3u32) {
                        0 => self.rng.random_range(0..PRELOAD as i64),
                        1 => self.offset + self.rng.random_range(0..1000i64),
                        _ => self
                            .scenario
                            .live_ids()
                            .first()
                            .map_or(self.offset, |k| k + self.offset),
                    };
                    let present = k < PRELOAD as i64 || self.live.contains_key(&k);
                    Stmt {
                        sql: format!("SELECT ordid FROM orders WHERE ordid = {k}"),
                        write: false,
                        expect: Expect::Rows(if present {
                            BTreeSet::from([k])
                        } else {
                            BTreeSet::new()
                        }),
                        doc_bytes: 0,
                    }
                }
            };
        }
        let off = self.offset;
        match self.scenario.next_op() {
            DmlOp::Insert { ordid, xml } => {
                self.live.insert(ordid + off, (prices(&xml), xml.len()));
                let doc_bytes = xml.len();
                let sql = DmlOp::Insert {
                    ordid: ordid + off,
                    xml,
                }
                .to_sql();
                Stmt {
                    sql,
                    write: true,
                    expect: Expect::Message("1 row inserted"),
                    doc_bytes,
                }
            }
            DmlOp::Amend { ordid, xml } => {
                self.live.insert(ordid + off, (prices(&xml), xml.len()));
                let doc_bytes = xml.len();
                let sql = DmlOp::Amend {
                    ordid: ordid + off,
                    xml,
                }
                .to_sql();
                Stmt {
                    sql,
                    write: true,
                    expect: Expect::Message("1 row(s) updated"),
                    doc_bytes,
                }
            }
            DmlOp::Delete { ordid } => {
                self.live.remove(&(ordid + off));
                let sql = DmlOp::Delete { ordid: ordid + off }.to_sql();
                Stmt {
                    sql,
                    write: true,
                    expect: Expect::Message("1 row(s) deleted"),
                    doc_bytes: 0,
                }
            }
            DmlOp::Query { threshold } => self.price_read(pre, threshold),
        }
    }

    /// Does a wire response match the expectation?
    fn check(&self, stmt: &Stmt, body: &str) -> bool {
        match &stmt.expect {
            Expect::Message(m) => body.trim() == *m,
            Expect::Rows(want) => {
                let got: BTreeSet<i64> = body
                    .lines()
                    .filter_map(|l| {
                        l.strip_prefix("row ")?
                            .split_once(": ")?
                            .1
                            .trim()
                            .parse()
                            .ok()
                    })
                    .filter(|k| self.owns(*k))
                    .collect();
                got == *want
            }
        }
    }
}

/// One executed statement, for the traced run's serial replay.
struct Logged {
    end: Instant,
    sql: String,
    write: bool,
    client_ms: f64,
}

/// What the windows measured.
#[derive(Default)]
struct Measured {
    statements: u64,
    reads: Latencies,
    writes: Latencies,
    doc_bytes_written: f64,
    checkpoint_ms: Vec<f64>,
    recovery_s: Vec<f64>,
    /// `(statements, seconds)` of untraced and traced segments.
    split: [(u64, f64); 2],
    log: Vec<Logged>,
}

/// Open, create the schema and index, preload, checkpoint and reopen: the
/// durable set-up. Returns the reopened session.
fn setup(dir: &Path, pre: &Preload, obs: &Obs) -> SqlSession {
    let _ = std::fs::remove_dir_all(dir);
    let mut s = durable::open(dir, obs);
    durable::exec(&mut s, "CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    durable::exec(
        &mut s,
        "CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double",
    );
    durable::load(&mut s, &pre.docs);
    durable::checkpoint(&mut s);
    drop(s);
    durable::open(dir, obs)
}

/// Drive the clients through segments of [`CHECKPOINT_EVERY`] statements
/// until `seconds` of active time have passed, serving the session with
/// `obs`; the segments' counts land in `m.split[side]`. Each drain is
/// followed by a reopen, whose derived state must verify clean.
#[allow(clippy::too_many_arguments)]
fn measure(
    dir: &Path,
    mut session: SqlSession,
    pre: &Preload,
    clients: &mut [Client],
    seconds: f64,
    obs: &Obs,
    side: usize,
    m: &mut Measured,
    out: &mut Outcome,
) -> SqlSession {
    let mut active = 0.0;
    while active < seconds {
        session.set_obs(obs.clone());
        let handle = match Server::start("127.0.0.1:0", ServerConfig::default(), session) {
            Ok(h) => h,
            Err(e) => panic!("start the server: {e}"),
        };
        let (done, secs) = segment(&handle, pre, clients, seconds - active, m, out);
        m.split[side].0 += done;
        m.split[side].1 += secs;
        active += secs;
        let t0 = Instant::now();
        let report = handle.shutdown();
        m.checkpoint_ms.push(ms_since(t0));
        if report.connection_panics > 0 || report.checkpoint_error.is_some() {
            out.fail(format!("drain: {report:?}"));
        }
        m.recovery_s.extend(durable::reopen_times(dir, REOPENS));
        let t0 = Instant::now();
        session = durable::open(dir, obs);
        m.recovery_s.push(t0.elapsed().as_secs_f64());
        match verify_derived_state(&session.catalog) {
            Ok(r) if r.is_clean() => {}
            Ok(r) => out.fail(format!("derived state after reopen:\n{}", r.render())),
            Err(e) => out.fail(format!("verify after reopen: {e}")),
        }
    }
    let want = PRELOAD + clients.iter().map(Client::live_rows).sum::<usize>();
    let got = session
        .catalog
        .db
        .table("orders")
        .map_or(0, xqdb_storage::Table::live_len);
    if got != want {
        out.fail(format!(
            "{got} live rows after the run, the clients expect {want}"
        ));
    }
    session
}

/// One segment: every client in its own thread, each connection a closed
/// loop, until the segment's statement budget or the time is spent.
fn segment(
    handle: &ServerHandle,
    pre: &Preload,
    clients: &mut [Client],
    seconds_left: f64,
    m: &mut Measured,
    out: &mut Outcome,
) -> (u64, f64) {
    let addr = handle.local_addr().to_string();
    let issued = AtomicU64::new(0);
    let start = Instant::now();
    // Per client: (statement, latency, completion) triples and problems.
    type Done = (Vec<(Stmt, f64, Instant)>, Vec<String>);
    let results: Vec<Done> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (addr, issued) = (&addr, &issued);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut problems = Vec::new();
                    let mut wire = match Wire::connect(addr) {
                        Ok(w) => w,
                        Err(e) => return (done, vec![format!("connect: {e}")]),
                    };
                    while start.elapsed().as_secs_f64() < seconds_left
                        && issued.fetch_add(1, Ordering::SeqCst) < CHECKPOINT_EVERY
                    {
                        let stmt = client.next(pre);
                        let t0 = Instant::now();
                        let reply = wire.statement(&stmt.sql);
                        let ms = ms_since(t0);
                        match reply {
                            Ok(Response::Ok { body }) if client.check(&stmt, &body) => {}
                            Ok(Response::Ok { body }) => problems.push(format!(
                                "wrong answer to {}: {}",
                                short(&stmt.sql),
                                short(&body)
                            )),
                            Ok(other) => problems.push(format!("{}: {other:?}", short(&stmt.sql))),
                            Err(e) => problems.push(format!("{}: {e}", short(&stmt.sql))),
                        }
                        done.push((stmt, ms, Instant::now()));
                    }
                    (done, problems)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| (Vec::new(), vec!["client thread panicked".into()]))
            })
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut n = 0;
    for (done, problems) in results {
        for p in problems {
            out.fail(p);
        }
        for (stmt, ms, end) in done {
            n += 1;
            out.attempted += 1;
            if stmt.write {
                m.writes.0.push(ms);
            } else {
                m.reads.0.push(ms);
            }
            m.doc_bytes_written += stmt.doc_bytes as f64;
            m.log.push(Logged {
                end,
                sql: stmt.sql,
                write: stmt.write,
                client_ms: ms,
            });
        }
    }
    m.statements += n;
    (n, secs)
}

fn short(s: &str) -> String {
    s.chars().take(120).collect()
}

fn counter(snap: Option<&MetricsSnapshot>, c: Counter) -> f64 {
    snap.map_or(0.0, |s| s.counter(c) as f64)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let dir = data_dir("sql_lifecycle");
    let pre = Preload::new(args.seed);
    let served = Obs::new(ObsConfig::metrics_only());
    let mut session = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(session.take());
        let t0 = Instant::now();
        session = Some(setup(&dir, &pre, &Obs::disabled()));
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Some(session) = session else { return out };
    eprintln!(
        "sql_lifecycle: {PRELOAD} preloaded orders, set-up {:?} s, peak RSS {:.1} MiB",
        e2e.setup_s,
        crate::common::peak_rss_mb()
    );

    // Served as `xqdb serve` runs: metrics on, tracing off. The traced run
    // follows with a second window served with tracing on; its untraced
    // window, there only for the tracing overhead, is half as long so the
    // serial replay of both still fits the run's time limit.
    let mut clients: Vec<Client> = (0..CLIENTS).map(|c| Client::new(args.seed, c)).collect();
    let mut m = Measured::default();
    let (a, s) = (&mut clients, args.seconds);
    let first = if args.trace { s / 2.0 } else { s };
    let mut reopened = measure(&dir, session, &pre, a, first, &served, 0, &mut m, &mut out);
    let traced = Obs::new(ObsConfig::enabled());
    if args.trace {
        reopened = measure(&dir, reopened, &pre, a, s, &traced, 1, &mut m, &mut out);
    }
    eprintln!(
        "  {} statements, {:?} (statements, active s) untraced/traced, {} drains (median {:.1} ms)",
        m.statements,
        m.split,
        m.checkpoint_ms.len(),
        median(&m.checkpoint_ms)
    );

    if args.trace {
        drop(reopened);
        out.metrics = replay(args, &pre, &m, &served, &traced, &mut out);
    } else {
        let snap = served.metrics_snapshot();
        (e2e.statements, e2e.window_s) = m.split[0];
        e2e.reads = m.reads;
        e2e.writes = m.writes;
        e2e.wal_bytes = counter(snap.as_ref(), Counter::WalBytes);
        e2e.wal_doc_bytes = m.doc_bytes_written;
        e2e.stored_bytes = heap_file_bytes(&reopened);
        drop(reopened);
        e2e.recovery_s = m.recovery_s;
        e2e.recovery_s
            .extend(durable::reopen_times(&dir, REOPENS));
        eprintln!("  reopens {:?} s", e2e.recovery_s);
        e2e.doc_bytes = (pre.docs.iter().map(String::len).sum::<usize>()
            + clients.iter().map(Client::live_doc_bytes).sum::<usize>())
            as f64;
        out.metrics = e2e.metrics();
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The traced run's per-layer metrics. The logged statements are replayed
/// serially, in completion order, on a twin session built by the same
/// set-up, with the same checkpoint cadence: the twin's in-process
/// `execute` time, its spans and its page traffic split each statement,
/// and client latency minus `execute` time is the server's overhead.
fn replay(
    args: &Args,
    pre: &Preload,
    m: &Measured,
    served: &Obs,
    traced: &Obs,
    out: &mut Outcome,
) -> Metrics {
    let dir = data_dir("sql_lifecycle-twin");
    let twin_obs = Obs::new(ObsConfig::enabled());
    let mut twin = setup(&dir, pre, &twin_obs);
    let mut l = Layers::default();
    let mut log: Vec<&Logged> = m.log.iter().collect();
    log.sort_by_key(|s| s.end);
    let before = twin_obs.metrics_snapshot();
    let mut checkpoints = Vec::new();
    for (i, s) in log.iter().enumerate() {
        let t_parse = Instant::now();
        let parsed = parse_sql(&s.sql);
        let parse_ms = ms_since(t_parse);
        let pool0 = twin.catalog.pool_stats();
        let t0 = Instant::now();
        let result = twin.execute(&s.sql);
        let exec_ms = ms_since(t0);
        let pool = twin.catalog.pool_stats().delta_since(&pool0);
        let Ok(r) = result else {
            out.fail(format!("twin replay: {}", short(&s.sql)));
            continue;
        };
        let spans = r.trace.finished_spans();
        let st = &r.stats;
        account(&mut l, st, &spans, r.rows.len());
        l.add("wall_ms", s.client_ms);
        l.add_ms("server.overhead", s.client_ms - exec_ms);
        let parsed_now = s.write || st.plan_cache_misses > 0;
        if parsed_now && parsed.is_ok() {
            l.add_ms("sqlxml.parse", parse_ms);
        }
        let scan = span_self_ms(&spans, "scan");
        if !s.write {
            l.add_ms("sqlxml.read_scan", scan);
        } else if s.sql.starts_with("INSERT") {
            l.add("writes", 1.0);
            let doc = s
                .sql
                .split_once('\'')
                .and_then(|(_, r)| r.rsplit_once('\''))
                .map_or("", |x| x.0);
            let t_doc = Instant::now();
            let _ = std::hint::black_box(xqdb_xmlparse::parse_document(doc));
            let doc_ms = ms_since(t_doc);
            l.add_ms("xmlparse.parse", doc_ms);
            l.add_ms("catalog.maintain", (exec_ms - parse_ms - doc_ms).max(0.0));
        } else {
            l.add("writes", 1.0);
            l.add_ms("sqlxml.dml_match", scan);
            let maintain = span_ms(&spans, "delete") + span_ms(&spans, "replace");
            l.add_ms("catalog.maintain", maintain);
        }
        l.add("reported_pool_hits", st.buffer_pool_hits as f64);
        l.add("reported_pool_misses", st.buffer_pool_misses as f64);
        l.add("pool_hits", pool.hits as f64);
        l.add("pool_misses", pool.misses as f64);
        l.add("pool_evictions", pool.evictions as f64);
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            checkpoints.push(durable::checkpoint(&mut twin));
        }
    }
    if !(log.len() as u64).is_multiple_of(CHECKPOINT_EVERY) {
        checkpoints.push(durable::checkpoint(&mut twin));
    }
    match verify_derived_state(&twin.catalog) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => out.fail(format!("live twin derived state:\n{}", r.render())),
        Err(e) => out.fail(format!("verify live twin: {e}")),
    }
    // The registry must agree with what the statements report; the page
    // traffic measured around them feeds the pager metrics.
    reconcile(
        &twin_obs,
        before.as_ref(),
        &l,
        ["reported_pool_hits", "reported_pool_misses"],
        out,
    );
    l.add("checkpoint_ms", median(&checkpoints));

    // Server-side counters over both kinds of segment.
    let (a, b) = (served.metrics_snapshot(), traced.metrics_snapshot());
    let sum = |c: Counter| counter(a.as_ref(), c) + counter(b.as_ref(), c);
    l.add("shed", sum(Counter::SessionsShed));
    l.add(
        "admission_attempts",
        sum(Counter::SessionsAdmitted) + sum(Counter::SessionsShed),
    );
    l.add("wal_bytes", sum(Counter::WalBytes));

    let n = l.count("statements");
    let unattributed = l.print_self_times(l.count("wall_ms"), n);
    let fetch_us = fetch_us_per_row(&twin, args.seed);
    let parse_us = parse_us_per_kb(&pre.docs);
    drop(twin);
    let _ = std::fs::remove_dir_all(&dir);
    let mut metrics = Metrics::default();
    crate::layer_metrics(&mut metrics, &l, n, fetch_us, parse_us);
    metrics.put("trace.unattributed_share", unattributed, "ratio");
    let ops = |(k, s): (u64, f64)| k as f64 / s.max(1e-9);
    metrics.put(
        "trace.overhead_pct",
        overhead_pct(ops(m.split[0]), ops(m.split[1])),
        "%",
    );
    metrics
}
