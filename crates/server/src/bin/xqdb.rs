//! `xqdb` — an interactive SQL/XML + XQuery shell over the engine.
//!
//! ```console
//! $ cargo run -p xqdb-server --bin xqdb
//! xqdb> create table orders (ordid integer, orddoc XML);
//! xqdb> CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double;
//! xqdb> INSERT INTO orders VALUES (1, '<order><lineitem price="250"/></order>');
//! xqdb> SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o");
//! xqdb> xquery db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem;
//! xqdb> explain xquery db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100];
//! xqdb> .tables
//! xqdb> .indexes
//! ```
//!
//! Statements end with `;`. Lines starting with `.` are shell commands.
//! Prefix `xquery` runs the standalone XQuery interface;
//! `explain xquery` plans without executing. Everything else is SQL.
//!
//! Resource-governor flags (applied to every statement in the session):
//!
//! - `--timeout-ms N`    abort any query running longer than N milliseconds
//! - `--max-steps N`     abort any query after N evaluation steps
//! - `--max-doc-bytes N` reject XMLPARSE input larger than N bytes
//!
//! Observability flags:
//!
//! - `--trace`             record per-query span traces and print the span
//!   tree after every statement
//! - `--metrics-json PATH` keep session metrics and rewrite a JSON snapshot
//!   of the registry to PATH after every statement
//!
//! Durability flags and commands:
//!
//! - `--data-dir PATH`  back the session with a write-ahead log in PATH:
//!   existing state is recovered on startup, every mutation is logged
//! - `--fsync MODE`     `always` | `batch` (default) | `off` — when
//!   acknowledged records reach the disk
//! - `--buffer-pages N` cap every buffer pool (the shared page file and
//!   each index's node pool) at N 8 KiB frames; pages beyond that spill to
//!   disk and fault back in on demand (also settable via
//!   `XQDB_BUFFER_PAGES`)
//! - `xqdb recover PATH` replay a data directory, print the recovery
//!   report (manifest loaded, WAL suffix replayed, torn tails healed) and
//!   exit
//! - `xqdb pages PATH`  print page-file statistics (page counts by kind,
//!   fill factor, per-table extents) for a data directory or `.xqp` file
//! - `xqdb stats PATH TABLE` print a table's per-path synopsis statistics
//!   (doc counts, value-histogram buckets, distinct estimates) — the
//!   inputs of the cost-based planner
//! - `.checkpoint`       flush dirty pages, write the manifest and prune
//!   the covered log
//!
//! `explain analyze xquery <expr>;` and `EXPLAIN ANALYZE SELECT ...;` execute
//! the statement and print the plan with actual timings, counters and the
//! query doctor's index-eligibility diagnoses.
//!
//! Server mode:
//!
//! - `xqdb serve [--addr HOST:PORT] [--max-sessions N] [--session-budget N]
//!   [--queue-depth N] [--queue-timeout-ms N] [--request-timeout-ms N]
//!   [--data-dir PATH] [--fsync MODE] [--metrics-json PATH]`
//!   runs the concurrent TCP front end (see `xqdb-server`); `SIGTERM`
//!   triggers a graceful drain (stop accepting, finish in-flight requests,
//!   checkpoint, exit 0).

use std::io::{self, BufRead, Write};

use xqdb_core::sqlxml::SqlSession;
use xqdb_core::{AnalysisEnv, Obs, ObsConfig};
use xqdb_xdm::{ErrorCode, Limits, XdmError};

/// Session-wide resource limits and observability options parsed from the
/// command line.
#[derive(Clone, Default)]
struct CliLimits {
    timeout_ms: Option<u64>,
    max_steps: Option<u64>,
    max_doc_bytes: Option<usize>,
    trace: bool,
    metrics_json: Option<String>,
    data_dir: Option<String>,
    fsync: Option<xqdb_core::FsyncMode>,
    no_prefilter: bool,
    no_twig: bool,
    no_cost: bool,
    buffer_pages: Option<usize>,
}

impl CliLimits {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = CliLimits::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("{flag} requires a value"))?
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} requires a non-negative integer"))
            };
            match arg.as_str() {
                "--timeout-ms" => out.timeout_ms = Some(value("--timeout-ms")?),
                "--max-steps" => out.max_steps = Some(value("--max-steps")?),
                "--max-doc-bytes" => {
                    out.max_doc_bytes = Some(value("--max-doc-bytes")? as usize)
                }
                "--buffer-pages" => {
                    out.buffer_pages = Some(value("--buffer-pages")? as usize)
                }
                "--trace" => out.trace = true,
                "--no-prefilter" => out.no_prefilter = true,
                "--no-twig" => out.no_twig = true,
                "--no-cost" => out.no_cost = true,
                "--metrics-json" => {
                    out.metrics_json = Some(
                        it.next()
                            .ok_or_else(|| "--metrics-json requires a path".to_string())?
                            .clone(),
                    )
                }
                "--data-dir" => {
                    out.data_dir = Some(
                        it.next()
                            .ok_or_else(|| "--data-dir requires a path".to_string())?
                            .clone(),
                    )
                }
                "--fsync" => {
                    let mode = it
                        .next()
                        .ok_or_else(|| "--fsync requires a mode".to_string())?;
                    out.fsync = Some(xqdb_core::FsyncMode::parse(mode).ok_or_else(|| {
                        format!("--fsync must be always, batch or off (got {mode:?})")
                    })?)
                }
                "--help" | "-h" => {
                    return Err("usage: xqdb [recover PATH] [pages PATH] [verify PATH] [labels PATH TABLE] [stats PATH TABLE] [--timeout-ms N] [--max-steps N] [--max-doc-bytes N] [--buffer-pages N] [--no-prefilter] [--no-twig] [--no-cost] [--trace] [--metrics-json PATH] [--data-dir PATH] [--fsync always|batch|off]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        Ok(out)
    }

    fn query_limits(&self) -> Limits {
        let mut l = Limits::unlimited();
        if let Some(ms) = self.timeout_ms {
            l = l.with_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(steps) = self.max_steps {
            l = l.with_max_steps(steps);
        }
        if let Some(bytes) = self.max_doc_bytes {
            l = l.with_max_doc_bytes(bytes);
        }
        l
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `xqdb recover PATH` — replay a data directory, report, exit.
    if args.first().map(String::as_str) == Some("recover") {
        let Some(dir) = args.get(1) else {
            eprintln!("usage: xqdb recover PATH");
            std::process::exit(2);
        };
        std::process::exit(run_recover(dir));
    }
    // `xqdb pages PATH` — print page-file statistics, exit.
    if args.first().map(String::as_str) == Some("pages") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: xqdb pages PATH (a data directory or a .xqp page file)");
            std::process::exit(2);
        };
        std::process::exit(run_pages(path));
    }
    // `xqdb verify PATH` — offline scrub: CRC-check every page, recover,
    // run the rebuild oracle, print per-table verdicts, exit.
    if args.first().map(String::as_str) == Some("verify") {
        let Some(dir) = args.get(1) else {
            eprintln!("usage: xqdb verify PATH (a data directory)");
            std::process::exit(2);
        };
        std::process::exit(run_verify(dir));
    }
    // `xqdb labels PATH TABLE` — dump a table's per-path label and row counts.
    if args.first().map(String::as_str) == Some("labels") {
        let (Some(dir), Some(table)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: xqdb labels PATH TABLE (PATH is a data directory)");
            std::process::exit(2);
        };
        std::process::exit(run_labels(dir, table));
    }
    // `xqdb stats PATH TABLE` — dump a table's synopsis statistics.
    if args.first().map(String::as_str) == Some("stats") {
        let (Some(dir), Some(table)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: xqdb stats PATH TABLE (PATH is a data directory)");
            std::process::exit(2);
        };
        std::process::exit(run_stats(dir, table));
    }
    // `xqdb serve ...` — run the concurrent TCP front end until SIGTERM.
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(run_serve(&args[1..]));
    }
    let limits = match CliLimits::parse(&args) {
        Ok(l) => l,
        Err(msg) => {
            // --help lands here too; only real flag errors are failures.
            if msg.starts_with("usage:") {
                println!("{msg}");
                std::process::exit(0);
            }
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // The flag is just a spelling of the env knob; every pool created from
    // here on (row store, recovery, index node pools) reads it. Set before
    // any session exists, while the process is still single-threaded.
    if let Some(n) = limits.buffer_pages {
        std::env::set_var("XQDB_BUFFER_PAGES", n.to_string());
    }
    let mut session = match &limits.data_dir {
        None => SqlSession::new(),
        Some(dir) => {
            let config = xqdb_core::WalConfig {
                fsync: limits.fsync.unwrap_or_default(),
                ..Default::default()
            };
            match SqlSession::open_durable(std::path::Path::new(dir), config) {
                Ok((session, report)) => {
                    print!("{}", report.render());
                    session
                }
                Err(e) => {
                    eprintln!("error: could not open data directory {dir}: {e}");
                    std::process::exit(2);
                }
            }
        }
    };
    if let Some(bytes) = limits.max_doc_bytes {
        session.parse_limits = session.parse_limits.with_max_doc_bytes(bytes);
    }
    // Metrics live for the whole session; traces are per-statement.
    let obs = Obs::new(ObsConfig {
        metrics: limits.metrics_json.is_some(),
        tracing: limits.trace,
    });
    session.set_obs(obs.clone());
    obs.set_gauge(
        xqdb_obs::Gauge::BufferPoolPages,
        session.catalog.db.pager().capacity() as u64,
    );
    session.access = xqdb_core::AccessConfig {
        prefilter: !limits.no_prefilter,
        twig: !limits.no_twig,
        cost: !limits.no_cost,
    };
    let stdin = io::stdin();
    let mut buffer = String::new();
    print!("xqdb — XML database shell (statements end with ';', '.help' for help)\nxqdb> ");
    io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !dot_command(&mut session, trimmed) {
                break;
            }
            print!("xqdb> ");
            io::stdout().flush().ok();
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            print!("   -> ");
            io::stdout().flush().ok();
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').trim().to_string();
        buffer.clear();
        if !stmt.is_empty() {
            run_statement(&mut session, &stmt, &limits);
            write_metrics(&obs, &limits);
        }
        print!("xqdb> ");
        io::stdout().flush().ok();
    }
    write_metrics(&obs, &limits);
}

/// `xqdb recover PATH`: replay the directory with tracing on, print the
/// recovery report and span tree. Exit code 0 on success, 1 when the log
/// is unrecoverable (e.g. a quarantined segment).
fn run_recover(dir: &str) -> i32 {
    let trace = xqdb_obs::Trace::recording();
    match xqdb_core::recover_catalog(
        std::path::Path::new(dir),
        &trace,
        &Obs::disabled(),
    ) {
        Ok((catalog, report)) => {
            print!("{}", report.render());
            for name in catalog.db.table_names() {
                let Some(t) = catalog.db.table(name) else { continue };
                println!("  table {name}: {} row(s)", t.len());
            }
            for idx in catalog.all_indexes() {
                println!("  index {}: {} entries", idx.name, idx.len());
            }
            print!("{}", trace.render());
            0
        }
        Err(e) => {
            report_error(&e);
            1
        }
    }
}

/// `xqdb pages PATH`: page-file statistics — page counts by kind, fill
/// factor, and per-table extents. PATH is a data directory or a `.xqp`
/// page file. For a directory the checkpoint manifest adds what
/// reclamation sees: the freeze watermark, the free-listed page ids below
/// it (free or vacated at the newest checkpoint; recovery discards them),
/// and per table the bytes of live records on its frozen heap pages next
/// to the bytes those pages use — the difference is dead space a
/// checkpoint relocates away once a page is under half full. Nothing is
/// recovered or replayed: the pages are only read. A torn trailing page
/// (a crashed partial write) is reported; opening trims it, exactly as
/// recovery would.
fn run_pages(arg: &str) -> i32 {
    let p = std::path::Path::new(arg);
    let file = if p.is_dir() { p.join(xqdb_core::PAGES_FILE) } else { p.to_path_buf() };
    if !file.exists() {
        eprintln!("error: no page file at {}", file.display());
        return 2;
    }
    let (pager, torn) =
        match xqdb_pager::Pager::open_file(&file, xqdb_pager::DEFAULT_BUFFER_PAGES, 0) {
            Ok((pager, torn)) => (std::sync::Arc::new(pager), torn),
            Err(e) => {
                eprintln!("error: could not open {}: {e}", file.display());
                return 1;
            }
        };
    let checkpoint = if p.is_dir() {
        match xqdb_core::checkpoint_pages(p, &pager) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: could not read the checkpoint of {}: {e}", p.display());
                return 1;
            }
        }
    } else {
        None
    };
    let stats = match xqdb_pager::file_stats(&pager) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not scan {}: {e}", file.display());
            return 1;
        }
    };
    println!(
        "page file {} — {} page(s), {} KiB",
        file.display(),
        stats.pages,
        stats.pages * xqdb_pager::PAGE_SIZE as u64 / 1024
    );
    println!(
        "  heap: {}  chain: {}  free: {}  meta: 1",
        stats.heap_pages, stats.chain_pages, stats.free_pages
    );
    println!(
        "  used: {} byte(s), fill factor {:.2}",
        stats.used_bytes, stats.fill_factor
    );
    if torn {
        println!("  torn trailing page trimmed (recovery replays the WAL suffix to heal it)");
    }
    for (table_id, pages, records, bytes) in &stats.tables {
        println!("  table {table_id}: {pages} page(s), {records} record(s), {bytes} byte(s)");
    }
    if let Some(c) = checkpoint {
        let free = &c.free_pages;
        println!(
            "  checkpoint watermark: page {}; free-listed below it (recovery discards them): {} page(s){}",
            c.frozen_below,
            free.len(),
            if free.is_empty() { String::new() } else { format!(" {}", page_ranges(free)) }
        );
        for t in &c.tables {
            println!(
                "  table {} ({}): {} frozen page(s), {} byte(s) used, {} live, {} dead",
                t.name,
                t.table_id,
                t.pages,
                t.used_bytes,
                t.live_bytes,
                t.used_bytes.saturating_sub(t.live_bytes)
            );
        }
    }
    0
}

/// Page ids as compact ascending ranges (`3-5,9`).
fn page_ranges(ids: &[u64]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < ids.len() {
        let mut j = i;
        while j + 1 < ids.len() && ids[j + 1] == ids[j] + 1 {
            j += 1;
        }
        out.push(if i == j { ids[i].to_string() } else { format!("{}-{}", ids[i], ids[j]) });
        i = j + 1;
    }
    out.join(",")
}

/// `xqdb verify PATH`: offline scrub of a data directory. Three passes:
///
/// 1. **Page CRCs** — every full 8 KiB page of `pages.xqp` is checked
///    (magic, version, CRC, self-identification) by reading the raw file,
///    not the buffer pool, so a latent corruption on a never-fetched page
///    is found too. A damaged *trailing* page is reported but tolerated:
///    that is the torn-write shape recovery trims and heals from the WAL.
/// 2. **Recovery** — the directory is recovered exactly as a session
///    would (manifest adoption + WAL suffix replay). Failures are typed
///    errors, never panics, whatever garbage the directory holds.
/// 3. **Rebuild oracle** — `verify_derived_state` compares every derived
///    structure (index keys, synopsis, signatures, label streams) against
///    a from-scratch rebuild over the live rows; one verdict per table.
///
/// Exit 0 only when all three pass.
fn run_verify(dir: &str) -> i32 {
    let p = std::path::Path::new(dir);
    if !p.is_dir() {
        eprintln!("error: {dir} is not a data directory");
        return 2;
    }
    let mut failed = false;
    let pages_file = p.join(xqdb_core::PAGES_FILE);
    if pages_file.exists() {
        match std::fs::read(&pages_file) {
            Ok(bytes) => {
                let n = bytes.len() / xqdb_pager::PAGE_SIZE;
                let torn_tail = bytes.len() % xqdb_pager::PAGE_SIZE != 0;
                let mut bad: Vec<String> = Vec::new();
                for i in 0..n {
                    let start = i * xqdb_pager::PAGE_SIZE;
                    let buf: &[u8; xqdb_pager::PAGE_SIZE] =
                        match bytes[start..start + xqdb_pager::PAGE_SIZE].try_into() {
                            Ok(b) => b,
                            Err(_) => break, // unreachable: slice is exact
                        };
                    if let Err(reason) = xqdb_pager::verify_page(buf, i as u64) {
                        // A damaged final page is the torn-write shape;
                        // anything earlier is real corruption.
                        if i + 1 == n {
                            println!(
                                "page file: trailing page damaged ({reason}); \
                                 recovery trims it and replays the WAL suffix"
                            );
                        } else {
                            bad.push(reason);
                        }
                    }
                }
                if torn_tail {
                    println!(
                        "page file: {} trailing byte(s) of a partial page write; \
                         recovery trims them",
                        bytes.len() % xqdb_pager::PAGE_SIZE
                    );
                }
                if bad.is_empty() {
                    println!("page file: {n} page(s) scanned, all CRCs valid");
                } else {
                    failed = true;
                    println!("page file: {n} page(s) scanned, {} corrupt:", bad.len());
                    for reason in &bad {
                        println!("  - {reason}");
                    }
                }
            }
            Err(e) => {
                eprintln!("error: could not read {}: {e}", pages_file.display());
                return 1;
            }
        }
    } else {
        println!("page file: none (no checkpoint has run; recovery replays the WAL only)");
    }
    let catalog = match xqdb_core::recover_catalog(
        p,
        &xqdb_obs::Trace::disabled(),
        &Obs::disabled(),
    ) {
        Ok((catalog, report)) => {
            print!("{}", report.render());
            catalog
        }
        Err(e) => {
            report_error(&e);
            println!("verdict: FAILED (unrecoverable)");
            return 1;
        }
    };
    match xqdb_core::verify_derived_state(&catalog) {
        Ok(report) => {
            print!("{}", report.render());
            if !report.is_clean() {
                failed = true;
            }
        }
        Err(e) => {
            report_error(&e);
            failed = true;
        }
    }
    if failed {
        println!("verdict: FAILED");
        1
    } else {
        println!("verdict: OK");
        0
    }
}

/// `xqdb labels PATH TABLE`: recover the data directory (offline, no
/// server needed) and print the table's structural labels — one line per
/// synopsis path with its label count and the number of rows holding it.
/// Labels are derived state rebuilt through the ordinary insert path, so
/// a directory whose rows were adopted from a page snapshot (not
/// re-parsed) honestly reports its store as incomplete: the twig join
/// declines such tables.
fn run_labels(dir: &str, table: &str) -> i32 {
    let catalog = match xqdb_core::recover_catalog(
        std::path::Path::new(dir),
        &xqdb_obs::Trace::disabled(),
        &Obs::disabled(),
    ) {
        Ok((catalog, _report)) => catalog,
        Err(e) => {
            report_error(&e);
            return 1;
        }
    };
    let Some(t) = catalog.db.table(table) else {
        eprintln!("error: unknown table {table:?}");
        return 2;
    };
    let labels = t.labels();
    println!(
        "table {} — {} row(s), {} labeled, store {}",
        t.name,
        t.len(),
        labels.labeled_rows(),
        if labels.is_complete_for(t.len() as u64) {
            "complete (twig join eligible)"
        } else {
            "incomplete (twig join declines; navigation answers instead)"
        }
    );
    // Labels are keyed by path hash; render them through the synopsis,
    // which knows every path the labeler has ever seen.
    let rendered: std::collections::HashMap<u64, &str> =
        t.synopsis().keyed_paths().map(|(path, hash)| (hash, path)).collect();
    let mut paths: Vec<(String, usize, usize)> = labels
        .path_counts()
        .into_iter()
        .map(|(hash, n, rows)| {
            let name = rendered
                .get(&hash)
                .map(|p| (*p).to_string())
                .unwrap_or_else(|| format!("<path #{hash:016x}>"));
            (name, n, rows)
        })
        .collect();
    paths.sort();
    for (path, n, rows) in &paths {
        println!("  {path}: {n} label(s) in {rows} row(s)");
    }
    println!("-- {} path(s)", paths.len());
    0
}

/// `xqdb stats PATH TABLE`: recover the data directory (offline, no
/// server needed) and print the table's per-path synopsis statistics —
/// document counts, value-histogram buckets and distinct-value estimates
/// — exactly the inputs the cost-based planner scores index candidates
/// with. Statistics are derived state rebuilt through the ordinary insert
/// path; a store whose rows were adopted from a page snapshot (not
/// re-parsed) honestly reports them incomplete, and the planner falls
/// back to taking the first eligible index for that table.
fn run_stats(dir: &str, table: &str) -> i32 {
    let catalog = match xqdb_core::recover_catalog(
        std::path::Path::new(dir),
        &xqdb_obs::Trace::disabled(),
        &Obs::disabled(),
    ) {
        Ok((catalog, _report)) => catalog,
        Err(e) => {
            report_error(&e);
            return 1;
        }
    };
    let Some(t) = catalog.db.table(table) else {
        eprintln!("error: unknown table {table:?}");
        return 2;
    };
    let synopsis = t.synopsis();
    let entries = synopsis.stats_entries();
    println!(
        "table {} — {} row(s), {} path(s), statistics {}",
        t.name,
        t.len(),
        entries.len(),
        if synopsis.stats_complete() {
            "complete (cost-based planning eligible)"
        } else {
            "incomplete (planner takes the first eligible index instead)"
        }
    );
    for (path, docs, stats) in &entries {
        match stats {
            None => println!("  {path}: {docs} doc(s), no value statistics"),
            Some(s) => {
                println!(
                    "  {path}: {docs} doc(s), {} value(s) ({} numeric), ~{:.0} distinct",
                    s.total(),
                    s.numeric(),
                    s.distinct_estimate()
                );
                let mut buckets: Vec<(i16, u64)> = s.buckets().collect();
                buckets.sort_unstable();
                for (b, n) in buckets {
                    let (lo, hi) = xqdb_core::bucket_bounds(b);
                    println!("      bucket {b} [{lo}, {hi}): {n} value(s)");
                }
            }
        }
    }
    println!("-- {} path(s)", entries.len());
    0
}

/// Graceful-shutdown signals, std-only: a raw `signal(2)` registration
/// that flips an atomic the serve loop polls. `SIGINT` is included so an
/// interactive ^C drains the same way `SIGTERM` does.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

/// Server-mode flags.
struct ServeOpts {
    addr: String,
    cfg: xqdb_server::ServerConfig,
    data_dir: Option<String>,
    fsync: Option<xqdb_core::FsyncMode>,
    metrics_json: Option<String>,
    buffer_pages: Option<usize>,
}

impl ServeOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ServeOpts {
            addr: "127.0.0.1:0".to_string(),
            cfg: xqdb_server::ServerConfig::default(),
            data_dir: None,
            fsync: None,
            metrics_json: None,
            buffer_pages: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut text = |flag: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--addr" => out.addr = text("--addr")?,
                "--max-sessions" => {
                    out.cfg.max_sessions = parse_num(&text("--max-sessions")?, "--max-sessions")?
                }
                "--session-budget" => {
                    out.cfg.session_budget =
                        Some(parse_num(&text("--session-budget")?, "--session-budget")?)
                }
                "--queue-depth" => {
                    out.cfg.queue_depth = parse_num(&text("--queue-depth")?, "--queue-depth")?
                }
                "--queue-timeout-ms" => {
                    out.cfg.queue_timeout = std::time::Duration::from_millis(parse_num(
                        &text("--queue-timeout-ms")?,
                        "--queue-timeout-ms",
                    )?)
                }
                "--request-timeout-ms" => {
                    out.cfg.request_timeout = Some(std::time::Duration::from_millis(
                        parse_num(&text("--request-timeout-ms")?, "--request-timeout-ms")?,
                    ))
                }
                "--buffer-pages" => {
                    out.buffer_pages =
                        Some(parse_num(&text("--buffer-pages")?, "--buffer-pages")?)
                }
                "--data-dir" => out.data_dir = Some(text("--data-dir")?),
                "--fsync" => {
                    let mode = text("--fsync")?;
                    out.fsync = Some(xqdb_core::FsyncMode::parse(&mode).ok_or_else(|| {
                        format!("--fsync must be always, batch or off (got {mode:?})")
                    })?)
                }
                "--metrics-json" => out.metrics_json = Some(text("--metrics-json")?),
                "--help" | "-h" => {
                    return Err("usage: xqdb serve [--addr HOST:PORT] [--max-sessions N] [--session-budget N] [--queue-depth N] [--queue-timeout-ms N] [--request-timeout-ms N] [--buffer-pages N] [--data-dir PATH] [--fsync always|batch|off] [--metrics-json PATH]"
                        .to_string())
                }
                other => return Err(format!("unknown serve flag {other}; try --help")),
            }
        }
        Ok(out)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("{flag} requires a non-negative integer"))
}

/// `xqdb serve`: run the TCP front end until SIGTERM/SIGINT, then drain.
fn run_serve(args: &[String]) -> i32 {
    let opts = match ServeOpts::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.starts_with("usage:") {
                println!("{msg}");
                return 0;
            }
            eprintln!("{msg}");
            return 2;
        }
    };
    // Same spelling-of-the-env-knob rule as the shell path: set before the
    // session (and its pools) exist, while still single-threaded.
    if let Some(n) = opts.buffer_pages {
        std::env::set_var("XQDB_BUFFER_PAGES", n.to_string());
    }
    let mut session = match &opts.data_dir {
        None => SqlSession::new(),
        Some(dir) => {
            let config = xqdb_core::WalConfig {
                fsync: opts.fsync.unwrap_or_default(),
                ..Default::default()
            };
            match SqlSession::open_durable(std::path::Path::new(dir), config) {
                Ok((session, report)) => {
                    print!("{}", report.render());
                    session
                }
                Err(e) => {
                    eprintln!("error: could not open data directory {dir}: {e}");
                    return 2;
                }
            }
        }
    };
    let obs = Obs::new(ObsConfig { metrics: true, tracing: false });
    session.set_obs(obs.clone());
    obs.set_gauge(
        xqdb_obs::Gauge::BufferPoolPages,
        session.catalog.db.pager().capacity() as u64,
    );
    sig::install();
    let handle = match xqdb_server::Server::start(&opts.addr, opts.cfg.clone(), session) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: could not bind {}: {e}", opts.addr);
            return 2;
        }
    };
    // The harness (and scripts) read this line to learn the bound port.
    println!("listening on {}", handle.local_addr());
    io::stdout().flush().ok();
    while !sig::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("draining: accepting no new connections, finishing in-flight requests");
    let report = handle.shutdown();
    println!(
        "drained: {} connection(s) served, {} handler panic(s)",
        report.connections_served, report.connection_panics
    );
    match (&report.checkpoint_seq, &report.checkpoint_error) {
        (Some(seq), _) => println!("checkpoint written: manifest covers sequence {seq}"),
        (None, Some(e)) => eprintln!("warning: shutdown checkpoint failed: {e}"),
        (None, None) => {}
    }
    if let Some(path) = &opts.metrics_json {
        if let Some(snap) = obs.metrics_snapshot() {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("warning: could not write metrics to {path}: {e}");
            }
        }
    }
    if report.accept_panicked || report.connection_panics > 0 {
        return 1;
    }
    0
}

/// Rewrite the metrics-JSON snapshot, if the session asked for one.
fn write_metrics(obs: &Obs, limits: &CliLimits) {
    let (Some(path), Some(snap)) = (&limits.metrics_json, obs.metrics_snapshot()) else {
        return;
    };
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        eprintln!("warning: could not write metrics to {path}: {e}");
    }
}

/// Render an engine error with a friendly hint for the governed classes.
fn report_error(e: &XdmError) {
    match e.code {
        ErrorCode::ResourceExhausted => {
            println!("error: {e}");
            println!("hint: the query hit a session resource limit; raise --timeout-ms/--max-steps or simplify the query");
        }
        ErrorCode::Cancelled => {
            println!("error: {e} (query was cancelled)");
        }
        ErrorCode::StorageFault => {
            println!("error: {e}");
            println!("hint: a document could not be fetched from storage; the result would be incomplete, so none was returned");
        }
        ErrorCode::ParseLimit => {
            println!("error: {e}");
            println!("hint: the document exceeds a session parse limit; see --max-doc-bytes");
        }
        _ => println!("error: {e}"),
    }
}

/// Print post-execution warnings recorded in the stats.
fn report_degradation(stats: &xqdb_core::ExecStats) {
    if !stats.degraded_sources.is_empty() {
        println!(
            "warning: {} index fault(s); fell back to full collection scan on: {}",
            stats.index_faults,
            stats.degraded_sources.join(", ")
        );
    }
}

/// Print the recorded span tree, when tracing was on for the statement.
fn report_trace(trace: &xqdb_obs::Trace) {
    if trace.enabled() {
        print!("{}", trace.render());
    }
}

fn run_statement(session: &mut SqlSession, stmt: &str, limits: &CliLimits) {
    let lower = stmt.to_ascii_lowercase();
    if let Some(rest) = lower
        .strip_prefix("explain analyze xquery")
        .map(|_| stmt["explain analyze xquery".len()..].trim())
    {
        let opts = xqdb_server::exec_options(session, &limits.query_limits());
        match xqdb_core::explain_analyze_xquery(&session.catalog, rest, &opts) {
            Ok((report, out)) => {
                print!("{report}");
                report_degradation(&out.stats);
            }
            Err(e) => report_error(&e),
        }
        return;
    }
    if let Some(rest) = lower
        .strip_prefix("explain xquery")
        .map(|_| stmt["explain xquery".len()..].trim())
    {
        match xqdb_xquery::parse_query(rest) {
            Ok(q) => {
                let plan = xqdb_core::plan_query(&session.catalog, q, &AnalysisEnv::new());
                print!("{}", xqdb_core::explain(&plan));
            }
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    if let Some(rest) = lower.strip_prefix("xquery").map(|_| stmt["xquery".len()..].trim()) {
        let opts = xqdb_server::exec_options(session, &limits.query_limits());
        match xqdb_core::run_xquery_with_options(&session.catalog, rest, &opts) {
            Ok(out) => {
                for (i, item) in out.sequence.iter().enumerate() {
                    println!(
                        "row {}: {}",
                        i + 1,
                        xqdb_xmlparse::serialize_sequence(std::slice::from_ref(item))
                    );
                }
                let evaluated: usize = out.stats.docs_evaluated.values().sum();
                let total: usize = out.stats.docs_total.values().sum();
                println!(
                    "-- {} item(s); {evaluated}/{total} documents evaluated, {} index entries",
                    out.sequence.len(),
                    out.stats.index_entries_scanned,
                );
                report_degradation(&out.stats);
                report_trace(&out.trace);
            }
            Err(e) => report_error(&e),
        }
        return;
    }
    match session.execute(stmt) {
        Ok(result) => {
            print!("{}", result.render());
            if !result.rows.is_empty() {
                println!("-- {} row(s)", result.rows.len());
            }
            report_degradation(&result.stats);
            report_trace(&result.trace);
        }
        Err(e) => report_error(&e),
    }
}

/// Returns false to exit the shell.
fn dot_command(session: &mut SqlSession, cmd: &str) -> bool {
    match cmd {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(
                "statements end with ';'\n\
                 SQL:          CREATE TABLE/INDEX, INSERT, SELECT (XMLQUERY/XMLEXISTS/XMLTABLE/XMLCAST), EXPLAIN [ANALYZE] SELECT, VALUES\n\
                 XQuery:       xquery <expr>;        explain xquery <expr>;        explain analyze xquery <expr>;\n\
                 shell:        .tables  .indexes  .checkpoint  .help  .quit\n\
                 flags:        --timeout-ms N  --max-steps N  --max-doc-bytes N  --buffer-pages N  --no-prefilter  --no-twig  --no-cost  --trace  --metrics-json PATH\n\
                 prefilter:    structural pre-filter is on by default; disable with --no-prefilter\n\
                 twig:         holistic twig join is on by default; disable with --no-twig; xqdb labels PATH TABLE dumps per-path label counts\n\
                 cost:         cost-based index choice is on by default; disable with --no-cost; xqdb stats PATH TABLE dumps synopsis statistics\n\
                 storage:      --buffer-pages N (or XQDB_BUFFER_PAGES) caps every buffer pool; xqdb pages PATH prints page-file stats\n\
                 durability:   --data-dir PATH  --fsync always|batch|off  (xqdb recover PATH replays and reports)"
            );
        }
        ".checkpoint" => match session.checkpoint() {
            Ok(Some(covers)) => println!("checkpoint written: manifest covers sequence {covers}"),
            Ok(None) => println!("session is in-memory; start with --data-dir to checkpoint"),
            Err(e) => report_error(&e),
        },
        ".tables" => {
            for name in session.catalog.db.table_names() {
                // `table_names` and `table` read the same map; a miss here
                // would be a storage bug, and listing should not abort on it.
                let Some(t) = session.catalog.db.table(name) else { continue };
                let cols: Vec<String> =
                    t.columns.iter().map(|c| format!("{} {}", c.name, c.ty)).collect();
                println!("{name} ({}) — {} rows", cols.join(", "), t.len());
            }
        }
        ".indexes" => {
            for idx in session.catalog.all_indexes() {
                println!(
                    "{} ON {}({}) USING XMLPATTERN '{}' AS {} — {} entries ({} skipped)",
                    idx.name, idx.table, idx.column, idx.pattern, idx.ty,
                    idx.len(), idx.skipped_nodes
                );
            }
        }
        other => println!("unknown command {other}; try .help"),
    }
    true
}
