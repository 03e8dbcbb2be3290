#!/usr/bin/env bash
# Lint gate: deny warnings plus unwrap/expect in non-test code, keep thread
# spawning confined to the runtime crate, and run the test suite a second
# time at a parallel degree.
#
# unwrap_used/expect_used are allowed inside #[cfg(test)] (see clippy.toml);
# production code must return typed errors instead. The only blanket opt-out
# is the bench harness, where fixture failure should abort loudly like a
# test — see the crate-level allow in crates/bench/src/lib.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- \
  -D warnings \
  -D clippy::unwrap_used \
  -D clippy::expect_used \
  "$@"

# All thread management goes through the xqdb-runtime pool: no ad-hoc
# spawns elsewhere. (thread::sleep and available_parallelism are fine;
# the pattern targets spawn/scope only.) crates/obs sits below the runtime
# in the layering; its tests need raw scoped threads to contend on the
# lock-cheap registry and the span mutex.
if grep -rn --include='*.rs' -E 'thread::(spawn|scope)' crates tests \
    | grep -v '^crates/runtime/' \
    | grep -v '^crates/obs/'; then
  echo "error: thread spawning outside crates/runtime (use the WorkerPool)" >&2
  exit 1
fi

# Library code never prints: diagnostics flow through the xqdb-obs handles
# (traces, metrics, EXPLAIN ANALYZE reports) and are rendered by the caller.
# Printing is allowed only in binaries (crates/*/src/bin), the obs crate's
# exporters, the bench harness, and tests.
if grep -rn --include='*.rs' -E '\b(println!|eprintln!)' crates tests \
    | grep -v '/src/bin/' \
    | grep -v '^crates/obs/' \
    | grep -v '^crates/bench/' \
    | grep -v '^crates/criterion/' \
    | grep -v '^tests/'; then
  echo "error: println!/eprintln! outside bin targets, crates/obs, crates/bench/criterion harnesses, or tests (return data; let the caller print)" >&2
  exit 1
fi

# Durable state reaches disk only through the WAL and the pager: the WAL
# owns log segments and the manifest, the pager owns the page file — no
# direct file-write APIs anywhere else. Binaries (CLI output files), the
# bench harness (BENCH_*.json), the workload generator, and tests
# (fixtures/temp dirs) are exempt; reads (File::open, read_to_string) are
# fine everywhere.
if grep -rn --include='*.rs' -E '\b(fs::write|File::create|OpenOptions::new)\b' crates tests \
    | grep -v '^crates/wal/' \
    | grep -v '^crates/pager/' \
    | grep -v '/src/bin/' \
    | grep -v '^crates/bench/' \
    | grep -v '^crates/workload/' \
    | grep -v '/tests/' \
    | grep -v '^tests/'; then
  echo "error: direct file-write API outside crates/wal (durable state goes through the WAL)" >&2
  exit 1
fi

# Sockets are the server crate's business: raw TcpListener/TcpStream use
# anywhere else would bypass the framed protocol, admission control and the
# read/write deadlines. Everyone else talks to the server through
# xqdb_server::chaos::Client (tests, benches) or the xqdb serve binary.
if grep -rn --include='*.rs' -E '\b(TcpListener|TcpStream)\b' crates tests \
    | grep -v '^crates/server/'; then
  echo "error: raw TcpListener/TcpStream outside crates/server (speak the framed protocol via xqdb-server)" >&2
  exit 1
fi

# Structural label streams are built in exactly one place: `Table::push_row`
# calling into crates/twig's LabelStore. Any other construction site could
# drift from the insert path and break the labels-complete invariant the
# twig join's soundness rests on. The rebuild oracle (core/src/verify.rs)
# is the one exception: it constructs a scratch LabelStore from the live
# rows to *compare* against the maintained one, and never installs it.
if grep -rn --include='*.rs' -E '\.(record_label|finish_row)\(' crates tests \
    | grep -v '^crates/twig/' \
    | grep -v '^crates/storage/' \
    | grep -v '^crates/core/src/verify.rs'; then
  echo "error: label-stream construction outside crates/twig and crates/storage (labels are built only on the insert path)" >&2
  exit 1
fi

# Tombstone bytes are written in exactly two places: the heap page code in
# crates/pager (in-place retirement, reclamation compaction) and the table
# layer in crates/storage that drives it. Any other writer could tombstone
# a record without the synopsis/signature/label maintenance that keeps the
# rebuild oracle clean, or leave one on a page about to freeze. Retire rows
# through Table::delete_row/replace_row; checkpoint-time reclamation goes
# through Table::reclaim_tombstones (the one call site outside storage is
# core's checkpoint in durability.rs).
if grep -rn --include='*.rs' -E 'TAG_TOMBSTONE|HeapFile|\.heap\.' crates tests \
    | grep -v '^crates/pager/' \
    | grep -v '^crates/storage/'; then
  echo "error: tombstone/heap byte manipulation outside crates/pager and crates/storage (retire rows through the Table API)" >&2
  exit 1
fi
if grep -rln --include='*.rs' 'reclaim_tombstones' crates tests \
    | grep -v '^crates/pager/' \
    | grep -v '^crates/storage/' \
    | grep -v '^crates/core/src/durability.rs$'; then
  echo "error: tombstone reclamation driven outside the checkpoint path" >&2
  exit 1
fi

# The access-path switches are read in exactly one place: AccessConfig
# (crates/core/src/access.rs) folds XQDB_PREFILTER, XQDB_TWIG and XQDB_COST
# into a session's or a run's configuration once, and everything else asks
# it. Another reader could drift from the documented precedence
# (environment AND caller) or read the environment mid-statement. Exempt:
# crates/twig, which owns the XQDB_TWIG parser; the ingest-time labeling
# gate in crates/storage/src/table.rs, which cannot see session config; and
# test code (tests/ trees, and a source file's trailing #[cfg(test)] module).
SWITCH_READ='var(_os)?\("XQDB_(PREFILTER|TWIG|COST)"|xqdb_twig::enabled_in_env\(\)'
switch_reads=$(
  grep -rlE --include='*.rs' "$SWITCH_READ" crates \
    | grep -v '^crates/twig/' \
    | grep -v '^crates/storage/src/table.rs$' \
    | grep -v '^crates/core/src/access.rs$' \
    | grep -v '/tests/' \
    | while read -r f; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$SWITCH_READ" | sed "s|^|$f:|"
      done
) || true
if [ -n "$switch_reads" ]; then
  echo "$switch_reads"
  echo "error: access-path switch read outside AccessConfig (resolve it through xqdb_core::AccessConfig)" >&2
  exit 1
fi

# Twig patterns and required paths are built in exactly one place: the
# structural walk in crates/core/src/structure.rs, which derives both the
# signature-prefilter groups and the twig patterns from one record of the
# query's uses. A second construction site would be a second extractor,
# free to drift from the first on what a query requires. Exempt:
# crates/twig, which owns Pattern, and test code (tests/ trees, and a
# source file's trailing #[cfg(test)] module).
STRUCT_BUILD='Pattern::root|\.add_child\(|PathComponent::(Element|Attribute)\('
struct_builds=$(
  grep -rlE --include='*.rs' "$STRUCT_BUILD" crates \
    | grep -v '^crates/twig/' \
    | grep -v '^crates/core/src/structure.rs$' \
    | grep -v '/tests/' \
    | while read -r f; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$STRUCT_BUILD" | sed "s|^|$f:|"
      done
) || true
if [ -n "$struct_builds" ]; then
  echo "$struct_builds"
  echo "error: twig pattern or required path built outside crates/core/src/structure.rs (derive it from the structural walk)" >&2
  exit 1
fi

# The paper's query suite must survive the wire: run it through a loopback
# server (framing, admission, session locking) and byte-compare against
# direct in-process execution.
cargo test -p xqdb-server --test paper_over_wire -q

# Second test pass at a parallel degree: the chaos matrix picks the extra
# thread count up from the environment, and every other test runs under
# the same build to catch degree-dependent flakiness.
XQDB_TEST_THREADS=4 cargo test --workspace -q

# Third pass with every session transparently durable: XQDB_DATA_DIR makes
# SqlSession::new() attach a WAL in a unique subdirectory (fsync off — the
# fast mode), so the whole suite doubles as a write-ahead-ordering and
# replay-compatibility soak. Baselines built via SqlSession::default() stay
# in-memory by design, so oracle comparisons remain meaningful.
DURABLE_TMP="target/lint-durable-$$"
rm -rf "$DURABLE_TMP"
mkdir -p "$DURABLE_TMP"
XQDB_DATA_DIR="$DURABLE_TMP" XQDB_FSYNC=off cargo test --workspace -q
rm -rf "$DURABLE_TMP"

# Fourth pass with the structural pre-filter disabled: every result the
# suite asserts must be reachable by the plain evaluation path too, so a
# pre-filter bug can never hide behind its own optimization being on.
XQDB_PREFILTER=off cargo test --workspace -q

# Fifth pass starved for buffer pages: a 4-frame pool (the minimum that
# still holds a pinned page and its chain successor) forces continuous
# eviction and re-fetch through every pager-backed structure — tables,
# index node pools, recovery — so no test may depend on pages staying
# resident.
XQDB_BUFFER_PAGES=4 cargo test --workspace -q

# Sixth pass with the twig join disabled: labels are never built and every
# query answers through navigation, so a twig-join bug can never hide
# behind its own optimization being on (mirrors the pre-filter pass above).
XQDB_TWIG=off cargo test --workspace -q

# Seventh pass: buffer starvation × update churn. The 4-frame pool from
# pass five combined with a much longer mixed-DML scenario run (inserts,
# amends, deletes, hot-key skew — XQDB_TEST_DML_OPS scales the workload
# crate's scenario test) cycles tombstoned, replaced, and reclaimed pages
# through continuous eviction, so no DML path may depend on a retired
# record's page staying resident.
XQDB_BUFFER_PAGES=4 XQDB_TEST_DML_OPS=2000 cargo test --workspace -q

# Eighth pass with cost-based planning disabled: every index choice falls
# back to the first-eligible rule, so a costing bug can never hide behind
# its own optimization being on (mirrors the pre-filter and twig passes).
XQDB_COST=off cargo test --workspace -q

# Histogram construction is confined to the storage crate: per-path value
# statistics are recorded in exactly one place — the synopsis Walker on
# the insert path — so the incrementally maintained histograms can never
# drift from what a rebuild over the live rows would produce. Everyone
# else reads ValueStats through the synopsis accessors.
if grep -rn --include='*.rs' -E '\.(observe|record_value)\(|ValueStats::default\(\)|ValueStats \{' crates tests \
    | grep -v '^crates/storage/' \
    | grep -v '^crates/obs/' \
    | grep -v '/tests/' \
    | grep -v '^tests/'; then
  echo "error: value-statistics construction outside crates/storage (histograms are built only by the synopsis Walker)" >&2
  exit 1
fi
