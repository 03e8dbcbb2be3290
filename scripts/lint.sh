#!/usr/bin/env bash
# Lint gate: deny warnings plus unwrap/expect in non-test code, keep thread
# spawning, the worker pool and the other confined concerns below in their
# crates, and run the test suite once more with durable sessions and a
# starved buffer pool.
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

# Thread creation lives in crates/runtime: production threads come only
# from `spawn_service` (the server's accept loop and connection handlers),
# and tests and the bench harness drive concurrent clients through its
# `WorkerPool`. (thread::sleep and available_parallelism are fine; the
# pattern targets spawn/scope only.) crates/obs sits below the runtime in
# the layering; its tests need raw scoped threads to contend on the
# lock-cheap registry and the span mutex.
if grep -rn --include='*.rs' -E 'thread::(spawn|scope)' crates tests \
    | grep -v '^crates/runtime/' \
    | grep -v '^crates/obs/'; then
  echo "error: thread spawning outside crates/runtime (use spawn_service for a service thread, WorkerPool for concurrent test clients)" >&2
  exit 1
fi

# Query execution is serial: the worker pool exists for concurrent clients
# in tests and the bench harness, not for sharding a statement. Intra-query
# parallelism was removed because it measured slower than serial at every
# width; bringing it back needs a measured gain, not a stray pool. Exempt:
# crates/runtime, which owns the pool; crates/bench; and test code (tests/
# trees, and a source file's trailing #[cfg(test)] module).
pool_uses=$(
  grep -rlE --include='*.rs' '\bWorkerPool\b' crates \
    | grep -v '^crates/runtime/' \
    | grep -v '^crates/bench/' \
    | grep -v '/tests/' \
    | while read -r f; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\bWorkerPool\b' | sed "s|^|$f:|"
      done
) || true
if [ -n "$pool_uses" ]; then
  echo "$pool_uses"
  echo "error: WorkerPool in non-test code outside crates/runtime and crates/bench (execution is serial; see DESIGN.md §8)" >&2
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

# Structural label runs are written in exactly one place: `Table::push_row`
# and `Table::replace_row` (through `Table::observe_row`) calling into
# crates/twig's `LabelStore::write_run`. Any other writer could drift from
# the insert path and break the labels-complete invariant the twig join's
# soundness rests on. The rebuild oracle (core/src/verify.rs) is the one
# exception: it writes a scratch LabelStore from the live rows to *compare*
# against the maintained one, and never installs it. The grep must find the
# storage call site, or a rename would leave it passing vacuously.
if ! grep -qn --include='*.rs' -rE '\.write_run\(' crates/storage/src; then
  echo "error: no LabelStore::write_run call in crates/storage (update this confinement check to the label-writing method)" >&2
  exit 1
fi
if grep -rn --include='*.rs' -E '\.write_run\(' crates tests \
    | grep -v '^crates/twig/' \
    | grep -v '^crates/storage/' \
    | grep -v '^crates/core/src/verify.rs'; then
  echo "error: label-run writes outside crates/twig and crates/storage (labels are built only on the insert path)" >&2
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

# The access-path switches have no environment spelling: a session's or a
# run's AccessConfig (the shell's --no-prefilter/--no-twig/--no-cost, the
# ExecOptions fields) is the only way to turn a stage off, and
# tests/access_oracle.rs checks every combination in-process. A variable
# read anywhere would bring back a configuration no test covers.
if grep -rnE 'XQDB_(PREFILTER|TWIG|COST|TEST_THREADS)' crates tests; then
  echo "error: access-path switch or test-thread environment variable (use AccessConfig / ExecOptions)" >&2
  exit 1
fi

# Twig patterns and required paths are built in exactly one place: the
# structural derivations in crates/core/src/structure.rs, which derive both
# the signature-prefilter groups and the twig patterns from the query
# walk's one record of the query's uses. A second construction site would
# be a second extractor, free to drift from the first on what a query
# requires. Exempt:
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

# Index candidates and linear query paths are built in exactly one place:
# the query walk in crates/core/src/walk.rs, which derives the index-probe
# condition, the notes and the structural uses from one pass over the
# query. A `Cond::Pred`, `Cond::Exists` or `PatternStep` built anywhere
# else would be a second extractor, free to drift from the walk on which
# positions filter. Lines that only match against them (a pattern ahead
# of the line's first `=`, before its `=>`; `let`/`for` destructuring;
# `matches!`) are reads, not builds. Exempt: crates/xquery, which owns PatternStep; the PatternStep
# rewrites of index patterns and synopsis paths in eligibility/cost.rs and
# eligibility/doctor.rs, which never read a query; and test code (tests/
# trees, and a source file's trailing #[cfg(test)] module).
WALK_BUILD='Cond::Pred\(|Cond::Exists \{|PatternStep \{'
walk_builds=$(
  grep -rlE --include='*.rs' "$WALK_BUILD" crates \
    | grep -v '^crates/xquery/' \
    | grep -v '^crates/core/src/walk.rs$' \
    | grep -v '/tests/' \
    | while read -r f; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$WALK_BUILD" | sed "s|^|$f:|"
      done \
    | grep -vE "^[^:]*:[0-9]+:[^=]*($WALK_BUILD).*=>|(^|[^a-z_])(let|for) [^=]*($WALK_BUILD)|matches!\([^,]*,[^)]*($WALK_BUILD)" \
    | grep -vE '^crates/core/src/eligibility/(cost|doctor)\.rs:[0-9]+:.*PatternStep \{'
) || true
if [ -n "$walk_builds" ]; then
  echo "$walk_builds"
  echo "error: index candidate or query path built outside crates/core/src/walk.rs (derive it from the query walk)" >&2
  exit 1
fi

# The paper's query suite must survive the wire: run it through a loopback
# server (framing, admission, session locking) and byte-compare against
# direct in-process execution.
cargo test -p xqdb-server --test paper_over_wire -q

# One more test pass, with every session transparently durable and
# starved for buffer pages. XQDB_DATA_DIR makes SqlSession::new() attach a
# WAL in a unique subdirectory (fsync off, the fast mode), so the suite
# doubles as a write-ahead-ordering and replay-compatibility soak;
# baselines built via SqlSession::default() stay in-memory by design, so
# oracle comparisons remain meaningful. A 4-frame pool (the minimum that
# still holds a pinned page and its chain successor) forces continuous
# eviction and re-fetch through every pager-backed structure, and
# XQDB_TEST_DML_OPS lengthens the workload crate's mixed-DML scenario so
# tombstoned, replaced and reclaimed pages cycle through that eviction.
# Switch combinations and reopened storage are covered in-process by
# tests/access_oracle.rs.
DURABLE_TMP="target/lint-durable-$$"
rm -rf "$DURABLE_TMP"
mkdir -p "$DURABLE_TMP"
XQDB_DATA_DIR="$DURABLE_TMP" XQDB_FSYNC=off XQDB_BUFFER_PAGES=4 XQDB_TEST_DML_OPS=2000 \
  cargo test --workspace -q
rm -rf "$DURABLE_TMP"

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
