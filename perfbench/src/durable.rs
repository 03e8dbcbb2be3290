//! Durable sessions: open, load, checkpoint and reopen a data directory.
//! Every workload loads its collection through this write path (WAL with
//! `fsync = batch`), so set-up, storage and recovery are measured alike.

use std::path::Path;
use std::time::Instant;

use xqdb_core::{FsyncMode, Obs, SqlSession, WalConfig};

/// The WAL policy of every workload.
pub fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncMode::Batch,
        ..Default::default()
    }
}

/// Open (or recover) a durable session recording into `obs`. The benchmark
/// cannot proceed without its data directory, so failure aborts the run.
pub fn open(dir: &Path, obs: &Obs) -> SqlSession {
    let (mut s, _) = SqlSession::open_durable(dir, wal_config())
        .unwrap_or_else(|e| panic!("open durable session at {}: {e}", dir.display()));
    s.set_obs(obs.clone());
    s
}

/// Run a set-up statement; set-up statements are fixed, so failure is a
/// broken build and aborts the run.
pub fn exec(s: &mut SqlSession, sql: &str) {
    if let Err(e) = s.execute(sql) {
        panic!("set-up statement failed: {e}\n{sql}");
    }
}

/// INSERT every document (ordid = position) through the SQL front end;
/// returns each statement's latency in milliseconds.
pub fn load(s: &mut SqlSession, docs: &[String]) -> Vec<f64> {
    load_from(s, docs, 0)
}

/// [`load`] with ordids starting at `first`.
pub fn load_from(s: &mut SqlSession, docs: &[String], first: usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(docs.len());
    for (i, d) in docs.iter().enumerate() {
        let sql = format!("INSERT INTO orders VALUES ({}, '{d}')", first + i);
        let t0 = Instant::now();
        exec(s, &sql);
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    lat
}

/// Checkpoint; returns its duration in milliseconds.
pub fn checkpoint(s: &mut SqlSession) -> f64 {
    let t0 = Instant::now();
    if let Err(e) = s.checkpoint() {
        panic!("checkpoint failed: {e}");
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reopen the directory `reps` times; returns each recovery's seconds.
pub fn reopen_times(dir: &Path, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let s = open(dir, &Obs::disabled());
            let secs = t0.elapsed().as_secs_f64();
            drop(s);
            secs
        })
        .collect()
}
