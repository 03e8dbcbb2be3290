//! Compile-time `Send + Sync` audit for every type that crosses threads.
//!
//! Execution is serial, but the server's connection handlers share one
//! session (its catalog, indexes and observability handle) and run reads
//! concurrently, and a budget's cancellation token is tripped from another
//! thread. Rust checks the bounds at each use site, but a regression (say,
//! an `Rc` or `RefCell` slipping into `NodeHandle`) would surface as a
//! confusing error deep in the server. This hand-rolled `static_assertions`-style module turns
//! such a regression into one obvious build failure at the type's name.

/// The assertion: instantiable only for `Send + Sync` types.
fn assert_send_sync<T: Send + Sync>() {}

/// Monomorphize the assertion for every thread-crossing type. Never called;
/// type-checking the body is the whole point.
#[allow(dead_code)]
fn audit_thread_crossing_types() {
    // Storage layer: shared read-only by concurrent readers.
    assert_send_sync::<xqdb_storage::Database>();
    assert_send_sync::<xqdb_storage::Table>();
    assert_send_sync::<xqdb_storage::SqlValue>();

    // Index layer: probed under a shared reference.
    assert_send_sync::<xqdb_xmlindex::XmlIndex>();

    // Data model: documents and items flow between threads.
    assert_send_sync::<xqdb_xdm::NodeHandle>();
    assert_send_sync::<xqdb_xdm::Item>();
    assert_send_sync::<xqdb_xdm::XdmError>();

    // Governance: a budget is cancelled, and an injector shared, across
    // threads.
    assert_send_sync::<xqdb_xdm::Budget>();
    assert_send_sync::<xqdb_xdm::FaultInjector>();

    // Evaluation.
    assert_send_sync::<xqdb_xqeval::DynamicContext>();

    // Engine: the session is shared by the server's connection handlers.
    assert_send_sync::<crate::Catalog>();
    assert_send_sync::<crate::SqlSession>();
    assert_send_sync::<crate::ExecStats>();

    // Observability: the handle is recorded into from every connection;
    // spans may be created concurrently.
    assert_send_sync::<xqdb_obs::Obs>();
    assert_send_sync::<xqdb_obs::Trace>();
    assert_send_sync::<xqdb_obs::Span>();
    assert_send_sync::<xqdb_obs::MetricsSnapshot>();
}
