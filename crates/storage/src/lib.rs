//! # xqdb-storage — tables with XML columns
//!
//! The relational substrate of the paper's examples:
//!
//! ```sql
//! create table customer (cid integer, cdoc XML);
//! create table orders   (ordid integer, orddoc XML);
//! create table products (id varchar(13), name varchar(32));
//! ```
//!
//! Tables are row stores over `xqdb-pager` heap pages: rows encode
//! through [`rowcodec`] into slotted pages behind a bounded buffer pool,
//! so collections bigger than RAM work by eviction rather than by luck.
//! Inserts append; DELETE and REPLACE retire records in place (tombstones
//! on mutable pages, logical delete sets over frozen ones). XML columns hold [`xqdb_xdm::Document`] trees (the "native XML
//! storage" of DB2 Viper — all XDM information preserved, schemas optional
//! and per-document), serialized in page records and re-parsed on fetch.
//! The [`Database`] also implements
//! [`xqdb_xqeval::CollectionProvider`], so `db2-fn:xmlcolumn('T.C')` resolves
//! against stored tables.
//!
//! SQL comparison semantics live here too — notably the **trailing-blank
//! insensitivity** of SQL string comparison that Section 3.3 contrasts with
//! XQuery's exact comparison.

pub mod db;
pub mod rowcodec;
pub mod synopsis;
pub mod table;
pub mod value;

pub use db::{Database, PersistenceHook};
pub use synopsis::{
    bucket_bounds, document_paths, extend_attribute, extend_element, hash_rendered_path,
    observe_document_labeled, render_component, value_bucket, PathSynopsis, ValueStats,
    PATH_HASH_SEED,
};
pub use table::{Column, RowId, Table};
pub use value::{sql_compare, SqlType, SqlValue};
