//! Error codes shared across the engine.
//!
//! The codes mirror the W3C XQuery error namespaces (`err:XPTY0004` and
//! friends) because the paper's pitfalls are largely about *which* queries
//! raise type errors and which silently return unexpected results. Tests in
//! the integration suite assert on specific codes (e.g. the leading-`/` type
//! error of Query 25, or the XMLCast singleton error of Query 14).

use std::fmt;

/// W3C-style error codes raised by the data model and evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// `err:XPTY0004` — type error: a value does not match a required type
    /// (non-singleton in a value comparison, comparing incomparable atomics,
    /// `fn:root` treat-as-document-node failure, ...).
    XPTY0004,
    /// `err:FORG0001` — invalid value for cast/constructor.
    FORG0001,
    /// `err:FOAR0001` — division by zero.
    FOAR0001,
    /// `err:XPDY0002` — dynamic context component (context item) is absent.
    XPDY0002,
    /// `err:XQDY0025` — duplicate attribute name in a constructed element
    /// (Section 3.6, divergence case 4).
    XQDY0025,
    /// `err:XPST0003` — static error: grammar violation.
    XPST0003,
    /// `err:XPST0008` — undefined variable or name.
    XPST0008,
    /// `err:XPST0081` — unbound namespace prefix.
    XPST0081,
    /// `err:FOCA0002` — invalid lexical value (e.g. QName content cast).
    FOCA0002,
    /// `err:FODT0001` — overflow in date/time arithmetic.
    FODT0001,
    /// SQL-side error: cast target length exceeded (e.g. `VARCHAR(13)` in
    /// Query 14 of the paper).
    SqlLength,
    /// SQL-side error: XMLCast applied to a non-singleton sequence.
    SqlCardinality,
    /// SQL-side type error (incomparable SQL types).
    SqlType,
    /// A resource budget (deadline, step count, index entries, result
    /// cardinality, document size) was exceeded during evaluation.
    ResourceExhausted,
    /// Evaluation was cancelled via the shared cancellation token.
    Cancelled,
    /// The storage layer failed to produce a document (injected or real
    /// fault). Unlike an index fault this is not recoverable by rescanning:
    /// the data itself is unavailable.
    StorageFault,
    /// A parser limit was exceeded (nesting depth, document size,
    /// attribute size) — input is rejected rather than risking a stack
    /// overflow or unbounded allocation.
    ParseLimit,
    /// The write-ahead log is corrupt beyond the self-healing torn-tail
    /// case: a mid-log CRC mismatch, an undecodable record, or a sequence
    /// gap. The message names the offending segment file; the segment is
    /// quarantined rather than silently skipped.
    WalCorrupt,
    /// A storage page is corrupt beyond the self-healing torn-write case:
    /// a CRC or self-identification mismatch on a page the durability
    /// protocol froze at a checkpoint (pages written after the newest
    /// checkpoint are covered by the WAL suffix and may be discarded
    /// instead). The message names the page.
    PageCorrupt,
    /// Internal invariant violation — a bug in the engine, never expected.
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::XPTY0004 => "err:XPTY0004",
            ErrorCode::FORG0001 => "err:FORG0001",
            ErrorCode::FOAR0001 => "err:FOAR0001",
            ErrorCode::XPDY0002 => "err:XPDY0002",
            ErrorCode::XQDY0025 => "err:XQDY0025",
            ErrorCode::XPST0003 => "err:XPST0003",
            ErrorCode::XPST0008 => "err:XPST0008",
            ErrorCode::XPST0081 => "err:XPST0081",
            ErrorCode::FOCA0002 => "err:FOCA0002",
            ErrorCode::FODT0001 => "err:FODT0001",
            ErrorCode::ResourceExhausted => "xqdb:RESOURCE",
            ErrorCode::Cancelled => "xqdb:CANCELLED",
            ErrorCode::StorageFault => "xqdb:STORAGE",
            ErrorCode::ParseLimit => "xqdb:PARSELIMIT",
            ErrorCode::WalCorrupt => "xqdb:WALCORRUPT",
            ErrorCode::PageCorrupt => "xqdb:PAGECORRUPT",
            ErrorCode::SqlLength => "sql:LENGTH",
            ErrorCode::SqlCardinality => "sql:CARDINALITY",
            ErrorCode::SqlType => "sql:TYPE",
            ErrorCode::Internal => "xqdb:INTERNAL",
        };
        f.write_str(s)
    }
}

/// An error raised while building or operating on XDM values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XdmError {
    /// Stable machine-checkable code.
    pub code: ErrorCode,
    /// Human-readable context.
    pub message: String,
}

impl XdmError {
    /// Create an error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        XdmError { code, message: message.into() }
    }

    /// Shorthand for the ubiquitous `XPTY0004` type error.
    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::XPTY0004, message)
    }

    /// Shorthand for the `FORG0001` invalid-cast error.
    pub fn invalid_cast(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::FORG0001, message)
    }

    /// Shorthand for a budget-exceeded error.
    pub fn resource_exhausted(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::ResourceExhausted, message)
    }

    /// Shorthand for a cancellation error.
    pub fn cancelled() -> Self {
        Self::new(ErrorCode::Cancelled, "evaluation cancelled")
    }

    /// Shorthand for a storage-layer fault.
    pub fn storage_fault(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::StorageFault, message)
    }

    /// Shorthand for a write-ahead-log corruption error. The message should
    /// name the segment file so operators know what was quarantined.
    pub fn wal_corrupt(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::WalCorrupt, message)
    }

    /// Shorthand for a corrupt-page error. The message should name the
    /// page id and what failed (CRC, magic, self-identification).
    pub fn page_corrupt(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::PageCorrupt, message)
    }

    /// Shorthand for an internal invariant violation (replaces `panic!` /
    /// `unreachable!` in non-test code: a bug report, not a crash).
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for XdmError {}

/// Convenient result alias used across the XDM crate.
pub type XdmResult<T> = Result<T, XdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let e = XdmError::type_error("value comparison on a sequence of 2 items");
        assert_eq!(e.to_string(), "err:XPTY0004: value comparison on a sequence of 2 items");
    }

    #[test]
    fn codes_are_distinguishable() {
        assert_ne!(ErrorCode::XPTY0004, ErrorCode::FORG0001);
        assert_eq!(ErrorCode::SqlLength.to_string(), "sql:LENGTH");
    }
}
