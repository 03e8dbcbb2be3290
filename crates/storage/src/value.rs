//! SQL values, types and comparison semantics.

use std::cmp::Ordering;
use std::fmt;

use xqdb_xdm::{Date, DateTime, ErrorCode, NodeHandle, XdmError};

/// SQL column types (the subset the paper's schema uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlType {
    /// `INTEGER`
    Integer,
    /// `DOUBLE`
    Double,
    /// `DECIMAL(p, s)`
    Decimal(u8, u8),
    /// `VARCHAR(n)`
    Varchar(usize),
    /// `DATE`
    Date,
    /// `TIMESTAMP`
    Timestamp,
    /// The SQL/XML `XML` type.
    Xml,
}

impl SqlType {
    /// Parse the SQL spelling produced by [`fmt::Display`] (used by WAL
    /// replay to round-trip column types through the log). Accepts any
    /// case and optional spaces inside `DECIMAL(p, s)`.
    pub fn parse(s: &str) -> Result<SqlType, XdmError> {
        let upper = s.trim().to_ascii_uppercase();
        let parse_err = || {
            XdmError::new(ErrorCode::SqlType, format!("unparseable SQL type {s:?}"))
        };
        Ok(match upper.as_str() {
            "INTEGER" | "INT" => SqlType::Integer,
            "DOUBLE" => SqlType::Double,
            "DATE" => SqlType::Date,
            "TIMESTAMP" => SqlType::Timestamp,
            "XML" => SqlType::Xml,
            _ => {
                let (head, args) = upper
                    .strip_suffix(')')
                    .and_then(|r| r.split_once('('))
                    .ok_or_else(parse_err)?;
                match head.trim() {
                    "VARCHAR" => {
                        SqlType::Varchar(args.trim().parse().map_err(|_| parse_err())?)
                    }
                    "DECIMAL" => {
                        let (p, sc) = args.split_once(',').ok_or_else(parse_err)?;
                        SqlType::Decimal(
                            p.trim().parse().map_err(|_| parse_err())?,
                            sc.trim().parse().map_err(|_| parse_err())?,
                        )
                    }
                    _ => return Err(parse_err()),
                }
            }
        })
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Integer => f.write_str("INTEGER"),
            SqlType::Double => f.write_str("DOUBLE"),
            SqlType::Decimal(p, s) => write!(f, "DECIMAL({p},{s})"),
            SqlType::Varchar(n) => write!(f, "VARCHAR({n})"),
            SqlType::Date => f.write_str("DATE"),
            SqlType::Timestamp => f.write_str("TIMESTAMP"),
            SqlType::Xml => f.write_str("XML"),
        }
    }
}

/// A SQL value. `Xml` holds a node handle — for stored columns this is a
/// document node; query results may hold any node or constructed tree.
#[derive(Debug, Clone)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// INTEGER value.
    Integer(i64),
    /// DOUBLE value.
    Double(f64),
    /// VARCHAR value.
    Varchar(String),
    /// DATE value.
    Date(Date),
    /// TIMESTAMP value.
    Timestamp(DateTime),
    /// XML value (node reference).
    Xml(NodeHandle),
}

impl SqlValue {
    /// Human-readable rendering for result rows (XML serialized).
    pub fn render(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Integer(i) => i.to_string(),
            SqlValue::Double(d) => d.to_string(),
            SqlValue::Varchar(s) => s.clone(),
            SqlValue::Date(d) => d.to_string(),
            SqlValue::Timestamp(t) => t.to_string(),
            SqlValue::Xml(n) => xqdb_xmlparse::serialize_node(n),
        }
    }

    /// Check (and coerce) this value against a column type on insert.
    /// Strings that exceed a `VARCHAR(n)` bound are rejected, mirroring the
    /// `XMLCast ... as VARCHAR(13)` length error of Query 14.
    pub fn conform(self, ty: &SqlType) -> Result<SqlValue, XdmError> {
        match (&self, ty) {
            (SqlValue::Null, _) => Ok(self),
            (SqlValue::Integer(_), SqlType::Integer) => Ok(self),
            (SqlValue::Integer(i), SqlType::Double) => Ok(SqlValue::Double(*i as f64)),
            (SqlValue::Double(_), SqlType::Double) => Ok(self),
            (SqlValue::Double(_), SqlType::Decimal(..)) => Ok(self),
            (SqlValue::Integer(i), SqlType::Decimal(..)) => Ok(SqlValue::Double(*i as f64)),
            (SqlValue::Varchar(s), SqlType::Varchar(n)) => {
                if s.chars().count() > *n {
                    Err(XdmError::new(
                        ErrorCode::SqlLength,
                        format!("value of length {} exceeds VARCHAR({n})", s.chars().count()),
                    ))
                } else {
                    Ok(self)
                }
            }
            (SqlValue::Date(_), SqlType::Date) => Ok(self),
            (SqlValue::Timestamp(_), SqlType::Timestamp) => Ok(self),
            (SqlValue::Xml(_), SqlType::Xml) => Ok(self),
            _ => Err(XdmError::new(
                ErrorCode::SqlType,
                format!("value {:?} does not conform to column type {ty}", self),
            )),
        }
    }
}

/// SQL comparison. Returns `None` when either side is NULL (SQL three-valued
/// logic: the comparison is UNKNOWN) or the values are unordered.
///
/// String comparison ignores trailing blanks — `'abc' = 'abc   '` is TRUE in
/// SQL but false in XQuery (Section 3.3 of the paper).
pub fn sql_compare(a: &SqlValue, b: &SqlValue) -> Result<Option<Ordering>, XdmError> {
    use SqlValue::*;
    match (a, b) {
        (Null, _) | (_, Null) => Ok(None),
        (Integer(x), Integer(y)) => Ok(Some(x.cmp(y))),
        (Integer(x), Double(y)) => Ok((*x as f64).partial_cmp(y)),
        (Double(x), Integer(y)) => Ok(x.partial_cmp(&(*y as f64))),
        (Double(x), Double(y)) => Ok(x.partial_cmp(y)),
        (Varchar(x), Varchar(y)) => {
            // PAD SPACE collation: compare as if padded to equal length.
            Ok(Some(x.trim_end_matches(' ').cmp(y.trim_end_matches(' '))))
        }
        (Date(x), Date(y)) => Ok(Some(x.cmp(y))),
        (Timestamp(x), Timestamp(y)) => Ok(Some(x.cmp(y))),
        (Xml(_), _) | (_, Xml(_)) => Err(XdmError::new(
            ErrorCode::SqlType,
            "XML values are not comparable with SQL comparison operators; \
             use XMLEXISTS or extract a value with XMLCAST",
        )),
        _ => Err(XdmError::new(
            ErrorCode::SqlType,
            "incomparable SQL types in comparison",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_blanks_ignored_in_sql() {
        let a = SqlValue::Varchar("abc".into());
        let b = SqlValue::Varchar("abc   ".into());
        assert_eq!(sql_compare(&a, &b).unwrap(), Some(Ordering::Equal));
        // ...but leading blanks matter.
        let c = SqlValue::Varchar("  abc".into());
        assert_ne!(sql_compare(&a, &c).unwrap(), Some(Ordering::Equal));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(
            sql_compare(&SqlValue::Null, &SqlValue::Integer(1)).unwrap(),
            None
        );
        assert_eq!(sql_compare(&SqlValue::Null, &SqlValue::Null).unwrap(), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            sql_compare(&SqlValue::Integer(2), &SqlValue::Double(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            sql_compare(&SqlValue::Double(1.5), &SqlValue::Integer(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn xml_not_sql_comparable() {
        let doc = xqdb_xmlparse::parse_document("<a/>").unwrap();
        let x = SqlValue::Xml(doc.root());
        assert!(sql_compare(&x, &SqlValue::Integer(1)).is_err());
    }

    #[test]
    fn string_vs_number_is_type_error() {
        assert!(sql_compare(
            &SqlValue::Varchar("1".into()),
            &SqlValue::Integer(1)
        )
        .is_err());
    }

    #[test]
    fn varchar_conform_length() {
        let v = SqlValue::Varchar("12345678901234".into()); // 14 chars
        let err = v.conform(&SqlType::Varchar(13)).unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlLength);
        let ok = SqlValue::Varchar("1234567890123".into()).conform(&SqlType::Varchar(13));
        assert!(ok.is_ok());
    }

    #[test]
    fn sql_type_display_parse_roundtrip() {
        for ty in [
            SqlType::Integer,
            SqlType::Double,
            SqlType::Decimal(10, 2),
            SqlType::Varchar(13),
            SqlType::Date,
            SqlType::Timestamp,
            SqlType::Xml,
        ] {
            assert_eq!(SqlType::parse(&ty.to_string()).unwrap(), ty);
        }
        assert_eq!(SqlType::parse("varchar( 32 )").unwrap(), SqlType::Varchar(32));
        assert!(SqlType::parse("BLOB").is_err());
        assert!(SqlType::parse("VARCHAR(x)").is_err());
        assert!(SqlType::parse("DECIMAL(5)").is_err());
    }

    #[test]
    fn conform_type_mismatch() {
        let err = SqlValue::Varchar("x".into()).conform(&SqlType::Integer).unwrap_err();
        assert_eq!(err.code, ErrorCode::SqlType);
        assert!(SqlValue::Null.conform(&SqlType::Integer).is_ok());
        // integer widens to double
        match SqlValue::Integer(3).conform(&SqlType::Double).unwrap() {
            SqlValue::Double(d) => assert_eq!(d, 3.0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
