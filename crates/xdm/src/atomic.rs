//! Atomic values and atomic types.
//!
//! The engine distinguishes the small set of atomic types the paper's
//! pitfalls hinge on:
//!
//! * `xdt:untypedAtomic` — the typed value of unvalidated data; general
//!   comparisons promote it to the *other* operand's type, value comparisons
//!   cast it to `xs:string` (Sections 3.1, 3.6);
//! * `xs:integer` vs `xs:double` — Section 3.6 case 2: comparing long
//!   integers as integers vs. converting both to doubles gives different
//!   answers for large values because of floating-point rounding;
//! * `xs:string`, `xs:date`, `xs:dateTime` — the index key types of
//!   Section 2.1 (`varchar`, `date`, `timestamp`), plus `xs:boolean` for
//!   effective boolean values.

use std::fmt;

use crate::datetime::{Date, DateTime};
use crate::error::{XdmError, XdmResult};

/// The atomic types known to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// `xs:string`
    String,
    /// `xdt:untypedAtomic` — data without schema validation.
    UntypedAtomic,
    /// `xs:double`
    Double,
    /// `xs:integer` (modelled as `i64`, wide enough for the paper's
    /// "long integer" discussion).
    Integer,
    /// `xs:decimal` (modelled as a scaled `i128`, 6 fractional digits).
    Decimal,
    /// `xs:boolean`
    Boolean,
    /// `xs:date`
    Date,
    /// `xs:dateTime`
    DateTime,
    /// `xs:anyURI`
    AnyUri,
}

impl AtomicType {
    /// True for the three numeric types that participate in numeric
    /// promotion.
    pub fn is_numeric(self) -> bool {
        matches!(self, AtomicType::Double | AtomicType::Integer | AtomicType::Decimal)
    }

    /// The lexical QName used in diagnostics (`xs:double`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::String => "xs:string",
            AtomicType::UntypedAtomic => "xdt:untypedAtomic",
            AtomicType::Double => "xs:double",
            AtomicType::Integer => "xs:integer",
            AtomicType::Decimal => "xs:decimal",
            AtomicType::Boolean => "xs:boolean",
            AtomicType::Date => "xs:date",
            AtomicType::DateTime => "xs:dateTime",
            AtomicType::AnyUri => "xs:anyURI",
        }
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of fractional digits carried by [`AtomicValue::Decimal`].
pub const DECIMAL_SCALE: u32 = 6;
/// `10^DECIMAL_SCALE`, the fixed decimal denominator.
pub const DECIMAL_DENOM: i128 = 1_000_000;

/// An atomic value. Equality is *typed* equality (`5` the integer differs
/// from `"5"` the string); use [`crate::compare`] for XQuery comparison
/// semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    /// `xs:string`
    String(String),
    /// `xdt:untypedAtomic` — carries its lexical form.
    UntypedAtomic(String),
    /// `xs:double`
    Double(f64),
    /// `xs:integer`
    Integer(i64),
    /// `xs:decimal`, stored as `value * 10^6` in an `i128`.
    Decimal(i128),
    /// `xs:boolean`
    Boolean(bool),
    /// `xs:date`
    Date(Date),
    /// `xs:dateTime`
    DateTime(DateTime),
    /// `xs:anyURI`
    AnyUri(String),
}

impl AtomicValue {
    /// The dynamic type of this value.
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            AtomicValue::String(_) => AtomicType::String,
            AtomicValue::UntypedAtomic(_) => AtomicType::UntypedAtomic,
            AtomicValue::Double(_) => AtomicType::Double,
            AtomicValue::Integer(_) => AtomicType::Integer,
            AtomicValue::Decimal(_) => AtomicType::Decimal,
            AtomicValue::Boolean(_) => AtomicType::Boolean,
            AtomicValue::Date(_) => AtomicType::Date,
            AtomicValue::DateTime(_) => AtomicType::DateTime,
            AtomicValue::AnyUri(_) => AtomicType::AnyUri,
        }
    }

    /// Build an `xs:decimal` from a lexical decimal string.
    pub fn decimal_from_str(s: &str) -> XdmResult<AtomicValue> {
        let s = s.trim();
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => match s.strip_prefix('+') {
                Some(rest) => (false, rest),
                None => (false, s),
            },
        };
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if (int_part.is_empty() && frac_part.is_empty())
            || !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(XdmError::invalid_cast(format!("invalid xs:decimal literal {s:?}")));
        }
        let mut value: i128 = 0;
        for b in int_part.bytes() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(i128::from(b - b'0')))
                .ok_or_else(|| XdmError::invalid_cast("xs:decimal overflow"))?;
        }
        value = value
            .checked_mul(DECIMAL_DENOM)
            .ok_or_else(|| XdmError::invalid_cast("xs:decimal overflow"))?;
        let mut scale = DECIMAL_DENOM / 10;
        for b in frac_part.bytes().take(DECIMAL_SCALE as usize) {
            value += i128::from(b - b'0') * scale;
            scale /= 10;
        }
        Ok(AtomicValue::Decimal(if neg { -value } else { value }))
    }

    /// Build an `xs:decimal` from an integer.
    pub fn decimal_from_i64(i: i64) -> AtomicValue {
        AtomicValue::Decimal(i128::from(i) * DECIMAL_DENOM)
    }

    /// Numeric value as `f64` (for Double/Integer/Decimal), else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AtomicValue::Double(d) => Some(*d),
            AtomicValue::Integer(i) => Some(*i as f64),
            AtomicValue::Decimal(d) => Some(*d as f64 / DECIMAL_DENOM as f64),
            _ => None,
        }
    }

    /// The lexical (string) form per the XDM `fn:string` rules — also the
    /// representation stored in `varchar` indexes.
    pub fn lexical(&self) -> String {
        match self {
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s) => {
                s.clone()
            }
            AtomicValue::Double(d) => format_double(*d),
            AtomicValue::Integer(i) => i.to_string(),
            AtomicValue::Decimal(d) => format_decimal(*d),
            AtomicValue::Boolean(b) => b.to_string(),
            AtomicValue::Date(d) => d.to_string(),
            AtomicValue::DateTime(dt) => dt.to_string(),
        }
    }
}

impl fmt::Display for AtomicValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lexical())
    }
}

/// Format an `xs:double` per the XPath canonical-ish rules: integral values
/// without a trailing `.0`, specials as `NaN` / `INF`.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        return "NaN".to_string();
    }
    if d.is_infinite() {
        return if d > 0.0 { "INF".into() } else { "-INF".into() };
    }
    if d == d.trunc() && d.abs() < 1e18 {
        return format!("{}", d as i64);
    }
    let s = format!("{d}");
    s
}

/// Format a scaled decimal, trimming trailing fractional zeroes.
pub fn format_decimal(scaled: i128) -> String {
    let neg = scaled < 0;
    let abs = scaled.unsigned_abs();
    let int = abs / DECIMAL_DENOM as u128;
    let frac = abs % DECIMAL_DENOM as u128;
    let mut s = if neg { format!("-{int}") } else { int.to_string() };
    if frac != 0 {
        let mut f = format!("{frac:06}");
        while f.ends_with('0') {
            f.pop();
        }
        s.push('.');
        s.push_str(&f);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_and_format() {
        let v = AtomicValue::decimal_from_str("99.50").unwrap();
        assert_eq!(v.lexical(), "99.5");
        assert_eq!(AtomicValue::decimal_from_str("-3.140000").unwrap().lexical(), "-3.14");
        assert_eq!(AtomicValue::decimal_from_str("100").unwrap().lexical(), "100");
        assert_eq!(AtomicValue::decimal_from_str(".5").unwrap().lexical(), "0.5");
        assert_eq!(AtomicValue::decimal_from_str("+2.").unwrap().lexical(), "2");
    }

    #[test]
    fn decimal_rejects_garbage() {
        assert!(AtomicValue::decimal_from_str("20 USD").is_err());
        assert!(AtomicValue::decimal_from_str("").is_err());
        assert!(AtomicValue::decimal_from_str(".").is_err());
        assert!(AtomicValue::decimal_from_str("1e3").is_err());
    }

    #[test]
    fn decimal_truncates_excess_fraction() {
        let v = AtomicValue::decimal_from_str("1.23456789").unwrap();
        assert_eq!(v.lexical(), "1.234567");
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(100.0), "100");
        assert_eq!(format_double(99.5), "99.5");
        assert_eq!(format_double(-0.5), "-0.5");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
    }

    #[test]
    fn typed_equality_is_typed() {
        assert_ne!(AtomicValue::Integer(5), AtomicValue::Double(5.0));
        assert_ne!(
            AtomicValue::String("5".into()),
            AtomicValue::UntypedAtomic("5".into())
        );
    }

    #[test]
    fn numeric_detection() {
        assert!(AtomicType::Double.is_numeric());
        assert!(AtomicType::Integer.is_numeric());
        assert!(AtomicType::Decimal.is_numeric());
        assert!(!AtomicType::String.is_numeric());
        assert!(!AtomicType::UntypedAtomic.is_numeric());
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(AtomicValue::Integer(7).as_f64(), Some(7.0));
        assert_eq!(AtomicValue::decimal_from_str("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(AtomicValue::String("x".into()).as_f64(), None);
    }

    #[test]
    fn large_integer_double_rounding_divergence() {
        // Section 3.6 case 2 of the paper: large longs collide as doubles.
        let a: i64 = 9_007_199_254_740_993; // 2^53 + 1
        let b: i64 = 9_007_199_254_740_992; // 2^53
        assert_ne!(a, b);
        assert_eq!(a as f64, b as f64); // rounding collision
    }
}
