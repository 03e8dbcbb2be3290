//! The heap-record codec: one stored row ⇄ one byte string.
//!
//! Layout:
//!
//! ```text
//! [u64 form | rowid] [u16 ncols] [tagged values]*
//! ```
//!
//! The top byte of the first word is the header form: `0x80` for
//! records written now, zero for *legacy* records, whose header
//! carried a 32-byte path signature between the rowid and the column
//! count (42 bytes in all). Legacy records still sit on frozen pages of
//! older data directories and decode unchanged (the signature is skipped);
//! no rowid reaches the top byte, and any other form byte is a typed
//! `PageCorrupt`.
//!
//! Value encoding mirrors the WAL's (lossless by the same argument):
//! doubles keep their exact bits, temporal values round-trip through
//! their lexical form, XML documents through serialization — node
//! *identity* is not durable, only content, which is all Definition 1
//! observes. The rowid rides in the record header so recovery can rebuild
//! the row directory from a cheap header scan, without re-parsing any XML.

use xqdb_xdm::XdmError;

use crate::value::SqlValue;

const VTAG_NULL: u8 = 0;
const VTAG_INTEGER: u8 = 1;
const VTAG_DOUBLE: u8 = 2;
const VTAG_VARCHAR: u8 = 3;
const VTAG_DATE: u8 = 4;
const VTAG_TIMESTAMP: u8 = 5;
const VTAG_XML: u8 = 6;

/// The header form byte of records written now (top byte of the rowid word).
const CURRENT_FORM: u8 = 0x80;

/// Bits of the first header word that hold the rowid.
const ROWID_BITS: u64 = (1 << 56) - 1;

/// Bytes a legacy header carries between its rowid and its column count.
const LEGACY_SIGNATURE_LEN: usize = 32;

/// Header length of records written now: rowid word + column count.
pub const RECORD_HEADER_LEN: usize = 8 + 2;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode one row in the current form.
pub fn encode_row(rowid: u64, row: &[SqlValue]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + 16 * row.len());
    out.extend_from_slice(&(rowid | u64::from(CURRENT_FORM) << 56).to_le_bytes());
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            SqlValue::Null => out.push(VTAG_NULL),
            SqlValue::Integer(i) => {
                out.push(VTAG_INTEGER);
                out.extend_from_slice(&i.to_le_bytes());
            }
            SqlValue::Double(d) => {
                out.push(VTAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            SqlValue::Varchar(s) => {
                out.push(VTAG_VARCHAR);
                put_str(&mut out, s);
            }
            SqlValue::Date(d) => {
                out.push(VTAG_DATE);
                put_str(&mut out, &d.to_string());
            }
            SqlValue::Timestamp(t) => {
                out.push(VTAG_TIMESTAMP);
                put_str(&mut out, &t.to_string());
            }
            SqlValue::Xml(n) => {
                out.push(VTAG_XML);
                put_str(&mut out, &xqdb_xmlparse::serialize_node(n));
            }
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], XdmError> {
        if self.pos + n > self.bytes.len() {
            return Err(XdmError::page_corrupt(format!(
                "heap record truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, XdmError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, XdmError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, XdmError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Result<&'a str, XdmError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        std::str::from_utf8(b)
            .map_err(|e| XdmError::page_corrupt(format!("heap record holds invalid UTF-8: {e}")))
    }

    /// Read the header up to the column count, which is next: the rowid,
    /// and for a legacy record the signature it carried, skipped.
    fn header(&mut self) -> Result<u64, XdmError> {
        let word = self.u64()?;
        match (word >> 56) as u8 {
            CURRENT_FORM => {}
            0 => {
                self.take(LEGACY_SIGNATURE_LEN)?;
            }
            form => {
                return Err(XdmError::page_corrupt(format!(
                    "heap record header form {form:#04x} is neither the current nor the legacy form"
                )))
            }
        }
        Ok(word & ROWID_BITS)
    }
}

/// Decode only the record's rowid — enough for recovery's directory
/// rebuild, without touching (or parsing) the values.
pub fn decode_rowid(bytes: &[u8]) -> Result<u64, XdmError> {
    Reader { bytes, pos: 0 }.header()
}

/// Decode a whole row. XML text re-parses into a fresh document tree.
pub fn decode_row(bytes: &[u8]) -> Result<(u64, Vec<SqlValue>), XdmError> {
    let (rowid, row) = decode_with(bytes, |_| true)?;
    Ok((rowid, row.into_iter().flatten().collect()))
}

/// Decode only the columns `mask` selects: column `i` is materialized iff
/// `mask[i]` (columns past the mask's end are skipped). A skipped column
/// is `None` — absent, never NULL — and is stepped over by its length
/// prefix without being parsed, so a scalar predicate over a row with an
/// XML column never tokenizes the document. Tag and length checks still
/// run on skipped columns: a truncated or garbled record is a typed
/// `PageCorrupt` whichever columns were asked for.
pub fn decode_row_masked(
    bytes: &[u8],
    mask: &[bool],
) -> Result<(u64, Vec<Option<SqlValue>>), XdmError> {
    decode_with(bytes, |i| mask.get(i).copied().unwrap_or(false))
}

fn decode_with(
    bytes: &[u8],
    keep: impl Fn(usize) -> bool,
) -> Result<(u64, Vec<Option<SqlValue>>), XdmError> {
    let mut r = Reader { bytes, pos: 0 };
    let rowid = r.header()?;
    let ncols = r.u16()? as usize;
    let mut row = Vec::with_capacity(ncols);
    for col in 0..ncols {
        let tag = r.take(1)?[0];
        if !keep(col) {
            skip_value(&mut r, tag)?;
            row.push(None);
            continue;
        }
        row.push(Some(match tag {
            VTAG_NULL => SqlValue::Null,
            VTAG_INTEGER => SqlValue::Integer(r.u64()? as i64),
            VTAG_DOUBLE => SqlValue::Double(f64::from_bits(r.u64()?)),
            VTAG_VARCHAR => SqlValue::Varchar(r.str()?.to_string()),
            VTAG_DATE => SqlValue::Date(xqdb_xdm::Date::parse(r.str()?)?),
            VTAG_TIMESTAMP => SqlValue::Timestamp(xqdb_xdm::DateTime::parse(r.str()?)?),
            VTAG_XML => {
                let text = r.str()?;
                let doc = xqdb_xmlparse::parse_document(text).map_err(|e| {
                    XdmError::page_corrupt(format!("stored XML document no longer parses: {e}"))
                })?;
                SqlValue::Xml(doc.root())
            }
            t => {
                return Err(XdmError::page_corrupt(format!("heap record: unknown value tag {t}")))
            }
        }));
    }
    Ok((rowid, row))
}

/// Read the INTEGER cells of the columns `wanted` selects, calling
/// `visit(column, cell)` for each (`None` for NULL), in column order. Every
/// other column is stepped over by its length prefix, as in a masked
/// decode: nothing is parsed and nothing is allocated, which is what lets
/// recovery rebuild a table's in-memory integer cells in the same header
/// walk that rebuilds its row directory. A wanted column holding neither
/// an integer nor NULL is a typed `PageCorrupt`.
pub fn decode_int_cells(
    bytes: &[u8],
    wanted: impl Fn(usize) -> bool,
    mut visit: impl FnMut(usize, Option<i64>),
) -> Result<(), XdmError> {
    let mut r = Reader { bytes, pos: 0 };
    r.header()?;
    let ncols = r.u16()? as usize;
    for col in 0..ncols {
        let tag = r.take(1)?[0];
        if !wanted(col) {
            skip_value(&mut r, tag)?;
            continue;
        }
        match tag {
            VTAG_NULL => visit(col, None),
            VTAG_INTEGER => visit(col, Some(r.u64()? as i64)),
            t => {
                return Err(XdmError::page_corrupt(format!(
                    "heap record: column {col} holds value tag {t}, not an integer"
                )))
            }
        }
    }
    Ok(())
}

/// Step over one value whose tag has been read, without decoding it.
fn skip_value(r: &mut Reader<'_>, tag: u8) -> Result<(), XdmError> {
    match tag {
        VTAG_NULL => {}
        VTAG_INTEGER | VTAG_DOUBLE => {
            r.take(8)?;
        }
        VTAG_VARCHAR | VTAG_DATE | VTAG_TIMESTAMP | VTAG_XML => {
            let len = r.u32()? as usize;
            r.take(len)?;
        }
        t => return Err(XdmError::page_corrupt(format!("heap record: unknown value tag {t}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let doc = xqdb_xmlparse::parse_document(r#"<a b="1">t&amp;x</a>"#).unwrap();
        let row = vec![
            SqlValue::Null,
            SqlValue::Integer(-42),
            SqlValue::Double(-0.0),
            SqlValue::Varchar("padded  ".into()),
            SqlValue::Date(xqdb_xdm::Date::parse("2006-09-12").unwrap()),
            SqlValue::Timestamp(xqdb_xdm::DateTime::parse("2006-09-12T23:59:59").unwrap()),
            SqlValue::Xml(doc.root()),
        ];
        let bytes = encode_row(7, &row);
        let (rowid, row2) = decode_row(&bytes).unwrap();
        assert_eq!(rowid, 7);
        assert_eq!(row2.len(), row.len());
        for (a, b) in row.iter().zip(&row2) {
            match (a, b) {
                (SqlValue::Xml(x), SqlValue::Xml(y)) => assert_eq!(
                    xqdb_xmlparse::serialize_node(x),
                    xqdb_xmlparse::serialize_node(y)
                ),
                (SqlValue::Double(x), SqlValue::Double(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                _ => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
        assert_eq!(decode_rowid(&bytes).unwrap(), 7);
    }

    #[test]
    fn truncation_and_garbage_are_typed() {
        let row = vec![SqlValue::Integer(1), SqlValue::Varchar("abc".into())];
        let bytes = encode_row(0, &row);
        for cut in 0..bytes.len() {
            match decode_row(&bytes[..cut]) {
                Ok(_) => panic!("decoded a truncated record at {cut}"),
                Err(e) => assert_eq!(e.code, xqdb_xdm::ErrorCode::PageCorrupt),
            }
        }
        let mut bad = bytes.clone();
        let tag_pos = RECORD_HEADER_LEN; // first value tag
        bad[tag_pos] = 200;
        assert!(decode_row(&bad).is_err());
    }

    fn all_types_row() -> Vec<SqlValue> {
        let doc = xqdb_xmlparse::parse_document(r#"<a b="1">t&amp;x</a>"#).unwrap();
        vec![
            SqlValue::Null,
            SqlValue::Integer(-42),
            SqlValue::Double(-0.0),
            SqlValue::Varchar("padded  ".into()),
            SqlValue::Date(xqdb_xdm::Date::parse("2006-09-12").unwrap()),
            SqlValue::Timestamp(xqdb_xdm::DateTime::parse("2006-09-12T23:59:59").unwrap()),
            SqlValue::Xml(doc.root()),
        ]
    }

    fn render(v: &SqlValue) -> String {
        match v {
            SqlValue::Xml(n) => xqdb_xmlparse::serialize_node(n),
            SqlValue::Double(d) => format!("double bits {:x}", d.to_bits()),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn masked_decode_materializes_exactly_the_selected_column() {
        let row = all_types_row();
        let bytes = encode_row(3, &row);
        for (i, want) in row.iter().enumerate() {
            let mask: Vec<bool> = (0..row.len()).map(|j| j == i).collect();
            let (rowid, got) = decode_row_masked(&bytes, &mask).unwrap();
            assert_eq!(rowid, 3);
            assert_eq!(got.len(), row.len());
            for (j, cell) in got.iter().enumerate() {
                if j == i {
                    let v = cell.as_ref().expect("selected column is present");
                    assert_eq!(render(v), render(want), "column {j}");
                } else {
                    assert!(cell.is_none(), "column {j} is absent, not NULL");
                }
            }
        }
        // A short mask skips the columns past its end.
        let (_, got) = decode_row_masked(&bytes, &[false, true]).unwrap();
        assert!(got[1].is_some() && got[2..].iter().all(Option::is_none));
    }

    #[test]
    fn all_true_mask_equals_full_decode() {
        let row = all_types_row();
        let bytes = encode_row(11, &row);
        let (rowid, full) = decode_row(&bytes).unwrap();
        let (rowid2, masked) = decode_row_masked(&bytes, &[true; 7]).unwrap();
        assert_eq!(rowid, rowid2);
        let masked: Vec<SqlValue> = masked.into_iter().map(Option::unwrap).collect();
        let a: Vec<String> = full.iter().map(render).collect();
        let b: Vec<String> = masked.iter().map(render).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn int_cells_read_only_the_wanted_integer_columns() {
        let row = vec![
            SqlValue::Integer(-42),
            SqlValue::Xml(xqdb_xmlparse::parse_document("<a><b/></a>").unwrap().root()),
            SqlValue::Null,
            SqlValue::Integer(7),
        ];
        let bytes = encode_row(5, &row);
        let mut seen = Vec::new();
        decode_int_cells(&bytes, |c| c != 1, |c, v| seen.push((c, v))).unwrap();
        assert_eq!(seen, vec![(0, Some(-42)), (2, None), (3, Some(7))]);
        // A wanted column that holds a document is corruption, not a cell.
        let err = decode_int_cells(&bytes, |c| c == 1, |_, _| {}).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
        for cut in RECORD_HEADER_LEN..bytes.len() {
            assert!(decode_int_cells(&bytes[..cut], |c| c != 1, |_, _| {}).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn damage_inside_a_skipped_column_is_typed() {
        let row = all_types_row();
        let bytes = encode_row(0, &row);
        // Only the leading NULL is asked for: every other column is
        // skipped, so each cut lands inside a skipped column.
        let mask = [true];
        for cut in RECORD_HEADER_LEN + 1..bytes.len() {
            match decode_row_masked(&bytes[..cut], &mask) {
                Ok(_) => panic!("decoded a record truncated at {cut}"),
                Err(e) => assert_eq!(e.code, xqdb_xdm::ErrorCode::PageCorrupt, "cut {cut}"),
            }
        }
        // An unknown tag on a skipped column.
        let mut bad = bytes.clone();
        bad[RECORD_HEADER_LEN + 1] = 200; // the Integer column's tag
        let err = decode_row_masked(&bad, &mask).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
        // A length prefix running past the record end, on the skipped XML
        // column (the last one): its 4-byte length sits right after its tag.
        let xml_text = xqdb_xmlparse::serialize_node(match &row[6] {
            SqlValue::Xml(n) => n,
            _ => unreachable!(),
        });
        let len_pos = bytes.len() - xml_text.len() - 4;
        let mut long = bytes.clone();
        long[len_pos..len_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_row_masked(&long, &mask).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
    }

    /// The same row in the legacy form: the rowid word without a form
    /// byte, then a 32-byte signature, then the current layout's rest.
    fn legacy(rowid: u64, row: &[SqlValue]) -> Vec<u8> {
        let current = encode_row(rowid, row);
        let mut out = rowid.to_le_bytes().to_vec();
        out.extend_from_slice(&[0xA5; LEGACY_SIGNATURE_LEN]);
        out.extend_from_slice(&current[8..]);
        out
    }

    #[test]
    fn legacy_headers_decode_and_stray_forms_are_typed() {
        let row = all_types_row();
        let bytes = encode_row(9, &row);
        let old = legacy(9, &row);
        assert_eq!(old.len(), bytes.len() + LEGACY_SIGNATURE_LEN);
        assert_eq!(decode_rowid(&old).unwrap(), 9);
        let (a, b) = (decode_row(&bytes).unwrap(), decode_row(&old).unwrap());
        assert_eq!(a.0, b.0);
        let render_all = |r: &[SqlValue]| r.iter().map(render).collect::<Vec<_>>();
        assert_eq!(render_all(&a.1), render_all(&b.1));
        let ints = |bytes: &[u8]| {
            let mut seen = Vec::new();
            decode_int_cells(bytes, |c| c == 1, |c, v| seen.push((c, v))).unwrap();
            seen
        };
        assert_eq!(ints(&old), ints(&bytes));
        // A form byte that is neither current nor legacy is corruption.
        let mut stray = bytes.clone();
        stray[7] = 0x40;
        let err = decode_rowid(&stray).unwrap_err();
        assert_eq!(err.code, xqdb_xdm::ErrorCode::PageCorrupt);
        assert!(decode_row(&stray).is_err());
        // A legacy header cut inside its signature is truncation.
        assert!(decode_rowid(&old[..20]).is_err());
    }
}
