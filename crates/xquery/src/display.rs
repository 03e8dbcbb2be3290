//! Pretty-printing of the AST back to XQuery source.
//!
//! Output is fully parenthesized (safe under reparsing, if noisier than the
//! input) and namespace-resolved names print in Clark-ish form via
//! generated prefixes where needed. The round-trip property
//! `parse(print(parse(q))) == parse(q)` is enforced by
//! `tests/display_roundtrip.rs` for the whole query corpus.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xqdb_xdm::AtomicValue;

use crate::ast::*;

/// Render a query back to parseable XQuery text.
pub fn query_to_string(q: &Query) -> String {
    let mut p = Printer::default();
    // Collect namespaces used anywhere so we can emit declarations.
    p.scan_expr(&q.body);
    let mut out = String::new();
    for (uri, prefix) in &p.prefixes {
        let _ = write!(out, "declare namespace {prefix} = \"{uri}\"; ");
    }
    p.expr(&mut out, &q.body);
    out
}

#[derive(Default)]
struct Printer {
    /// namespace uri → generated prefix.
    prefixes: BTreeMap<String, String>,
}

impl Printer {
    fn prefix_for(&mut self, uri: &str) -> String {
        if let Some(p) = self.prefixes.get(uri) {
            return p.clone();
        }
        // Well-known prefixes keep their conventional names.
        let known = match uri {
            xqdb_xdm::qname::XS_NS => Some("xs"),
            xqdb_xdm::qname::XDT_NS => Some("xdt"),
            xqdb_xdm::qname::FN_NS => Some("fn"),
            xqdb_xdm::qname::DB2_FN_NS => Some("db2-fn"),
            _ => None,
        };
        let p = match known {
            Some(k) => k.to_string(),
            None => format!("ns{}", self.prefixes.len() + 1),
        };
        self.prefixes.insert(uri.to_string(), p.clone());
        p
    }

    fn name(&mut self, out: &mut String, n: &xqdb_xdm::ExpandedName) {
        match n.ns.as_deref() {
            // fn: names print bare (they are the default function ns), but
            // only in function position — callers handle that; here emit
            // prefixed to stay safe, EXCEPT for fn which is default.
            None => out.push_str(&n.local),
            Some(uri) => {
                let p = self.prefix_for(uri);
                let _ = write!(out, "{p}:{}", n.local);
            }
        }
    }

    fn name_test(&mut self, out: &mut String, t: &NameTest) {
        match (&t.ns, &t.local) {
            (NsTest::Any, LocalTest::Any) => out.push('*'),
            (NsTest::Any, LocalTest::Name(n)) => {
                let _ = write!(out, "*:{n}");
            }
            (NsTest::NoNamespace, LocalTest::Any) => out.push('*'), // lossy-safe: see scan
            (NsTest::NoNamespace, LocalTest::Name(n)) => out.push_str(n),
            (NsTest::Uri(u), LocalTest::Any) => {
                let p = self.prefix_for(u);
                let _ = write!(out, "{p}:*");
            }
            (NsTest::Uri(u), LocalTest::Name(n)) => {
                let p = self.prefix_for(u);
                let _ = write!(out, "{p}:{n}");
            }
        }
    }

    fn kind_test(&mut self, out: &mut String, k: &KindTest) {
        match k {
            KindTest::AnyKind => out.push_str("node()"),
            KindTest::Text => out.push_str("text()"),
            KindTest::Comment => out.push_str("comment()"),
            KindTest::Document => out.push_str("document-node()"),
            KindTest::Pi(None) => out.push_str("processing-instruction()"),
            KindTest::Pi(Some(t)) => {
                let _ = write!(out, "processing-instruction('{t}')");
            }
            KindTest::Element(None) => out.push_str("element()"),
            KindTest::Element(Some(n)) => {
                out.push_str("element(");
                self.name_test(out, n);
                out.push(')');
            }
            KindTest::Attribute(None) => out.push_str("attribute()"),
            KindTest::Attribute(Some(n)) => {
                out.push_str("attribute(");
                self.name_test(out, n);
                out.push(')');
            }
        }
    }

    fn node_test(&mut self, out: &mut String, t: &NodeTest) {
        match t {
            NodeTest::Name(n) => self.name_test(out, n),
            NodeTest::Kind(k) => self.kind_test(out, k),
        }
    }

    fn literal(&mut self, out: &mut String, v: &AtomicValue) {
        match v {
            AtomicValue::String(s) => {
                let _ = write!(out, "\"{}\"", s.replace('"', "\"\""));
            }
            AtomicValue::Integer(i) => {
                if *i < 0 {
                    let _ = write!(out, "({i})");
                } else {
                    let _ = write!(out, "{i}");
                }
            }
            AtomicValue::Double(d) => {
                if d.is_finite() {
                    let _ = write!(out, "{d:e}");
                } else {
                    // INF/NaN have no literal form; use constructor calls.
                    let _ = write!(out, "xs:double(\"{}\")", v.lexical());
                }
            }
            AtomicValue::Decimal(_) => {
                let lex = v.lexical();
                if lex.contains('.') {
                    out.push_str(&lex);
                } else {
                    let _ = write!(out, "{lex}.0");
                }
            }
            other => {
                // Booleans, dates etc. never appear as parsed literals, but
                // print defensively as constructor calls.
                let _ = write!(out, "xs:{}(\"{}\")", type_local(other), other.lexical());
            }
        }
    }

    fn expr(&mut self, out: &mut String, e: &Expr) {
        match e {
            Expr::Literal(v) => self.literal(out, v),
            Expr::VarRef(n) => {
                out.push('$');
                self.name(out, n);
            }
            Expr::ContextItem => out.push('.'),
            Expr::Root => out.push('/'),
            Expr::Paren(inner) => {
                out.push('(');
                self.expr(out, inner);
                out.push(')');
            }
            Expr::Sequence(items) => {
                out.push('(');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.expr(out, item);
                }
                out.push(')');
            }
            Expr::Range(a, b) => self.binary(out, a, " to ", b),
            Expr::Or(a, b) => self.binary(out, a, " or ", b),
            Expr::And(a, b) => self.binary(out, a, " and ", b),
            Expr::GeneralCmp(op, a, b) => {
                self.binary(out, a, &format!(" {} ", op.general_symbol()), b)
            }
            Expr::ValueCmp(op, a, b) => {
                self.binary(out, a, &format!(" {} ", op.value_keyword()), b)
            }
            Expr::NodeCmp(op, a, b) => {
                let sym = match op {
                    NodeCmpOp::Is => " is ",
                    NodeCmpOp::Precedes => " << ",
                    NodeCmpOp::Follows => " >> ",
                };
                self.binary(out, a, sym, b)
            }
            Expr::Arith(op, a, b) => {
                let sym = match op {
                    ArithOp::Add => " + ",
                    ArithOp::Sub => " - ",
                    ArithOp::Mul => " * ",
                    ArithOp::Div => " div ",
                    ArithOp::IDiv => " idiv ",
                    ArithOp::Mod => " mod ",
                };
                self.binary(out, a, sym, b)
            }
            Expr::UnaryMinus(a) => {
                out.push_str("(-");
                self.expr(out, a);
                out.push(')');
            }
            Expr::Union(a, b) => self.binary(out, a, " union ", b),
            Expr::Intersect(a, b) => self.binary(out, a, " intersect ", b),
            Expr::Except(a, b) => self.binary(out, a, " except ", b),
            Expr::InstanceOf(a, st) => {
                out.push('(');
                self.expr(out, a);
                out.push_str(" instance of ");
                self.seq_type(out, st);
                out.push(')');
            }
            Expr::TreatAs(a, st) => {
                out.push('(');
                self.expr(out, a);
                out.push_str(" treat as ");
                self.seq_type(out, st);
                out.push(')');
            }
            Expr::CastAs { expr, target, optional } => {
                out.push('(');
                self.expr(out, expr);
                let _ = write!(out, " cast as xs:{}", atomic_local(*target));
                if *optional {
                    out.push('?');
                }
                out.push(')');
            }
            Expr::CastableAs { expr, target, optional } => {
                out.push('(');
                self.expr(out, expr);
                let _ = write!(out, " castable as xs:{}", atomic_local(*target));
                if *optional {
                    out.push('?');
                }
                out.push(')');
            }
            Expr::Filter { expr, predicates } => {
                out.push('(');
                self.expr(out, expr);
                out.push(')');
                for p in predicates {
                    out.push('[');
                    self.expr(out, p);
                    out.push(']');
                }
            }
            Expr::Path { init, steps } => {
                match init.as_ref() {
                    Expr::Root => out.push_str("(/)"),
                    Expr::ContextItem => out.push('.'),
                    other => {
                        out.push('(');
                        self.expr(out, other);
                        out.push(')');
                    }
                }
                for step in steps {
                    out.push('/');
                    self.step(out, step);
                }
            }
            Expr::Flwor(f) => {
                out.push('(');
                for clause in &f.clauses {
                    match clause {
                        FlworClause::For { var, position, expr } => {
                            out.push_str("for $");
                            self.name(out, var);
                            if let Some(p) = position {
                                out.push_str(" at $");
                                self.name(out, p);
                            }
                            out.push_str(" in ");
                            self.expr(out, expr);
                            out.push(' ');
                        }
                        FlworClause::Let { var, expr } => {
                            out.push_str("let $");
                            self.name(out, var);
                            out.push_str(" := ");
                            self.expr(out, expr);
                            out.push(' ');
                        }
                        FlworClause::Where(c) => {
                            out.push_str("where ");
                            self.expr(out, c);
                            out.push(' ');
                        }
                        FlworClause::OrderBy(specs) => {
                            out.push_str("order by ");
                            for (i, s) in specs.iter().enumerate() {
                                if i > 0 {
                                    out.push_str(", ");
                                }
                                self.expr(out, &s.expr);
                                if s.descending {
                                    out.push_str(" descending");
                                }
                                if !s.empty_least {
                                    out.push_str(" empty greatest");
                                }
                            }
                            out.push(' ');
                        }
                    }
                }
                out.push_str("return ");
                self.expr(out, &f.ret);
                out.push(')');
            }
            Expr::Quantified { kind, bindings, satisfies } => {
                out.push('(');
                out.push_str(match kind {
                    QuantKind::Some => "some ",
                    QuantKind::Every => "every ",
                });
                for (i, (var, expr)) in bindings.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('$');
                    self.name(out, var);
                    out.push_str(" in ");
                    self.expr(out, expr);
                }
                out.push_str(" satisfies ");
                self.expr(out, satisfies);
                out.push(')');
            }
            Expr::If { cond, then, els } => {
                out.push_str("(if (");
                self.expr(out, cond);
                out.push_str(") then ");
                self.expr(out, then);
                out.push_str(" else ");
                self.expr(out, els);
                out.push(')');
            }
            Expr::FunctionCall { name, args } => {
                // Unprefixed = fn namespace (the default function ns).
                if name.ns.as_deref() == Some(xqdb_xdm::qname::FN_NS) {
                    out.push_str(&name.local);
                } else {
                    self.name(out, name);
                }
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.expr(out, a);
                }
                out.push(')');
            }
            Expr::DirectElement(d) => self.direct(out, d),
            Expr::ComputedElement { name, content } => {
                out.push_str("element ");
                self.name(out, name);
                self.braced(out, content.as_deref());
            }
            Expr::ComputedAttribute { name, content } => {
                out.push_str("attribute ");
                self.name(out, name);
                self.braced(out, content.as_deref());
            }
            Expr::ComputedText(content) => {
                out.push_str("text ");
                self.braced(out, content.as_deref());
            }
            Expr::ComputedDocument(content) => {
                out.push_str("document ");
                self.braced(out, content.as_deref());
            }
        }
    }

    fn braced(&mut self, out: &mut String, content: Option<&Expr>) {
        out.push('{');
        if let Some(c) = content {
            self.expr(out, c);
        }
        out.push('}');
    }

    fn binary(&mut self, out: &mut String, a: &Expr, sym: &str, b: &Expr) {
        out.push('(');
        self.expr(out, a);
        out.push_str(sym);
        self.expr(out, b);
        out.push(')');
    }

    fn step(&mut self, out: &mut String, s: &Step) {
        match s {
            Step::Axis { axis, test, predicates } => {
                let _ = write!(out, "{}::", axis.keyword());
                self.node_test(out, test);
                for p in predicates {
                    out.push('[');
                    self.expr(out, p);
                    out.push(']');
                }
            }
            Step::Filter { expr, predicates } => {
                out.push('(');
                self.expr(out, expr);
                out.push(')');
                for p in predicates {
                    out.push('[');
                    self.expr(out, p);
                    out.push(']');
                }
            }
        }
    }

    fn seq_type(&mut self, out: &mut String, st: &SequenceType) {
        match &st.item {
            None => out.push_str("empty-sequence()"),
            Some(SeqTypeItem::AnyItem) => out.push_str("item()"),
            Some(SeqTypeItem::Atomic(t)) => {
                let _ = write!(out, "xs:{}", atomic_local(*t));
            }
            Some(SeqTypeItem::Kind(k)) => self.kind_test(out, k),
        }
        match st.occurrence {
            Occurrence::One => {}
            Occurrence::Optional => out.push('?'),
            Occurrence::ZeroOrMore => out.push('*'),
            Occurrence::OneOrMore => out.push('+'),
        }
    }

    fn direct(&mut self, out: &mut String, d: &DirectElement) {
        // Direct constructors need lexical names; generate prefixes for
        // namespaced ones and declare them inline.
        let mut decls: Vec<(String, String)> = Vec::new();
        out.push('<');
        let tag = self.lexical_tag(&d.name, &mut decls);
        out.push_str(&tag);
        for (prefix, uri) in &decls {
            if prefix.is_empty() {
                let _ = write!(out, " xmlns=\"{uri}\"");
            } else {
                let _ = write!(out, " xmlns:{prefix}=\"{uri}\"");
            }
        }
        for (aname, parts) in &d.attributes {
            out.push(' ');
            let mut adecls = Vec::new();
            let atag = self.lexical_tag(aname, &mut adecls);
            // Attribute-namespace declarations were consumed at parse time;
            // regenerate them on the element.
            for (prefix, uri) in adecls {
                if !prefix.is_empty() {
                    let _ = write!(out, "xmlns:{prefix}=\"{uri}\" ");
                }
            }
            out.push_str(&atag);
            out.push_str("=\"");
            for part in parts {
                match part {
                    ConstructorContent::Text(t) => {
                        out.push_str(&t.replace('"', "\"\"").replace('{', "{{").replace('}', "}}"))
                    }
                    ConstructorContent::Expr(e) => {
                        out.push('{');
                        self.expr(out, e);
                        out.push('}');
                    }
                    // Attribute values hold text and exprs only; anything
                    // else would be a parser bug — render nothing rather
                    // than abort.
                    _ => {}
                }
            }
            out.push('"');
        }
        if d.content.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for part in &d.content {
            match part {
                ConstructorContent::Text(t) => {
                    out.push_str(&t.replace('{', "{{").replace('}', "}}").replace('<', "&lt;").replace('&', "&amp;"))
                }
                ConstructorContent::Expr(e) => {
                    out.push('{');
                    self.expr(out, e);
                    out.push('}');
                }
                ConstructorContent::Element(inner) => self.direct(out, inner),
                ConstructorContent::Comment(c) => {
                    let _ = write!(out, "<!--{c}-->");
                }
            }
        }
        out.push_str("</");
        out.push_str(&tag);
        out.push('>');
    }

    /// Lexical tag for a resolved constructor name, recording any namespace
    /// declaration needed.
    fn lexical_tag(
        &mut self,
        name: &xqdb_xdm::ExpandedName,
        decls: &mut Vec<(String, String)>,
    ) -> String {
        match name.ns.as_deref() {
            None => name.local.to_string(),
            Some(uri) => {
                let p = self.prefix_for(uri);
                decls.push((p.clone(), uri.to_string()));
                format!("{p}:{}", name.local)
            }
        }
    }

    /// Pre-scan to assign prefixes deterministically (so the prolog can be
    /// emitted before the body).
    fn scan_expr(&mut self, e: &Expr) {
        let mut buf = String::new();
        self.expr(&mut buf, e); // populates prefixes as a side effect
    }
}

fn atomic_local(t: xqdb_xdm::AtomicType) -> &'static str {
    use xqdb_xdm::AtomicType::*;
    match t {
        String => "string",
        UntypedAtomic => "untypedAtomic",
        Double => "double",
        Integer => "integer",
        Decimal => "decimal",
        Boolean => "boolean",
        Date => "date",
        DateTime => "dateTime",
        AnyUri => "anyURI",
    }
}

fn type_local(v: &AtomicValue) -> &'static str {
    atomic_local(v.atomic_type())
}
