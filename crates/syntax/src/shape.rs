//! Phrase shapes: a phrase with its literals taken out.
//!
//! Clients send a few parameterized phrases whose literals vary
//! (`… y <- {[P# = 3], [P# = 17]} …`). A phrase's [`Shape`] is its token
//! sequence with each int, real, string or bool literal replaced by its
//! base type, plus the literals themselves in source order. The parser
//! never looks at a literal's value, so two phrases with one shape parse
//! to one AST up to its literal nodes; and a literal's principal type is
//! its base type, so they infer to one scheme in one environment. A
//! session can therefore elaborate a shape once and run every later
//! instance by patching that instance's literals into the elaborated AST
//! ([`Shape::slots`] at fill time, [`Shape::patch`] per instance).

use crate::ast::{Expr, ExprKind, Phrase, PhraseKind};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// One literal token: its value as the AST node it parses to, and where
/// it stands in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// `ExprKind::{Int, Real, Str, Bool}`.
    pub value: ExprKind,
    pub span: Span,
}

/// A token sequence split into its static part (`key`) and its dynamic
/// part (`literals`).
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The tokens, space-separated, with each literal written as a
    /// `\u{1}`-prefixed base-type marker no other token can spell.
    pub key: String,
    /// The literals in source order.
    pub literals: Vec<Literal>,
}

impl Shape {
    /// The shape of `tokens` (as [`crate::lexer::lex`] returns them).
    pub fn of(tokens: &[Token]) -> Shape {
        let mut key = String::with_capacity(tokens.len() * 4);
        let mut literals = Vec::new();
        for t in tokens {
            let (marker, value) = match &t.kind {
                TokenKind::Int(n) => ("\u{1}int", ExprKind::Int(*n)),
                TokenKind::Real(r) => ("\u{1}real", ExprKind::Real(*r)),
                TokenKind::Str(s) => ("\u{1}string", ExprKind::Str(s.clone())),
                TokenKind::True => ("\u{1}bool", ExprKind::Bool(true)),
                TokenKind::False => ("\u{1}bool", ExprKind::Bool(false)),
                other => {
                    match other {
                        TokenKind::Ident(name) => key.push_str(name),
                        TokenKind::TyVar(name) => {
                            key.push('\'');
                            key.push_str(name);
                        }
                        TokenKind::DescVar(name) => {
                            key.push('"');
                            key.push_str(name);
                        }
                        fixed => key.push_str(fixed.fixed_text().unwrap_or_default()),
                    }
                    key.push(' ');
                    continue;
                }
            };
            key.push_str(marker);
            key.push(' ');
            literals.push(Literal {
                value,
                span: t.span,
            });
        }
        Shape { key, literals }
    }

    /// Map `phrase`'s literal nodes onto this shape's literals: entry *i*
    /// is the index of the literal that the *i*-th node (in a fixed walk
    /// order) was parsed from. `None` unless the
    /// mapping is one-to-one and every node holds its token's value — a
    /// literal token the parser consumed without making a node (the
    /// message of `raise "…"`), or a node the parser made twice, leaves
    /// the phrase with no sound way to patch it.
    pub fn slots(&self, phrase: &mut Phrase) -> Option<Vec<usize>> {
        let nodes = literal_exprs_mut(phrase);
        if nodes.len() != self.literals.len() {
            return None;
        }
        let mut taken = vec![false; self.literals.len()];
        nodes
            .iter()
            .map(|node| {
                let j = self
                    .literals
                    .binary_search_by_key(&node.span.start, |l| l.span.start)
                    .ok()?;
                let lit = &self.literals[j];
                if taken[j] || lit.span != node.span || lit.value != node.kind {
                    return None;
                }
                taken[j] = true;
                Some(j)
            })
            .collect()
    }

    /// Write this shape's literals into `phrase`, an AST of the same
    /// shape whose literal nodes `slots` maps (see [`Shape::slots`]).
    pub fn patch(&self, phrase: &mut Phrase, slots: &[usize]) {
        for (node, &j) in literal_exprs_mut(phrase).into_iter().zip(slots) {
            node.kind = self.literals[j].value.clone();
        }
    }
}

/// Every int, real, string and bool literal node of `phrase`, in a fixed
/// depth-first order (iterative: expressions can nest arbitrarily deep).
fn literal_exprs_mut(phrase: &mut Phrase) -> Vec<&mut Expr> {
    let mut out = Vec::new();
    let mut work: Vec<&mut Expr> = vec![match &mut phrase.kind {
        PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => expr,
        PhraseKind::Fun { body, .. } => body,
    }];
    while let Some(e) = work.pop() {
        use ExprKind::*;
        if matches!(e.kind, Int(_) | Real(_) | Str(_) | Bool(_)) {
            out.push(e);
            continue;
        }
        match &mut e.kind {
            Int(_) | Real(_) | Str(_) | Bool(_) | Unit | Var(_) | OpVal(_) | Raise(_) => {}
            Lambda { body, .. } => work.push(body),
            App { func, args } => {
                work.push(func);
                work.extend(args.iter_mut());
            }
            If {
                cond,
                then_branch,
                else_branch,
            } => work.extend([&mut **cond, then_branch, else_branch]),
            Record(fields) => work.extend(fields.iter_mut().map(|(_, e)| e)),
            Modify { expr, value, .. } => work.extend([&mut **expr, value]),
            Field { expr, .. }
            | Inject { expr, .. }
            | As { expr, .. }
            | Project { expr, .. }
            | Ref(expr)
            | Deref(expr)
            | Unop { expr, .. }
            | Rec { body: expr, .. }
            | MakeDynamic(expr)
            | Coerce { expr, .. } => work.push(expr),
            Case {
                expr,
                arms,
                default,
            } => {
                work.push(expr);
                work.extend(arms.iter_mut().map(|a| &mut a.body));
                if let Some(d) = default {
                    work.push(d);
                }
            }
            Set(items) => work.extend(items.iter_mut()),
            Union { left, right }
            | Unionc { left, right }
            | Con { left, right }
            | Join { left, right }
            | Binop { left, right, .. }
            | Assign {
                target: left,
                value: right,
            } => work.extend([&mut **left, right]),
            Hom { f, op, z, set } => work.extend([&mut **f, op, z, set]),
            HomStar { f, op, set } => work.extend([&mut **f, op, set]),
            Let { bound, body, .. } => work.extend([&mut **bound, body]),
            Select {
                result,
                generators,
                pred,
            } => {
                work.push(result);
                work.extend(generators.iter_mut().map(|g| &mut g.source));
                work.push(pred);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_tokens;

    fn shape(src: &str) -> Shape {
        Shape::of(&lex(src).unwrap())
    }

    #[test]
    fn literals_leave_the_key() {
        let a = shape(r#"select x where x <- r with x.K = 3 andalso x.N = "a\"b";"#);
        let b = shape(r#"select x where x <- r with x.K = 41 andalso x.N = "";"#);
        assert_eq!(a.key, b.key);
        assert_eq!(a.literals[0].value, ExprKind::Int(3));
        assert_eq!(a.literals[1].value, ExprKind::Str("a\"b".into()));
        // A literal's base type is part of the key.
        assert_ne!(shape("x + 1;").key, shape("x + 1.5;").key);
        assert_ne!(shape("f(1);").key, shape(r#"f("1");"#).key);
        assert_eq!(shape("true;").key, shape("false;").key);
        // Anything else is.
        assert_ne!(shape("x + 1;").key, shape("y + 1;").key);
        assert_ne!(shape("x + 1;").key, shape("x - 1;").key);
        assert_ne!(shape("ab;").key, shape("a b;").key);
    }

    #[test]
    fn patching_rewrites_every_literal_node() {
        let src = r#"select [A = x.A, B = "k"] where x <- {[A = 1], [A = 2]} with x.A > -1 orelse false;"#;
        let tokens = lex(src).unwrap();
        let first = Shape::of(&tokens);
        let mut phrase = parse_tokens(tokens).unwrap().remove(0);
        let slots = first.slots(&mut phrase).expect("one-to-one");
        let other =
            r#"select [A = x.A, B = "z"] where x <- {[A = 7], [A = 8]} with x.A > -9 orelse true;"#;
        let next = shape(other);
        assert_eq!(next.key, first.key);
        next.patch(&mut phrase, &slots);
        let mut reparsed = crate::parse_program(other).unwrap().remove(0);
        let patched: Vec<ExprKind> = literal_exprs_mut(&mut phrase)
            .into_iter()
            .map(|e| e.kind.clone())
            .collect();
        let expected: Vec<ExprKind> = literal_exprs_mut(&mut reparsed)
            .into_iter()
            .map(|e| e.kind.clone())
            .collect();
        assert_eq!(patched, expected);
    }

    #[test]
    fn a_literal_without_a_node_has_no_slots() {
        let tokens = lex(r#"raise "boom";"#).unwrap();
        let shape = Shape::of(&tokens);
        let mut phrase = parse_tokens(tokens).unwrap().remove(0);
        assert_eq!(shape.slots(&mut phrase), None);
    }
}
