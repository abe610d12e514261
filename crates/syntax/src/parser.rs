//! Recursive-descent parser for Machiavelli.
//!
//! Operator precedence, loosest to tightest (following SML conventions):
//!
//! 1. `:=` (right-associative)
//! 2. `orelse` (left)
//! 3. `andalso` (left)
//! 4. comparisons `= <> < > <= >=` (non-associative)
//! 5. `+ - ^` (left)
//! 6. `* / div mod` (left)
//! 7. prefix `not`, unary `-`, `!`
//! 8. postfix `.l`, `as l`, application `(…)`
//!
//! `if`, `fn`, `case`, `select`, `let` and variant injection `l of e`
//! extend as far right as possible and may appear anywhere an expression
//! is expected.

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::lex;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::token::{Token, TokenKind};

/// Parsed row variable + fields of a record/variant type.
type TypeFields = (Option<RowVar>, Vec<(Label, TypeExpr)>);

/// Parse a full program (a sequence of `;`-terminated phrases).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_tokens(lex(src)?)
}

/// Parse a full program from the tokens [`lex`] produced for it (ending
/// with [`TokenKind::Eof`]), so a caller that needs the tokens too lexes
/// once.
pub fn parse_tokens(mut tokens: Vec<Token>) -> Result<Program, ParseError> {
    if tokens.last().map(|t| &t.kind) != Some(&TokenKind::Eof) {
        let end = tokens.last().map_or(0, |t| t.span.end);
        tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::point(end),
        });
    }
    Parser::new(tokens).program()
}

/// Parse a single expression (the entire input must be one expression).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a type expression (the entire input must be one type).
///
/// Uses the type-mode lexer so description variables (`"a`) never
/// collide with string-literal lexing.
pub fn parse_type(src: &str) -> Result<TypeExpr, ParseError> {
    let tokens = crate::lexer::lex_type(src)?;
    let mut p = Parser::new(tokens);
    let t = p.type_expr()?;
    p.expect_eof()?;
    Ok(t)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// True while parsing a `case` scrutinee at the current nesting level:
    /// suppresses the `ident of e` injection production so that
    /// `case v of …` is not misread as the injection `v of …`. Cleared on
    /// entry to any bracketed sub-expression.
    suppress_inject: bool,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            suppress_inject: false,
        }
    }

    /// Run `f` with injection suppression cleared (inside brackets the
    /// `ident of e` production is unambiguous again).
    fn in_brackets<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let saved = std::mem::replace(&mut self.suppress_inject, false);
        let r = f(self);
        self.suppress_inject = saved;
        r
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Advance past the current token (never past the trailing `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{kind}`")))
        }
    }

    fn expected(&self, what: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::Expected {
                expected: what.to_string(),
                got: self.peek().describe(),
            },
            self.span(),
        )
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.expected("end of input"))
        }
    }

    fn ident(&mut self) -> Result<Ident, ParseError> {
        let TokenKind::Ident(name) = self.peek() else {
            return Err(self.expected("an identifier"));
        };
        let name = Symbol::intern(name);
        self.bump();
        Ok(name)
    }

    /// An identifier kept as raw text (type-variable and `rec` binder
    /// names, which are not interned).
    fn ident_str(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.bump();
                Ok(name)
            }
            _ => Err(self.expected("an identifier")),
        }
    }

    /// A record/variant label: an identifier, or a keyword usable as a
    /// label (none currently), or a tuple label `#k`.
    fn label(&mut self) -> Result<Label, ParseError> {
        self.ident()
    }

    // ----- programs -------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut phrases = Vec::new();
        while !self.at(&TokenKind::Eof) {
            phrases.push(self.phrase()?);
        }
        Ok(phrases)
    }

    fn phrase(&mut self) -> Result<Phrase, ParseError> {
        let start = self.span();
        let kind = match self.peek() {
            TokenKind::Val => {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::Eq)?;
                let expr = self.expr()?;
                PhraseKind::Val { name, expr }
            }
            TokenKind::Fun => {
                self.bump();
                // `fun f(x, …) = e` — possibly `val fun` typo-tolerance is
                // not attempted; the paper's `val fun Join3` is treated as
                // a misprint.
                let name = self.ident()?;
                let params = if self.eat(&TokenKind::LParen) {
                    let mut ps = vec![self.ident()?];
                    while self.eat(&TokenKind::Comma) {
                        ps.push(self.ident()?);
                    }
                    self.expect(&TokenKind::RParen)?;
                    ps
                } else {
                    // `fun Closure R = …` style: a single curried-looking
                    // parameter.
                    vec![self.ident()?]
                };
                self.expect(&TokenKind::Eq)?;
                let body = self.expr()?;
                PhraseKind::Fun { name, params, body }
            }
            _ => PhraseKind::Expr(self.expr()?),
        };
        // Phrases are `;`-terminated; the final `;` may be omitted at EOF.
        if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::Eof) {
            return Err(self.expected("`;`"));
        }
        let span = start.merge(self.prev_span());
        Ok(Phrase { kind, span })
    }

    // ----- expressions ----------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.orelse_expr()?;
        if self.eat(&TokenKind::Assign) {
            let rhs = self.assign_expr()?;
            let span = lhs.span.merge(rhs.span);
            return Ok(Expr::new(
                ExprKind::Assign {
                    target: Box::new(lhs),
                    value: Box::new(rhs),
                },
                span,
            ));
        }
        Ok(lhs)
    }

    fn orelse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.andalso_expr()?;
        while self.eat(&TokenKind::Orelse) {
            let rhs = self.andalso_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binop {
                    op: BinOp::Orelse,
                    left: Box::new(lhs),
                    right: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn andalso_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::Andalso) {
            let rhs = self.cmp_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binop {
                    op: BinOp::Andalso,
                    left: Box::new(lhs),
                    right: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span.merge(rhs.span);
        Ok(Expr::new(
            ExprKind::Binop {
                op,
                left: Box::new(lhs),
                right: Box::new(rhs),
            },
            span,
        ))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Caret => BinOp::Concat,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binop {
                    op,
                    left: Box::new(lhs),
                    right: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::RealDiv,
                TokenKind::Div => BinOp::Div,
                TokenKind::Mod => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binop {
                    op,
                    left: Box::new(lhs),
                    right: Box::new(rhs),
                },
                span,
            );
        }
    }

    /// True when the current token can begin an expression operand —
    /// used to disambiguate `-` as negation from `-` as an operator value.
    fn starts_operand(&self) -> bool {
        use TokenKind::*;
        matches!(
            self.peek(),
            Int(_)
                | Real(_)
                | Str(_)
                | Ident(_)
                | True
                | False
                | LParen
                | LBracket
                | LBrace
                | Fn
                | If
                | Case
                | Select
                | Let
                | Modify
                | Join
                | Con
                | Project
                | Union
                | Unionc
                | Hom
                | HomStar
                | Ref
                | Rec
                | Raise
                | Dynamic
                | Not
                | Bang
                | Minus
        )
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek() {
            TokenKind::Not => {
                self.bump();
                // `not` is also usable as a plain function: `not(e)`.
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Unop {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::Minus => {
                self.bump();
                if !self.starts_operand() {
                    // `-` used as a first-class operator value.
                    return Ok(Expr::new(ExprKind::OpVal(BinOp::Sub), start));
                }
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Unop {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Deref(Box::new(e)), span))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let label = self.label()?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(
                        ExprKind::Field {
                            expr: Box::new(e),
                            label,
                        },
                        span,
                    );
                }
                TokenKind::As => {
                    self.bump();
                    let label = self.label()?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(
                        ExprKind::As {
                            expr: Box::new(e),
                            label,
                        },
                        span,
                    );
                }
                TokenKind::LParen => {
                    // Application: `f(e, …)`.
                    self.bump();
                    let args = self.in_brackets(|p| {
                        let mut args = Vec::new();
                        if !p.at(&TokenKind::RParen) {
                            args.push(p.arg_expr()?);
                            while p.eat(&TokenKind::Comma) {
                                args.push(p.arg_expr()?);
                            }
                        }
                        Ok(args)
                    })?;
                    self.expect(&TokenKind::RParen)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(
                        ExprKind::App {
                            func: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
                _ => return Ok(e),
            }
        }
    }

    /// An argument expression: an ordinary expression, or a bare operator
    /// used as a value (`hom(f, +, 0, S)`).
    fn arg_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::RealDiv),
            TokenKind::Caret => Some(BinOp::Concat),
            TokenKind::Div => Some(BinOp::Div),
            TokenKind::Mod => Some(BinOp::Mod),
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Andalso => Some(BinOp::Andalso),
            TokenKind::Orelse => Some(BinOp::Orelse),
            _ => None,
        };
        if let Some(op) = op {
            // Only when the operator is immediately followed by `,` or `)`
            // is it a first-class value; otherwise fall through to a normal
            // parse (which will fail with a sensible message).
            if matches!(self.peek2(), TokenKind::Comma | TokenKind::RParen) {
                self.bump();
                return Ok(Expr::new(ExprKind::OpVal(op), span));
            }
        }
        // `union` / `join` / `con` / `unionc` as first-class values, as in
        // the paper's `hom((fn(x) => {f(x)}), union, {}, S)`.
        let named = match self.peek() {
            TokenKind::Union => Some("union"),
            TokenKind::Unionc => Some("unionc"),
            TokenKind::Join => Some("join"),
            TokenKind::Con => Some("con"),
            _ => None,
        };
        if let Some(name) = named {
            if matches!(self.peek2(), TokenKind::Comma | TokenKind::RParen) {
                self.bump();
                return Ok(Expr::new(ExprKind::Var(Symbol::intern(name)), span));
            }
        }
        self.expr()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(n), start))
            }
            TokenKind::Real(r) => {
                self.bump();
                Ok(Expr::new(ExprKind::Real(r), start))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(s), start))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), start))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), start))
            }
            TokenKind::Ident(name) => {
                self.bump();
                let name = Symbol::intern(&name);
                if self.at(&TokenKind::Of) && !self.suppress_inject {
                    // Variant injection `l of e`.
                    self.bump();
                    let e = self.expr()?;
                    let span = start.merge(e.span);
                    return Ok(Expr::new(
                        ExprKind::Inject {
                            label: name,
                            expr: Box::new(e),
                        },
                        span,
                    ));
                }
                Ok(Expr::new(ExprKind::Var(name), start))
            }
            TokenKind::LParen => self.paren_expr(),
            TokenKind::LBracket => self.record_expr(),
            TokenKind::LBrace => self.set_expr(),
            TokenKind::Fn => self.lambda_expr(),
            TokenKind::If => self.if_expr(),
            TokenKind::Case => self.case_expr(),
            TokenKind::Select => self.select_expr(),
            TokenKind::Let => self.let_expr(),
            TokenKind::Modify => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::Comma)?;
                let label = self.label()?;
                self.expect(&TokenKind::Comma)?;
                let value = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(
                    ExprKind::Modify {
                        expr: Box::new(e),
                        label,
                        value: Box::new(value),
                    },
                    span,
                ))
            }
            TokenKind::Join => {
                let (l, r, span) = self.binary_form(start)?;
                Ok(Expr::new(
                    ExprKind::Join {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    span,
                ))
            }
            TokenKind::Con => {
                let (l, r, span) = self.binary_form(start)?;
                Ok(Expr::new(
                    ExprKind::Con {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    span,
                ))
            }
            TokenKind::Union => {
                let (l, r, span) = self.binary_form(start)?;
                Ok(Expr::new(
                    ExprKind::Union {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    span,
                ))
            }
            TokenKind::Unionc => {
                let (l, r, span) = self.binary_form(start)?;
                Ok(Expr::new(
                    ExprKind::Unionc {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    span,
                ))
            }
            TokenKind::Project => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::Comma)?;
                let ty = self.type_expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(
                    ExprKind::Project {
                        expr: Box::new(e),
                        ty,
                    },
                    span,
                ))
            }
            TokenKind::Hom => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let f = self.arg_expr()?;
                self.expect(&TokenKind::Comma)?;
                let op = self.arg_expr()?;
                self.expect(&TokenKind::Comma)?;
                let z = self.arg_expr()?;
                self.expect(&TokenKind::Comma)?;
                let set = self.arg_expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(
                    ExprKind::Hom {
                        f: Box::new(f),
                        op: Box::new(op),
                        z: Box::new(z),
                        set: Box::new(set),
                    },
                    span,
                ))
            }
            TokenKind::HomStar => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let f = self.arg_expr()?;
                self.expect(&TokenKind::Comma)?;
                let op = self.arg_expr()?;
                self.expect(&TokenKind::Comma)?;
                let set = self.arg_expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(
                    ExprKind::HomStar {
                        f: Box::new(f),
                        op: Box::new(op),
                        set: Box::new(set),
                    },
                    span,
                ))
            }
            TokenKind::Ref => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(ExprKind::Ref(Box::new(e)), span))
            }
            TokenKind::Rec => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let name = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let body = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(
                    ExprKind::Rec {
                        name,
                        body: Box::new(body),
                    },
                    span,
                ))
            }
            TokenKind::Dynamic => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                // `dynamic(e)` packages; `dynamic(e, δ)` coerces back.
                if self.eat(&TokenKind::Comma) {
                    let ty = self.type_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let span = start.merge(self.prev_span());
                    return Ok(Expr::new(
                        ExprKind::Coerce {
                            expr: Box::new(e),
                            ty,
                        },
                        span,
                    ));
                }
                self.expect(&TokenKind::RParen)?;
                let span = start.merge(self.prev_span());
                Ok(Expr::new(ExprKind::MakeDynamic(Box::new(e)), span))
            }
            TokenKind::Raise => {
                self.bump();
                let msg = match self.peek().clone() {
                    TokenKind::Str(s) => {
                        self.bump();
                        s
                    }
                    TokenKind::Ident(name) => {
                        self.bump();
                        name
                    }
                    _ => return Err(self.expected("an error name or message")),
                };
                let span = start.merge(self.prev_span());
                Ok(Expr::new(ExprKind::Raise(msg), span))
            }
            _ => Err(self.expected("an expression")),
        }
    }

    /// Shared shape for `join(e,e)` / `con(e,e)` / `union(e,e)` /
    /// `unionc(e,e)`.
    fn binary_form(&mut self, start: Span) -> Result<(Expr, Expr, Span), ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let (l, r) = self.in_brackets(|p| {
            let l = p.expr()?;
            p.expect(&TokenKind::Comma)?;
            let r = p.expr()?;
            Ok((l, r))
        })?;
        self.expect(&TokenKind::RParen)?;
        Ok((l, r, start.merge(self.prev_span())))
    }

    fn paren_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::LParen)?;
        self.in_brackets(|p| p.paren_expr_body(start))
    }

    fn paren_expr_body(&mut self, start: Span) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::RParen) {
            return Ok(Expr::new(ExprKind::Unit, start.merge(self.prev_span())));
        }
        let first = self.expr()?;
        if self.eat(&TokenKind::Comma) {
            // Tuple: desugars to a record with labels #1, #2, ….
            let mut items = vec![first];
            loop {
                items.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            let span = start.merge(self.prev_span());
            let fields = items
                .into_iter()
                .enumerate()
                .map(|(i, e)| (crate::symbol::tuple_label(i + 1), e))
                .collect();
            return Ok(Expr::new(ExprKind::Record(fields), span));
        }
        self.expect(&TokenKind::RParen)?;
        Ok(first)
    }

    fn record_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::LBracket)?;
        self.in_brackets(|p| p.record_expr_body(start))
    }

    fn record_expr_body(&mut self, start: Span) -> Result<Expr, ParseError> {
        let mut fields: Vec<(Label, Expr)> = Vec::new();
        if !self.at(&TokenKind::RBracket) {
            loop {
                // The paper occasionally parenthesizes a field binding, as in
                // `[Name=…, (Salary=… as Value), Id=x]`; tolerate that.
                let parenthesized = self.eat(&TokenKind::LParen);
                let label_span = self.span();
                let label = self.label()?;
                self.expect(&TokenKind::Eq)?;
                let value = self.expr()?;
                if parenthesized {
                    self.expect(&TokenKind::RParen)?;
                }
                if fields.iter().any(|(l, _)| *l == label) {
                    return Err(ParseError::new(
                        ParseErrorKind::DuplicateLabel(label),
                        label_span,
                    ));
                }
                fields.push((label, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBracket)?;
        let span = start.merge(self.prev_span());
        Ok(Expr::new(ExprKind::Record(fields), span))
    }

    fn set_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::LBrace)?;
        self.in_brackets(|p| p.set_expr_body(start))
    }

    fn set_expr_body(&mut self, start: Span) -> Result<Expr, ParseError> {
        let mut items = Vec::new();
        if !self.at(&TokenKind::RBrace) {
            loop {
                items.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        let span = start.merge(self.prev_span());
        Ok(Expr::new(ExprKind::Set(items), span))
    }

    fn lambda_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::Fn)?;
        let params = if self.eat(&TokenKind::LParen) {
            let mut ps = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                ps.push(self.ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            ps
        } else {
            vec![self.ident()?]
        };
        self.expect(&TokenKind::DArrow)?;
        let body = self.expr()?;
        let span = start.merge(body.span);
        Ok(Expr::new(
            ExprKind::Lambda {
                params,
                body: Box::new(body),
            },
            span,
        ))
    }

    fn if_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::If)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::Then)?;
        let then_branch = self.expr()?;
        self.expect(&TokenKind::Else)?;
        let else_branch = self.expr()?;
        let span = start.merge(else_branch.span);
        Ok(Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then_branch: Box::new(then_branch),
                else_branch: Box::new(else_branch),
            },
            span,
        ))
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::Case)?;
        let saved = std::mem::replace(&mut self.suppress_inject, true);
        let scrutinee = self.expr()?;
        self.suppress_inject = saved;
        self.expect(&TokenKind::Of)?;
        let mut arms = Vec::new();
        let mut default = None;
        loop {
            if self.at(&TokenKind::Other) {
                self.bump();
                self.expect(&TokenKind::DArrow)?;
                let body = self.expr()?;
                default = Some(Box::new(body));
                // `other` must be last.
                if self.eat(&TokenKind::Comma) {
                    return Err(ParseError::new(ParseErrorKind::MisplacedOther, self.span()));
                }
                break;
            }
            let label = self.label()?;
            self.expect(&TokenKind::Of)?;
            // The binder may be `_` (an ordinary identifier here).
            let var = self.ident()?;
            self.expect(&TokenKind::DArrow)?;
            let body = self.expr()?;
            arms.push(CaseArm { label, var, body });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if arms.is_empty() && default.is_none() {
            return Err(ParseError::new(ParseErrorKind::EmptyCase, start));
        }
        let span = start.merge(self.prev_span());
        Ok(Expr::new(
            ExprKind::Case {
                expr: Box::new(scrutinee),
                arms,
                default,
            },
            span,
        ))
    }

    fn select_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::Select)?;
        let result = self.expr()?;
        self.expect(&TokenKind::Where)?;
        let mut generators = Vec::new();
        loop {
            let var = self.ident()?;
            self.expect(&TokenKind::LArrow)?;
            let source = self.expr()?;
            generators.push(Generator { var, source });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if generators.is_empty() {
            return Err(ParseError::new(ParseErrorKind::EmptySelect, start));
        }
        self.expect(&TokenKind::With)?;
        let pred = self.expr()?;
        let span = start.merge(pred.span);
        Ok(Expr::new(
            ExprKind::Select {
                result: Box::new(result),
                generators,
                pred: Box::new(pred),
            },
            span,
        ))
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        self.expect(&TokenKind::Let)?;
        // Both `let x = e in e` and `let val x = e in e end` are accepted.
        self.eat(&TokenKind::Val);
        let name = self.ident()?;
        self.expect(&TokenKind::Eq)?;
        let bound = self.expr()?;
        self.expect(&TokenKind::In)?;
        let body = self.expr()?;
        // Optional `end`.
        self.eat(&TokenKind::End);
        let span = start.merge(self.prev_span());
        Ok(Expr::new(
            ExprKind::Let {
                name,
                bound: Box::new(bound),
                body: Box::new(body),
            },
            span,
        ))
    }

    // ----- types ----------------------------------------------------------

    pub(crate) fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let lhs = self.type_prod()?;
        if self.eat(&TokenKind::Arrow) {
            let rhs = self.type_expr()?;
            let span = lhs.span.merge(rhs.span);
            return Ok(TypeExpr {
                kind: TypeExprKind::Arrow(Box::new(lhs), Box::new(rhs)),
                span,
            });
        }
        Ok(lhs)
    }

    fn type_prod(&mut self) -> Result<TypeExpr, ParseError> {
        let first = self.type_atom()?;
        if !self.at(&TokenKind::Star) {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&TokenKind::Star) {
            items.push(self.type_atom()?);
        }
        let span = items[0].span.merge(items[items.len() - 1].span);
        let fields = items
            .into_iter()
            .enumerate()
            .map(|(i, t)| (crate::symbol::tuple_label(i + 1), t))
            .collect();
        Ok(TypeExpr {
            kind: TypeExprKind::Record { row: None, fields },
            span,
        })
    }

    fn type_atom(&mut self) -> Result<TypeExpr, ParseError> {
        let start = self.span();
        let kind = match self.peek().clone() {
            TokenKind::TyUnit => {
                self.bump();
                TypeExprKind::Unit
            }
            TokenKind::TyInt => {
                self.bump();
                TypeExprKind::Int
            }
            TokenKind::TyBool => {
                self.bump();
                TypeExprKind::Bool
            }
            TokenKind::TyString => {
                self.bump();
                TypeExprKind::String_
            }
            TokenKind::TyReal => {
                self.bump();
                TypeExprKind::Real
            }
            TokenKind::Dynamic => {
                self.bump();
                TypeExprKind::Dynamic
            }
            TokenKind::TyVar(v) => {
                self.bump();
                TypeExprKind::Var(v)
            }
            TokenKind::DescVar(v) => {
                self.bump();
                TypeExprKind::DescVar(v)
            }
            TokenKind::Ref => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let inner = self.type_expr()?;
                self.expect(&TokenKind::RParen)?;
                TypeExprKind::Ref(Box::new(inner))
            }
            TokenKind::Rec => {
                self.bump();
                let var = self.ident_str()?;
                self.expect(&TokenKind::Dot)?;
                let body = self.type_expr()?;
                TypeExprKind::Rec {
                    var,
                    body: Box::new(body),
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                TypeExprKind::Named(name)
            }
            TokenKind::LBrace => {
                self.bump();
                let inner = self.type_expr()?;
                self.expect(&TokenKind::RBrace)?;
                TypeExprKind::Set(Box::new(inner))
            }
            TokenKind::LBracket => {
                self.bump();
                let (row, fields) = self.type_fields(&TokenKind::RBracket)?;
                TypeExprKind::Record { row, fields }
            }
            TokenKind::Lt => {
                self.bump();
                let (row, fields) = self.type_fields(&TokenKind::Gt)?;
                TypeExprKind::Variant { row, fields }
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.type_expr()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(inner);
            }
            _ => return Err(self.expected("a type")),
        };
        let span = start.merge(self.prev_span());
        Ok(TypeExpr { kind, span })
    }

    /// Parse `[('a) l:τ, …]` / `<('a) l:τ, …>` field lists up to `close`.
    fn type_fields(&mut self, close: &TokenKind) -> Result<TypeFields, ParseError> {
        let mut row = None;
        // Optional row variable `('a)` or `("a)`.
        if self.at(&TokenKind::LParen) {
            match self.peek2().clone() {
                TokenKind::TyVar(v) => {
                    self.bump();
                    self.bump();
                    self.expect(&TokenKind::RParen)?;
                    row = Some(RowVar {
                        name: v,
                        desc: false,
                    });
                }
                TokenKind::DescVar(v) => {
                    self.bump();
                    self.bump();
                    self.expect(&TokenKind::RParen)?;
                    row = Some(RowVar {
                        name: v,
                        desc: true,
                    });
                }
                _ => {}
            }
        }
        let mut fields: Vec<(Label, TypeExpr)> = Vec::new();
        if !self.at(close) {
            loop {
                let label_span = self.span();
                let label = self.label()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.type_expr()?;
                if fields.iter().any(|(l, _)| *l == label) {
                    return Err(ParseError::new(
                        ParseErrorKind::DuplicateLabel(label),
                        label_span,
                    ));
                }
                fields.push((label, ty));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(close)?;
        Ok((row, fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        parse_expr(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
    }

    #[test]
    fn parse_wealthy() {
        let prog =
            parse_program("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;")
                .unwrap();
        assert_eq!(prog.len(), 1);
        match &prog[0].kind {
            PhraseKind::Fun { name, params, body } => {
                assert_eq!(name, "Wealthy");
                assert_eq!(params, &["S".to_string()]);
                assert!(matches!(body.kind, ExprKind::Select { .. }));
            }
            other => panic!("unexpected phrase {other:?}"),
        }
    }

    #[test]
    fn parse_record_literal() {
        let e = expr(r#"[Name = "Joe", Salary = 22340]"#);
        match e.kind {
            ExprKind::Record(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, "Name");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_record_label_rejected() {
        let err = parse_expr("[A=1, A=2]").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateLabel(_)));
    }

    #[test]
    fn parse_set_literal() {
        let e = expr("{1, 2, 3}");
        assert!(matches!(e.kind, ExprKind::Set(ref v) if v.len() == 3));
        let e = expr("{}");
        assert!(matches!(e.kind, ExprKind::Set(ref v) if v.is_empty()));
    }

    #[test]
    fn parse_injection() {
        let e = expr(r#"(Consultant of [Telephone=2221234])"#);
        match e.kind {
            ExprKind::Inject { label, .. } => assert_eq!(label, "Consultant"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_case_with_other() {
        let e =
            expr("case x.Status of Employee of y => y.Extension, Consultant of y => y.Telephone");
        match e.kind {
            ExprKind::Case { arms, default, .. } => {
                assert_eq!(arms.len(), 2);
                assert!(default.is_none());
            }
            other => panic!("{other:?}"),
        }
        let e = expr("case v of Value of x => true, other => false");
        match e.kind {
            ExprKind::Case { arms, default, .. } => {
                assert_eq!(arms.len(), 1);
                assert!(default.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_operator_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let e = expr("1 + 2 * 3");
        match e.kind {
            ExprKind::Binop {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(right.kind, ExprKind::Binop { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
        // comparison over arithmetic
        let e = expr("x.Salary > 100000 + 1");
        assert!(matches!(e.kind, ExprKind::Binop { op: BinOp::Gt, .. }));
        // andalso over comparison
        let e = expr("a = b andalso c = d");
        assert!(matches!(
            e.kind,
            ExprKind::Binop {
                op: BinOp::Andalso,
                ..
            }
        ));
    }

    #[test]
    fn parse_hom_with_operator_value() {
        let e = expr("hom((fn(y) => y.Qty), +, 0, S)");
        match e.kind {
            ExprKind::Hom { op, .. } => assert!(matches!(op.kind, ExprKind::OpVal(BinOp::Add))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_hom_star() {
        let e = expr("hom*((fn(x) => x), +, S)");
        assert!(matches!(e.kind, ExprKind::HomStar { .. }));
    }

    #[test]
    fn parse_join_project_con() {
        assert!(matches!(expr("join(a, b)").kind, ExprKind::Join { .. }));
        assert!(matches!(expr("con(a, b)").kind, ExprKind::Con { .. }));
        let e = expr("project(it, [Name:string])");
        match e.kind {
            ExprKind::Project { ty, .. } => {
                assert!(matches!(ty.kind, TypeExprKind::Record { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_multiple_generators() {
        let e = expr("select [A=x.A, B=y.B] where x <- R, y <- R with x.B = y.A");
        match e.kind {
            ExprKind::Select { generators, .. } => assert_eq!(generators.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_let_forms() {
        assert!(matches!(
            expr("let x = 1 in x end").kind,
            ExprKind::Let { .. }
        ));
        assert!(matches!(
            expr("let val x = 1 in x end").kind,
            ExprKind::Let { .. }
        ));
        assert!(matches!(expr("let x = 1 in x").kind, ExprKind::Let { .. }));
    }

    #[test]
    fn parse_refs() {
        assert!(matches!(expr("ref(3)").kind, ExprKind::Ref(_)));
        assert!(matches!(expr("!x").kind, ExprKind::Deref(_)));
        assert!(matches!(expr("d := 1").kind, ExprKind::Assign { .. }));
        // (!emp1).Department
        let e = expr("(!emp1).Department");
        assert!(matches!(e.kind, ExprKind::Field { .. }));
    }

    #[test]
    fn parse_as_postfix() {
        let e = expr("(!x).Salary as Value");
        match e.kind {
            ExprKind::As { label, .. } => assert_eq!(label, "Value"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_parenthesized_record_field() {
        let e = expr("[Name=n, (Salary=s as Value), Id=x]");
        match e.kind {
            ExprKind::Record(fields) => assert_eq!(fields.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_tuple_desugar() {
        let e = expr("(1, 2)");
        match e.kind {
            ExprKind::Record(fields) => {
                assert_eq!(fields[0].0, "#1");
                assert_eq!(fields[1].0, "#2");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_unit() {
        assert!(matches!(expr("()").kind, ExprKind::Unit));
    }

    #[test]
    fn parse_application_chain() {
        let e = expr("f(1)(2)");
        match e.kind {
            ExprKind::App { func, .. } => assert!(matches!(func.kind, ExprKind::App { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_type_expressions() {
        let t = parse_type("{[Name: string, Salary: int]}").unwrap();
        assert!(matches!(t.kind, TypeExprKind::Set(_)));
        let t = parse_type("[Name: [First: string, Last: string], Salary: int]").unwrap();
        assert!(matches!(t.kind, TypeExprKind::Record { .. }));
        let t = parse_type("rec v . (unit + (int * v))").unwrap_err();
        // `+` is not part of the type grammar; the paper's τ₁ + τ₂ notation
        // is for variants and spelled <#1:τ₁, #2:τ₂> in source.
        let _ = t;
        let t = parse_type("rec v . <#1: unit, #2: int * v>").unwrap();
        assert!(matches!(t.kind, TypeExprKind::Rec { .. }));
        let t = parse_type("ref([Name: string, Age: int])").unwrap();
        assert!(matches!(t.kind, TypeExprKind::Ref(_)));
        let t = parse_type("int -> int -> bool").unwrap();
        match t.kind {
            TypeExprKind::Arrow(_, rhs) => assert!(matches!(rhs.kind, TypeExprKind::Arrow(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_row_variables_in_types() {
        let t = parse_type("[('a) Age: int]").unwrap();
        match t.kind {
            TypeExprKind::Record { row, fields } => {
                let row = row.expect("row var");
                assert_eq!(row.name, "a");
                assert!(!row.desc);
                assert_eq!(fields.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        let t = parse_type("<('a) Consultant: [Telephone: int]>").unwrap();
        assert!(matches!(t.kind, TypeExprKind::Variant { row: Some(_), .. }));
    }

    #[test]
    fn parse_desc_vars_in_types() {
        let t = parse_type("{\"b}").unwrap();
        match t.kind {
            TypeExprKind::Set(inner) => assert!(matches!(inner.kind, TypeExprKind::DescVar(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_program_multiple_phrases() {
        let prog = parse_program("val x = 1; fun f(y) = y; f(x);").unwrap();
        assert_eq!(prog.len(), 3);
        assert!(matches!(prog[2].kind, PhraseKind::Expr(_)));
    }

    #[test]
    fn parse_trailing_semi_optional() {
        let prog = parse_program("val x = 1").unwrap();
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn parse_nested_comment_program() {
        let prog = parse_program("(* Select all base parts *) val x = 1;").unwrap();
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn parse_fun_space_param() {
        let prog = parse_program("fun Closure R = R;").unwrap();
        match &prog[0].kind {
            PhraseKind::Fun { params, .. } => assert_eq!(params, &["R".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_positions() {
        let err = parse_program("val = 3;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Expected { .. }));
    }

    #[test]
    fn parse_dynamic_forms() {
        assert!(matches!(expr("dynamic(x)").kind, ExprKind::MakeDynamic(_)));
        assert!(matches!(
            expr("dynamic(x, int)").kind,
            ExprKind::Coerce { .. }
        ));
    }

    #[test]
    fn parse_minus_forms() {
        assert!(matches!(
            expr("-3").kind,
            ExprKind::Unop { op: UnOp::Neg, .. }
        ));
        let e = expr("f(g, -, 0)");
        match e.kind {
            ExprKind::App { args, .. } => {
                assert!(matches!(args[1].kind, ExprKind::OpVal(BinOp::Sub)))
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            expr("a - b").kind,
            ExprKind::Binop { op: BinOp::Sub, .. }
        ));
    }
}
