//! Surface syntax for the Machiavelli database programming language.
//!
//! Machiavelli (Ohori, Buneman & Breazu-Tannen, SIGMOD 1989) is an ML-style
//! language extended with records, variants, mathematical sets, references,
//! and the database primitives `join`, `con`, `project`, `hom` and the
//! `select ... where ... with ...` comprehension.
//!
//! This crate provides:
//!
//! * [`token`] — the token alphabet,
//! * [`lexer`] — a hand-written lexer with source positions,
//! * [`ast`] — the abstract syntax (expressions, top-level phrases, and
//!   the type syntax used by `project` annotations),
//! * [`parser`] — a recursive-descent parser for the full surface grammar,
//! * [`pretty`] — a pretty-printer that round-trips the AST back to
//!   readable Machiavelli source,
//! * [`shape`] — a phrase's shape (its tokens with the literals taken
//!   out), the key under which a session prepares phrases.
//!
//! # Quick example
//!
//! ```
//! use machiavelli_syntax::parse_program;
//! let prog = parse_program(
//!     "fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;",
//! ).unwrap();
//! assert_eq!(prog.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod shape;
pub mod span;
pub mod symbol;
pub mod token;

pub use ast::{
    Expr, ExprKind, Ident, Label, Phrase, PhraseKind, Program, RowVar, TypeExpr, TypeExprKind,
};
pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse_expr, parse_program, parse_tokens, parse_type};
pub use shape::{Literal, Shape};
pub use span::Span;
pub use symbol::{tuple_label, Symbol};

#[cfg(test)]
mod roundtrip_tests;
