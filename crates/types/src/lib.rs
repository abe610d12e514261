//! Machiavelli's type system.
//!
//! This crate implements the static semantics of the Machiavelli database
//! programming language (Ohori, Buneman & Breazu-Tannen, SIGMOD 1989):
//!
//! * [`ty`] — types as regular trees with kinded unification variables;
//! * [`kind`] — the kind system (`'a`, `"a`, record and variant kinds);
//! * `unify` — kinded, equi-recursive unification;
//! * [`order`] — the information ordering `≤` with `⊔` (lub) and `⊓` (glb);
//! * [`constraint`] — conditional constraints (`τ = τ₁ lub τ₂`, …) and
//!   their two-mode solver;
//! * [`scheme`] — principal conditional type schemes;
//! * [`infer`] — algorithm W extended per \[OB88\];
//! * `lower` — lowering concrete type annotations;
//! * [`display`] — printing in the paper's notation.
//!
//! # Example
//!
//! ```
//! let phrases = machiavelli_types::infer_program(
//!     "fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;",
//! ).unwrap();
//! assert_eq!(phrases[0].scheme.show(), "{[(\"a) Name:\"b,Salary:int]} -> {\"b}");
//! ```

pub mod constraint;
pub mod display;
pub mod error;
pub mod infer;
pub mod kind;
pub mod lower;
pub mod order;
pub mod scheme;
pub mod ty;
pub mod unify;

pub use constraint::Constraint;
pub use display::{show_type, TypeNamer};
pub use error::TypeError;
pub use infer::{infer_program, Elaboration, Inferencer, PhraseType, TypeEnv};
pub use kind::Kind;
pub use lower::{lower_closed, lower_open};
pub use order::{glb, le, lub, type_eq, Partial};
pub use scheme::Scheme;
pub use ty::{TvRef, Ty, Type, VarGen};
pub use unify::{require_desc, unify};
