//! Call-by-value evaluator for Machiavelli.
//!
//! * [`eval`] — the evaluator proper (expressions, `hom`, `select`,
//!   references, database operations);
//! * [`prelude`] — the standard library, written in Machiavelli source;
//! * [`error`] — evaluation errors.
//!
//! The evaluator is deliberately type-erased: run the type checker from
//! `machiavelli-types` first (the `machiavelli` core crate's `Session`
//! does both).

pub mod error;
pub mod eval;
pub mod prelude;

pub use error::EvalError;
pub use eval::{apply_binop, builtin_env, eval_expr};
pub use prelude::PRELUDE;
