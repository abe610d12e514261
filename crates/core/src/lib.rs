//! **Machiavelli** — a polymorphic database programming language with
//! static type inference.
//!
//! This crate is the top of a from-scratch Rust reproduction of
//! *Database Programming in Machiavelli* (Ohori, Buneman &
//! Breazu-Tannen, SIGMOD 1989): an ML-style language whose type system
//! makes records, variants, **sets**, and references first-class
//! database values, with complete type inference discovering record
//! polymorphism, and generalized `join` / `project` / `con` / `unionc`
//! governed by the information ordering on description types.
//!
//! # Quickstart
//!
//! ```
//! use machiavelli::Session;
//!
//! let mut session = Session::new();
//! let out = session.eval_one(r#"
//!     fun Wealthy(S) = select x.Name
//!                      where x <- S
//!                      with x.Salary > 100000;
//! "#).unwrap();
//! assert_eq!(out.show(), r#"val Wealthy = fn : {[("a) Name:"b,Salary:int]} -> {"b}"#);
//!
//! let out = session.eval_one(r#"
//!     Wealthy({[Name = "Joe",   Salary = 22340],
//!              [Name = "Fred",  Salary = 123456],
//!              [Name = "Helen", Salary = 132000]});
//! "#).unwrap();
//! assert_eq!(out.show(), r#"val it = {"Fred", "Helen"} : {string}"#);
//! ```
//!
//! The pipeline crates are re-exported: [`syntax`], [`types`], [`value`],
//! [`plan`], [`eval`].

pub mod error;
pub mod persist;
mod prepared;
pub mod repl;
pub mod session;
pub mod testing;

pub use error::SessionError;
pub use persist::{
    decode_value, decode_with_registry, encode_value, encode_with_registry, write_atomic,
    PersistError, RefRegistry,
};
pub use repl::run_repl;
pub use session::{is_read_only_source, Outcome, PartialRun, Session, SessionStats};

pub use machiavelli_eval as eval;
pub use machiavelli_plan as plan;
pub use machiavelli_store as store;
pub use machiavelli_syntax as syntax;
pub use machiavelli_trace as trace;
pub use machiavelli_types as types;
pub use machiavelli_value as value;
