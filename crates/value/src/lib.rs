//! Runtime values for the Machiavelli database programming language.
//!
//! Provides the value representation ([`value::Value`]), canonical
//! mathematical sets ([`set::MSet`]), the value-level database operations
//! (`project` / `con` / `join` / `unionc`, in [`ops`]), runtime shapes for
//! type-erased `unionc` ([`shape`]), dynamic-coercion conformance checks
//! ([`conform`]), and display in the paper's notation ([`display`]).

pub mod conform;
pub mod display;
pub mod epoch;
pub mod error;
pub mod hash;
pub mod ops;
pub mod set;
pub mod shape;
pub mod value;

pub use conform::conforms;
pub use display::show_value;
pub use epoch::{DirtyRefs, DirtySet, DirtySets, Unobserved, WriteSink};
pub use error::ValueError;
pub use hash::{hash_value, ValueKey};
pub use ops::{
    con_value, join_value, join_value_counted, project_value, project_value_counted, unionc_value,
    unionc_value_counted,
};
pub use set::MSet;
pub use shape::{element_shape, glb_shape, project_by_shape, shape_of, Shape};
pub use value::{
    scan_refs, value_cmp, value_eq, Builtin, Closure, DynValue, Env, FieldKey, Fields, Label,
    RefScan, RefValue, Symbol, Value,
};
