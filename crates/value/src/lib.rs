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
pub mod faults;
pub mod governor;
pub mod hash;
pub mod ops;
pub mod plain;
pub mod set;
pub mod shape;
pub mod tuning;
pub mod value;

pub use conform::conforms;
pub use display::show_value;
pub use epoch::{
    bump_mutation_epoch, mutation_epoch, note_ref_write, set_wal_tracking, take_dirty_refs,
    take_wal_dirty_refs, wal_tracking, DirtyRefs,
};
pub use error::ValueError;
pub use faults::{FaultConfig, FaultPoint};
pub use governor::{QueryGuard, Trip};
pub use hash::{hash_value, ValueKey};
pub use ops::{con_value, join_value, project_value, unionc_value};
pub use plain::{
    from_plain, plain_cmp, plain_eq, plain_hash, plain_matches_value, to_plain, PlainIndex,
    PlainKey, PlainValue,
};
pub use set::MSet;
pub use shape::{element_shape, glb_shape, project_by_shape, shape_of, Shape};
pub use value::{
    scan_refs, value_cmp, value_eq, Builtin, Closure, DynValue, Env, FieldKey, Fields, Label,
    RefScan, RefValue, Symbol, Value,
};
