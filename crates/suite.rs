//! Anchor library for the workspace-level integration suite.
//!
//! The repository root is a package only so that `tests/` (the paper
//! figure tests) and `examples/` attach to the workspace; all real code
//! lives in the `crates/*` members. The fixtures they share come from
//! the dev-only `machiavelli-fixtures`.

pub use machiavelli;
