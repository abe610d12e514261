//! Evaluation errors.

use machiavelli_store::governor::Trip;
use machiavelli_value::ValueError;
use std::fmt;

/// Errors raised during evaluation. Programs that pass the type checker
/// only raise the [`EvalError::Value`] variants that are dynamic by
/// design (`hom*` on the empty set, `as` mismatch, failed coercions,
/// user `raise`); the rest are defensive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A value-level operation failed.
    Value(ValueError),
    /// Unbound variable (unreachable for type-checked programs).
    Unbound(String),
    /// Applied a function to the wrong number of arguments.
    Arity { expected: usize, got: usize },
    /// Applied a non-function.
    NotAFunction(String),
    /// Evaluation exceeded the configured recursion depth.
    StackOverflow,
    /// The governing [`machiavelli_store::governor::QueryGuard`] stopped the
    /// query (cancellation, deadline, or row budget) at a cooperative
    /// tick. Sticky: re-polling the guard reports the same cause.
    Interrupted(Trip),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Value(e) => e.fmt(f),
            EvalError::Unbound(x) => write!(f, "unbound variable `{x}` at runtime"),
            EvalError::Arity { expected, got } => {
                write!(f, "function expects {expected} argument(s), got {got}")
            }
            EvalError::NotAFunction(v) => write!(f, "cannot apply non-function `{v}`"),
            EvalError::StackOverflow => write!(f, "evaluation recursion limit exceeded"),
            EvalError::Interrupted(trip) => trip.fmt(f),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValueError> for EvalError {
    fn from(e: ValueError) -> Self {
        EvalError::Value(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(EvalError::Unbound("x".into()).to_string().contains("`x`"));
        assert_eq!(
            EvalError::Arity {
                expected: 2,
                got: 1
            }
            .to_string(),
            "function expects 2 argument(s), got 1"
        );
    }
}
