//! Error types for the datalog kernel.

use std::fmt;

/// Convenience alias used across the kernel.
pub type Result<T> = std::result::Result<T, DatalogError>;

/// Errors raised by storage, safety checking or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A fact or atom used a relation with a different arity than registered.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity registered on first use.
        expected: usize,
        /// Arity of the offending fact/atom.
        found: usize,
    },
    /// A rule is unsafe (head/negation/builtin variable not bound by a
    /// preceding positive atom).
    UnsafeRule(String),
    /// A program cannot be stratified (negation through recursion).
    NotStratifiable(String),
    /// A builtin was applied to values of the wrong runtime type.
    TypeError(String),
    /// Arithmetic failure (overflow, division by zero).
    Arithmetic(String),
    /// A variable needed by a builtin or head was unbound at evaluation time.
    UnboundVariable(String),
    /// Fixpoint exceeded the configured iteration bound (safety valve).
    IterationLimit(usize),
    /// A relation was declared with more columns than indexes support.
    UnsupportedArity {
        /// The requested arity.
        arity: usize,
        /// The maximum supported arity ([`crate::MAX_ARITY`]).
        max: usize,
    },
    /// A relation reached its maximum tuple capacity.
    CapacityExceeded {
        /// The capacity that was hit.
        capacity: u64,
    },
    /// A [`crate::ColumnExport`] was internally inconsistent (cell index out
    /// of range, cell count not `rows * arity`) — persisted data that fails
    /// here is corrupt, not merely stale.
    CorruptExport(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch on relation `{relation}`: expected {expected}, found {found}"
            ),
            DatalogError::UnsafeRule(msg) => write!(f, "unsafe rule: {msg}"),
            DatalogError::NotStratifiable(msg) => write!(f, "program not stratifiable: {msg}"),
            DatalogError::TypeError(msg) => write!(f, "type error: {msg}"),
            DatalogError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            DatalogError::UnboundVariable(msg) => write!(f, "unbound variable: {msg}"),
            DatalogError::IterationLimit(n) => {
                write!(f, "fixpoint did not converge within {n} iterations")
            }
            DatalogError::UnsupportedArity { arity, max } => {
                write!(
                    f,
                    "relation arity {arity} exceeds the supported maximum of {max} columns"
                )
            }
            DatalogError::CapacityExceeded { capacity } => {
                write!(
                    f,
                    "relation reached its maximum capacity of {capacity} tuples"
                )
            }
            DatalogError::CorruptExport(msg) => {
                write!(f, "corrupt column export: {msg}")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_messages() {
        let e = DatalogError::ArityMismatch {
            relation: "pictures".into(),
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains("pictures"));
        assert!(e.to_string().contains('4'));
        let e = DatalogError::IterationLimit(10);
        assert!(e.to_string().contains("10"));
        let e = DatalogError::UnsupportedArity { arity: 70, max: 64 };
        assert!(e.to_string().contains("70"));
        assert!(e.to_string().contains("64"));
        let e = DatalogError::CapacityExceeded { capacity: 1 << 32 };
        assert!(e.to_string().contains("4294967296"));
    }
}
