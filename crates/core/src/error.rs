//! Error types for the WebdamLog engine.

use wdl_datalog::DatalogError;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, WdlError>;

/// Errors raised by the WebdamLog layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WdlError {
    /// Error bubbled up from the datalog kernel.
    Datalog(DatalogError),
    /// A rule violates WebdamLog safety (beyond plain datalog safety): e.g.
    /// the peer term of the first non-local atom is not bound by the prefix.
    UnsafeDistribution(String),
    /// The assignment at this body position nests deeper than
    /// [`wdl_datalog::MAX_EXPR_DEPTH`]: no peer image or wire frame could
    /// carry the rule.
    ExprTooDeep {
        /// Body position of the assignment.
        position: usize,
    },
    /// A relation was used inconsistently with its declaration.
    SchemaViolation(String),
    /// Referenced an unknown peer.
    UnknownPeer(String),
    /// Added a peer whose name is already taken in the runtime.
    DuplicatePeer(String),
    /// Referenced an unknown rule id.
    UnknownRule(String),
    /// An operation was denied by access control.
    AccessDenied(String),
    /// The runtime did not reach quiescence within the stage budget.
    NoQuiescence {
        /// The stage budget that was exhausted.
        stages: usize,
    },
    /// A peer-name or relation-name variable was bound to a non-string value.
    BadNameBinding(String),
    /// The attached durability sink failed to persist state (I/O error,
    /// corrupt on-disk state). The in-memory peer is still consistent, but
    /// its changes since the last successful sync are not durable.
    Durability(String),
    /// A program batch was rejected by the static analyzer before any of
    /// it was applied ([`crate::Peer::install`]). Carries every diagnostic
    /// the analyzer raised, errors and warnings alike.
    Rejected(Vec<crate::Diagnostic>),
    /// A [`crate::shard::ShardedRuntime`] worker thread is gone (it
    /// panicked), so the peers it owned are lost.
    ShardGone {
        /// Index of the gone worker.
        shard: usize,
    },
}

impl std::fmt::Display for WdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WdlError::Datalog(e) => write!(f, "datalog: {e}"),
            WdlError::UnsafeDistribution(m) => write!(f, "unsafe distribution: {m}"),
            WdlError::ExprTooDeep { position } => write!(
                f,
                "assignment at body position {position} nests deeper than {}",
                wdl_datalog::MAX_EXPR_DEPTH
            ),
            WdlError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            WdlError::UnknownPeer(m) => write!(f, "unknown peer: {m}"),
            WdlError::DuplicatePeer(m) => write!(f, "duplicate peer: {m}"),
            WdlError::UnknownRule(m) => write!(f, "unknown rule: {m}"),
            WdlError::AccessDenied(m) => write!(f, "access denied: {m}"),
            WdlError::NoQuiescence { stages } => {
                write!(f, "runtime did not quiesce within {stages} stages")
            }
            WdlError::BadNameBinding(m) => write!(f, "bad name binding: {m}"),
            WdlError::Durability(m) => write!(f, "durability: {m}"),
            WdlError::Rejected(diags) => {
                let errors = diags.iter().filter(|d| d.is_error()).count();
                write!(f, "program rejected by static analysis ({errors} error")?;
                if errors != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                if let Some(first) = diags.iter().find(|d| d.is_error()) {
                    write!(f, ": {first}")?;
                }
                Ok(())
            }
            WdlError::ShardGone { shard } => write!(f, "shard worker {shard} is gone"),
        }
    }
}

impl std::error::Error for WdlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WdlError::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatalogError> for WdlError {
    fn from(e: DatalogError) -> Self {
        WdlError::Datalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: WdlError = DatalogError::Arithmetic("x".into()).into();
        assert!(e.to_string().contains("datalog"));
        assert!(WdlError::NoQuiescence { stages: 7 }
            .to_string()
            .contains('7'));
    }
}
