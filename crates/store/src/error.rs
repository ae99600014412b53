//! Storage-engine errors.
//!
//! Corruption is a *value*, never a panic: every malformed byte the engine
//! can encounter on disk — torn tails, flipped bits, stale manifests,
//! spliced files — surfaces as [`StoreError::Corrupt`] with the file and
//! what failed, so callers (and the corruption fuzz suite) can rely on
//! clean failure.

use std::fmt;

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Everything that can go wrong beneath the durability seam.
#[derive(Debug)]
pub enum StoreError {
    /// Operating-system I/O failure.
    Io(std::io::Error),
    /// On-disk bytes failed validation (bad magic, version, CRC, bounds).
    Corrupt {
        /// File (or logical unit) that failed.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// The recovered state was rejected by the peer engine.
    Engine(wdl_core::WdlError),
    /// An injected fault from [`crate::IoFaults`] (crash-schedule testing).
    Injected(&'static str),
}

impl StoreError {
    /// Shorthand for a corruption error.
    pub fn corrupt(file: impl Into<String>, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            file: file.into(),
            detail: detail.into(),
        }
    }

    /// Maps a failure to decode `file`'s bytes to a corruption error.
    pub(crate) fn decoding(file: &str) -> impl Fn(wdl_net::NetError) -> StoreError + Copy + '_ {
        move |e| StoreError::corrupt(file, e.to_string())
    }

    /// Whether this is a corruption (as opposed to I/O or engine) error.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage i/o: {e}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "corrupt storage ({file}): {detail}")
            }
            StoreError::Engine(e) => write!(f, "recovered state rejected: {e}"),
            StoreError::Injected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<wdl_core::WdlError> for StoreError {
    fn from(e: wdl_core::WdlError) -> StoreError {
        StoreError::Engine(e)
    }
}

impl From<wdl_datalog::DatalogError> for StoreError {
    fn from(e: wdl_datalog::DatalogError) -> StoreError {
        StoreError::Engine(wdl_core::WdlError::Datalog(e))
    }
}

impl From<StoreError> for wdl_core::WdlError {
    fn from(e: StoreError) -> wdl_core::WdlError {
        match e {
            StoreError::Engine(inner) => inner,
            other => wdl_core::WdlError::Durability(other.to_string()),
        }
    }
}

impl From<StoreError> for wdl_net::NetError {
    fn from(e: StoreError) -> wdl_net::NetError {
        match e {
            StoreError::Io(io) => wdl_net::NetError::Io(io),
            other => wdl_net::NetError::Codec(other.to_string()),
        }
    }
}
