//! The persistence error type.
//!
//! Filesystem failures reuse [`IoFailure`] — the structured payload of
//! [`OemError::Io`] — so the whole stack reports disk trouble in one
//! shape; corruption and codec trouble get their own variants because a
//! caller recovering a data directory wants to branch on them.

use std::fmt;

use annoda_oem::{IoFailure, OemError};

/// Errors raised by the durable store, its codec, and recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io(IoFailure),
    /// On-disk bytes that passed framing but cannot be trusted: a bad
    /// magic number, an unsupported version, a checksummed record that
    /// does not decode, or a snapshot whose checksum does not match.
    /// (A torn WAL *tail* is never an error — recovery truncates it.)
    Corrupt {
        /// Which artifact is corrupt (`"wal"`, `"snapshot"`, ...).
        what: &'static str,
        /// Byte offset of the trouble within the artifact.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A data directory's layout does not fit the request: another
    /// shard count, no store where one must exist, or the single-store
    /// layout (a `wal.log` at the root, no `shards.meta`).
    Layout {
        /// What was wrong.
        reason: String,
    },
    /// A value failed to encode or decode (codec-level, not framing).
    Codec {
        /// What was wrong.
        reason: String,
    },
    /// A journal record could not be applied to the store (e.g. its
    /// path no longer resolves).
    Apply {
        /// What was wrong.
        reason: String,
    },
    /// An underlying store operation failed.
    Store(OemError),
}

impl PersistError {
    pub(crate) fn codec(reason: impl Into<String>) -> Self {
        PersistError::Codec {
            reason: reason.into(),
        }
    }

    pub(crate) fn apply(reason: impl Into<String>) -> Self {
        PersistError::Apply {
            reason: reason.into(),
        }
    }

    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: &std::io::Error) -> Self {
        PersistError::Io(IoFailure::new(op, path, e))
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(failure) => write!(f, "io error: {failure}"),
            PersistError::Corrupt {
                what,
                offset,
                reason,
            } => write!(f, "corrupt {what} at byte {offset}: {reason}"),
            PersistError::Layout { reason } => write!(f, "data directory layout: {reason}"),
            PersistError::Codec { reason } => write!(f, "codec error: {reason}"),
            PersistError::Apply { reason } => write!(f, "cannot apply journal record: {reason}"),
            PersistError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<OemError> for PersistError {
    fn from(e: OemError) -> Self {
        // Disk trouble surfaced through the store keeps its structured
        // payload instead of being double-wrapped.
        match e {
            OemError::Io(failure) => PersistError::Io(failure),
            other => PersistError::Store(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location() {
        let e = PersistError::Corrupt {
            what: "wal",
            offset: 42,
            reason: "bad checksum".into(),
        };
        let text = e.to_string();
        assert!(text.contains("wal"), "{text}");
        assert!(text.contains("42"), "{text}");
    }

    #[test]
    fn oem_io_errors_keep_their_structure() {
        let os = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
        let oem = OemError::Io(IoFailure::new("write", std::path::Path::new("/p"), &os));
        match PersistError::from(oem) {
            PersistError::Io(f) => assert_eq!(f.kind, std::io::ErrorKind::PermissionDenied),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
