//! The typed error surface: corrupt input is a value, never a panic.
//!
//! Everything [`crate::Snapshot::open`] can reject is enumerated here so
//! callers (the CLI's `snapshot inspect`, the corrupt-input test suite) can
//! match on the failure class instead of scraping message strings.

use std::fmt;

/// Why a snapshot could not be written or opened.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`crate::MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The first bytes actually found (zero-padded if the file is shorter).
        found: [u8; 8],
    },
    /// The file claims a schema version this build does not speak. Readers
    /// must refuse rather than best-effort parse: section semantics may have
    /// changed in ways the checksums cannot catch.
    UnsupportedVersion {
        /// Version stamp in the file.
        found: u32,
        /// The single version this build reads and writes.
        supported: u32,
    },
    /// The file ends before a declared structure does.
    Truncated {
        /// Which structure ran off the end.
        what: &'static str,
        /// Bytes the structure needed.
        need: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// Human name of the failing section.
        section: &'static str,
    },
    /// Structurally invalid content inside a section that passed its
    /// checksum (or a writer-side invariant violation): out-of-range ids,
    /// non-ascending ordering, inconsistent lengths, missing mandatory sections.
    Corrupt {
        /// What was wrong, for the error message.
        what: String,
    },
    /// A sound file this host cannot read as stored (a big-endian host
    /// borrowing little-endian row words).
    Unsupported {
        /// What the host cannot do.
        what: &'static str,
    },
}

impl StoreError {
    /// Shorthand for [`StoreError::Corrupt`].
    pub(crate) fn corrupt(what: impl Into<String>) -> Self {
        StoreError::Corrupt { what: what.into() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:?}: not a coordination snapshot")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot schema version {found} (this build reads version {supported})"
            ),
            StoreError::Truncated { what, need, have } => {
                write!(
                    f,
                    "truncated snapshot: {what} needs {need} bytes, only {have} available"
                )
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            StoreError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            StoreError::Unsupported { what } => write!(f, "unsupported on this host: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
