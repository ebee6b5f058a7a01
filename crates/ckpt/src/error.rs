//! The typed error surface of checkpoint encoding, decoding and IO.

use std::io;

use crate::frame::FrameError;

/// Everything that can go wrong while saving or loading a checkpoint.
///
/// Decoding never panics and never trusts length fields: corrupt, truncated
/// or version-mismatched inputs all land in one of these variants.
#[derive(Debug)]
pub enum CkptError {
    /// The checkpoint bytes are not a valid MHGC frame (bad magic, version
    /// skew, truncation, checksum mismatch, bad UTF-8).
    Frame(FrameError),
    /// An entry carried an unknown value-type tag.
    BadTag(u8),
    /// A field the loader requires is absent from the dictionary.
    MissingField(String),
    /// A field exists but holds a different value type than required.
    WrongType(String),
    /// A tensor field's shape does not match the destination parameter.
    ShapeMismatch(String),
    /// The underlying filesystem operation failed.
    Io(io::Error),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Frame(e) => write!(f, "corrupt checkpoint: {e}"),
            CkptError::BadTag(t) => write!(f, "unknown checkpoint value tag {t}"),
            CkptError::MissingField(name) => write!(f, "checkpoint field `{name}` is missing"),
            CkptError::WrongType(name) => {
                write!(f, "checkpoint field `{name}` has the wrong type")
            }
            CkptError::ShapeMismatch(what) => write!(f, "checkpoint shape mismatch: {what}"),
            CkptError::Io(e) => write!(f, "checkpoint IO error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Frame(e) => Some(e),
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<FrameError> for CkptError {
    fn from(e: FrameError) -> Self {
        CkptError::Frame(e)
    }
}
