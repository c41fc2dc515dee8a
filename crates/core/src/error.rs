//! Typed errors for the staged synthesis pipeline.
//!
//! Every fallible stage of the pipeline — corpus building, training,
//! checkpoint persistence — returns a [`ClgenError`] instead of panicking, so
//! user-reachable failure paths (an empty corpus, a truncated checkpoint, a
//! checkpoint written by an unknown backend) surface as values the caller can
//! match on.

use clgen_wire::WireError;
use std::fmt;
use std::io;

/// An error from one of the pipeline stages.
#[derive(Debug)]
pub enum ClgenError {
    /// The corpus contains no kernels, so there is nothing to train on.
    EmptyCorpus,
    /// The corpus text produced an empty character vocabulary.
    EmptyVocabulary,
    /// A configuration value puts the pipeline in an unusable state.
    InvalidConfig {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Reading or writing a checkpoint file failed at the filesystem level.
    Io(io::Error),
    /// A checkpoint exists but its contents could not be decoded.
    Checkpoint(WireError),
    /// A checkpoint names a model class this build has no decoder for.
    UnknownBackend {
        /// The backend tag found in the checkpoint.
        kind: String,
    },
}

impl fmt::Display for ClgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClgenError::EmptyCorpus => f.write_str("cannot train on an empty corpus"),
            ClgenError::EmptyVocabulary => {
                f.write_str("corpus text produced an empty character vocabulary")
            }
            ClgenError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            ClgenError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ClgenError::Checkpoint(e) => write!(f, "malformed checkpoint: {e}"),
            ClgenError::UnknownBackend { kind } => {
                write!(f, "checkpoint uses unknown model backend {kind:?}")
            }
        }
    }
}

impl std::error::Error for ClgenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClgenError::Io(e) => Some(e),
            ClgenError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClgenError {
    fn from(e: io::Error) -> Self {
        ClgenError::Io(e)
    }
}

impl From<WireError> for ClgenError {
    fn from(e: WireError) -> Self {
        ClgenError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(ClgenError::EmptyCorpus.to_string().contains("empty corpus"));
        assert!(ClgenError::UnknownBackend {
            kind: "transformer".into()
        }
        .to_string()
        .contains("transformer"));
        let wrapped = ClgenError::from(WireError::InvalidUtf8);
        assert!(matches!(wrapped, ClgenError::Checkpoint(_)));
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
