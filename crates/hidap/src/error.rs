//! Error type of the HiDaP flow.

use std::fmt;

/// An error produced by the HiDaP macro-placement flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HidapError {
    /// The design has no die area (zero width or height).
    EmptyDie,
    /// The macros cannot fit in the die area at all.
    MacrosExceedDie {
        /// Total macro area in DBU².
        macro_area: i128,
        /// Die area in DBU².
        die_area: i128,
    },
    /// An internal invariant was violated; indicates a bug.
    Internal(String),
}

impl fmt::Display for HidapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HidapError::EmptyDie => write!(f, "design has an empty die area"),
            HidapError::MacrosExceedDie { macro_area, die_area } => {
                write!(f, "total macro area {macro_area} exceeds die area {die_area}")
            }
            HidapError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for HidapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(HidapError::EmptyDie.to_string(), "design has an empty die area");
        assert!(HidapError::MacrosExceedDie { macro_area: 10, die_area: 5 }
            .to_string()
            .contains("exceeds"));
        assert!(HidapError::Internal("x".into()).to_string().contains("internal"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HidapError>();
    }
}
