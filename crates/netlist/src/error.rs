//! Error type for netlist construction, validation and BLIF parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net name was declared twice.
    DuplicateNet(String),
    /// A net was referenced that does not exist.
    UnknownNet(String),
    /// A net has more than one driver.
    MultipleDrivers(String),
    /// A net is used but never driven (and is not a primary input).
    Undriven(String),
    /// A cell was constructed with the wrong number of inputs.
    ArityMismatch {
        /// The cell instance name.
        cell: String,
        /// Number of inputs expected for its kind.
        expected: usize,
        /// Number of inputs supplied.
        found: usize,
    },
    /// The combinational part of the netlist contains a cycle through the
    /// named net.
    CombinationalLoop(String),
    /// A BLIF parse error with line number and message.
    BlifParse {
        /// 1-based source line.
        line: usize,
        /// Human-readable message.
        message: String,
    },
    /// Widths of word-level operands disagree.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNet(n) => write!(f, "duplicate net name `{n}`"),
            NetlistError::UnknownNet(n) => write!(f, "unknown net `{n}`"),
            NetlistError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net `{n}` is used but never driven"),
            NetlistError::ArityMismatch {
                cell,
                expected,
                found,
            } => write!(
                f,
                "cell `{cell}` expects {expected} inputs but {found} were supplied"
            ),
            NetlistError::CombinationalLoop(n) => {
                write!(f, "combinational loop through net `{n}`")
            }
            NetlistError::BlifParse { line, message } => {
                write!(f, "BLIF parse error at line {line}: {message}")
            }
            NetlistError::WidthMismatch { left, right } => {
                write!(f, "word width mismatch: {left} vs {right}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            NetlistError::DuplicateNet("a".into()).to_string(),
            "duplicate net name `a`"
        );
        assert_eq!(
            NetlistError::BlifParse {
                line: 3,
                message: "bad token".into()
            }
            .to_string(),
            "BLIF parse error at line 3: bad token"
        );
        assert_eq!(
            NetlistError::ArityMismatch {
                cell: "g".into(),
                expected: 2,
                found: 1
            }
            .to_string(),
            "cell `g` expects 2 inputs but 1 were supplied"
        );
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<NetlistError>();
    }
}
