//! The workspace-wide fatal-error hierarchy and its one exit-code
//! mapping.
//!
//! Every long-lived error enum of the workspace — [`RegOverflow`] here,
//! `ServiceError` and `CampaignError` in `qecool-sim` — implements
//! [`std::error::Error`] plus the [`FatalError`] marker below, which
//! fixes the process exit status a command-line tool should die with
//! when the error is unrecoverable. The bench binaries all route
//! through [`exit_with`] instead of hand-rolled `match`/`eprintln!`
//! blocks, so the rendered message shape (`error: …`) and the exit
//! status (2, the "invalid operation" convention the CI smoke legs
//! assert on) are decided in exactly one place.

use crate::reg::RegOverflow;
use qecool_surface_code::{NoiseSpecError, PackedError};

/// A fatal error with a well-defined process exit status.
///
/// Implementors inherit [`std::error::Error`], so the trait adds only
/// the exit-code mapping; the default of 2 matches the workspace
/// convention (0 = success, 1 = a gated comparison failed, 2 = the
/// operation itself was invalid — bad flags, corrupt checkpoints,
/// failed sessions).
pub trait FatalError: std::error::Error {
    /// The process exit status this error maps to.
    fn exit_code(&self) -> i32 {
        2
    }
}

impl FatalError for RegOverflow {}

// A malformed `--noise` spec or packed syndrome file is an invalid
// operation, not a gate verdict: both exit 2 with the offending field
// named by the error's Display, never a sampling panic.
impl FatalError for NoiseSpecError {}

impl FatalError for PackedError {}

/// Prints `error: {err}` on stderr and exits with the error's
/// [`FatalError::exit_code`]. The single exit path of every bench
/// binary's error handling — the CI campaign-smoke leg greps the
/// rendered message (e.g. `corrupt checkpoint`) and asserts the status,
/// so both are fixed here rather than per binary.
pub fn exit_with(err: &dyn FatalError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(err.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Custom;
    impl std::fmt::Display for Custom {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "custom failure")
        }
    }
    impl std::error::Error for Custom {}
    impl FatalError for Custom {
        fn exit_code(&self) -> i32 {
            3
        }
    }

    #[derive(Debug)]
    struct Defaulted;
    impl std::fmt::Display for Defaulted {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "defaulted failure")
        }
    }
    impl std::error::Error for Defaulted {}
    impl FatalError for Defaulted {}

    #[test]
    fn default_exit_code_is_two() {
        assert_eq!(Defaulted.exit_code(), 2);
    }

    #[test]
    fn exit_code_is_overridable() {
        assert_eq!(Custom.exit_code(), 3);
    }

    #[test]
    fn errors_remain_source_chainable() {
        // The hierarchy must stay a std::error::Error hierarchy: a
        // FatalError boxes into the ordinary dynamic error type.
        let boxed: Box<dyn std::error::Error> = Box::new(Custom);
        assert_eq!(boxed.to_string(), "custom failure");
    }
}
