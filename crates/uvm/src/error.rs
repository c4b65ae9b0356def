//! Typed errors for the UVM runtime.
//!
//! The fault-service path used to `unwrap!`/`expect` its way through
//! invariant checks; the robustness work threads these errors instead so
//! the simulator can report a broken run rather than aborting the
//! process (chaos invariant: no injection scenario may panic).

use core::fmt;
use gmmu::types::VirtPage;
use sim_core::error::ConfigError;

/// Errors the UVM driver can produce on its service path.
#[derive(Debug, Clone, PartialEq)]
pub enum UvmError {
    /// Driver, link or pool configuration failed validation.
    Config(ConfigError),
    /// The frame pool ran dry while mapping a migration plan whose room
    /// the eviction loop was supposed to have guaranteed — an internal
    /// accounting breach, surfaced instead of panicking.
    FramesExhausted {
        /// Pages the plan still needed.
        requested: usize,
        /// Frames actually free.
        free: u32,
    },
    /// A fault on a page at or past `gmmu::page_table::FLAT_LIMIT`
    /// (16 GiB of 4 KB pages). The policy state is indexed by chunk id,
    /// so the driver serves only the flat page range.
    PageOutOfRange {
        /// The first such page of the batch.
        page: VirtPage,
    },
    /// A page migration could not be completed (bounded retries spent);
    /// carried in diagnostics, the fault itself is replayed later.
    MigrationAborted {
        /// The demand-faulted page whose plan was abandoned.
        page: VirtPage,
        /// DMA attempts made (1 initial + retries).
        attempts: u32,
    },
}

impl fmt::Display for UvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UvmError::Config(e) => write!(f, "invalid UVM configuration: {e}"),
            UvmError::FramesExhausted { requested, free } => write!(
                f,
                "frame pool exhausted mid-plan: {requested} pages requested, {free} free"
            ),
            UvmError::PageOutOfRange { page } => write!(
                f,
                "fault on page {} past the {}-page range the driver serves",
                page.0,
                gmmu::page_table::FLAT_LIMIT
            ),
            UvmError::MigrationAborted { page, attempts } => write!(
                f,
                "migration of page {} abandoned after {attempts} DMA attempts",
                page.0
            ),
        }
    }
}

impl From<ConfigError> for UvmError {
    fn from(e: ConfigError) -> Self {
        UvmError::Config(e)
    }
}

impl std::error::Error for UvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UvmError::Config(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = UvmError::FramesExhausted {
            requested: 16,
            free: 3,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains("3"));
        let e = UvmError::MigrationAborted {
            page: VirtPage(42),
            attempts: 5,
        };
        assert!(e.to_string().contains("42"));
        let c: UvmError = ConfigError::Zero { field: "capacity" }.into();
        assert!(c.to_string().contains("capacity"));
        assert!(std::error::Error::source(&c).is_some());
    }
}
