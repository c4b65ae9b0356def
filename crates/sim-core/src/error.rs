//! Typed errors for the simulation substrate.
//!
//! Construction-time validation used to be `assert!`-on-construction
//! panics scattered across the crates; the robustness work replaced the
//! hot-path ones with these enums so callers can recover (or surface a
//! diagnostic) instead of dying. The panicking `new` constructors remain
//! as convenience wrappers over the fallible `try_new` ones.

use core::fmt;

/// A configuration value failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The named field must be strictly positive.
    NotPositive {
        /// Field name, e.g. `"pcie_gb_per_s"`.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The named field must lie in `[min, max]`.
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The named integer field must be nonzero.
    Zero {
        /// Field name.
        field: &'static str,
    },
    /// The named integer field must be a multiple of `of`.
    NotMultiple {
        /// Field name.
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// The required divisor.
        of: usize,
    },
    /// The named integer quantity must be a power of two.
    NotPowerOfTwo {
        /// Field (or derived quantity) name.
        field: &'static str,
        /// The rejected value.
        value: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} must be in [{min}, {max}], got {value}"),
            ConfigError::Zero { field } => write!(f, "{field} must be nonzero"),
            ConfigError::NotMultiple { field, value, of } => {
                write!(f, "{field} must be a multiple of {of}, got {value}")
            }
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a power of two, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors the simulation substrate can produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// A configuration value failed validation.
    Config(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
        }
    }
}

/// Check that `value` is strictly positive.
pub fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NotPositive { field, value })
    }
}

/// Check that `value` lies in `[min, max]`.
pub fn require_in_range(
    field: &'static str,
    value: f64,
    min: f64,
    max: f64,
) -> Result<(), ConfigError> {
    if value.is_finite() && value >= min && value <= max {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field,
            value,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_field() {
        let e = ConfigError::NotPositive {
            field: "pcie_gb_per_s",
            value: -1.0,
        };
        assert!(e.to_string().contains("pcie_gb_per_s"));
        let e = ConfigError::OutOfRange {
            field: "duty",
            value: 2.0,
            min: 0.0,
            max: 1.0,
        };
        assert!(e.to_string().contains("[0, 1]"));
        assert!(ConfigError::Zero { field: "capacity" }
            .to_string()
            .contains("nonzero"));
        let e = ConfigError::NotMultiple {
            field: "entries",
            value: 500,
            of: 16,
        };
        assert_eq!(e.to_string(), "entries must be a multiple of 16, got 500");
        let e = ConfigError::NotPowerOfTwo {
            field: "sets",
            value: 3,
        };
        assert_eq!(e.to_string(), "sets must be a power of two, got 3");
    }

    #[test]
    fn sim_error_wraps_config() {
        let c = ConfigError::Zero { field: "capacity" };
        let s: SimError = c.into();
        assert_eq!(s, SimError::Config(c));
        assert_eq!(s.to_string(), c.to_string());
    }

    #[test]
    fn validators() {
        assert!(require_positive("x", 1.0).is_ok());
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_in_range("x", 0.5, 0.0, 1.0).is_ok());
        assert!(require_in_range("x", 1.5, 0.0, 1.0).is_err());
    }
}
