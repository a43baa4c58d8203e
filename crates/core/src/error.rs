//! Error types for scaling-log construction and scaling operations.

use std::fmt;

/// Errors raised when building or extending a [`crate::ScalingLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingError {
    /// The server must start with at least one disk.
    NoInitialDisks,
    /// An addition of zero disks is meaningless.
    EmptyAddition,
    /// A removal of zero disks is meaningless.
    EmptyRemoval,
    /// A removal names a disk index `>= N_{j-1}`.
    RemovalOutOfRange {
        /// The offending logical disk index.
        disk: u32,
        /// The number of disks at the time of the operation.
        disks: u32,
    },
    /// A removal names the same disk twice.
    DuplicateRemoval {
        /// The duplicated logical disk index.
        disk: u32,
    },
    /// A removal would leave the server with zero disks.
    WouldRemoveAllDisks,
    /// Disk-count arithmetic would overflow `u32`.
    TooManyDisks,
    /// An addition would mint a physical disk id past `u32::MAX`: ids
    /// are never reused, and residency stores them in 4 bytes.
    PhysicalIdsExhausted,
}

impl fmt::Display for ScalingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalingError::NoInitialDisks => {
                write!(f, "a server needs at least one initial disk")
            }
            ScalingError::EmptyAddition => write!(f, "cannot add an empty disk group"),
            ScalingError::EmptyRemoval => write!(f, "cannot remove an empty disk group"),
            ScalingError::RemovalOutOfRange { disk, disks } => write!(
                f,
                "cannot remove disk {disk}: only {disks} disks exist at this epoch"
            ),
            ScalingError::DuplicateRemoval { disk } => {
                write!(f, "disk {disk} listed twice in removal group")
            }
            ScalingError::WouldRemoveAllDisks => {
                write!(f, "removal would leave the server with zero disks")
            }
            ScalingError::TooManyDisks => write!(f, "disk count overflows u32"),
            ScalingError::PhysicalIdsExhausted => {
                write!(f, "addition would mint a physical disk id past u32::MAX")
            }
        }
    }
}

impl std::error::Error for ScalingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_disk() {
        let err = ScalingError::RemovalOutOfRange { disk: 9, disks: 4 };
        let msg = err.to_string();
        assert!(msg.contains('9') && msg.contains('4'), "{msg}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ScalingError::EmptyAddition, ScalingError::EmptyAddition);
        assert_ne!(ScalingError::EmptyAddition, ScalingError::EmptyRemoval);
    }
}
