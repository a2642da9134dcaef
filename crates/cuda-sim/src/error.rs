//! Error type for the device simulator.

use std::fmt;

/// Direction of a host↔device [`crate::Device::transfer`]; also labels
/// transfer faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host memory → device memory ([`crate::Part::Up`]).
    HostToDevice,
    /// Device memory → host memory ([`crate::Part::Down`]).
    DeviceToHost,
}

impl fmt::Display for TransferDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferDir::HostToDevice => write!(f, "h2d"),
            TransferDir::DeviceToHost => write!(f, "d2h"),
        }
    }
}

/// Everything that can go wrong talking to the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The modeled device memory is exhausted (or too fragmented).
    OutOfMemory {
        requested: u64,
        largest_free: u64,
        free_total: u64,
        capacity: u64,
    },
    /// Launch configuration exceeds the device limits.
    InvalidLaunch(String),
    /// Host buffer length does not match the device buffer in a copy.
    CopyLengthMismatch { device_len: usize, host_len: usize },
    /// A buffer from a different device was used.
    ForeignBuffer,
    /// Zero-sized allocation or other invalid request.
    InvalidRequest(String),
    /// A host↔device copy failed transiently (injected fault); the copy may
    /// be retried and the `index`th transfer in that direction is the one
    /// that failed.
    TransferFault { dir: TransferDir, index: u64 },
    /// A checksummed copy landed with a payload that fails CRC verification
    /// (silent corruption, *detected*). `index` is the device's transfer
    /// count at detection. Retryable: a retry re-sends the payload.
    CorruptTransfer { dir: TransferDir, index: u64 },
    /// The device stopped responding (injected hard failure); every further
    /// operation on it fails with this error.
    DeviceLost,
}

impl SimError {
    /// Is this error worth retrying on the same device? Transient transfer
    /// faults and detected-corrupt checksummed copies qualify —
    /// out-of-memory wants a smaller plan, and a lost device wants a
    /// different device (or the CPU).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::TransferFault { .. } | SimError::CorruptTransfer { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { requested, largest_free, free_total, capacity } => write!(
                f,
                "device out of memory: requested {requested} B, largest free block {largest_free} B \
                 ({free_total} B free of {capacity} B)"
            ),
            SimError::InvalidLaunch(what) => write!(f, "invalid launch: {what}"),
            SimError::CopyLengthMismatch { device_len, host_len } => write!(
                f,
                "copy length mismatch: device buffer holds {device_len} elements, host side {host_len}"
            ),
            SimError::ForeignBuffer => write!(f, "buffer belongs to a different device"),
            SimError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
            SimError::TransferFault { dir, index } => {
                write!(f, "transient transfer fault on {dir} copy #{index}")
            }
            SimError::CorruptTransfer { dir, index } => {
                write!(f, "corrupted payload detected on {dir} copy (transfer #{index})")
            }
            SimError::DeviceLost => write!(f, "device lost: it no longer responds"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SimError::OutOfMemory {
            requested: 100,
            largest_free: 10,
            free_total: 30,
            capacity: 640,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("640"));
        assert!(SimError::ForeignBuffer
            .to_string()
            .contains("different device"));
        let t = SimError::TransferFault {
            dir: TransferDir::HostToDevice,
            index: 3,
        };
        assert!(t.to_string().contains("h2d") && t.to_string().contains("#3"));
        assert!(SimError::DeviceLost.to_string().contains("lost"));
    }

    #[test]
    fn only_transfer_faults_are_transient() {
        assert!(SimError::TransferFault {
            dir: TransferDir::DeviceToHost,
            index: 1
        }
        .is_transient());
        assert!(!SimError::DeviceLost.is_transient());
        assert!(!SimError::OutOfMemory {
            requested: 1,
            largest_free: 0,
            free_total: 0,
            capacity: 0
        }
        .is_transient());
        assert!(!SimError::ForeignBuffer.is_transient());
    }
}
