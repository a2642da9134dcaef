//! `laue-pipeline` — end-to-end wire-scan reconstruction.
//!
//! Ties the substrates together the way the paper's program does: open an
//! HDF5-style scan file ([`laue_wire::ScanFile`]), pick an execution engine
//! (the original CPU program, the threaded CPU variant, or the CUDA design
//! on the simulated device), reconstruct, and report where the time went
//! (communication vs. computation — the axis the paper's §III analyses).
//!
//! ```no_run
//! use laue_pipeline::{Engine, Pipeline};
//! use laue_core::ReconstructionConfig;
//!
//! let pipeline = Pipeline::default();
//! let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 400);
//! cfg.set_plan("flat1d/inkernel/k1").unwrap(); // the paper's serial 1-D design
//! let report = pipeline
//!     .run_scan_file("scan.mh5", &cfg, Engine::GpuPipelined)
//!     .unwrap();
//! println!("{}", report.summary());
//! ```

pub mod cli;
pub mod engine;
pub mod export;
pub mod report;
pub mod run;

pub use engine::Engine;
pub use report::{ClusterReport, RecoveryAccounting, ResumeInfo, RunReport};
pub use run::{file_fingerprint, GpuFailurePolicy, Pipeline, PipelineShared};

/// Errors from the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Reconstruction failure.
    Core(laue_core::CoreError),
    /// Scan-file failure.
    Wire(laue_wire::WireError),
    /// Container failure while exporting.
    Mh5(mh5::Mh5Error),
    /// Plain I/O failure (text export).
    Io(std::io::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Core(e) => write!(f, "reconstruction error: {e}"),
            PipelineError::Wire(e) => write!(f, "scan file error: {e}"),
            PipelineError::Mh5(e) => write!(f, "container error: {e}"),
            PipelineError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Core(e) => Some(e),
            PipelineError::Wire(e) => Some(e),
            PipelineError::Mh5(e) => Some(e),
            PipelineError::Io(e) => Some(e),
        }
    }
}

impl From<laue_core::CoreError> for PipelineError {
    fn from(e: laue_core::CoreError) -> Self {
        PipelineError::Core(e)
    }
}

impl From<laue_wire::WireError> for PipelineError {
    fn from(e: laue_wire::WireError) -> Self {
        PipelineError::Wire(e)
    }
}

impl From<mh5::Mh5Error> for PipelineError {
    fn from(e: mh5::Mh5Error) -> Self {
        PipelineError::Mh5(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;
