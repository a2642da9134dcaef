//! Reconstruction parameters.

use crate::error::CoreError;
use crate::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};
use crate::Result;
use laue_geometry::WireEdge;

/// How the engines exploit differential-stack sparsity.
///
/// Every mode produces bit-identical images: the sparsity pass only removes
/// work that provably deposits nothing (sub-cutoff differentials and pairs
/// whose wire-shadow band misses the reconstruction window for an entire
/// detector row). The modes differ only in whether the prescan/compaction
/// cost is paid and when the compacted launch is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionMode {
    /// Dense traversal of the full `(row, col, pair)` domain. No prescan,
    /// no culling — the behaviour of every release before this knob.
    #[default]
    Off,
    /// Always cull wire-shadowed rows and run the metered prescan, then
    /// pick dense or compacted execution per slab by comparing the modeled
    /// cost of both launches on the target device (see
    /// `laue_core::planner`).
    Auto,
    /// Always cull, prescan, and launch over the compacted work-list,
    /// regardless of density.
    On,
}

/// How the GPU engines accumulate depth intensities into the output image.
///
/// Every strategy produces bit-identical images: per pixel the deposits
/// land in the same ascending-depth order whether they go straight to
/// device memory or stage through a per-block shared tile first. The
/// strategies differ only in modeled cost — the privatized path replaces
/// one global CAS atomic per deposit with cheap shared-memory updates plus
/// a single global add per touched `(pixel, bin)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulationMode {
    /// Per-deposit `atomicAdd(double)` CAS loop on device memory — the
    /// paper's §III-C scheme and the behaviour of every release before
    /// this knob.
    #[default]
    Atomic,
    /// Per-block privatized depth-bin tiles in shared memory, committed by
    /// one global add per touched `(pixel, bin)` cell. Slabs whose bin
    /// tile exceeds the device's shared memory fall back to the atomic
    /// path (recorded in the stats).
    Privatized,
    /// Pick per slab by comparing the modeled kernel cost of both
    /// strategies on the target device (see `laue_core::planner`); slabs
    /// whose bin tile cannot fit shared memory always run atomic.
    Auto,
}

/// End-to-end data-integrity policy for a run (see `laue_core::integrity`).
///
/// Silent corruption — a flipped bit in a DMA payload, a wrong sum from a
/// "successful" kernel, a hung launch — carries no error code, so the only
/// defence is redundant checking. The modes trade verification cost for
/// coverage; every mode still produces bit-identical images on a healthy
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No integrity checking (the behaviour of every release before this
    /// knob). Silent corruption propagates to the output undetected.
    #[default]
    Off,
    /// Detect: checksummed transfers (CRC64 before/after the wire),
    /// ABFT-style per-slab depth-sum verification against a redundant host
    /// computation, and a per-launch watchdog deadline. A detected
    /// corruption aborts the run with a detected-corruption error rather
    /// than exporting bad data.
    Verify,
    /// Detect and repair: everything `verify` does, plus quarantine of the
    /// failed slab, bounded re-execution with exponential backoff, and a
    /// host-side repair path if the device keeps corrupting. The run
    /// completes bit-identical to a fault-free run, flagged
    /// `INTEGRITY-DEGRADED` when anything had to be corrected.
    Scrub,
}

impl IntegrityMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Verify => "verify",
            IntegrityMode::Scrub => "scrub",
        }
    }

    /// Parse a CLI spelling (`off`, `verify`, `scrub`).
    pub fn parse(s: &str) -> Option<IntegrityMode> {
        match s {
            "off" => Some(IntegrityMode::Off),
            "verify" => Some(IntegrityMode::Verify),
            "scrub" => Some(IntegrityMode::Scrub),
            _ => None,
        }
    }

    /// Whether any integrity checking runs at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, IntegrityMode::Off)
    }

    /// Whether a detected corruption is repaired in place (re-execute /
    /// host fallback) instead of aborting the run.
    #[inline]
    pub fn repairs(self) -> bool {
        matches!(self, IntegrityMode::Scrub)
    }
}

/// One run-level GPU schedule: the paper's design points as coordinates
/// of a single plan — data layout (Fig 4), where triangulation happens
/// (in-kernel or host-shipped `edge`/`gpuPointArray` tables), and the ring
/// depth of the transfer/compute pipeline.
///
/// Its label uses the planner's grammar `LAYOUT/TRI/kN[/rN]`, e.g.
/// `flat1d/inkernel/k3` or `ptr3d/tables/k1/r16`. The optional `/rN`
/// segment is not part of the pin: it is the run's
/// [`ReconstructionConfig::rows_per_slab`], the only place slab rows live.
/// The default pin is the `gpu-pipe` schedule, `flat1d/inkernel/k3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanPin {
    /// Device data layout.
    pub layout: Layout,
    /// Where the edge-depth triangulation happens.
    pub triangulation: Triangulation,
    /// Ring depth requested of the pipeline (memory pressure may shallow
    /// it; the run report carries the depth that ran).
    pub depth: PipelineDepth,
}

impl PlanPin {
    /// Kernel options of this schedule.
    pub fn options(self) -> GpuOptions {
        GpuOptions {
            layout: self.layout,
            triangulation: self.triangulation,
        }
    }

    /// The `LAYOUT/TRI/kN[/rN]` label of this pin with `rows_per_slab`.
    pub fn label(self, rows_per_slab: Option<usize>) -> String {
        let (layout, tri, k) = (
            self.layout.label(),
            self.triangulation.label(),
            self.depth.0,
        );
        let rows = rows_per_slab.map_or(String::new(), |r| format!("/r{r}"));
        format!("{layout}/{tri}/k{k}{rows}")
    }

    /// Parse a `LAYOUT/TRI/kN[/rN]` label into the pin and its slab rows.
    pub fn parse(s: &str) -> Result<(PlanPin, Option<usize>)> {
        let bad = || {
            CoreError::InvalidConfig(format!(
                "bad --plan {s:?}: want auto or LAYOUT/TRI/kN[/rN] with LAYOUT \
                 flat1d|ptr3d, TRI inkernel|tables and N >= 1, e.g. flat1d/inkernel/k3"
            ))
        };
        let count = |seg: &str, prefix: char| -> Result<usize> {
            seg.strip_prefix(prefix)
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or_else(bad)
        };
        let parts: Vec<&str> = s.split('/').collect();
        let (layout, tri, depth, rows) = match parts.as_slice() {
            [l, t, k] => (l, t, k, None),
            [l, t, k, r] => (l, t, k, Some(r)),
            _ => return Err(bad()),
        };
        let pin = PlanPin {
            layout: Layout::ALL
                .into_iter()
                .find(|l| l.label() == *layout)
                .ok_or_else(bad)?,
            triangulation: Triangulation::ALL
                .into_iter()
                .find(|t| t.label() == *tri)
                .ok_or_else(bad)?,
            depth: PipelineDepth(count(depth, 'k')?),
        };
        let rows = rows.map(|r| count(r, 'r')).transpose()?;
        Ok((pin, rows))
    }
}

/// How the run-level GPU schedule is chosen.
///
/// Every plan produces bit-identical images — layout, triangulation, ring
/// depth, slab rows, compaction, and accumulation are all correctness-free
/// choices — so the planner only moves modeled cost around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Enumerate candidate execution plans (layout × table placement ×
    /// pipeline depth × slab rows, with compaction and accumulation both
    /// resolved per slab by the same cost model), predict each candidate's
    /// virtual cost with the calibrated cuda-sim model, and run the
    /// argmin. The chosen plan and its predicted cost are reported in the
    /// run's explain block.
    Auto,
    /// Run this schedule as given, with the configured compaction and
    /// accumulation modes. The default pin is the `gpu-pipe` schedule,
    /// `flat1d/inkernel/k3`.
    Pin(PlanPin),
}

impl Default for PlanMode {
    fn default() -> Self {
        PlanMode::Pin(PlanPin::default())
    }
}

impl PlanMode {
    /// Parse a `--plan` spelling: `auto`, or a pin `LAYOUT/TRI/kN[/rN]`
    /// together with its optional slab rows.
    pub fn parse(s: &str) -> Result<(PlanMode, Option<usize>)> {
        if s == "auto" {
            return Ok((PlanMode::Auto, None));
        }
        let (pin, rows) = PlanPin::parse(s)?;
        Ok((PlanMode::Pin(pin), rows))
    }
}

impl AccumulationMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            AccumulationMode::Atomic => "atomic",
            AccumulationMode::Privatized => "privatized",
            AccumulationMode::Auto => "auto",
        }
    }

    /// Parse a CLI spelling (`atomic`, `privatized`, `auto`).
    pub fn parse(s: &str) -> Option<AccumulationMode> {
        match s {
            "atomic" => Some(AccumulationMode::Atomic),
            "privatized" => Some(AccumulationMode::Privatized),
            "auto" => Some(AccumulationMode::Auto),
            _ => None,
        }
    }

    /// Whether this mode ever privatizes (i.e. the engine should consider
    /// the shared-memory tile at all).
    #[inline]
    pub fn wants_privatized(self) -> bool {
        !matches!(self, AccumulationMode::Atomic)
    }
}

impl CompactionMode {
    /// Stable lower-case label used by the CLI and the run journal.
    pub fn label(self) -> &'static str {
        match self {
            CompactionMode::Off => "off",
            CompactionMode::Auto => "auto",
            CompactionMode::On => "on",
        }
    }

    /// Parse a CLI spelling (`off`, `auto`, `on`).
    pub fn parse(s: &str) -> Option<CompactionMode> {
        match s {
            "off" => Some(CompactionMode::Off),
            "auto" => Some(CompactionMode::Auto),
            "on" => Some(CompactionMode::On),
            _ => None,
        }
    }

    /// Whether this mode runs the sparsity pass at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, CompactionMode::Off)
    }
}

/// Default watchdog deadline multiplier: generous enough that cost-model
/// prediction error (< 15 % per the planner's validation sweep) never trips
/// it, tight enough that an injected multi-× stall always does.
pub const DEFAULT_WATCHDOG_MULTIPLIER: f64 = 4.0;

/// Parameters of a depth reconstruction run.
///
/// ```
/// use laue_core::ReconstructionConfig;
///
/// let mut cfg = ReconstructionConfig::new(-100.0, 100.0, 50);
/// cfg.intensity_cutoff = 2.5; // the paper's d_cutoff
/// cfg.validate().unwrap();
/// assert_eq!(cfg.bin_width(), 4.0);
/// assert_eq!(cfg.bin_center(0), -98.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionConfig {
    /// First reconstructed depth, µm (depths below are discarded).
    pub depth_start: f64,
    /// One-past-last reconstructed depth, µm.
    pub depth_end: f64,
    /// Number of depth bins between `depth_start` and `depth_end`.
    pub n_depth_bins: usize,
    /// Differential intensities with `|ΔI|` below this are skipped — the
    /// paper's `d_cutoff`; raising it lowers the "pixel percentage" of
    /// Fig 9.
    pub intensity_cutoff: f64,
    /// Which wire edge the reconstruction follows.
    pub wire_edge: WireEdge,
    /// Detector rows shipped to the device per slab (the paper's Fig 2
    /// passes 2 of 6 rows at a time). `None` lets the GPU engine pick the
    /// largest slab that fits device memory.
    pub rows_per_slab: Option<usize>,
    /// Sparsity strategy: wire-shadow row culling plus active-pair
    /// compaction. Defaults to [`CompactionMode::Off`] (dense traversal).
    pub compaction: CompactionMode,
    /// Depth-intensity accumulation strategy on the GPU engines. Defaults
    /// to [`AccumulationMode::Atomic`] (the paper-faithful CAS loop); CPU
    /// engines ignore it.
    pub accumulation: AccumulationMode,
    /// The run-level GPU schedule: a pinned [`PlanPin`] (the default is
    /// the `gpu-pipe` schedule) or [`PlanMode::Auto`], chosen by the
    /// cost-model planner. Set both it and slab rows from a `--plan`
    /// spelling with [`ReconstructionConfig::set_plan`].
    pub plan: PlanMode,
    /// End-to-end data-integrity policy (checksummed transfers, ABFT
    /// depth-sum verification, launch watchdog, scrub/re-execute).
    /// Defaults to [`IntegrityMode::Off`].
    pub integrity: IntegrityMode,
    /// Watchdog deadline per kernel launch, as a multiple of the cost
    /// model's predicted kernel time: a launch observed to take longer
    /// than `watchdog_multiplier ×` the prediction is treated as hung
    /// (only with [`IntegrityMode`] ≠ `Off`).
    pub watchdog_multiplier: f64,
}

impl ReconstructionConfig {
    /// A reasonable default over a given depth window.
    pub fn new(depth_start: f64, depth_end: f64, n_depth_bins: usize) -> ReconstructionConfig {
        ReconstructionConfig {
            depth_start,
            depth_end,
            n_depth_bins,
            intensity_cutoff: 0.0,
            wire_edge: WireEdge::Leading,
            rows_per_slab: None,
            compaction: CompactionMode::default(),
            accumulation: AccumulationMode::default(),
            plan: PlanMode::default(),
            integrity: IntegrityMode::default(),
            watchdog_multiplier: DEFAULT_WATCHDOG_MULTIPLIER,
        }
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if !self.depth_start.is_finite() || !self.depth_end.is_finite() {
            return Err(CoreError::InvalidConfig(
                "depth range must be finite".into(),
            ));
        }
        if self.depth_end <= self.depth_start {
            return Err(CoreError::InvalidConfig(format!(
                "depth_end {} must exceed depth_start {}",
                self.depth_end, self.depth_start
            )));
        }
        if self.n_depth_bins == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one depth bin".into(),
            ));
        }
        if self.intensity_cutoff < 0.0 || !self.intensity_cutoff.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "intensity cutoff {} must be ≥ 0 and finite",
                self.intensity_cutoff
            )));
        }
        if self.rows_per_slab == Some(0) {
            return Err(CoreError::InvalidConfig("rows_per_slab must be ≥ 1".into()));
        }
        if matches!(self.plan, PlanMode::Pin(pin) if pin.depth.0 == 0) {
            return Err(CoreError::InvalidConfig("ring depth must be ≥ 1".into()));
        }
        if !self.watchdog_multiplier.is_finite() || self.watchdog_multiplier <= 1.0 {
            return Err(CoreError::InvalidConfig(format!(
                "watchdog multiplier {} must be finite and > 1",
                self.watchdog_multiplier
            )));
        }
        Ok(())
    }

    /// Apply a `--plan` spelling: `auto`, or a pin `LAYOUT/TRI/kN[/rN]`
    /// whose optional `/rN` sets [`ReconstructionConfig::rows_per_slab`]
    /// (without it, slab rows stay as configured).
    pub fn set_plan(&mut self, s: &str) -> Result<()> {
        let (plan, rows) = PlanMode::parse(s)?;
        self.plan = plan;
        if rows.is_some() {
            self.rows_per_slab = rows;
        }
        Ok(())
    }

    /// The configuration a GPU run executes: a pin runs as given; under
    /// [`PlanMode::Auto`] the planner owns every knob, so compaction and
    /// accumulation both resolve per slab by cost — and it prices exactly
    /// this configuration.
    pub fn executed(&self) -> ReconstructionConfig {
        let mut cfg = self.clone();
        if cfg.plan == PlanMode::Auto {
            cfg.compaction = CompactionMode::Auto;
            cfg.accumulation = AccumulationMode::Auto;
        }
        cfg
    }

    /// Width of one depth bin, µm.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        (self.depth_end - self.depth_start) / self.n_depth_bins as f64
    }

    /// Centre depth of bin `k`, µm.
    #[inline]
    pub fn bin_center(&self, k: usize) -> f64 {
        self.depth_start + (k as f64 + 0.5) * self.bin_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        c.validate().unwrap();
        assert_eq!(c.bin_width(), 4.0);
        assert_eq!(c.bin_center(0), -98.0);
        assert_eq!(c.bin_center(49), 98.0);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let base = ReconstructionConfig::new(0.0, 100.0, 10);
        let mut c = base.clone();
        c.depth_end = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.depth_start = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.n_depth_bins = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.intensity_cutoff = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.rows_per_slab = Some(0);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.plan = PlanMode::Pin(PlanPin {
            depth: PipelineDepth(0),
            ..PlanPin::default()
        });
        assert!(c.validate().is_err());
        c.set_plan("flat1d/inkernel/k3").unwrap();
        assert!(c.validate().is_ok());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn compaction_mode_round_trips_and_defaults_off() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.compaction, CompactionMode::Off);
        assert!(!c.compaction.enabled());
        for m in [
            CompactionMode::Off,
            CompactionMode::Auto,
            CompactionMode::On,
        ] {
            assert_eq!(CompactionMode::parse(m.label()), Some(m));
        }
        assert_eq!(CompactionMode::parse("dense"), None);
        assert!(CompactionMode::Auto.enabled() && CompactionMode::On.enabled());
    }

    #[test]
    fn accumulation_mode_round_trips_and_defaults_atomic() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.accumulation, AccumulationMode::Atomic);
        assert!(!c.accumulation.wants_privatized());
        for m in [
            AccumulationMode::Atomic,
            AccumulationMode::Privatized,
            AccumulationMode::Auto,
        ] {
            assert_eq!(AccumulationMode::parse(m.label()), Some(m));
        }
        assert_eq!(AccumulationMode::parse("shared"), None);
        assert!(AccumulationMode::Privatized.wants_privatized());
        assert!(AccumulationMode::Auto.wants_privatized());
    }

    #[test]
    fn integrity_mode_round_trips_and_defaults_off() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.integrity, IntegrityMode::Off);
        assert!(!c.integrity.enabled());
        assert_eq!(c.watchdog_multiplier, DEFAULT_WATCHDOG_MULTIPLIER);
        for m in [
            IntegrityMode::Off,
            IntegrityMode::Verify,
            IntegrityMode::Scrub,
        ] {
            assert_eq!(IntegrityMode::parse(m.label()), Some(m));
        }
        assert_eq!(IntegrityMode::parse("abft"), None);
        assert!(IntegrityMode::Verify.enabled() && !IntegrityMode::Verify.repairs());
        assert!(IntegrityMode::Scrub.enabled() && IntegrityMode::Scrub.repairs());
    }

    #[test]
    fn watchdog_multiplier_is_validated() {
        let mut c = ReconstructionConfig::new(-100.0, 100.0, 50);
        c.watchdog_multiplier = 1.0;
        assert!(c.validate().is_err());
        c.watchdog_multiplier = f64::INFINITY;
        assert!(c.validate().is_err());
        c.watchdog_multiplier = 2.5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn plan_defaults_to_the_gpu_pipe_pin() {
        let c = ReconstructionConfig::new(-100.0, 100.0, 50);
        assert_eq!(c.plan, PlanMode::Pin(PlanPin::default()));
        assert_eq!(PlanPin::default().label(None), "flat1d/inkernel/k3");
    }

    #[test]
    fn set_plan_sets_the_pin_and_its_slab_rows() {
        let mut c = ReconstructionConfig::new(-100.0, 100.0, 50);
        c.set_plan("ptr3d/tables/k1/r4").unwrap();
        let expected = PlanPin {
            layout: Layout::Pointer3d,
            triangulation: Triangulation::HostTables,
            depth: PipelineDepth(1),
        };
        assert_eq!(c.plan, PlanMode::Pin(expected));
        assert_eq!(c.rows_per_slab, Some(4));
        // Without `/rN` the configured slab rows stay.
        c.set_plan("auto").unwrap();
        assert_eq!((c.plan, c.rows_per_slab), (PlanMode::Auto, Some(4)));
        c.rows_per_slab = None;
        c.set_plan("flat1d/inkernel/k2").unwrap();
        assert_eq!(c.rows_per_slab, None);
    }

    #[test]
    fn malformed_pins_are_rejected_naming_the_flag() {
        for bad in [
            "flat1d/inkernel",
            "k0",
            "flat1d/inkernel/k0",
            "flat1d/inkernel/k2/r0",
            "r0",
            "ptr2d/inkernel/k1",
            "flat1d/gpuPointArray/k1",
            "flat1d/inkernel/3",
            "flat1d/inkernel/k1/r4/x",
            "fixed",
            "",
        ] {
            let err = PlanPin::parse(bad).unwrap_err().to_string();
            assert!(err.contains("--plan"), "{bad:?}: {err}");
            let mut c = ReconstructionConfig::new(-100.0, 100.0, 50);
            assert!(c.set_plan(bad).is_err(), "{bad:?}");
        }
    }
}
