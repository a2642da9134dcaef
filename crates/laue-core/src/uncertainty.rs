//! Uncertainty propagation: error bars for the depth-resolved output.
//!
//! Detector counts are Poisson-distributed and **consecutive differentials
//! share an image**: `ΔI_z` and `ΔI_{z+1}` both contain `I_{z+1}`, with
//! opposite signs, so their noise is anti-correlated. Treating deposits as
//! independent would overstate the error bars by up to 2×. This module
//! therefore propagates exactly: for each pixel the output of bin `b` is a
//! linear form `Σ_z c_{b,z}·I_z` (the coefficients come from the same
//! per-pair plans the engines execute), and under independent Poisson
//! images `var = Σ_z c_{b,z}²·I_z`. The square root is the 1-σ error bar
//! of every `(bin, pixel)` value — the missing piece for judging whether a
//! depth-profile peak is signal or noise. A Monte-Carlo test in `laue-wire`
//! confirms predicted σ matches the empirical scatter.

use laue_geometry::DepthMapper;

use crate::config::ReconstructionConfig;
use crate::cpu::check_shapes;
use crate::geometry::ScanGeometry;
use crate::input::ScanView;
use crate::output::DepthImage;
use crate::pair::{plan_pair, PairPlan};
use crate::stats::ReconStats;
use crate::Result;

/// Reconstruction with propagated Poisson uncertainty.
#[derive(Debug, Clone)]
pub struct VarianceReconstruction {
    /// The depth-resolved intensities (identical to `cpu::reconstruct_seq`).
    pub image: DepthImage,
    /// Per-element variance of `image` under Poisson counting statistics.
    pub variance: DepthImage,
    /// Outcome counters.
    pub stats: ReconStats,
}

impl VarianceReconstruction {
    /// 1-σ error bar of one element.
    pub fn sigma(&self, bin: usize, row: usize, col: usize) -> f64 {
        self.variance.at(bin, row, col).max(0.0).sqrt()
    }
}

/// Sequential reconstruction with exact Poisson variance propagation.
pub fn reconstruct_with_variance(
    view: &ScanView<'_>,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
) -> Result<VarianceReconstruction> {
    cfg.validate()?;
    check_shapes(view, geom)?;
    let mapper: DepthMapper = geom.mapper()?;
    let n_bins = cfg.n_depth_bins;
    let n_images = view.n_images;
    let mut image = DepthImage::zeroed(n_bins, view.n_rows, view.n_cols);
    let mut variance = DepthImage::zeroed(n_bins, view.n_rows, view.n_cols);
    let mut stats = ReconStats::default();
    let wire_centers = geom.wire.centers();
    // Per-pixel coefficient matrix c[bin][z]: out[bin] = Σ_z c·I_z.
    let mut coeffs = vec![0.0f64; n_bins * n_images];
    // Sign of I_z in ΔI for the configured edge.
    let sign = match cfg.wire_edge {
        laue_geometry::WireEdge::Leading => 1.0,
        laue_geometry::WireEdge::Trailing => -1.0,
    };
    for r in 0..view.n_rows {
        for c in 0..view.n_cols {
            let pixel = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
            coeffs.iter_mut().for_each(|v| *v = 0.0);
            for z in 0..n_images - 1 {
                let i0 = view.at(z, r, c);
                let i1 = view.at(z + 1, r, c);
                let mut flops = 0u64;
                let plan = plan_pair(
                    &mapper,
                    cfg,
                    pixel,
                    wire_centers[z],
                    wire_centers[z + 1],
                    i0,
                    i1,
                    &mut flops,
                );
                match plan {
                    PairPlan::BelowCutoff => stats.record(crate::stats::PairOutcome::BelowCutoff),
                    PairPlan::InvalidGeometry => {
                        stats.record(crate::stats::PairOutcome::InvalidGeometry)
                    }
                    PairPlan::OutOfRange => stats.record(crate::stats::PairOutcome::OutOfRange),
                    PairPlan::Deposit(p) => {
                        let mut bins = 0usize;
                        for bin in p.first_bin..p.last_bin {
                            let amount = p.amount(bin, cfg);
                            if amount != 0.0 {
                                // amount = w·ΔI with w = overlap/band_len;
                                // ΔI = ±(I_z − I_{z+1}).
                                let w = amount / p.delta;
                                *image.at_mut(bin, r, c) += amount;
                                coeffs[bin * n_images + z] += sign * w;
                                coeffs[bin * n_images + z + 1] -= sign * w;
                                bins += 1;
                            }
                        }
                        stats.record(crate::stats::PairOutcome::Deposited { bins });
                    }
                }
            }
            // Exact variance under independent Poisson images.
            for bin in 0..n_bins {
                let mut var = 0.0;
                for z in 0..n_images {
                    let cf = coeffs[bin * n_images + z];
                    if cf != 0.0 {
                        var += cf * cf * view.at(z, r, c).max(0.0);
                    }
                }
                if var != 0.0 {
                    *variance.at_mut(bin, r, c) = var;
                }
            }
        }
    }
    Ok(VarianceReconstruction {
        image,
        variance,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;

    fn demo() -> (ScanGeometry, ReconstructionConfig) {
        let geom = ScanGeometry::demo(6, 6, 12, -50.0, 5.0).unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 150);
        (geom, cfg)
    }

    fn ramp_stack(geom: &ScanGeometry, scale: f64) -> Vec<f64> {
        let (p, m, n) = (
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        );
        (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                scale * (200.0 - 11.0 * z as f64)
            })
            .collect()
    }

    #[test]
    fn image_matches_plain_reconstruction() {
        let (geom, cfg) = demo();
        let data = ramp_stack(&geom, 1.0);
        let view = ScanView::new(&data, 12, 6, 6).unwrap();
        let plain = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        let with_var = reconstruct_with_variance(&view, &geom, &cfg).unwrap();
        assert_eq!(
            plain.image.data, with_var.image.data,
            "intensity path identical"
        );
        assert_eq!(plain.stats, with_var.stats);
    }

    #[test]
    fn variance_is_nonnegative_and_tracks_where_deposits_went() {
        let (geom, cfg) = demo();
        let data = ramp_stack(&geom, 1.0);
        let view = ScanView::new(&data, 12, 6, 6).unwrap();
        let out = reconstruct_with_variance(&view, &geom, &cfg).unwrap();
        for (i, &v) in out.variance.data.iter().enumerate() {
            assert!(v >= 0.0, "negative variance at {i}");
            // Variance only where intensity was deposited.
            if out.image.data[i] == 0.0 {
                assert_eq!(v, 0.0);
            } else {
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn variance_scales_linearly_with_counts() {
        // Poisson: scaling all counts by k scales the signal by k but the
        // variance by k too, so SNR grows like √k.
        let (geom, cfg) = demo();
        let d1 = ramp_stack(&geom, 1.0);
        let d4 = ramp_stack(&geom, 4.0);
        let v1 = ScanView::new(&d1, 12, 6, 6).unwrap();
        let v4 = ScanView::new(&d4, 12, 6, 6).unwrap();
        let o1 = reconstruct_with_variance(&v1, &geom, &cfg).unwrap();
        let o4 = reconstruct_with_variance(&v4, &geom, &cfg).unwrap();
        for i in 0..o1.variance.data.len() {
            let (a, b) = (o1.variance.data[i], o4.variance.data[i]);
            assert!(
                (b - 4.0 * a).abs() <= 1e-9 * (1.0 + b.abs()),
                "variance must scale ×4: {a} vs {b}"
            );
        }
    }
}
