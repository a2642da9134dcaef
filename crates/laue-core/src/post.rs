//! Post-processing of depth-resolved images: the steps the beamline's
//! downstream analysis applies to the reconstruction output before physics
//! interpretation — smoothing, peak finding, per-pixel depth-map
//! extraction, and depth-axis rebinning.

use crate::config::ReconstructionConfig;
use crate::output::DepthImage;

/// A detected peak in a depth profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPeak {
    /// Bin index of the maximum.
    pub bin: usize,
    /// Depth of the bin centre, µm.
    pub depth: f64,
    /// Peak height (after any smoothing).
    pub height: f64,
    /// Integrated intensity across the peak's contiguous above-threshold
    /// support.
    pub area: f64,
}

/// Gaussian-smooth a 1-D profile with the given `sigma` in bins.
/// `sigma <= 0` returns the input unchanged.
pub fn smooth_profile(profile: &[f64], sigma: f64) -> Vec<f64> {
    if sigma <= 0.0 || profile.is_empty() {
        return profile.to_vec();
    }
    let reach = (3.0 * sigma).ceil() as isize;
    let weights: Vec<f64> = (-reach..=reach)
        .map(|k| (-(k as f64).powi(2) / (2.0 * sigma * sigma)).exp())
        .collect();
    let wsum: f64 = weights.iter().sum();
    let n = profile.len() as isize;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            let mut norm = 0.0;
            for (j, w) in weights.iter().enumerate() {
                let k = i + (j as isize - reach);
                if k >= 0 && k < n {
                    acc += w * profile[k as usize];
                    norm += w;
                }
            }
            // Renormalise at the edges so constants stay constant.
            acc / if norm > 0.0 { norm } else { wsum }
        })
        .collect()
}

/// Find local maxima above `threshold` (absolute) in a profile; peaks are
/// strict maxima against the left neighbour and non-strict against the
/// right (so plateaus report their first bin). Returns peaks sorted by
/// descending height.
///
/// ```
/// use laue_core::post::find_peaks;
/// use laue_core::ReconstructionConfig;
///
/// let cfg = ReconstructionConfig::new(0.0, 60.0, 6);
/// let profile = [0.0, 8.0, 1.0, 0.0, 5.0, 0.0];
/// let peaks = find_peaks(&profile, &cfg, 0.5);
/// assert_eq!(peaks.len(), 2);
/// assert_eq!(peaks[0].depth, 15.0); // bin 1 centre, tallest first
/// ```
pub fn find_peaks(profile: &[f64], cfg: &ReconstructionConfig, threshold: f64) -> Vec<DepthPeak> {
    let n = profile.len();
    let mut peaks = Vec::new();
    for i in 0..n {
        let v = profile[i];
        if v <= threshold {
            continue;
        }
        let left_ok = i == 0 || profile[i - 1] < v;
        let right_ok = i + 1 == n || profile[i + 1] <= v;
        if !(left_ok && right_ok) {
            continue;
        }
        // Integrate the contiguous above-threshold support.
        let mut lo = i;
        while lo > 0 && profile[lo - 1] > threshold {
            lo -= 1;
        }
        let mut hi = i;
        while hi + 1 < n && profile[hi + 1] > threshold {
            hi += 1;
        }
        let area: f64 = profile[lo..=hi].iter().sum();
        peaks.push(DepthPeak {
            bin: i,
            depth: cfg.bin_center(i),
            height: v,
            area,
        });
    }
    peaks.sort_by(|a, b| b.height.total_cmp(&a.height));
    peaks
}

/// Options for [`depth_map`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthMapOptions {
    /// Gaussian smoothing applied to each profile (bins).
    pub smoothing_sigma: f64,
    /// Minimum peak height (after smoothing) to accept a depth.
    pub min_height: f64,
}

impl Default for DepthMapOptions {
    fn default() -> Self {
        DepthMapOptions {
            smoothing_sigma: 1.0,
            min_height: 0.0,
        }
    }
}

/// Extract the dominant depth of every pixel: the beamline's "depth map"
/// product. Pixels with no acceptable peak yield `None`.
pub fn depth_map(
    image: &DepthImage,
    cfg: &ReconstructionConfig,
    opts: &DepthMapOptions,
) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(image.n_rows * image.n_cols);
    for r in 0..image.n_rows {
        for c in 0..image.n_cols {
            let profile = smooth_profile(&image.depth_profile(r, c), opts.smoothing_sigma);
            let peaks = find_peaks(&profile, cfg, opts.min_height);
            out.push(peaks.first().map(|p| p.depth));
        }
    }
    out
}

/// Rebin a depth image onto a coarser (or finer) depth axis, conserving
/// intensity exactly: each old bin's content is split across the new bins
/// it overlaps, proportional to overlap. Returns the rebinned image and the
/// configuration describing its axis.
pub fn rebin(
    image: &DepthImage,
    cfg: &ReconstructionConfig,
    new_bins: usize,
) -> (DepthImage, ReconstructionConfig) {
    assert!(new_bins > 0, "need at least one output bin");
    let mut new_cfg = cfg.clone();
    new_cfg.n_depth_bins = new_bins;
    let mut out = DepthImage::zeroed(new_bins, image.n_rows, image.n_cols);
    let old_w = cfg.bin_width();
    let new_w = new_cfg.bin_width();
    for old in 0..image.n_bins {
        let lo = cfg.depth_start + old as f64 * old_w;
        let hi = lo + old_w;
        let first = (((lo - cfg.depth_start) / new_w) as usize).min(new_bins - 1);
        let last = ((((hi - cfg.depth_start) / new_w).ceil()) as usize).min(new_bins);
        for new in first..last.max(first + 1) {
            let b_lo = cfg.depth_start + new as f64 * new_w;
            let b_hi = b_lo + new_w;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            let frac = overlap / old_w;
            for r in 0..image.n_rows {
                for c in 0..image.n_cols {
                    let v = image.at(old, r, c);
                    if v != 0.0 {
                        *out.at_mut(new, r, c) += v * frac;
                    }
                }
            }
        }
    }
    (out, new_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bins: usize) -> ReconstructionConfig {
        ReconstructionConfig::new(0.0, bins as f64 * 10.0, bins)
    }

    #[test]
    fn smoothing_preserves_mass_and_constants() {
        let profile = vec![5.0; 64];
        let s = smooth_profile(&profile, 2.0);
        for v in &s {
            assert!((v - 5.0).abs() < 1e-9, "constants stay constant, got {v}");
        }
        // A spike spreads but keeps its integral (away from edges).
        let mut spike = vec![0.0; 64];
        spike[32] = 100.0;
        let s = smooth_profile(&spike, 1.5);
        let total: f64 = s.iter().sum();
        assert!((total - 100.0).abs() < 1e-6, "mass conserved, got {total}");
        assert!(s[32] < 100.0 && s[32] > s[30]);
        // sigma = 0 is the identity.
        assert_eq!(smooth_profile(&spike, 0.0), spike);
    }

    #[test]
    fn single_peak_found_with_area() {
        let c = cfg(10);
        let profile = vec![0.0, 1.0, 5.0, 9.0, 5.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let peaks = find_peaks(&profile, &c, 0.5);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 3);
        assert_eq!(peaks[0].depth, 35.0);
        assert_eq!(peaks[0].height, 9.0);
        assert_eq!(peaks[0].area, 21.0, "1+5+9+5+1");
    }

    #[test]
    fn two_peaks_sorted_by_height() {
        let c = cfg(12);
        let profile = vec![0.0, 4.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 6.0, 0.0, 0.0, 0.0];
        let peaks = find_peaks(&profile, &c, 1.0);
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].height, 9.0);
        assert_eq!(peaks[1].height, 6.0);
        assert_eq!(peaks[2].height, 4.0);
    }

    #[test]
    fn plateau_reports_once() {
        let c = cfg(8);
        let profile = vec![0.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0];
        let peaks = find_peaks(&profile, &c, 1.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 1, "first bin of the plateau");
    }

    #[test]
    fn boundary_peaks_detected() {
        let c = cfg(5);
        let profile = vec![9.0, 1.0, 0.0, 1.0, 8.0];
        let peaks = find_peaks(&profile, &c, 0.5);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].bin, 0);
        assert_eq!(peaks[1].bin, 4);
    }

    #[test]
    fn threshold_filters_peaks() {
        let c = cfg(8);
        let profile = vec![0.0, 2.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0];
        assert_eq!(find_peaks(&profile, &c, 5.0).len(), 1);
        assert_eq!(find_peaks(&profile, &c, 1.0).len(), 2);
        assert_eq!(find_peaks(&profile, &c, 10.0).len(), 0);
    }

    #[test]
    fn depth_map_extracts_dominant_depths() {
        let c = cfg(10);
        let mut img = DepthImage::zeroed(10, 2, 2);
        *img.at_mut(3, 0, 0) = 50.0;
        *img.at_mut(7, 0, 1) = 30.0;
        // pixel (1, 0) stays empty; pixel (1, 1) below min_height.
        *img.at_mut(5, 1, 1) = 0.5;
        let map = depth_map(
            &img,
            &c,
            &DepthMapOptions {
                smoothing_sigma: 0.0,
                min_height: 1.0,
            },
        );
        assert_eq!(map[0], Some(35.0));
        assert_eq!(map[1], Some(75.0));
        assert_eq!(map[2], None);
        assert_eq!(map[3], None);
    }

    #[test]
    fn rebin_conserves_intensity() {
        let cfg = ReconstructionConfig::new(0.0, 120.0, 12);
        let mut img = DepthImage::zeroed(12, 2, 2);
        *img.at_mut(3, 0, 0) = 7.0;
        *img.at_mut(4, 0, 0) = 5.0;
        *img.at_mut(11, 1, 1) = 2.0;
        for new_bins in [1usize, 3, 4, 6, 12, 24, 120] {
            let (out, new_cfg) = rebin(&img, &cfg, new_bins);
            assert_eq!(out.n_bins, new_bins);
            assert!(
                (out.total_intensity() - 14.0).abs() < 1e-9,
                "{new_bins} bins lost mass: {}",
                out.total_intensity()
            );
            assert_eq!(new_cfg.n_depth_bins, new_bins);
            // Per-pixel totals conserved too.
            let p: f64 = out.depth_profile(0, 0).iter().sum();
            assert!((p - 12.0).abs() < 1e-9);
        }
        // Integer-ratio coarsening maps old bins wholly into coarse bins:
        // old bin 3 = [30, 40) → coarse bin 1 = [20, 40); old bin 4 =
        // [40, 50) → coarse bin 2 = [40, 60).
        let (out, _) = rebin(&img, &cfg, 6);
        assert_eq!(out.at(1, 0, 0), 7.0);
        assert_eq!(out.at(2, 0, 0), 5.0);
        assert_eq!(out.at(5, 1, 1), 2.0);
    }

    #[test]
    fn rebin_to_finer_axis_splits_bins() {
        let cfg = ReconstructionConfig::new(0.0, 10.0, 1);
        let mut img = DepthImage::zeroed(1, 1, 1);
        *img.at_mut(0, 0, 0) = 8.0;
        let (out, new_cfg) = rebin(&img, &cfg, 4);
        assert_eq!(out.depth_profile(0, 0), vec![2.0, 2.0, 2.0, 2.0]);
        assert_eq!(new_cfg.bin_width(), 2.5);
    }
}
