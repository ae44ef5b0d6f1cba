//! Reference accuracy curves for well-known slimmable backbones.
//!
//! The entries are synthetic curves in the shape reported for Once-For-All
//! (Cai et al., ICLR 2020) and AutoSlim (Yu & Huang, 2019) families: a
//! concave accuracy-vs-FLOPs trade-off saturating at the full model's top-1
//! accuracy. They exist so examples and tests can exercise realistic
//! magnitudes (GFLOPs per image, ImageNet-1k top-1) without shipping model
//! weights.

use crate::fit::BreakpointSpacing;
use crate::{AccuracyError, ExponentialAccuracy, PwlAccuracy};

/// A named slimmable-model family with its accuracy/work envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelFamily {
    /// Human-readable name.
    pub name: &'static str,
    /// Work of the full (uncompressed) network per inference, in GFLOP.
    pub f_max_gflops: f64,
    /// Top-1 accuracy of the full network on ImageNet-1k.
    pub a_max: f64,
    /// Accuracy of a random guess (1 / number of classes).
    pub a_min: f64,
    /// Saturation rate of the accuracy-vs-work curve (1/GFLOP): higher means
    /// the compressed sub-networks retain accuracy longer.
    pub theta: f64,
}

impl ModelFamily {
    /// Exponential accuracy model for this family.
    pub fn exponential(&self) -> Result<ExponentialAccuracy, AccuracyError> {
        ExponentialAccuracy::new(self.theta, self.a_min, self.a_max, self.f_max_gflops)
    }

    /// `k`-segment piecewise-linear accuracy function (chord fit).
    pub fn pwl(&self, k: usize) -> Result<PwlAccuracy, AccuracyError> {
        self.exponential()?.to_pwl(k, BreakpointSpacing::Uniform)
    }
}

/// OFA ResNet-50: the family used in the paper's experiments
/// (`a_max = 0.82`, ImageNet-1k ⇒ `a_min = 1/1000`). The full OFA ResNet-50
/// teacher performs ≈ 12 GFLOPs per 224×224 image at the largest
/// width/depth/resolution setting.
pub const OFA_RESNET50: ModelFamily = ModelFamily {
    name: "ofa-resnet50",
    f_max_gflops: 12.0,
    a_max: 0.82,
    a_min: 0.001,
    theta: 0.55,
};

/// OFA MobileNetV3: > 10^19 sub-networks (the paper's motivation for
/// treating compression as continuous); ≈ 0.9 GFLOP at the largest setting.
pub const OFA_MOBILENETV3: ModelFamily = ModelFamily {
    name: "ofa-mobilenetv3",
    f_max_gflops: 0.9,
    a_max: 0.803,
    a_min: 0.001,
    theta: 7.0,
};

/// AutoSlim MNasNet: one-shot channel-number search family.
pub const AUTOSLIM_MNASNET: ModelFamily = ModelFamily {
    name: "autoslim-mnasnet",
    f_max_gflops: 0.7,
    a_max: 0.767,
    a_min: 0.001,
    theta: 9.0,
};

/// AutoSlim ResNet-50 at reduced input resolution.
pub const AUTOSLIM_RESNET50: ModelFamily = ModelFamily {
    name: "autoslim-resnet50",
    f_max_gflops: 8.2,
    a_max: 0.801,
    a_min: 0.001,
    theta: 0.8,
};

/// All built-in families.
pub const ALL_FAMILIES: [ModelFamily; 4] = [
    OFA_RESNET50,
    OFA_MOBILENETV3,
    AUTOSLIM_MNASNET,
    AUTOSLIM_RESNET50,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_produce_valid_pwl() -> Result<(), AccuracyError> {
        for fam in ALL_FAMILIES {
            let p = fam.pwl(5)?;
            assert_eq!(p.num_segments(), 5);
            assert!((p.a_max() - fam.a_max).abs() < 1e-9);
            assert!((p.a_min() - fam.a_min).abs() < 1e-9);
            assert!((p.f_max() - fam.f_max_gflops).abs() < 1e-9);
        }
        Ok(())
    }

    #[test]
    fn paper_family_matches_experimental_constants() {
        assert_eq!(OFA_RESNET50.a_max, 0.82);
        assert_eq!(OFA_RESNET50.a_min, 1.0 / 1000.0);
    }

    #[test]
    fn mobile_models_saturate_faster_than_resnet() {
        // MobileNet reaches 90% of its range with far less work than ResNet.
        let mob = OFA_MOBILENETV3.exponential().unwrap();
        let res = OFA_RESNET50.exponential().unwrap();
        let target_mob = mob.a_min() + 0.9 * (mob.a_max() - mob.a_min());
        let target_res = res.a_min() + 0.9 * (res.a_max() - res.a_min());
        assert!(mob.inverse(target_mob).unwrap() < res.inverse(target_res).unwrap());
    }
}
