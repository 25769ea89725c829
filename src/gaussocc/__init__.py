"""Sparse 3D semantic occupancy with probabilistic Gaussian superposition.

A scene is a small set of anisotropic semantic Gaussians. Geometry at a
point is the complement-product aggregate of per-Gaussian occupancy
probabilities, semantics are the mixture-posterior expectation of softmax
class distributions, and the two compose into a normalized prediction
with the empty class first. The package evaluates and voxelizes such
fields, fits them to labeled grids with analytic gradients, and audits
Gaussian utilization (position correctness, nearest-occupied distance,
overall and pairwise overlap).
"""

from .core import (
    MIN_SCALE,
    CovarianceDecomposition,
    GaussianPrimitive,
    GaussianSet,
    GridSpec,
    build_covariance,
    mahalanobis_sq,
    quat_to_rotation,
)
from .field import (
    EvalOptions,
    FieldEvaluator,
    FieldSample,
    aggregate_geometry,
    compose_occupancy,
    gmm_semantics,
    legacy_additive,
    sample_field,
    single_occupancy_prob,
)
from .fit import (
    FitConfig,
    FitResult,
    ParamVector,
    fit,
    fit_grad,
    fit_loss,
    fps_init,
    init_from_grid,
    random_init,
)
from .grid import (
    VoxelGrid,
    kitti360_grid_spec,
    load_grid,
    nuscenes_grid_spec,
    save_grid,
    voxel_center,
    voxelize,
    voxelize_legacy,
)
from .metrics import (
    CHI2_3DOF_90,
    ConfusionMatrix,
    UtilizationReport,
    bhattacharyya_coef,
    ellipsoid_volume_90,
    indiv_overlap,
    iou,
    mc_coverage_volume,
    mean_nearest_dist,
    miou,
    overall_overlap,
    perc_correct,
    utilization_report,
)
from .rays import (
    CameraModel,
    RaySampling,
    bce_init_loss,
    camera_rays,
    occupancy_labels,
    pixel_ray,
    ray_reference_points,
)
from .scenes import RECIPES, default_grid_spec, synth_scene

__version__ = "0.1.0"
