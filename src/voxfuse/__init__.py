"""Sparse multi-resolution voxel occupancy toolkit."""

from .camera import (
    NEAR_PLANE,
    CameraModel,
    FeatureMap2D,
    back_project,
    bilinear_sample,
    load_rig_json,
    project,
    project_points,
    read_kitti_calib,
    sample_array,
    save_rig_json,
    visible_cameras,
)
from .config import DATA_ROOT_ENV, PipelineConfig, split_seed
from .densify import (
    DENSIFY_SCALES,
    MultiScaleFeatures,
    densify,
    project_channels,
)
from .errors import (
    ConfigError,
    DuplicateVoxels,
    EmptyInput,
    InvalidFactor,
    InvalidScale,
    NoLabels,
    OutOfBounds,
    ParseError,
    ShapeError,
    VoxfuseError,
)
from .fusion import DeformableAttnParams, QuerySet, fuse, guide_queries, softmax, softmax_rows
from .grid import (
    VALID_SCALES,
    GridGeometry,
    SparseVoxelGrid,
    VoxelIndex,
    align_coords,
    align_scale,
    centers_for,
    pack_keys,
    subdivide,
    subdivide_coords,
    unpack_keys,
    voxel_center,
)
from .lidar import (
    BASE_FEATURES,
    PointCloud,
    SparseConvSpec,
    downsample,
    kernel_offsets,
    multi_scale_stack,
    read_velodyne_bin,
    sparse_conv,
    voxelize,
)
from .losses import (
    ClampWarning,
    LossReport,
    cross_entropy,
    cross_entropy_grad,
    geo_scal,
    loss_report,
    lovasz_softmax,
    occlusion_ce,
    rie_bce,
    rie_bce_grad,
    sem_scal,
)
from .metrics import MetricsReport, compute_metrics
from .occlusion import (
    BACKGROUND_ROW,
    OCC_CHANNELS,
    SEM_CHANNELS,
    OcclusionLabel,
    OcclusionVolume,
    assemble_output,
    build_volume,
    combine,
    combine_volumes,
    decoder_input_set,
    dense_from_sparse_labels,
    downsample_occlusion,
    downsample_semantics,
    label_camera,
    label_lidar,
    read_kitti_bitmask,
    read_kitti_label_volume,
    read_nuscenes_occupancy,
    read_volume,
    traverse,
    write_volume,
)
from .pipeline import ForwardResult, forward, forward_scene, scene_inputs, volume_labels
from .refine import (
    ImportanceMap,
    RefinementSets,
    estimate_importance,
    fuse_refined,
    gather_fine,
    gather_semi_fine,
    importance_from_scores,
    occupied_fraction,
    refinement_labels,
    seeded_projection,
    select_sets,
    sigmoid,
)
from .synthetic import (
    Box,
    SyntheticScene,
    default_geometry,
    first_hits,
    load_scene,
    random_scene,
    ring_rig,
    save_scene,
    scene_from_dict,
)

__version__ = "0.1.0"
