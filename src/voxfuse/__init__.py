"""Sparse multi-resolution voxel occupancy toolkit."""

from .camera import (
    NEAR_PLANE,
    CameraModel,
    FeatureMap2D,
    project_points,
    read_kitti_calib,
    sample_array,
)
from .config import DATA_ROOT_ENV, PipelineConfig, split_seed
from .densify import DENSIFY_SCALES, densify
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
from .fusion import DeformableAttnParams, fuse, guide_queries, softmax_rows
from .grid import (
    VALID_SCALES,
    GridGeometry,
    SparseVoxelGrid,
    align_coords,
    subdivide_coords,
)
from .lidar import (
    BASE_FEATURES,
    PointCloud,
    SparseConvSpec,
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
    geo_scal,
    loss_report,
    lovasz_softmax,
    occlusion_ce,
    rie_bce,
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
    combine_volumes,
    decoder_input_set,
    label_camera,
    label_lidar,
    read_kitti_bitmask,
    read_kitti_label_volume,
    read_volume,
    write_volume,
)
from .pipeline import ForwardResult, forward, forward_scene, volume_labels
from .refine import (
    ImportanceMap,
    RefinementSets,
    estimate_importance,
    fuse_refined,
    gather_fine,
    gather_semi_fine,
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
    scene_from_dict,
)

__version__ = "0.1.0"
