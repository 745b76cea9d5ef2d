"""Exception types shared across the toolkit."""


class VoxfuseError(Exception):
    """Base class for all toolkit errors."""


class InvalidScale(VoxfuseError):
    """Scale pair not related by an integer factor, or scale out of range."""


class InvalidFactor(VoxfuseError):
    """Subdivision factor other than 2 or 4."""


class OutOfBounds(VoxfuseError):
    """Voxel index outside the grid extent at its scale."""


class DuplicateVoxels(VoxfuseError):
    """Same coordinate inserted twice into a sparse grid."""


class EmptyInput(VoxfuseError):
    """Operation requires at least one point / voxel."""


class ShapeError(VoxfuseError):
    """Channel width, dimension or scale mismatch between operands."""


class NoLabels(VoxfuseError):
    """No labeled voxels to score."""


class ParseError(VoxfuseError):
    """Malformed or truncated on-disk data."""


class ConfigError(VoxfuseError):
    """Invalid pipeline configuration."""
