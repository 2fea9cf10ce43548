"""Embedded binary and ternary matroids and the class closed under direct sums and complements."""

from .errors import FormatError, ResourceLimitError, SimplicityError, UnsupportedFieldError
from .matroid import EmbeddedMatroid, embed
from .projective import (
    FlatHandle,
    PointSpace,
    gaussian_binomial,
    point_space,
)

__all__ = [
    "EmbeddedMatroid",
    "FlatHandle",
    "FormatError",
    "PointSpace",
    "ResourceLimitError",
    "SimplicityError",
    "UnsupportedFieldError",
    "embed",
    "gaussian_binomial",
    "point_space",
]
