"""Embedded binary and ternary matroids and the class closed under direct sums and complements."""

from .errors import FormatError, ResourceLimitError, SimplicityError, UnsupportedFieldError
from .matroid import EmbeddedMatroid, embed
from .projective import PointSpace, point_space

__all__ = [
    "EmbeddedMatroid",
    "FormatError",
    "PointSpace",
    "ResourceLimitError",
    "SimplicityError",
    "UnsupportedFieldError",
    "embed",
    "point_space",
]
