"""Small argument-validation helpers used across the library.

They raise ``ValueError``/``TypeError`` with messages that name the
offending argument, so call sites stay one-liners.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

Number = Union[int, float, np.integer, np.floating]


def check_positive(name: str, value: Number, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if not strict).

    Accepts numpy arrays as well as scalars: an array passes when *every*
    element does, checked in one vectorized comparison rather than a
    per-element Python loop (the error message names the worst offender).
    """
    if isinstance(value, np.ndarray):
        check_positive_array(name, value, strict=strict)
        return
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_int(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer >= ``minimum``.

    Python and numpy integers pass.  Anything else is refused rather than
    truncated, so ``2.7`` never becomes ``2``.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_positive_array(
    name: str, values: np.ndarray, strict: bool = True
) -> None:
    """:func:`check_positive` over a whole array at once."""
    arr = np.asarray(values)
    if arr.size == 0:
        return
    # A single reduction instead of N Python-level comparisons; NaN fails
    # both predicates, so non-finite garbage is rejected too.
    if strict and not bool(np.all(arr > 0)):
        raise ValueError(
            f"{name} must be > 0 elementwise, got min {arr.min()}"
        )
    if not strict and not bool(np.all(arr >= 0)):
        raise ValueError(
            f"{name} must be >= 0 elementwise, got min {arr.min()}"
        )


def check_in_range(
    name: str,
    value: Number,
    low: Number,
    high: Number,
    inclusive: Tuple[bool, bool] = (True, True),
) -> None:
    """Raise ``ValueError`` unless ``low (<|<=) value (<|<=) high``."""
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValueError(
            f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}"
        )


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity."""
    arr = np.asarray(array)
    if not np.all(np.isfinite(arr)):
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise ValueError(f"{name} contains {bad} non-finite values")


def check_shape(name: str, array: np.ndarray, shape: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``array.shape`` equals ``shape``.

    A ``-1`` entry in ``shape`` matches any extent on that axis.
    """
    arr = np.asarray(array)
    expected = tuple(shape)
    if len(arr.shape) != len(expected):
        raise ValueError(
            f"{name} must have {len(expected)} dims {expected}, "
            f"got shape {arr.shape}"
        )
    for axis, (got, want) in enumerate(zip(arr.shape, expected)):
        if want != -1 and got != want:
            raise ValueError(
                f"{name} axis {axis} must have size {want}, got shape {arr.shape}"
            )


def check_probability_vector(
    name: str, vector: np.ndarray, atol: float = 1e-6
) -> None:
    """Raise ``ValueError`` unless ``vector`` is a simplex point.

    All entries must be non-negative and sum to 1 within ``atol``.
    """
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {vec.shape}")
    check_finite(name, vec)
    if np.any(vec < -atol):
        raise ValueError(f"{name} has negative entries: min={vec.min()}")
    total = float(vec.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1 (±{atol}), got {total}")
