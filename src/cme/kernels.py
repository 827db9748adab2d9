"""Topic space, matching kernels, and the delay discount.

Community members and the content they produce live in the unit box
[0, 1]^dim (dim is 1 or 2) under the Euclidean metric, and
``pairwise_distances`` measures it.  Two exponential-of-distance kernels
turn distance into probabilities: f(d) = exp(-a_f * d) is the chance a
consumer with main interest y likes content on topic x at d = d(x, y),
g(d) = exp(-a_g * d) is the chance a producer with main interest z makes
good content on topic x at d = d(x, z), and their product is the chance a
piece of z's content on topic x both is good and lands with consumer y
(``cme.market.match_matrix``).

Attention paid at rate mu is discounted by delta(mu) = 1 - exp(-beta*mu),
the probability that content is consumed before it goes stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates a structural precondition (dimension, sign, range)."""


@dataclass(frozen=True)
class TopicPoint:
    """A point of the topic space, coordinates in [0, 1]."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if len(coords) == 0:
            raise InvalidInputError("topic point needs at least one coordinate")
        for c in coords:
            if not (0.0 <= c <= 1.0) or not math.isfinite(c):
                raise InvalidInputError(
                    f"topic coordinate {c!r} outside the unit box [0, 1]"
                )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class KernelParams:
    """Decay rates of the interest (a_f) and production-quality (a_g) kernels."""

    a_f: float = 2.0
    a_g: float = 2.0

    def __post_init__(self):
        if not (self.a_f > 0.0 and math.isfinite(self.a_f)):
            raise InvalidInputError(f"a_f must be positive and finite, got {self.a_f}")
        if not (self.a_g > 0.0 and math.isfinite(self.a_g)):
            raise InvalidInputError(f"a_g must be positive and finite, got {self.a_g}")


@dataclass(frozen=True)
class DelayParams:
    """Decay rate beta of the delay discount delta(mu) = 1 - exp(-beta*mu)."""

    beta: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise InvalidInputError(f"beta must be positive and finite, got {self.beta}")


def require_finite_nonnegative(x: np.ndarray, what: str) -> None:
    """Raise InvalidInputError unless every entry of x is finite and
    nonnegative, in one min and one max pass.  A NaN anywhere makes the
    min NaN, so it fails the comparison; an empty x passes."""
    if x.size and not (x.min() >= 0.0 and math.isfinite(x.max())):
        raise InvalidInputError(f"{what} must be finite and nonnegative")


def discount(mu, p: DelayParams):
    """Delay discount delta(mu) = 1 - exp(-beta*mu) for rates mu >= 0.

    Accepts scalars or arrays; uses expm1 so values stay accurate near 0.
    """
    m = np.asarray(mu, dtype=float)
    require_finite_nonnegative(m, "attention rates")
    out = np.multiply(m, -p.beta, out=np.empty_like(m))  # the one buffer
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return float(out) if out.ndim == 0 else out


def discount_deriv(mu, p: DelayParams):
    """Derivative delta'(mu) = beta * exp(-beta*mu), scalar or array."""
    m = np.asarray(mu, dtype=float)
    require_finite_nonnegative(m, "attention rates")
    out = p.beta * np.exp(-p.beta * m)
    return float(out) if out.ndim == 0 else out


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two (n, dim) stacks of points.

    In dim 1 it is |a[i] - b[j]|.  Otherwise it is
    sqrt(sum_k (a[i, k] - b[j, k])**2) with the squares added in
    coordinate order into one (n, m) buffer, so no (n, m, dim) difference
    table is built; in dim 2 that equals the ``einsum`` reduction of the
    difference table bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"expected (n, dim) point stacks of equal dim, got {a.shape} and {b.shape}"
        )
    if a.shape[1] == 1:
        # == sqrt(d*d) bit for bit, except where d*d underflows and exp(-a*d) is 1.0
        d = a - b.T
        return np.abs(d, out=d)
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        d = np.subtract.outer(a[:, k], b[:, k])
        out += np.multiply(d, d, out=d)
    return np.sqrt(out, out=out)
