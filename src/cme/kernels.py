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


_STEEP = 64.0  # the largest a_f whose line sums take the stored factors


class LineSums:
    """Sums of nonnegative weights h[c] at sorted points s of [0, 1] under
    the interest kernel f(d) = exp(-a d): sum_c h[c] f(|t - s_c|), at the
    points themselves (both ``sides``, less h, counted in both) or at any
    query points t (``at``).

    |t - s_c| is t - s_c for s_c <= t and s_c - t beyond, so the sum is
    exp(-a t) * sum_{s_c <= t} h exp(a s_c) plus its mirror: two cumulative
    sums, the exact one-dimensional case of fast summation (Greengard &
    Rokhlin, 1987).  Every term is nonnegative, so nothing cancels.  The
    factors exp(+-a (s - 1/2)) are stored, within exp(+-_STEEP / 2); above
    a = _STEEP they could overflow, so the two sides run the recurrence
    L[g] = f(s_g - s_{g-1}) * L[g - 1] + h[g] by doubling, every factor at
    most 1: log2(n) passes.  The doubling alone would serve every a, but it
    takes 4-5 times as long as the cumulative sums, and it made a
    fixed-budget run at N = 2000 about 1.5 times as slow (1.1 s against
    1.6 s on a 2-core host)."""

    def __init__(self, s: np.ndarray, a: float):
        self.s, self.a = s, a
        self._up = self._down = None
        if a <= _STEEP:
            self._up, self._down = np.exp(a * (s - 0.5)), np.exp(-a * (s - 0.5))

    def sides(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_{c <= g} h[j, c] f(s_g - s_c) and sum_{c >= g} h[j, c] f(s_c -
        s_g) at every point g, for each row j of h (k, n)."""
        if self._up is not None:
            left = h * self._up
            np.cumsum(left, axis=1, out=left)
            left *= self._down
            right = h * self._down
            np.cumsum(right[:, ::-1], axis=1, out=right[:, ::-1])
            right *= self._up
        else:
            s, left, right, d = self.s, h.copy(), h.copy(), 1
            while d < s.size:
                f = np.exp(-self.a * (s[d:] - s[:-d]))
                left[:, d:] += f * left[:, :-d]
                right[:, :-d] += f * right[:, d:]
                d *= 2
        return left, right

    def query(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each query point t (m,) falls among the points, s[:i] <= t
        < s[i:], and the factors that carry the sums of those two sides to
        it: exp(-+a (t - 1/2)) with the stored factors, and by doubling f of
        the distance to its two neighbouring points.  ``at`` reads them."""
        i = np.searchsorted(self.s, t, side="right")
        if self._up is not None:
            e = np.multiply(t - 0.5, self.a)
            return i, np.exp(-e), np.exp(e)
        s = np.concatenate(([-np.inf], self.s, [np.inf]))
        return i, np.exp(-self.a * (t - s[i])), np.exp(-self.a * (s[i + 1] - t))

    def at(self, h: np.ndarray, q: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """The sums of h (n,) at the query points of q (``query``), as at
        points of weight 0 in the sorted union of s and the queries: the
        two sides' sums, the cumulative sums themselves with the stored
        factors and by doubling those at the two neighbouring points, each
        times its factor.  A query's sum reads only its own point, so it is
        the same float whichever other queries are asked with it."""
        i, to_left, to_right = q
        n = self.s.size
        left, right = np.zeros(n + 1), np.zeros(n + 1)  # left[i]: s[:i]; right[i]: s[i:]
        if self._up is not None:
            np.multiply(h, self._up, out=left[1:])
            left.cumsum(out=left)
            np.multiply(h, self._down, out=right[:-1])
            right[::-1].cumsum(out=right[::-1])
        else:
            left[1:], right[:-1] = (side[0] for side in self.sides(h[None]))
        out = to_left * left[i]
        out += to_right * right[i]
        return out


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
