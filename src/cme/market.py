"""Market state: who produces what, who listens at which rate, and the payoffs.

A community of N members sits in the topic space; each member is both a
producer (it picks one content topic X[z]) and a consumer (it splits an
attention budget M over channels).  A consumer y's channels are: an
outside source of fixed quality B_0 at rate lam[y], the influencer at
rate mu_i[y], and each other producer z directly at rate direct[y, z].
The influencer splits its own budget M_infl over the producers, at rate
mu_infl[z] on producer z, and relays their content to its followers.
``MarketAllocation`` holds these arrays.  In a large community most
consumers hold no direct rate at all, so ``direct`` is a ``DirectRates``:
compressed sparse rows of the positive rates only, never an (N, N) table
(``toarray()`` builds one on request).

Consumer utility adds three terms: content relayed by the influencer
(discounted twice -- once for the influencer's production rate on z,
once for the consumer's rate on the influencer), content consumed
directly, and the outside source:

    U_c(y) = r_p * sum_{z != y} B[z, y] * delta(mu_infl[z]) * delta(mu_i[y])
           + r_p * sum_{z != y} B[z, y] * delta(direct[y, z])
           + r_0 * B_0 * delta(lam[y])

with B[z, y] = g(d(X[z], z)) * f(d(X[z], y)), the ``match_matrix``.  The
two peer terms share the ``support_weights``
W[y, z] = delta(mu_i[y]) * delta(mu_infl[z]) + delta(direct[y, z]), zero
at z = y, so

    U_c(y) = r_p * sum_{z != y} B[z, y] * W[y, z] + r_0 * B_0 * delta(lam[y]).

W is a rank-one matrix u v^T (u = delta(mu_i), v = delta(mu_infl)) plus
delta(direct), which is zero on the row of every consumer holding no
direct rate.  ``PeerWeights`` keeps exactly that: u, v and delta(direct)
as a ``DirectRates`` on the state's own rows and producers, never a
table.  A product with W is a product with u or v, minus the self term at
z = y, plus one ``np.bincount`` over the stored rates, which reads the
other factor at those entries only.  Where the self term is most of a
sum, ``less_own`` sums that entry again without it, so no entry is left
as rounding noise.  The same structure with v = 1 and no stored rate is
the imperfect producers' weights, delta(mu_i[y]) for every producer
z != y.  ``consumer_utilities`` and the perfect/proxy producers read one
``support_weights`` per state: a producer's objective at topic x is its
column of W weighted by the match of x.

The engine, the payoffs and the one-agent calls read B only through a
``Match``: the two match reductions (each consumer's influencer-relayed
match ``relayed``, each producer's follower-weighted match mass
``followed``), the producers' and consumers' values under W, B at the
stored direct rates and a few consumers' columns for the consumer block
and the certificate.  Only this module builds B's entries, and a run's
round alone moves its match.  ``match_of`` picks one of two
implementations.  ``DenseMatch`` holds the (N, N) table, in dim 2 and
for small dim-1 markets, and sums over it with numpy's own
single-threaded ``einsum`` contraction, never ``B @ d``
(``sums_less_own``).  ``LineMatch`` holds none: in dim 1 each sum is two
cumulative sums along the sorted line (``kernels.LineSums``), and its
entries and columns are built from the topics with ``match_matrix``'s own
formula.  Only the dim-2 producer scan's small tile products
(``bestresponse``) use BLAS, where they are 2-3 times faster; the dim-1
scan makes no matrix product.

The social welfare sum_y U_c(y) is an exact potential for unilateral
deviations (Monderer & Shapley, *Potential Games*, 1996): whichever single
agent (consumer, producer, or influencer) changes its strategy, the
welfare moves by exactly that agent's own objective change.  That identity
is what the equilibrium search and the certificates lean on, and it is
pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    LineSums,
    TopicPoint,
    discount,
    pairwise_distances,
    require_count,
    require_finite_nonnegative,
)

# Absolute slack allowed on every budget constraint check.
BUDGET_TOL = 1e-9

_CHUNK = 64


def chunks(k: int) -> list[slice]:
    """Chunks of _CHUNK of k producers, consumers or rows: a producer
    chunk's (c, N) evaluation tables, a consumer chunk's (c, N + 2) weights
    and a chunk of dense rows stay small."""
    return [slice(s, min(s + _CHUNK, k)) for s in range(0, k, _CHUNK)]


@dataclass(frozen=True)
class MarketConfig:
    """Immutable description of one market instance."""

    dim: int
    interests: tuple[TopicPoint, ...]
    m: float                      # per-member attention budget
    m_infl: float                 # influencer attention budget
    r_p: float                    # value of peer-produced content
    r_0: float                    # value of the outside source
    b_0: float                    # outside source match quality, in (0, 1]
    kernel: KernelParams = field(default_factory=KernelParams)
    delay: DelayParams = field(default_factory=DelayParams)
    seed: int = 0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {self.dim}")
        interests = tuple(self.interests)
        if len(interests) < 2:
            raise InvalidInputError("a market needs at least two members")
        for p in interests:
            if p.dim != self.dim:
                raise InvalidInputError(
                    f"interest {p.coords} has dimension {p.dim}, expected {self.dim}")
        for name in ("m", "m_infl", "r_p", "r_0"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise InvalidInputError(f"{name} must be positive, got {v}")
        if not (0.0 < self.b_0 <= 1.0):
            raise InvalidInputError(f"b_0 must lie in (0, 1], got {self.b_0}")
        require_count(self.seed, "seed", 0)
        object.__setattr__(self, "interests", interests)
        Y = np.array([p.coords for p in interests], dtype=float)
        Y.setflags(write=False)
        object.__setattr__(self, "_interest_array", Y)

    @property
    def n(self) -> int:
        return len(self.interests)

    def interest_array(self) -> np.ndarray:
        """The (N, dim) interests, built once per config and read-only."""
        return self._interest_array


def require_member(i, cfg: MarketConfig, role: str) -> None:
    """Raise InvalidInputError unless i is an integer index of one of the
    N members; a negative index would wrap around to the end."""
    if not (isinstance(i, (int, np.integer)) and 0 <= i < cfg.n):
        raise InvalidInputError(
            f"{role} index {i!r} is not a member of N = {cfg.n}: expected an integer "
            f"0 <= index < {cfg.n}")


@dataclass(frozen=True)
class InfluencerAllocation:
    """The influencer's production rates, one per community member."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError("influencer rates must be a 1-D array")
        require_finite_nonnegative(mu, "influencer rates")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True, eq=False)
class DirectRates:
    """The consumers' direct rates in compressed sparse rows (CSR):
    consumer y's rates are ``rates[indptr[y]:indptr[y + 1]]``, on the
    producers ``cols`` of the same slice.  Every array is read-only.

    indptr  (R + 1,)  row starts, indptr[0] = 0, nondecreasing
    cols    (nnz,)    each rate's producer, ascending within a row
    rates   (nnz,)    the rates
    n                 the number of producers, the table's width

    The engine stores only positive rates and none on the diagonal;
    ``MarketAllocation.validate`` checks both, and the rows' layout
    (``check_rows``).  There is no ``__array__``:
    ``toarray()`` is the one way to the (R, n) table.
    """

    indptr: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    n: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.intp), ("cols", np.intp), ("rates", float)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def check_rows(self) -> None:
        """Raise InvalidInputError unless indptr runs from 0 to nnz without
        falling and each row's producers ascend, below n."""
        p, c = self.indptr, self.cols
        ok = (p.ndim == c.ndim == self.rates.ndim == 1 and p.size > 0 and p[0] == 0
              and p[-1] == c.size == self.rates.size and not np.any(np.diff(p) < 0)
              and not (c.size and (c.min() < 0 or c.max() >= self.n)))
        if not ok or np.any((np.diff(c) <= 0) & (np.diff(self.row_ids()) == 0)):
            raise InvalidInputError(
                "direct rates need indptr from 0 to nnz, and ascending producers "
                f"below {self.n} within each row")

    @classmethod
    def from_entries(cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
                     rates: np.ndarray) -> "DirectRates":
        """The (R, n) table holding rates[k] at (rows[k], cols[k]), the
        entries given in row-major order."""
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols, rates, shape[1])

    @classmethod
    def empty(cls, n: int) -> "DirectRates":
        """n consumers holding no direct rate on n producers."""
        none = np.empty(0, dtype=np.intp)
        return cls.from_entries((n, n), none, none, np.empty(0))

    @classmethod
    def from_dense(cls, A) -> "DirectRates":
        """The nonzero entries of the table A, (R, n)."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise InvalidInputError(f"direct has shape {A.shape}, expected a table")
        rows, cols = np.nonzero(A)
        return cls.from_entries(A.shape, rows, cols, A[rows, cols])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.size - 1, self.n)

    @property
    def nnz(self) -> int:
        return self.rates.size

    def row_ids(self) -> np.ndarray:
        """The consumer of each stored rate, (nnz,)."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))

    def row(self, y: int) -> tuple[np.ndarray, np.ndarray]:
        """Consumer y's producers and rates."""
        s = slice(self.indptr[y], self.indptr[y + 1])
        return self.cols[s], self.rates[s]

    def rated_rows(self) -> np.ndarray:
        """The consumers holding any direct rate, ascending."""
        return np.flatnonzero(np.diff(self.indptr))

    def dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """The (k, n) rows of consumers ``rows``, a run of consecutive
        entries of ``rated_rows()``, holding their rates at the stored
        entries and zero elsewhere."""
        D = np.zeros((rows.size, self.n))
        if rows.size:
            held = slice(self.indptr[rows[0]], self.indptr[rows[-1] + 1])
            at = np.repeat(np.arange(rows.size), np.diff(self.indptr)[rows])
            D[at, self.cols[held]] = self.rates[held]
        return D

    def toarray(self) -> np.ndarray:
        """The dense (R, n) table."""
        A = np.zeros(self.shape)
        A[self.row_ids(), self.cols] = self.rates
        return A

    def row_sums(self) -> np.ndarray:
        """Each consumer's total direct rate, (R,): the dense rows' sums,
        float for float."""
        out = np.zeros(self.shape[0])
        rows = self.rated_rows()
        for sl in chunks(rows.size):
            out[rows[sl]] = self.dense_rows(rows[sl]).sum(axis=1)
        return out

    def with_row(self, y: int, cols: np.ndarray, rates: np.ndarray) -> "DirectRates":
        """These rates with consumer y's replaced by ``rates`` on the
        ascending producers ``cols``."""
        lo, hi = self.indptr[y], self.indptr[y + 1]
        indptr = self.indptr.copy()
        indptr[y + 1:] += len(cols) - (hi - lo)
        return DirectRates(indptr, np.concatenate((self.cols[:lo], cols, self.cols[hi:])),
                           np.concatenate((self.rates[:lo], rates, self.rates[hi:])), self.n)

    def max_change(self, other: "DirectRates") -> float:
        """max |self - other| over every entry, as the dense tables'
        difference gives it: the two ascending key lists are merged, and an
        entry stored on one side only differs by its own rate."""
        if not (self.nnz or other.nnz):
            return 0.0
        mine, theirs = (d.row_ids() * d.n + d.cols for d in (self, other))
        at = np.searchsorted(theirs, mine)
        both = at < theirs.size
        both[both] = theirs[at[both]] == mine[both]
        change = np.abs(self.rates)
        change[both] = np.abs(self.rates[both] - other.rates[at[both]])
        only_theirs = np.ones(theirs.size, dtype=bool)
        only_theirs[at[both]] = False
        return float(max(change.max(initial=0.0),
                         np.abs(other.rates[only_theirs]).max(initial=0.0)))


@dataclass(frozen=True)
class MarketAllocation:
    """Full market state as arrays; every array is read-only.

    lam         (N,)      consumer y's rate on the outside source
    mu_i        (N,)      consumer y's rate on the influencer
    direct      (N, N)    direct[y, z] is consumer y's rate on producer z, a
                          ``DirectRates`` (CSR); a dense table is converted
    influencer            the influencer's rates, ``influencer.mu`` (N,)
    X           (N, dim)  X[z] is producer z's content topic

    Construction only converts; ``validate`` checks a state against a
    config (shapes, signs, the zero diagonal of direct, topics in the unit
    box, budgets).
    """

    lam: np.ndarray
    mu_i: np.ndarray
    direct: DirectRates
    influencer: InfluencerAllocation
    X: np.ndarray

    def __post_init__(self):
        for name in ("lam", "mu_i", "X"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not isinstance(self.direct, DirectRates):
            object.__setattr__(self, "direct", DirectRates.from_dense(self.direct))

    @property
    def mu_infl(self) -> np.ndarray:
        """The influencer's rates, ``influencer.mu``."""
        return self.influencer.mu

    def validate(self, cfg: MarketConfig) -> None:
        """Raise InvalidInputError naming the field of the first violated invariant."""
        n = cfg.n
        self.direct.check_rows()
        for name, a, shape in (("lam", self.lam, (n,)), ("mu_i", self.mu_i, (n,)),
                               ("direct", self.direct, (n, n)),
                               ("influencer.mu", self.mu_infl, (n,)),
                               ("X", self.X, (n, cfg.dim))):
            if a.shape != shape:
                raise InvalidInputError(f"{name} has shape {a.shape}, expected {shape}")
            values = a.rates if name == "direct" else a.ravel()
            ok = (values >= 0.0) & ((values <= 1.0) if name == "X" else (values < math.inf))
            if not ok.all():
                k = int(np.argmin(ok))
                at = ((a.row_ids()[k], a.cols[k]) if name == "direct"
                      else np.unravel_index(k, a.shape))
                what = "outside the unit box [0, 1]" if name == "X" else "negative or not finite"
                raise InvalidInputError(f"{name}[{', '.join(str(int(i)) for i in at)}] = "
                                        f"{float(values[k])!r} is {what}")
        self_rated = np.flatnonzero(self.direct.cols == self.direct.row_ids())
        if self_rated.size:
            k = self_rated[0]
            y = int(self.direct.cols[k])
            raise InvalidInputError(
                f"direct[{y}, {y}] = {float(self.direct.rates[k])!r}: "
                f"consumer {y} holds a direct rate on itself")
        spent = self.lam + self.mu_i + self.direct.row_sums()
        over = np.flatnonzero(spent > cfg.m + BUDGET_TOL)
        if over.size:
            y = over[0]
            raise InvalidInputError(
                f"consumer {y} spends {spent[y]:.12g} > budget {cfg.m:.12g}")
        spent_infl = float(self.mu_infl.sum())
        if spent_infl > cfg.m_infl + BUDGET_TOL:
            raise InvalidInputError(
                f"influencer spends {spent_infl:.12g} > budget {cfg.m_infl:.12g}")


def match_matrix(X: np.ndarray, cfg: MarketConfig,
                 producers: np.ndarray | None = None) -> np.ndarray:
    """B[z, y] = g(d(x(z), z)) * f(d(x(z), y)): producer rows, consumer
    columns, built in place in the one (N, N) distance buffer.  With
    ``producers`` (k,) given, X holds only their topics and the result only
    their k rows: every entry reads one topic and one interest, so those
    rows are the full table's bit for bit."""
    B = pairwise_distances(np.asarray(X, dtype=float), cfg.interest_array())
    own = np.diagonal(B) if producers is None else B[np.arange(B.shape[0]), producers]
    return _weigh(B, np.exp(-cfg.kernel.a_g * own), cfg)


def _weigh(d: np.ndarray, quality: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """The match entries f(d) * quality, in place on the (k, m) distances
    d, quality (k,) being each row's producer's g at its own interest:
    ``match_matrix``'s one formula, wherever its entries are built."""
    d *= -cfg.kernel.a_f
    np.exp(d, out=d)
    d *= quality[:, None]
    return d


def less_own(total: np.ndarray, own: np.ndarray, terms) -> np.ndarray:
    """total - own, where total sums the terms of a row and own is its term
    at one column z; own is overwritten with the result.

    Where own is more than half of total, the difference would keep little
    but rounding noise (a member whose own weight dominates the sum, as
    under a sharply peaked kernel), so those entries are summed again
    without it, in ``chunks``: ``terms(*idx)`` gives a chunk's (c, N)
    terms and its (c,) columns z, idx being that chunk of the entries'
    ``np.nonzero``.  Each entry reads only its own row, so any chunking of
    the rows gives the same floats, and no more than one chunk's terms are
    held, however many entries are summed again.
    """
    redo = own > 0.5 * total
    out = np.subtract(total, own, out=own)
    if redo.any():  # np.nonzero of a 2-D mask costs tens of microseconds
        redo = np.nonzero(redo)
        for c in chunks(redo[0].size):
            idx = tuple(i[c] for i in redo)
            T, z = terms(*idx)
            T[np.arange(z.size), z] = 0.0
            out[idx] = T.sum(axis=1)
    return out


def sums_less_own(D: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_y D[j, y] * u[y] without the term at y = z[j], for each row j of
    D (k, N): ``less_own`` of the rows' sums.  Row j depends only on D[j],
    so any chunking of the rows gives the same floats.

    The sums are numpy's own ``einsum`` contraction, never a BLAS product
    (module docstring): D is often the (N, N) match matrix, or its
    transpose as a view."""
    return less_own(np.einsum("zy,y->z", D, u), D[np.arange(z.size), z] * u[z],
                    lambda j: (D[j] * u, z[j]))


@dataclass(frozen=True)
class PeerWeights:
    """Peer weights W[y, z] = u[y] * v[z] + S[y, z], zero at z = y; never
    built as a table.

    u     (N,)     the consumer factor of the rank-one term
    v     (N,)     the producer factor of the rank-one term
    S     (N, N)   the extra weights, a ``DirectRates`` storing none on
                   the diagonal
    """

    u: np.ndarray
    v: np.ndarray
    S: DirectRates

    @classmethod
    def rank_one(cls, u: np.ndarray, v: np.ndarray) -> "PeerWeights":
        """W[y, z] = u[y] * v[z], zero at z = y."""
        return cls(u, v, DirectRates.empty(u.size))

    def producer_values(self, D: np.ndarray, cols: slice | np.ndarray = slice(None)
                        ) -> np.ndarray:
        """sum_y D[j, y] * W[y, z_j] for the producers z_j of ``cols`` (a
        slice or indices), D (k, N) holding their match rows: each
        producer's objective at its topic, and with D = B every
        incumbent's.  The S term reads D at the stored entries only.  Row j
        depends only on D[j], so any chunking of the producers gives the
        same floats."""
        z = np.arange(self.u.size)[cols]
        vals = sums_less_own(D, self.u, z)
        vals *= self.v[cols]
        if self.S.nnz:
            vals += self.direct_values(z, lambda j, y: D[j, y])
        return vals

    def direct_values(self, z: np.ndarray, entry) -> np.ndarray:
        """sum_y S[y, z_j] * B[z_j, y] for the producers z (k,): the S term
        of their values, read at the stored entries only, ``entry(j, y)``
        giving B[z[j], y] at those entries (j indexing z)."""
        at = np.full(self.u.size, -1)  # producer -> its place in z
        at[z] = np.arange(z.size)
        j = at[self.S.cols]
        held = j >= 0
        j = j[held]
        return np.bincount(j, entry(j, self.S.row_ids()[held]) * self.S.rates[held],
                           minlength=z.size)


def support_weights(mu_i: np.ndarray, mu_infl: np.ndarray, direct: DirectRates,
                    cfg: MarketConfig) -> PeerWeights:
    """The peer weights W of the welfare and of the perfect/proxy producers:
    W[y, z] = delta(mu_i[y]) * delta(mu_infl[z]) + delta(direct[y, z]),
    zero at z = y, with delta(direct) on the rows and producers of
    ``direct`` (delta(0) = 0, so only the stored rates are discounted)."""
    d = cfg.delay
    return PeerWeights(discount(mu_i, d), discount(mu_infl, d),
                       DirectRates(direct.indptr, direct.cols, discount(direct.rates, d), direct.n))


class Match:
    """The match matrix B[z, y] at the topics X, behind the only reads the
    engine makes of it.  ``match_of`` picks the implementation:
    ``LineMatch`` in dim 1 stores no (N, N) array, ``DenseMatch`` holds B.

    X                      (N, dim) the topics, the match's own copy
    relayed(delta)         per consumer y, sum_{z != y} delta[z] * B[z, y]:
                           the influencer channel's value to y without r_p
    followed(delta)        per producer z, sum_{y != z} delta[y] * B[z, y]:
                           z's follower-weighted match mass, the
                           influencer's weight on z without r_p
    producer_values(W, cols)  the producers' objectives at their topics
                           (``PeerWeights.producer_values`` on B's rows)
    values_at(W, T, cols)  the same at topics T, the match left as it is
    consumer_values(W)     sum_z B[z, y] * W[y, z] for every consumer y
    entries(z, y)          B[z, y]
    columns(ys)            B[:, ys], (N, k)
    move(z, T)             producers z take topics T: the only write, which
                           a round makes once for the producers it moved
    """

    def __init__(self, X: np.ndarray, cfg: MarketConfig):
        self.cfg = cfg
        self.X = np.array(X, dtype=float)

    def consumer_values(self, weights: PeerWeights) -> np.ndarray:
        """sum_z B[z, y] * W[y, z] for every consumer y: the rank-one term
        through ``relayed``, the stored weights from B at their entries."""
        vals = self.relayed(weights.v)
        vals *= weights.u
        S = weights.S
        if S.nnz:
            ys = S.row_ids()
            vals += np.bincount(ys, self.entries(S.cols, ys) * S.rates, minlength=vals.size)
        return vals


class DenseMatch(Match):
    """B held as the (N, N) table, in any dimension.  Every sum over it is
    numpy's own ``einsum`` contraction (``sums_less_own``), never a BLAS
    product: on a 2-vCPU host OpenBLAS's second thread is often slow to
    wake, and 60 calls of ``B @ d`` at N = 1000 had a median of 8.0 ms,
    against 0.33 ms on one BLAS thread and 0.43-0.55 ms through ``einsum``,
    which never stalled."""

    def __init__(self, X: np.ndarray, cfg: MarketConfig, B: np.ndarray | None = None):
        super().__init__(X, cfg)
        self.B = match_matrix(self.X, cfg) if B is None else B

    def relayed(self, delta: np.ndarray) -> np.ndarray:
        return sums_less_own(self.B.T, delta, np.arange(self.B.shape[1]))

    def followed(self, delta: np.ndarray) -> np.ndarray:
        return sums_less_own(self.B, delta, np.arange(self.B.shape[0]))

    def producer_values(self, weights: PeerWeights, cols: slice | np.ndarray = slice(None)
                        ) -> np.ndarray:
        """Each producer's objective at its topic, from its row of B."""
        return weights.producer_values(self.B[cols], cols)

    def values_at(self, weights: PeerWeights, T: np.ndarray, cols: slice | np.ndarray
                  ) -> np.ndarray:
        """The objectives of the producers ``cols`` at topics T (k, dim),
        from their match rows there, which ``move`` builds alike: at T =
        X[cols] the values are ``producer_values``' bit for bit."""
        D = match_matrix(T, self.cfg, np.arange(self.cfg.n)[cols])
        return weights.producer_values(D, cols)

    def entries(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.B[z, y]

    def columns(self, ys: np.ndarray) -> np.ndarray:
        return self.B[:, ys]

    def move(self, z: np.ndarray, T: np.ndarray) -> None:
        """Producers z take topics T, and their rows of B are rebuilt in
        chunks of _CHUNK.  Each entry of ``match_matrix`` reads one topic
        and one interest, so these are the rows ``values_at`` built."""
        self.X[z] = T
        for sl in chunks(z.size):
            self.B[z[sl]] = match_matrix(T[sl], self.cfg, z[sl])


class LineMatch(Match):
    """B in dim 1, never stored: each reduction is a sum of nonnegative
    weights under the interest kernel f (``kernels.LineSums``), taken at
    the query points from sums over the sorted sources.  ``relayed`` weighs
    the topics by delta[z] * g(|x_z - y_z|) and reads the sums at the
    interests; ``followed`` and the producers' values weigh the interests
    and read them at the topics, times each producer's quality.  The own
    term comes off through ``less_own``.  Entries and columns are built
    from X with ``match_matrix``'s own formula, so they are B's floats;
    only the sums differ from ``DenseMatch``'s, in the last bits.  The
    sorted topics and where each query point falls are kept until a
    producer moves.

    A producer's value at a topic is one function of that producer and
    topic (``_values``): an incumbent's and a winner's are computed alike,
    so a winner that ties the incumbent exactly keeps the incumbent."""

    def __init__(self, X: np.ndarray, cfg: MarketConfig):
        super().__init__(X, cfg)
        self._y = cfg.interest_array()[:, 0]
        order = np.argsort(self._y, kind="stable")
        self._interests = order, LineSums(self._y[order], cfg.kernel.a_f)
        self._quality, self._diag = np.empty(cfg.n), np.empty(cfg.n)
        self.move(np.arange(cfg.n), self.X)

    def move(self, z: np.ndarray, T: np.ndarray) -> None:
        """Producers z take topics T, and their quality g(|x_z - y_z|) and
        diagonal entry B[z, z] with them."""
        if not z.size:
            return
        self.X[z] = T
        self._quality[z], self._diag[z] = self._own(z, self.X[z, 0])
        self._by_topic = self._at_topics = None

    def relayed(self, delta: np.ndarray) -> np.ndarray:
        if self._by_topic is None:  # the topics sorted, and the interests among them
            x = self.X[:, 0]
            order = np.argsort(x, kind="stable")
            line = LineSums(x[order], self.cfg.kernel.a_f)
            self._by_topic = order, line, line.query(self._y)
        order, line, q = self._by_topic
        total = line.at((delta * self._quality)[order], q)
        return less_own(total, self._diag * delta, lambda y: (self.columns(y).T * delta, y))

    def followed(self, delta: np.ndarray) -> np.ndarray:
        return self.producer_values(PeerWeights.rank_one(delta, np.ones(self.cfg.n)))

    def producer_values(self, weights: PeerWeights, cols: slice | np.ndarray = slice(None)
                        ) -> np.ndarray:
        z = np.arange(self.cfg.n)[cols]
        return self._values(weights, z, self.X[z, 0], tuple(a[z] for a in self._topic_query()),
                            self._quality[z], self._diag[z])

    def values_at(self, weights: PeerWeights, T: np.ndarray, cols: slice | np.ndarray
                  ) -> np.ndarray:
        """The objectives of the producers ``cols`` at topics T (k, 1),
        from the kernel sums at T; no row is built."""
        z, t = np.arange(self.cfg.n)[cols], T[:, 0]
        return self._values(weights, z, t, self._interests[1].query(t), *self._own(z, t))

    def _topic_query(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``LineSums.query`` of every topic among the sorted interests."""
        if self._at_topics is None:
            self._at_topics = self._interests[1].query(self.X[:, 0])
        return self._at_topics

    def _values(self, weights: PeerWeights, z: np.ndarray, t: np.ndarray, q: tuple,
                quality: np.ndarray, own: np.ndarray) -> np.ndarray:
        """sum_y B_t[z_j, y] * W[y, z_j] for producers z (k,) at topics t
        (k,), B_t being the match rows there: the kernel sum of u at t (q
        being t's ``query`` among the interests) times the quality
        g(|t - y_z|), less the own term u[z] * B_t[z, z], times v[z], plus S
        times B_t at its entries.  Entry j reads only (z_j, t_j), and every
        argument is elementwise in it."""
        u = weights.u
        order, line = self._interests
        total = line.at(u[order], q)
        total *= quality
        vals = less_own(total, own * u[z],
                        lambda j: (match_matrix(t[j][:, None], self.cfg, z[j]) * u, z[j]))
        vals *= weights.v[z]
        if weights.S.nnz:
            vals += weights.direct_values(z, lambda j, y: self._entry(t[j], quality[j], y))
        return vals

    def _own(self, z: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The quality g(|t - y_z|) and own entry B_t[z, z] of producers z
        (k,) at topics t (k,)."""
        quality = np.exp(-self.cfg.kernel.a_g * np.abs(t - self._y[z]))
        return quality, self._entry(t, quality, z)

    def _entry(self, t: np.ndarray, quality: np.ndarray, y: np.ndarray) -> np.ndarray:
        """B_t[z, y] of producers at topics t (k,) with qualities (k,) for
        consumers y (k,), by ``match_matrix``'s formula."""
        return _weigh(np.abs(t - self._y[y])[:, None], quality, self.cfg)[:, 0]

    def entries(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._entry(self.X[z, 0], self._quality[z], y)

    def columns(self, ys: np.ndarray) -> np.ndarray:
        return _weigh(pairwise_distances(self.X, self.cfg.interest_array()[ys]),
                      self._quality, self.cfg)


_LINE_FROM = 256  # the fewest members whose dim-1 match holds no table


def match_of(X: np.ndarray, cfg: MarketConfig) -> Match:
    """The match at topics X: a ``LineMatch`` in dim 1 from _LINE_FROM
    members, a ``DenseMatch`` otherwise.  Below that size B takes at most
    half a megabyte, and the dense sums, fewer numpy calls each, are the
    faster on small markets.  In paired runs on a 2-core host a
    ``price_of_influence`` row (M_infl = N) took 15% longer on the line at
    N = 40, and 5%, 8% and 33% less at N = 128, 256 and 512; a
    fixed-budget perfect run, whose consumer block builds B's columns from
    the topics, 2% longer at N = 128 and 256 and 2% less at N = 512."""
    return LineMatch(X, cfg) if cfg.dim == 1 and cfg.n >= _LINE_FROM else DenseMatch(X, cfg)


def consumer_utilities(omega: MarketAllocation, cfg: MarketConfig) -> np.ndarray:
    """All N consumer utilities at once."""
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return _utilities(match_of(omega.X, cfg), weights, omega.lam, cfg)


def _utilities(match: Match, weights: PeerWeights, lam: np.ndarray,
               cfg: MarketConfig) -> np.ndarray:
    """r_p * sum_z B[z, y] * W[y, z] + r_0 * B_0 * delta(lam[y]) for every y,
    W being ``support_weights`` of the same state."""
    return (cfg.r_p * match.consumer_values(weights)
            + cfg.r_0 * cfg.b_0 * discount(lam, cfg.delay))


def social_welfare(omega: MarketAllocation, cfg: MarketConfig) -> float:
    """Total consumer utility; exact potential for unilateral deviations."""
    return float(consumer_utilities(omega, cfg).sum())


def influencer_utility(omega: MarketAllocation, cfg: MarketConfig) -> float:
    """The influencer's objective: total relayed consumption it mediates."""
    d = cfg.delay
    return cfg.r_p * float(np.dot(discount(omega.mu_infl, d),
                                  match_of(omega.X, cfg).followed(discount(omega.mu_i, d))))


def producer_support(z: int, omega: MarketAllocation, cfg: MarketConfig) -> float:
    """Producer z's objective: consumption of z's content via both routes,
    r_p times ``support_weights(...).producer_values`` at z's match row."""
    require_member(z, cfg, "producer")
    D = match_matrix(omega.X[z:z + 1], cfg, np.array([z]))
    weights = support_weights(omega.mu_i, omega.mu_infl, omega.direct, cfg)
    return cfg.r_p * float(weights.producer_values(D, slice(z, z + 1))[0])
