"""Shared generators: random market configs and random feasible allocations."""

import numpy as np

from cme.kernels import DelayParams, KernelParams, TopicPoint
from cme.market import InfluencerAllocation, MarketAllocation, MarketConfig


def random_config(rng, n_max=12, n_min=2, dim=None) -> MarketConfig:
    dim = int(rng.integers(1, 3)) if dim is None else dim
    n = int(rng.integers(n_min, n_max + 1))
    interests = tuple(TopicPoint(tuple(rng.uniform(0, 1, dim))) for _ in range(n))
    return MarketConfig(
        dim=dim,
        interests=interests,
        m=float(rng.uniform(0.3, 3.0)),
        m_infl=float(rng.uniform(0.3, 3.0) * n / 2),
        r_p=float(rng.uniform(0.5, 2.0)),
        r_0=float(rng.uniform(0.5, 2.0)),
        b_0=float(rng.uniform(0.2, 1.0)),
        kernel=KernelParams(a_f=float(rng.uniform(0.5, 4.0)),
                            a_g=float(rng.uniform(0.5, 4.0))),
        delay=DelayParams(beta=float(rng.uniform(0.4, 2.5))),
        seed=int(rng.integers(0, 2**31)),
    )


def random_consumer(rng, y, cfg, spend_fraction=None):
    """(lam, mu_i, direct row) of a random consumer y; the row is 0 at y."""
    frac = float(rng.uniform(0.2, 1.0)) if spend_fraction is None else spend_fraction
    split = rng.dirichlet(np.ones(cfg.n + 1)) * frac * cfg.m
    return float(split[0]), float(split[1]), np.insert(split[2:], y, 0.0)


def random_allocation(rng, cfg, spend_fraction=None) -> MarketAllocation:
    n = cfg.n
    lam, mu_i, rows = zip(*(random_consumer(rng, y, cfg, spend_fraction) for y in range(n)))
    frac = float(rng.uniform(0.2, 1.0)) if spend_fraction is None else spend_fraction
    infl = InfluencerAllocation(mu=rng.dirichlet(np.ones(n)) * frac * cfg.m_infl)
    X = np.array([rng.uniform(0, 1, cfg.dim) for _ in range(n)])
    return MarketAllocation(np.array(lam), np.array(mu_i), np.stack(rows), infl, X)


def with_consumer(omega, y, lam=None, mu_i=None, direct=None) -> MarketAllocation:
    """omega with consumer y's given rates replaced (direct: its whole row)."""
    lams, mu_is, directs = omega.lam.copy(), omega.mu_i.copy(), omega.direct.copy()
    if lam is not None:
        lams[y] = lam
    if mu_i is not None:
        mu_is[y] = mu_i
    if direct is not None:
        directs[y] = direct
    return MarketAllocation(lams, mu_is, directs, omega.influencer, omega.X)


def with_topic(omega, z, x) -> MarketAllocation:
    """omega with producer z's topic replaced by x (a TopicPoint or coordinates)."""
    X = omega.X.copy()
    X[z] = getattr(x, "coords", x)
    return MarketAllocation(omega.lam, omega.mu_i, omega.direct, omega.influencer, X)
