"""Kernel and discount primitives: closed forms, bounds, calculus identities."""

import math

import numpy as np
import pytest

from cme.allocator import WeightedChannels
from cme.kernels import (
    DelayParams,
    InvalidInputError,
    KernelParams,
    TopicPoint,
    discount,
    discount_deriv,
    pairwise_distances,
    require_finite_nonnegative,
)
from cme.market import InfluencerAllocation
from oracles import (
    DomainError,
    deriv_inverse,
    distance,
    interest_prob,
    match_prob,
    production_quality,
)


def einsum_distances(a, b):
    """The distance table through the whole (n, m, dim) difference table."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestTopicSpace:
    def test_distance_identity(self):
        x = TopicPoint((0.3, 0.7))
        assert distance(x, x) == 0.0

    def test_distance_unit_interval(self):
        assert distance(TopicPoint((0.0,)), TopicPoint((1.0,))) == 1.0

    def test_distance_unit_square_diagonal(self):
        d = distance(TopicPoint((0.0, 0.0)), TopicPoint((1.0, 1.0)))
        assert abs(d - math.sqrt(2.0)) < 1e-15

    def test_dimension_mismatch_is_an_error(self):
        with pytest.raises(InvalidInputError):
            distance(TopicPoint((0.5,)), TopicPoint((0.5, 0.5)))

    def test_coordinates_must_lie_in_unit_box(self):
        with pytest.raises(InvalidInputError):
            TopicPoint((1.2,))
        with pytest.raises(InvalidInputError):
            TopicPoint((-0.1, 0.5))

    def test_pairwise_distances_match_scalar_distance(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (6, 2))
        b = rng.uniform(0, 1, (4, 2))
        mat = pairwise_distances(a, b)
        for i in range(6):
            for j in range(4):
                d = distance(TopicPoint(tuple(a[i])), TopicPoint(tuple(b[j])))
                assert abs(mat[i, j] - d) < 1e-14

    def test_pairwise_distances_in_dim_one_equal_the_general_formula(self):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(0, 1, (50, 1)), rng.uniform(0, 1, (40, 1))
        b[:5] = a[:5]  # zero distances too
        assert np.array_equal(pairwise_distances(a, b), einsum_distances(a, b))

    def test_pairwise_distances_in_dim_two_equal_the_einsum_formula(self):
        # the per-coordinate sum replaced this einsum, bit for bit; the
        # candidates are a dim-2 TopicGrid's, with zero distances too
        rng = np.random.default_rng(9)
        axis = np.linspace(0.0, 1.0, 33)
        a = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        b = rng.uniform(0, 1, (40, 2))
        b[:3] = a[[0, 17, 500]]
        assert np.array_equal(pairwise_distances(a, b), einsum_distances(a, b))
        assert pairwise_distances(a[:0], b).shape == (0, 40)


class TestKernels:
    def test_perfect_match_has_probability_one(self):
        k = KernelParams(a_f=2.0, a_g=2.0)
        y = TopicPoint((0.4,))
        assert interest_prob(y, y, k) == 1.0
        assert production_quality(y, y, k) == 1.0
        assert match_prob(y, y, y, k) == 1.0

    def test_closed_form_values(self):
        k = KernelParams(a_f=1.0, a_g=3.0)
        x, y = TopicPoint((0.0,)), TopicPoint((1.0,))
        assert abs(interest_prob(x, y, k) - math.exp(-1.0)) < 1e-15
        assert abs(production_quality(x, y, k) - math.exp(-3.0)) < 1e-15
        assert abs(match_prob(x, TopicPoint((0.5,)), y, k)
                   - math.exp(-3.0 * 0.5) * math.exp(-1.0 * 1.0)) < 1e-15

    def test_interest_prob_lower_bound_on_interval(self):
        # Grid scan of p over [0,1]^2 pairs; the diameter bound says
        # p >= exp(-a_f * 1) everywhere in dim 1.
        k = KernelParams(a_f=1.0, a_g=1.0)
        grid = np.linspace(0.0, 1.0, 101)
        vals = [interest_prob(TopicPoint((x,)), TopicPoint((y,)), k)
                for x in grid for y in grid]
        assert min(vals) >= math.exp(-1.0) - 1e-12

    def test_match_prob_lower_bound_dim2(self):
        # Product of the two diameter bounds, diameter sqrt(2) in dim 2.
        k = KernelParams(a_f=2.0, a_g=2.0)
        grid = np.linspace(0.0, 1.0, 9)
        pts = [TopicPoint((u, v)) for u in grid for v in grid]
        bound = math.exp(-(k.a_f + k.a_g) * math.sqrt(2.0))
        worst = min(match_prob(x, z, y, k)
                    for x in pts[:: 8] for z in pts[:: 8] for y in pts[:: 8])
        assert worst >= bound - 1e-12

    def test_kernels_decrease_with_distance(self):
        k = KernelParams()
        y = TopicPoint((0.0,))
        xs = np.linspace(0.0, 1.0, 50)
        p = [interest_prob(TopicPoint((x,)), y, k) for x in xs]
        assert np.all(np.diff(p) < 0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            KernelParams(a_f=0.0)
        with pytest.raises(InvalidInputError):
            KernelParams(a_g=-1.0)
        with pytest.raises(InvalidInputError):
            DelayParams(beta=0.0)


class TestDiscount:
    def test_no_attention_no_consumption(self):
        assert discount(0.0, DelayParams(beta=1.0)) == 0.0

    def test_half_life(self):
        p = DelayParams(beta=2.0)
        assert abs(discount(math.log(2.0) / p.beta, p) - 0.5) < 1e-15

    def test_saturation(self):
        # 1 - 1e-20 is not representable below 1.0 in float64, so assert the
        # complement in the well-conditioned domain: exp(-50) < 1e-20.
        p = DelayParams(beta=1.0)
        assert discount(50.0 / p.beta, p) >= 1.0 - 1e-20
        assert math.exp(-p.beta * (50.0 / p.beta)) < 1e-20

    def test_negative_rate_is_an_error(self):
        with pytest.raises(InvalidInputError):
            discount(-1e-9, DelayParams())
        with pytest.raises(InvalidInputError):
            discount_deriv(np.array([0.1, -0.2]), DelayParams())

    def test_strictly_increasing_and_strictly_concave(self):
        p = DelayParams(beta=0.7)
        rng = np.random.default_rng(11)
        mu = np.sort(rng.uniform(0.0, 10.0, 200))
        d = discount(mu, p)
        assert np.all(np.diff(d) > 0)
        # random chords lie strictly below the graph
        for _ in range(200):
            a, b = rng.uniform(0.0, 10.0, 2)
            if abs(a - b) < 1e-6:
                continue
            t = rng.uniform(0.05, 0.95)
            chord = t * discount(a, p) + (1 - t) * discount(b, p)
            assert discount(t * a + (1 - t) * b, p) > chord

    def test_derivative_matches_finite_differences(self):
        p = DelayParams(beta=1.3)
        h = 1e-6
        # Direct central differences where delta is far from saturation ...
        mu = np.linspace(0.01, 5.0 / p.beta, 200)
        numeric = (discount(mu + h, p) - discount(mu - h, p)) / (2 * h)
        np.testing.assert_allclose(discount_deriv(mu, p), numeric, rtol=1e-6)
        # ... and in the complement domain up to 10/beta, where subtracting
        # two discount values near 1.0 would lose all the signal to rounding:
        # delta(mu+h) - delta(mu-h) == exp(-beta*(mu-h)) - exp(-beta*(mu+h)).
        mu = np.linspace(0.01, 10.0 / p.beta, 200)
        numeric = (np.exp(-p.beta * (mu - h)) - np.exp(-p.beta * (mu + h))) / (2 * h)
        np.testing.assert_allclose(discount_deriv(mu, p), numeric, rtol=1e-6)

    def test_derivative_at_zero_is_beta(self):
        p = DelayParams(beta=2.5)
        assert abs(discount_deriv(0.0, p) - 2.5) < 1e-15


RATE_INPUTS = [[], 0.0, -0.0, 5e-324, -1e-300, math.nan, math.inf, -math.inf,
               [0.0, 5e-324, 2.5], [1.0, -0.0], [1.0, -1e-300], [1.0, math.nan],
               [math.nan, -1.0], [0.5, math.inf], [-math.inf, 1.0], [math.inf, math.nan]]


@pytest.mark.parametrize("x", RATE_INPUTS, ids=repr)
def test_rate_checks_reject_what_the_two_pass_test_rejects(x):
    # the min/max check raises exactly where any(x < 0) or not all(isfinite(x))
    # holds, at each of the four places that check rates or weights
    m = np.asarray(x, dtype=float)
    bad = bool(np.any(m < 0.0) or not np.all(np.isfinite(m)))
    checks = [lambda: require_finite_nonnegative(m, "rates"),
              lambda: discount(m, DelayParams()),
              lambda: discount_deriv(m, DelayParams())]
    if m.ndim == 1:
        checks.append(lambda: InfluencerAllocation(mu=m))
        if m.size:
            checks.append(lambda: WeightedChannels(weights=m, budget=1.0))
    for check in checks:
        if bad:
            with pytest.raises(InvalidInputError, match="finite and nonnegative"):
                check()
        else:
            check()


class TestDerivInverse:
    def test_known_values(self):
        p = DelayParams(beta=1.0)
        assert deriv_inverse(1.0, p) == 0.0
        assert abs(deriv_inverse(math.exp(-2.0), p) - 2.0) < 1e-12

    def test_round_trip(self):
        p = DelayParams(beta=0.9)
        for mu in np.linspace(0.0, 20.0, 81):
            b = discount_deriv(float(mu), p)
            assert abs(deriv_inverse(b, p) - mu) < 1e-12

    def test_domain_errors(self):
        p = DelayParams(beta=1.5)
        for bad in (0.0, -0.5, 1.5 + 1e-9, 10.0):
            with pytest.raises(DomainError):
                deriv_inverse(bad, p)
