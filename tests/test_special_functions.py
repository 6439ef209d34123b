import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapt import BRANCH_POINT, DomainError, LambertBranch, lambert_w
from plapt.special_functions import _theta_x

NEG = LambertBranch.NEGATIVE_ONE
EPS = float(np.finfo(float).eps)

# Largest relative error allowed in each band of 1 + e*z, about twice the
# largest error a 1e5-point mpmath comparison measured.  Near the branch
# point W_{-1} is ill-conditioned (relative condition number 1/|1 + w|), so
# the bound there is set by the rounding of z, not by the evaluator.
_BAND_BOUNDS = (
    (0.0, 1e-10, 1e-8),
    (1e-10, 1e-5, 1.5e-11),
    (1e-5, 1e-2, 6e-14),
    (1e-2, 0.5, 2e-15),
    (0.5, np.inf, 2.0 * EPS),
)


def _mp_wm1(z):
    """W_{-1}(z) at 40 digits; the real part at the float -1/e, which lies
    1.2e-17 below the branch point where W_{-1} turns complex."""
    with mpmath.workdps(40):
        return float(mpmath.re(mpmath.lambertw(mpmath.mpf(float(z)), -1)))


def _relative_error(z):
    ref = np.array([_mp_wm1(x) for x in z])
    return np.abs(lambert_w(NEG, z) - ref) / np.abs(ref)


def _z_of_distance(d):
    # z with 1 + e*z = d, kept inside the domain where rounding crosses -1/e
    return np.maximum((d - 1.0) / np.e, BRANCH_POINT)


def _grid_calls():
    """Seeded W_{-1} arguments in every band of 1 + e*z: <= 0 (-1/e and its
    upper neighbours), below 1e-5 (series only), at most 1/2 (series and
    Newton), above 1/2 (asymptote and Newton, down to the smallest normal)
    and subnormal z, and both neighbours of each band edge.  The calls are
    all near the branch point, all asymptotic, and mixed (also as a strided
    2-d view and one point at a time)."""
    rng = np.random.default_rng(2026)
    at_branch = [BRANCH_POINT]
    for _ in range(8):
        at_branch.append(np.nextafter(at_branch[-1], 0.0))
    edges = [(d - 1.0) / np.e for d in (1e-5, 0.5)]
    edges = [np.nextafter(z, to) for z in edges for to in (-1.0, 0.0)] + edges
    series_only = _z_of_distance(10.0 ** rng.uniform(-18.0, -5.0, 300))
    series = _z_of_distance(10.0 ** rng.uniform(-5.0, math.log10(0.5), 300))
    asymptote = _z_of_distance(rng.uniform(0.5, 1.0, 300))
    tiny = -(10.0 ** rng.uniform(-307.0, -1.0, 300))
    subnormal = -rng.uniform(0.0, 2.2e-308, 100) - 5e-324
    near = np.concatenate([at_branch, series_only, series])
    far = np.concatenate([asymptote, tiny, subnormal, [-5e-324, -2.2250738585072014e-308]])
    mixed = rng.permutation(np.concatenate([near, far, edges]))
    return [near, far, mixed, mixed[: mixed.size // 2 * 2].reshape(-1, 2)[:, ::-1], near[:1], far[:1]]


# SHA-256 of lambert_w on _grid_calls(), each result's bytes in turn, as
# the theta*x kernel first gave them (numpy 2.4.6, x86-64): every later
# rewrite must keep each bit
_GRID_DIGEST = "39d9021f55cf4567784a3e0add41098096aa482359450f999716a5d4ab29a9ab"


class TestLambertW:
    def test_grid_hashes_as_recorded(self):
        digest = hashlib.sha256()
        for z in _grid_calls():
            digest.update(np.ascontiguousarray(lambert_w(NEG, z)).tobytes())
        for z in _grid_calls()[2][::97]:
            digest.update(np.float64(lambert_w(NEG, float(z))).tobytes())
        assert digest.hexdigest() == _GRID_DIGEST

    def test_branch_point(self):
        assert lambert_w(NEG, -math.exp(-1.0)) == -1.0

    def test_kernel_is_minus_one_at_and_below_branch_point(self):
        # log(-e*z) rounds to 0 at the float -1/e, where W_{-1} = -1 - t is -1,
        # and to at most -EPS above it; the kernel gives t = +0.0 at s = 1 for
        # every shift beta (the branch point itself at beta = 1, the quantile
        # of tail mass 1 otherwise), and t > 0 at the largest float log s
        # below 0, log(1 - EPS/2)
        assert 1.0 + math.log(-BRANCH_POINT) == 0.0
        assert 1.0 + math.log(-np.nextafter(BRANCH_POINT, 0.0)) <= -EPS
        assert lambert_w(NEG, BRANCH_POINT) == -1.0
        for beta in (1.0, math.nextafter(1.0, 2.0), 1.5, 2.7, 1e300):
            t = _theta_x(beta, np.array([0.0, -0.0, math.log1p(-EPS / 2.0), -1e-10]))
            assert np.array_equal(np.copysign(1.0, t[:2]), [1.0, 1.0]) and t[0] == t[1] == 0.0
            assert np.all(t[2:] > 0.0)

    def test_known_constructions(self):
        # w*exp(w) = z is satisfied by construction at w = -2 and w = -1.1
        assert lambert_w(NEG, -2.0 * math.exp(-2.0)) == pytest.approx(-2.0, rel=1e-13)
        assert lambert_w(NEG, -1.1 * math.exp(-1.1)) == pytest.approx(-1.1, rel=1e-13)

    def test_identity_residual_sweep(self):
        z = np.clip(-np.logspace(np.log10(1.0 / np.e), -280, 10**5), BRANCH_POINT, None)
        w = lambert_w(NEG, z)
        residual = np.abs(w * np.exp(w) - z) / np.abs(z)
        assert residual.max() <= 1e-13
        assert np.all(w <= -1.0)

    def test_strictly_decreasing_on_negative_branch(self):
        z = -np.logspace(np.log10(0.3678), -15, 20000)  # increasing toward 0
        w = lambert_w(NEG, z)
        assert np.all(np.diff(w) < 0.0)

    def test_mpmath_oracle_by_band(self):
        rng = np.random.default_rng(6)
        z = np.concatenate(
            [
                (np.logspace(-16, -1e-9, 800) - 1.0) / np.e,  # 1 + e*z from 1e-16 to 1
                -np.logspace(np.log10(0.36), -323.3, 800),  # down into the subnormals
                rng.uniform(BRANCH_POINT, 0.0, 400),
            ]
        )
        z = z[(z > BRANCH_POINT) & (z < 0.0)]
        rel = _relative_error(z)
        d = 1.0 + np.e * z
        for lo, hi, bound in _BAND_BOUNDS:
            band = (d >= lo) & (d < hi)
            assert band.sum() >= 100
            assert rel[band].max() <= bound, (lo, hi, rel[band].max())

    def test_subnormal_arguments(self):
        # exp(w) is subnormal below w = -708 and 0 below w = -745; the
        # logarithmic Newton steps never form it
        z = -np.logspace(np.log10(2.3e-303), np.log10(4.9e-324), 400)
        assert np.sum(np.abs(z) < np.finfo(float).tiny) > 100
        rel = _relative_error(z)
        assert rel.max() <= 2.0 * EPS

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=BRANCH_POINT, max_value=-math.ulp(0.0), allow_subnormal=True))
    def test_property_against_mpmath(self, z):
        w = lambert_w(NEG, z)
        assert w <= -1.0
        ref = _mp_wm1(z)
        # within 4 eps of the conditioning floor eps/|1 + w|
        assert abs(w - ref) * min(1.0, abs(1.0 + ref)) <= 4.0 * EPS * abs(ref)

    @pytest.mark.parametrize("z", [0.0, 1e-3, -1.0, -0.5])
    def test_negative_branch_domain_errors(self, z):
        with pytest.raises(DomainError):
            lambert_w(NEG, z)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            lambert_w(NEG, math.nan)
        # only the W_{-1} branch is implemented; its value is no stand-in for the enum
        for branch in (-1, "NEGATIVE_ONE"):
            with pytest.raises(DomainError, match="unknown Lambert branch"):
                lambert_w(branch, -0.1)

    def test_array_in_array_out(self):
        z = np.array([[-0.1, -0.2], [-0.3, -0.05]])
        w = lambert_w(NEG, z)
        assert w.shape == z.shape
        assert isinstance(lambert_w(NEG, -0.1), float)
