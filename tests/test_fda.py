"""Curve spaces (B-spline basis and smoothing), penalized smoothing, and functional PCA."""

import dataclasses
import re
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from voxmask import fda
from voxmask.fda import (
    DEFAULT_LAMBDA,
    CurveLabel,
    CurveSpace,
    FunctionalCurve,
    design_matrix,
    fpca_fit,
    fpca_project,
    gram_matrix,
    load_model,
    penalty_matrix,
    reconstruct,
    save_model,
    smooth_curve,
    uniform_resample,
)
from voxmask.pitch import F0Trajectory


def smooth(y, n_basis, lam=DEFAULT_LAMBDA):
    """smooth_curve in a cubic space of n_basis functions whose grid has y's own length."""
    return smooth_curve(y, CurveSpace(n_basis, 4, lam, len(y)))


def per_call_smooth(samples, space):
    """Oracle: the per-curve assembly of D, P and the Cholesky factor that CurveSpace caches."""
    y = np.asarray(samples, dtype=np.float64)
    d = design_matrix(space, np.linspace(0.0, 1.0, y.size))
    a = d.T @ d + space.lam * penalty_matrix(space)
    try:
        c = cho_solve(cho_factor(a), d.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular normal matrix; degenerate sampling or basis: {exc}") from exc
    return FunctionalCurve(space, c)


def fit_function(f, n_basis, lam=1e-8, m=606):
    t = np.linspace(0.0, 1.0, m)
    return smooth(f(t), n_basis, lam)


def l2_distance(a: FunctionalCurve, b: FunctionalCurve, m: int = 2000) -> float:
    t = np.linspace(0.0, 1.0, m)
    d = a(t) - b(t)
    return float(np.sqrt(np.trapezoid(d * d, t)))


# ------------------------------------------------------------------ basis


class TestBasis:
    def test_default_configuration(self):
        b = CurveSpace()
        assert b.n_basis == 202
        assert b.order == 4
        # n_basis = order + interior knots: 198 interior knots, 200 breakpoints
        assert np.unique(b.knots).size == 200
        assert b.knots.size == 202 + 4
        # endpoints carry order-fold multiplicity
        assert np.all(b.knots[:4] == 0.0) and np.all(b.knots[-4:] == 1.0)

    def test_single_interval_bernstein(self):
        b = CurveSpace(4, 4)
        assert np.unique(b.knots).size == 2
        t = np.linspace(0, 1, 50)
        d = design_matrix(b, t)
        # cubic Bernstein polynomials C(3,i) t^i (1-t)^(3-i)
        bern = np.column_stack([comb(3, i) * t**i * (1 - t) ** (3 - i) for i in range(4)])
        np.testing.assert_allclose(d, bern, atol=1e-12)

    def test_infeasible_count_rejected(self):
        with pytest.raises(ValueError, match=re.escape("n_basis (3) must be at least order (4)")):
            CurveSpace(3, 4)

    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity_property(self, order, extra, seed):
        n_basis = order + extra
        basis = CurveSpace(n_basis, order)
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 1.0, 200)
        sums = design_matrix(basis, t).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_partition_of_unity_at_default(self):
        basis = CurveSpace(202, 4)
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.uniform(0, 1, 1000), [0.0, 1.0]])
        sums = design_matrix(basis, t).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)


# ------------------------------------------------------------------ gram


class TestGram:
    def test_symmetric(self):
        g = gram_matrix(CurveSpace(30, 4))
        assert np.max(np.abs(g - g.T)) < 1e-12

    def test_all_ones_quadratic_form_is_one(self):
        # partition of unity: integral of (sum phi)^2 over [0,1] is exactly 1
        g = gram_matrix(CurveSpace(25, 4))
        ones = np.ones(25)
        assert ones @ g @ ones == pytest.approx(1.0, abs=1e-12)

    def test_bernstein_closed_form(self):
        # int_0^1 b_i b_j = C(3,i) C(3,j) / (7 C(6,i+j)) for cubic Bernstein
        g = gram_matrix(CurveSpace(4, 4))
        expected = np.array(
            [[comb(3, i) * comb(3, j) / (7 * comb(6, i + j)) for j in range(4)] for i in range(4)]
        )
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_positive_definite(self):
        g = gram_matrix(CurveSpace(202, 4))
        np.linalg.cholesky(g)  # raises if not PD


# ------------------------------------------------------------------ penalty


class TestPenalty:
    def test_symmetric(self):
        p = penalty_matrix(CurveSpace(30, 4))
        assert np.max(np.abs(p - p.T)) < 1e-12

    def test_order_below_three_rejected(self):
        # the second-derivative penalty needs order >= 3, so no such space is built
        for order in (1, 2):
            with pytest.raises(ValueError, match="must be at least 3"):
                CurveSpace(10, order)

    def test_affine_curve_has_zero_roughness(self):
        # exact statement of the null space on a moderate basis
        p = penalty_matrix(CurveSpace(12, 4))
        t = np.linspace(0, 1, 200)
        c = smooth(3.0 - 2.0 * t, 12, 0.0).coefficients
        assert abs(c @ p @ c) < 1e-10

    def test_affine_roughness_at_full_scale(self):
        # entries of P grow like 1/h^3 at 198 interior intervals, so the
        # affine null space only survives relative to the matrix magnitude
        p = penalty_matrix(CurveSpace(202, 4))
        t = np.linspace(0, 1, 606)
        c = smooth(3.0 - 2.0 * t, 202, 0.0).coefficients
        qf = c @ p @ c
        scale = np.abs(p).max() * (c @ c)
        assert abs(qf) < 1e-12 * scale

    def test_positive_semidefinite_small_eigenvalues(self):
        p = penalty_matrix(CurveSpace(24, 4))
        w = np.linalg.eigvalsh(p)
        assert w.min() > -1e-12 * max(1.0, w.max())

    @given(st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_quadratic_form_nonnegative_property(self, seed):
        rng = np.random.default_rng(seed)
        n_basis = int(rng.integers(4, 32))
        p = penalty_matrix(CurveSpace(n_basis, 4))
        c = rng.standard_normal(n_basis)
        assert c @ p @ c >= -1e-12 * max(1.0, np.abs(p).max() * (c @ c))

    def test_sine_roughness_matches_analytic_integral(self):
        # int (f'')^2 for f = sin(2 pi t) equals 8 pi^4
        curve = fit_function(lambda t: np.sin(2 * np.pi * t), 202)
        p = penalty_matrix(curve.space)
        qf = curve.coefficients @ p @ curve.coefficients
        assert qf == pytest.approx(8 * np.pi**4, rel=0.01)


# ------------------------------------------------------------------ smoothing


class TestSmoothing:
    def test_constant_reproduced_exactly(self):
        curve = smooth(np.full(100, 5.5), 20)
        t = np.linspace(0, 1, 333)
        np.testing.assert_allclose(curve(t), 5.5, atol=1e-9)
        residual = curve(np.linspace(0, 1, 100)) - 5.5
        assert np.max(np.abs(residual)) < 1e-9

    def test_sine_fit_error_below_1e3(self):
        m = 606
        t = np.linspace(0, 1, m)
        curve = smooth(np.sin(2 * np.pi * t), 202, 1e-8)
        dense = np.linspace(0, 1, 4000)
        err = curve(dense) - np.sin(2 * np.pi * dense)
        assert np.sqrt(np.mean(err**2)) < 1e-3

    def test_huge_lambda_recovers_least_squares_line(self):
        rng = np.random.default_rng(42)
        m = 400
        t = np.linspace(0, 1, m)
        y = 1.5 + 2.0 * t + 0.05 * rng.standard_normal(m)
        # closed-form simple linear regression as the oracle
        slope, intercept = np.polyfit(t, y, 1)
        curve = smooth(y, 30, 1e6)
        fitted = curve(t)
        assert np.sqrt(np.mean((fitted - (intercept + slope * t)) ** 2)) < 1e-2

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="underdetermine a 202-function basis"):
            smooth(np.zeros(40), 202)  # < n_basis / 3

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            smooth(np.zeros(100), 10, -1.0)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError):
            smooth(np.array([1.0, np.nan, 2.0] * 40), 10)

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(ValueError, match="200-point grid"):
            smooth_curve(np.zeros(199), CurveSpace(10, 4, 1e-8, 200))

    def test_space_equals_per_call_oracle(self):
        # same operations on the same operand layouts as the per-call path, so
        # the coefficients agree bit for bit; a singular normal matrix raises
        # the same ValueError on both paths
        rng = np.random.default_rng(2024)
        singular = 0
        for n_basis in (10, 40, 202):
            for lam in (0.0, 1e-8, 1e6):
                for m in (ceil(n_basis / 3), 200, 600):
                    space = CurveSpace(n_basis, 4, lam, m)
                    for _ in range(3):
                        y = 5.0 + 0.3 * np.cumsum(rng.standard_normal(m))
                        try:
                            expected = per_call_smooth(y, space)
                        except ValueError as exc:
                            singular += 1
                            with pytest.raises(ValueError, match=re.escape(str(exc))):
                                smooth_curve(y, space)
                            continue
                        got = smooth_curve(y, space)
                        assert np.array_equal(got.coefficients, expected.coefficients), (n_basis, lam, m)
        assert singular > 0

    def test_penalty_built_once_per_space(self, monkeypatch):
        calls = []
        original = fda.penalty_matrix
        monkeypatch.setattr(fda, "penalty_matrix", lambda space: calls.append(space) or original(space))
        space = CurveSpace(40, 4, 1e-8, 200)
        rng = np.random.default_rng(8)
        for _ in range(5):
            smooth_curve(rng.standard_normal(200), space)
        times = np.arange(150) * 0.01
        for base in (110.0, 220.0):
            f0 = base * (1.0 + 0.05 * np.sin(2 * np.pi * times))
            fda.curve_from_trajectory(F0Trajectory(times, f0, np.ones(150, bool)), space)
        assert len(calls) == 1

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.sampled_from([0.0, 1e-8, 1e-2, 1e6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_data_reproduced_for_any_lambda(self, a, b, lam):
        # affine functions span the penalty null space: smoothing never bends them
        t = np.linspace(0, 1, 120)
        curve = smooth(a + b * t, 16, lam)
        scale = max(1.0, abs(a), abs(b))
        np.testing.assert_allclose(curve(t), a + b * t, atol=1e-6 * scale)


class TestSampling:
    def test_constant_curve(self):
        c = FunctionalCurve(CurveSpace(10, 4), np.full(10, 2.5))
        np.testing.assert_allclose(c(np.linspace(0, 1, 17)), 2.5, atol=1e-12)

    def test_matches_naive_basis_expansion(self):
        # oracle: direct Cox-de Boor recursion summed coefficient by coefficient
        def naive_eval(space, coeffs, x):
            knots, k = space.knots, space.order

            def bspl(j, order, t):
                if order == 1:
                    if knots[j] <= t < knots[j + 1]:
                        return 1.0
                    # right-closed only on the very last nonempty interval
                    if t == knots[-1] and knots[j] < knots[j + 1] == t:
                        return 1.0
                    return 0.0
                left, right = 0.0, 0.0
                dl = knots[j + order - 1] - knots[j]
                if dl > 0:
                    left = (t - knots[j]) / dl * bspl(j, order - 1, t)
                dr = knots[j + order] - knots[j + 1]
                if dr > 0:
                    right = (knots[j + order] - t) / dr * bspl(j + 1, order - 1, t)
                return left + right

            return np.array(
                [sum(coeffs[j] * bspl(j, k, t) for j in range(len(coeffs))) for t in x]
            )

        rng = np.random.default_rng(9)
        space = CurveSpace(12, 4)
        coeffs = rng.standard_normal(12)
        curve = FunctionalCurve(space, coeffs)
        t = np.concatenate([rng.uniform(0, 1, 40), [0.0, 1.0]])
        np.testing.assert_allclose(curve(t), naive_eval(space, coeffs, t), atol=1e-12)

    def test_sampling_reports_smoothing_residuals(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.standard_normal(150)) * 0.1
        curve = smooth(y, 30, 1e-4)
        resampled = curve(np.linspace(0, 1, 150))
        direct = curve(np.linspace(0, 1, 150))
        np.testing.assert_allclose(resampled, direct, atol=1e-12)


class TestUniformResample:
    def test_linear_interp_midpoint(self):
        out = uniform_resample(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 3)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])

    def test_irregular_times(self):
        times = np.array([2.0, 2.5, 4.0])
        vals = np.array([1.0, 2.0, 5.0])
        out = uniform_resample(times, vals, 5)
        assert out[0] == 1.0 and out[-1] == 5.0


def constant_trajectory(hz: float, voiced=None) -> F0Trajectory:
    """150 frames at 10 ms of one f0, NaN where unvoiced."""
    voiced = np.ones(150, bool) if voiced is None else np.asarray(voiced, bool)
    return F0Trajectory(np.arange(150) * 0.01, np.where(voiced, hz, np.nan), voiced)


class TestCurveFromTrajectory:
    """Hz to semitones re ref_hz (12*log2(f/ref)); CurveSpace.to_hz maps back."""

    def test_octave_is_twelve(self):
        curve = fda.curve_from_trajectory(constant_trajectory(200.0), CurveSpace(20, 4, ref_hz=100.0))
        np.testing.assert_allclose(curve(np.linspace(0, 1, 50)), 12.0, atol=1e-9)

    def test_reference_is_zero(self):
        curve = fda.curve_from_trajectory(constant_trajectory(100.0), CurveSpace(20, 4, ref_hz=100.0))
        np.testing.assert_allclose(curve(np.linspace(0, 1, 50)), 0.0, atol=1e-9)

    def test_semitone_examples(self):
        space = CurveSpace(20, 4, ref_hz=100.0)
        for hz, semitones in ((200.0, 12.0), (100.0, 0.0), (50.0, -12.0)):
            t = constant_trajectory(hz)
            curve = fda.curve_from_trajectory(t, space)
            np.testing.assert_allclose(curve(np.linspace(0, 1, 50)), semitones, atol=1e-9)
            np.testing.assert_allclose(space.to_hz(curve, t.times), hz, rtol=1e-9)

    def test_nonpositive_value_rejected(self):
        space = CurveSpace(20, 4)
        for bad in (0.0, -100.0):
            values = np.full(150, 120.0)
            values[70] = bad
            with pytest.raises(ValueError, match="f0 values must be positive"):
                fda.curve_from_trajectory(F0Trajectory(np.arange(150) * 0.01, values, np.ones(150, bool)), space)

    @given(
        st.floats(min_value=20.0, max_value=2000.0),
        st.floats(min_value=20.0, max_value=500.0),
        st.lists(st.booleans(), min_size=150, max_size=150).filter(any),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, hz, ref, voiced):
        # a constant is in the spline space and the penalty's null space, so
        # smoothing keeps it and only the semitone mapping is tested
        t = constant_trajectory(hz, voiced)
        space = CurveSpace(20, 4, ref_hz=ref)
        np.testing.assert_allclose(space.to_hz(fda.curve_from_trajectory(t, space), t.times), hz, rtol=1e-9)


# ------------------------------------------------------------------ fpca


def make_family(seed: int, n_curves: int = 20, kind: str = "trig", space: CurveSpace = CurveSpace()):
    """A labeled curve family with a known low-rank structure plus noise, smoothed in space."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, space.grid_points)
    if kind == "trig":
        mean = 2.0 + np.sin(2 * np.pi * t)
        g1, g2 = np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)
    elif kind == "poly":
        mean = 1.0 + t
        g1, g2 = t * (1 - t), t**2 - t**3
    else:
        mean = np.exp(-((t - 0.4) ** 2) / 0.05)
        g1 = np.exp(-((t - 0.25) ** 2) / 0.02)
        g2 = np.exp(-((t - 0.7) ** 2) / 0.03)
    curves, labels = [], []
    for k in range(n_curves):
        a, b = 2.0 * rng.standard_normal(), 0.7 * rng.standard_normal()
        wiggle = 0.01 * rng.standard_normal() * np.sin(6 * np.pi * t + rng.uniform(0, np.pi))
        curves.append(smooth_curve(mean + a * g1 + b * g2 + wiggle, space))
        labels.append(CurveLabel(f"c{k:02d}", f"spk{k % 5}", "low" if k % 2 else "high", "modal"))
    return curves, labels


def labels_for(curves) -> list:
    """One placeholder CurveLabel per curve, for fits whose labels no assertion reads."""
    return [CurveLabel(f"c{k:02d}", "spk", "g", "modal") for k in range(len(curves))]


def dense_grid_pca(curves, m: int = 2000):
    """Ordinary PCA of the curves sampled on a dense grid, trapezoid-weighted.

    Returns eigenvalues and L2-normalized eigenfunction values on the grid;
    the independent oracle for fpca_fit.
    """
    t = np.linspace(0.0, 1.0, m)
    x = np.stack([c(t) for c in curves])
    xc = x - x.mean(axis=0)
    w = np.full(m, 1.0 / (m - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    sw = np.sqrt(w)
    y = xc * sw
    k = (y @ y.T) / (x.shape[0] - 1)
    lam, v = np.linalg.eigh(k)
    order = np.argsort(lam)[::-1]
    lam = np.maximum(lam[order], 0.0)
    v = v[:, order]
    funcs = []
    for j in range(min(x.shape[0] - 1, m)):
        f = (y.T @ v[:, j]) / sw  # back to function values
        norm = np.sqrt(np.sum(w * f * f))
        funcs.append(f / norm if norm > 0 else f)
    return lam, funcs, t


class TestFpcaBasics:
    def test_two_curve_symmetric_family(self):
        t = np.linspace(0, 1, 200)
        mu = 1.0 + 0.5 * t
        delta = np.sin(2 * np.pi * t)
        c1 = smooth(mu + delta, 40, 1e-9)
        c2 = smooth(mu - delta, 40, 1e-9)
        model = fpca_fit([c1, c2], labels_for([c1, c2]))
        assert model.n_components == 1
        np.testing.assert_allclose(model.variance_fraction, [1.0], atol=1e-12)
        # PC1 is the normalized offset; sign fixed by the integral convention
        dense = np.linspace(0, 1, 1500)
        pc = model.components[0](dense)
        ref = np.sin(2 * np.pi * dense) / np.sqrt(0.5)  # ||sin||_L2 = sqrt(1/2)
        err_plus = np.sqrt(np.mean((pc - ref) ** 2))
        err_minus = np.sqrt(np.mean((pc + ref) ** 2))
        assert min(err_plus, err_minus) < 1e-3

    def test_four_to_one_variance_ratio(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 1, 300)
        g1, g2 = np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)
        n = 40
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        # decorrelate, then force the sample variances to exactly 4 and 1;
        # leftover correlation would tilt the eigenvalues away from 4:1
        a = a - a.mean()
        b = b - b.mean()
        b = b - (a @ b) / (a @ a) * a
        a = a / a.std(ddof=1) * 2.0
        b = b / b.std(ddof=1) * 1.0
        curves = [smooth(2.0 + a[k] * g1 + b[k] * g2, 60, 1e-9) for k in range(n)]
        model = fpca_fit(curves, labels_for(curves))
        np.testing.assert_allclose(model.variance_fraction[:2], [0.8, 0.2], atol=1e-3)

    def test_requires_two_curves(self):
        c = smooth(np.ones(40), 10)
        with pytest.raises(ValueError):
            fpca_fit([c], labels_for([c]))

    def test_mismatched_bases_rejected(self):
        c1 = smooth(np.ones(60), 10)
        c2 = smooth(np.ones(60), 12)
        with pytest.raises(ValueError, match="curve 1 is not in the curve space of curve 0"):
            fpca_fit([c1, c2], labels_for([c1, c2]))

    def test_identical_curves_rejected(self):
        c = smooth(np.ones(60), 10)
        with pytest.raises(ValueError):
            fpca_fit([c, c], labels_for([c, c]))

    def test_label_count_mismatch_rejected(self):
        curves, labels = make_family(3, n_curves=4, space=CurveSpace(20))
        with pytest.raises(ValueError):
            fpca_fit(curves, labels[:-1])

    def test_labels_required(self):
        # every model names its training curves, so donor lookups and exports never guess
        curves, labels = make_family(3, n_curves=4, space=CurveSpace(20))
        with pytest.raises(TypeError, match="labels"):
            fpca_fit(curves)
        model = fpca_fit(curves, labels)
        assert model.labels == tuple(labels)
        with pytest.raises(TypeError):
            dataclasses.replace(model, labels=None)


@pytest.fixture(scope="module")
def invariant_model():
    curves, labels = make_family(11, n_curves=20)
    return fpca_fit(curves, labels), curves


class TestFpcaInvariants:

    def test_eigenvalues_nonincreasing(self, invariant_model):
        m, _ = invariant_model
        assert np.all(np.diff(m.eigenvalues) <= 1e-15)

    def test_variance_fractions_sum_to_one(self, invariant_model):
        m, _ = invariant_model
        assert np.sum(m.variance_fraction) == pytest.approx(1.0, abs=1e-9)

    def test_components_l2_orthonormal(self, invariant_model):
        m, _ = invariant_model
        b = m.component_matrix()
        gram = b.T @ m.space.gram @ b
        np.testing.assert_allclose(gram, np.eye(m.n_components), atol=1e-8)

    def test_sign_convention_integral_nonnegative(self, invariant_model):
        m, _ = invariant_model
        ones = np.ones(m.space.n_basis)
        for comp in m.components:
            integral = comp.coefficients @ (m.space.gram @ ones)
            assert integral >= -1e-9

    def test_training_scores_match_projection(self, invariant_model):
        m, curves = invariant_model
        for k in (0, 7, 19):
            s = fpca_project(curves[k], m)
            np.testing.assert_allclose(
                s[: m.n_components], m.training_scores[k], atol=1e-8
            )

    def test_projection_of_mean_is_zero(self, invariant_model):
        m, _ = invariant_model
        s = fpca_project(m.mean, m)
        np.testing.assert_allclose(s, 0.0, atol=1e-10)

    def test_projection_of_shifted_mean(self, invariant_model):
        m, _ = invariant_model
        c = m.mean.coefficients + 2.0 * m.components[0].coefficients
        s = fpca_project(FunctionalCurve(m.space, c), m)
        expected = np.zeros(m.n_components)
        expected[0] = 2.0
        np.testing.assert_allclose(s, expected, atol=1e-8)

    def test_projection_basis_mismatch_rejected(self, invariant_model):
        m, _ = invariant_model
        other = smooth(np.ones(100), 10)
        with pytest.raises(ValueError, match="not in the model's curve space"):
            fpca_project(other, m)
        # the same basis is not enough: the smoothing lambda is part of the space too
        rougher = smooth_curve(m.mean(np.linspace(0, 1, 600)), CurveSpace(lam=1e-6))
        with pytest.raises(ValueError, match="not in the model's curve space"):
            fpca_project(rougher, m)


@pytest.fixture(scope="module")
def fitted():
    curves, labels = make_family(23, n_curves=12, kind="bumps")
    model = fpca_fit(curves, labels)
    return model, curves


class TestReconstruction:

    def test_zero_scores_give_mean(self, fitted):
        model, _ = fitted
        s = np.zeros(model.n_components)
        out = reconstruct(model, s, model.n_components)
        np.testing.assert_allclose(out.coefficients, model.mean.coefficients, atol=1e-12)

    def test_full_reconstruction_recovers_training_curves(self, fitted):
        model, curves = fitted
        n = model.n_components
        for k, curve in enumerate(curves):
            s = model.training_scores[k]
            rebuilt = reconstruct(model, s, n)
            t = np.linspace(0, 1, 2000)
            err = np.sqrt(np.mean((rebuilt(t) - curve(t)) ** 2))
            assert err < 1e-6

    def test_error_nonincreasing_in_component_count(self, fitted):
        model, curves = fitted
        for k, curve in enumerate(curves):
            s = model.training_scores[k]
            errors = [
                l2_distance(reconstruct(model, s, n), curve)
                for n in range(model.n_components + 1)
            ]
            diffs = np.diff(errors)
            assert np.all(diffs <= 1e-9)

    def test_excessive_n_rejected(self, fitted):
        model, _ = fitted
        s = model.training_scores[0]
        with pytest.raises(ValueError):
            reconstruct(model, s, model.n_components + 1)


class TestDenseGridOracle:
    def test_eigenvalues_and_functions_match_grid_pca(self):
        curves, labels = make_family(17, n_curves=20, kind="trig")
        model = fpca_fit(curves, labels)
        lam, funcs, t = dense_grid_pca(curves)
        # compare the components that carry real variance
        keep = model.eigenvalues > 1e-10 * model.eigenvalues[0]
        n_sig = int(np.sum(keep))
        np.testing.assert_allclose(
            model.eigenvalues[:n_sig], lam[:n_sig], rtol=1e-4
        )
        for j in range(min(n_sig, 3)):
            mine = model.components[j](t)
            ref = funcs[j]
            err = min(
                np.sqrt(np.mean((mine - ref) ** 2)),
                np.sqrt(np.mean((mine + ref) ** 2)),
            )
            assert err < 1e-3


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        curves, labels = make_family(31, n_curves=8, space=CurveSpace(30))
        model = fpca_fit(curves, labels)
        p = tmp_path / "model.json"
        save_model(p, model)
        back = load_model(p)
        np.testing.assert_array_equal(back.mean.coefficients, model.mean.coefficients)
        assert back.n_components == model.n_components
        for a, b in zip(back.components, model.components):
            np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(back.training_scores, model.training_scores)
        np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
        assert back.labels == model.labels

    def test_curve_space_round_trip(self, tmp_path):
        space = CurveSpace(30, 4, 1e-6, 150, 120.0)
        curves, labels = make_family(31, n_curves=8, space=space)
        p = tmp_path / "model.json"
        save_model(p, fpca_fit(curves, labels))
        back = load_model(p).space
        assert back == space and hash(back) == hash(space)
        assert back != CurveSpace(30, 4, 1e-6, 150, 100.0)

    def test_model_without_curve_space(self, tmp_path):
        # a model's scores mean something only in its space, so a file that does not record it is refused
        import json

        curves, labels = make_family(31, n_curves=8, space=CurveSpace(30))
        p = tmp_path / "model.json"
        save_model(p, fpca_fit(curves, labels))
        payload = json.loads(p.read_text())
        del payload["curve_space"]
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no curve_space block.*refit the model"):
            load_model(p)

    def test_model_owns_its_space(self, tmp_path):
        names = {f.name for f in dataclasses.fields(fda.FpcaModel)}
        assert "space" in names and not names & {"basis", "gram"}
        curves, labels = make_family(31, n_curves=8, space=CurveSpace(30))
        # the curves carry their space, so a second one could only disagree with it
        with pytest.raises(TypeError, match="space"):
            fpca_fit(curves, labels, space=curves[0].space)
        model = fpca_fit(curves, labels)
        assert model.space is curves[0].space
        p = tmp_path / "model.json"
        save_model(p, model)
        assert '"curve_space"' in p.read_text()
        assert fda.MODEL_FORMAT_VERSION == 1

    def test_space_must_share_the_curves_basis(self):
        # a basis shared is not enough: every curve must come from one space
        curves, labels = make_family(31, n_curves=8, space=CurveSpace(30))
        for other in (CurveSpace(20), CurveSpace(30, lam=1e-6), CurveSpace(30, ref_hz=120.0)):
            stray, stray_labels = make_family(32, n_curves=1, space=other)
            with pytest.raises(ValueError, match="curve 8 is not in the curve space of curve 0"):
                fpca_fit(curves + stray, labels + stray_labels)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("components", (), "at least one component"),
            ("training_scores", np.zeros((8, 6)), r"training_scores of shape \(8, 6\) need 7 columns"),
            ("training_scores", np.zeros(7), r"training_scores of shape \(7,\) need 7 columns"),
            ("eigenvalues", np.ones(6), "one entry per component"),
            ("variance_fraction", np.ones(8), "one entry per component"),
            ("labels", (CurveLabel("x", "s", "g", "modal"),), "1 labels for 8 training curves"),
        ],
        ids=["no_components", "score_columns", "scores_1d", "eigenvalues", "variance_fraction", "labels"],
    )
    def test_inconsistent_model_rejected(self, field, value, message):
        curves, labels = make_family(31, n_curves=8, space=CurveSpace(30))
        model = fpca_fit(curves, labels)
        assert model.n_components == 7
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, **{field: value})

    def test_version_field_enforced(self, tmp_path):
        import json

        curves, labels = make_family(5, n_curves=4, space=CurveSpace(20))
        model = fpca_fit(curves, labels)
        p = tmp_path / "model.json"
        save_model(p, model)
        payload = json.loads(p.read_text())
        assert "version" in payload
        payload["version"] = 999
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_model(p)
