"""B-spline curve representation and functional PCA in coefficient space.

Curves live on the normalized domain [0,1]. A CurveSpace fixes how an f0
trajectory becomes a curve (B-spline basis size and order, smoothing lambda,
resampling grid, semitone reference); it is checked once when built, and
factors its penalized normal matrix and builds its Gram matrix on first use.
Every curve and FpcaModel carries its space, and scores mean something only
there. All inner products are true L2 inner products: the basis is not
orthonormal, so the Gram matrix enters every projection. The eigenproblem is
solved in the metric-corrected coordinates Y = (X - mean) @ L with G = L L^T,
which makes ordinary PCA on Y equivalent to functional PCA on the curves.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from .audio import frozen
from .pitch import F0Trajectory, interpolate_unvoiced

MODEL_FORMAT_VERSION = 1

#: Default reference for semitone conversion (12*log2(f/ref)).
DEFAULT_SEMITONE_REF_HZ = 100.0

DEFAULT_N_BASIS = 202
DEFAULT_ORDER = 4
DEFAULT_LAMBDA = 1e-8
DEFAULT_GRID_POINTS = 600


@dataclass(frozen=True)
class CurveSpace:
    """The one f0 -> curve representation: basis, smoothing lambda, grid, semitone reference.

    The basis is order-`order` B-splines (degree order - 1) on [0,1] with
    equally spaced interior knots and order-fold endpoint knots; n_basis =
    order + number of interior knots, so (202, 4) places 198 interior knots.
    Every curve fitted, projected or rebuilt against one model must come from
    the same space. The constructor is the only place these values are
    checked. The knots, the grid design matrix, the Cholesky factor of the
    penalized normal matrix and the basis Gram matrix are built on first use
    and then shared by every curve smoothed, fitted or projected in this space.
    """

    n_basis: int = DEFAULT_N_BASIS
    order: int = DEFAULT_ORDER
    lam: float = DEFAULT_LAMBDA
    grid_points: int = DEFAULT_GRID_POINTS
    ref_hz: float = DEFAULT_SEMITONE_REF_HZ

    def __post_init__(self):
        if not self.order >= 3:
            raise ValueError(f"basis.order ({self.order}) must be at least 3 for the second-derivative penalty")
        if not self.n_basis >= self.order:
            raise ValueError(f"n_basis ({self.n_basis}) must be at least order ({self.order})")
        if not self.lam >= 0:
            raise ValueError("basis.lambda must be nonnegative")
        if not self.grid_points >= self.n_basis / 3:
            raise ValueError(
                f"basis.grid_points ({self.grid_points}) underdetermine a "
                f"{self.n_basis}-function basis; need at least n_basis/3"
            )
        if not self.ref_hz > 0:
            raise ValueError("semitone_ref_hz must be positive")

    @cached_property
    def knots(self) -> np.ndarray:
        breaks = np.linspace(0.0, 1.0, self.n_basis - self.order + 2)
        return frozen(np.concatenate([np.zeros(self.order), breaks[1:-1], np.ones(self.order)]))

    @cached_property
    def design(self) -> np.ndarray:
        """Basis values on the uniform grid k/(grid_points-1)."""
        return design_matrix(self, np.linspace(0.0, 1.0, self.grid_points))

    @cached_property
    def factor(self) -> tuple:
        """cho_factor of D^T D + lam * P; failure means the grid cannot support the basis."""
        d = self.design
        a = d.T @ d + self.lam * penalty_matrix(self)
        try:
            return cho_factor(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular normal matrix; degenerate sampling or basis: {exc}") from exc

    @cached_property
    def gram(self) -> np.ndarray:
        """The basis Gram matrix: every L2 inner product of curves in this space."""
        return gram_matrix(self)

    def to_hz(self, curve: FunctionalCurve, times: np.ndarray) -> np.ndarray:
        """A semitone curve in Hz at frame times, mapped onto [0,1] as the fit mapped them."""
        return self.ref_hz * np.exp2(curve(unit_times(times)) / 12.0)


@dataclass(frozen=True, eq=False)
class FunctionalCurve:
    space: CurveSpace
    coefficients: np.ndarray

    def __post_init__(self):
        c = frozen(self.coefficients, np.float64)
        if c.shape != (self.space.n_basis,):
            raise ValueError(
                f"coefficient vector of length {c.shape} does not match n_basis {self.space.n_basis}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def __call__(self, t) -> np.ndarray:
        spl = BSpline(self.space.knots, self.coefficients, self.space.order - 1, extrapolate=False)
        return spl(np.asarray(t, dtype=np.float64))


@dataclass(frozen=True)
class CurveLabel:
    """Identity of one training curve: which utterance, by whom, under what condition."""

    curve_id: str
    speaker: str
    group: str
    condition: str


def design_matrix(space: CurveSpace, t: np.ndarray) -> np.ndarray:
    """Dense matrix of basis values, rows indexed by evaluation points."""
    t = np.asarray(t, dtype=np.float64)
    return BSpline.design_matrix(t, space.knots, space.order - 1).toarray()


def _quadrature_nodes(space: CurveSpace):
    """Gauss-Legendre nodes/weights over every knot span, (order+1) per span.

    Exact for polynomials up to degree 2*order+1, which covers products of
    basis functions (degree 2*(order-1)) and of their second derivatives.
    """
    gx, gw = np.polynomial.legendre.leggauss(space.order + 1)
    breaks = np.unique(space.knots)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    nodes = (half[:, None] * (gx[None, :] + 1.0) + lo[:, None]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def gram_matrix(space: CurveSpace) -> np.ndarray:
    """G[i,j] = integral of phi_i * phi_j over [0,1], exact by quadrature."""
    nodes, weights = _quadrature_nodes(space)
    d = design_matrix(space, nodes)
    g = d.T @ (weights[:, None] * d)
    return 0.5 * (g + g.T)


def penalty_matrix(space: CurveSpace) -> np.ndarray:
    """P[i,j] = integral of phi_i'' * phi_j''; null space is the affine curves."""
    nodes, weights = _quadrature_nodes(space)
    d2 = BSpline(space.knots, np.eye(space.n_basis), space.order - 1).derivative(2)(nodes)
    p = d2.T @ (weights[:, None] * d2)
    return 0.5 * (p + p.T)


def unit_times(times: np.ndarray) -> np.ndarray:
    """Frame times mapped linearly onto [0,1], the first to 0 and the last to 1: the one time axis of every curve."""
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("need at least two samples to define a time span")
    span = times[-1] - times[0]
    if span <= 0:
        raise ValueError("times must span a positive interval")
    return (times - times[0]) / span


def uniform_resample(times: np.ndarray, values: np.ndarray, n_points: int) -> np.ndarray:
    """Map an irregular time axis onto n_points equal steps of [0,1] by linear interpolation."""
    return np.interp(np.linspace(0.0, 1.0, n_points), unit_times(times), np.asarray(values, dtype=np.float64))


def smooth_curve(samples: np.ndarray, space: CurveSpace) -> FunctionalCurve:
    """Penalized least-squares fit of values sampled on the space's uniform grid.

    Minimizes sum (y_k - f(t_k))^2 + lam * integral (f'')^2 with t_k the
    uniform grid k/(grid_points-1), by one solve against the space's factor.
    """
    y = np.asarray(samples, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("samples must be a 1-D array")
    if y.size != space.grid_points:
        raise ValueError(f"{y.size} samples do not match the space's {space.grid_points}-point grid")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    return FunctionalCurve(space, cho_solve(space.factor, space.design.T @ y))


def curve_from_trajectory(t: F0Trajectory, space: CurveSpace) -> FunctionalCurve:
    """One utterance's Hz f0 trajectory as a smooth semitone curve on [0,1].

    Unvoiced gaps are interpolated, values converted to semitones re
    space.ref_hz, the frame times mapped onto the space's uniform grid and the
    result smoothed with smooth_curve.
    """
    filled = interpolate_unvoiced(t)
    if np.any(filled.values <= 0):
        raise ValueError("all f0 values must be positive")
    st = 12.0 * np.log2(filled.values / space.ref_hz)
    return smooth_curve(uniform_resample(filled.times, st, space.grid_points), space)


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """Functional PCA decomposition: mean curve, eigenfunctions, and the training record.

    space is the CurveSpace the training curves came from: its basis carries
    every curve of the model, its Gram matrix every projection, and a curve
    projected against the model must come from it. components are
    orthonormal under the L2 inner product, not in raw coefficient space.
    """

    space: CurveSpace
    mean: FunctionalCurve
    components: tuple
    eigenvalues: np.ndarray
    variance_fraction: np.ndarray
    training_scores: np.ndarray
    labels: tuple  # one CurveLabel per training curve

    def __post_init__(self):
        k = len(self.components)
        if k < 1:
            raise ValueError("a model needs at least one component")
        shape = self.training_scores.shape
        if len(shape) != 2 or shape[1] != k:
            raise ValueError(f"training_scores of shape {shape} need {k} columns, one per component")
        if self.eigenvalues.shape != (k,) or self.variance_fraction.shape != (k,):
            raise ValueError(f"eigenvalues and variance_fraction need one entry per component ({k})")
        if len(self.labels) != shape[0]:
            raise ValueError(f"{len(self.labels)} labels for {shape[0]} training curves")

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component_matrix(self) -> np.ndarray:
        """Coefficients of the eigenfunctions, one column per component."""
        return np.column_stack([c.coefficients for c in self.components])


def _fix_component_signs(b: np.ndarray, gram_ones: np.ndarray) -> np.ndarray:
    """Flip columns so each eigenfunction has nonnegative integral over [0,1].

    Since the basis is a partition of unity, integral(PC_i) = b_i . (G @ 1).
    Near-zero integrals fall back to the first nonzero coefficient.
    """
    b = b.copy()
    for j in range(b.shape[1]):
        integral = float(b[:, j] @ gram_ones)
        if abs(integral) > 1e-10:
            if integral < 0:
                b[:, j] = -b[:, j]
            continue
        nz = np.nonzero(np.abs(b[:, j]) > 1e-12)[0]
        if nz.size and b[nz[0], j] < 0:
            b[:, j] = -b[:, j]
    return b


def fpca_fit(curves: Sequence[FunctionalCurve], labels: Sequence[CurveLabel]) -> FpcaModel:
    """Fit functional PCA over curves of one curve space, which the model keeps.

    The coefficient covariance C is transformed to L^T C L (G = L L^T); its
    symmetric eigendecomposition gives eigenfunctions B = L^{-T} U that are
    orthonormal under G. Eigenvalues equal the per-component variance of the
    training scores (ddof 1). Components with index >= n_curves - 1 carry no
    variance and are dropped.
    """
    curves = list(curves)
    if len(curves) < 2:
        raise ValueError("functional PCA needs at least 2 curves")
    space = curves[0].space
    for k, c in enumerate(curves):
        if c.space != space:
            raise ValueError(f"curve {k} is not in the curve space of curve 0")
    labels = tuple(labels)
    if len(labels) != len(curves):
        raise ValueError("one label per curve required")

    x = np.stack([c.coefficients for c in curves])
    n_curves = x.shape[0]
    mean_c = x.mean(axis=0)
    xc = x - mean_c

    g = space.gram
    l = cholesky(g, lower=True)
    y = xc @ l
    cov = (y.T @ y) / (n_curves - 1)
    w, u = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = np.maximum(w[order], 0.0)
    u = u[:, order]

    n_keep = min(n_curves - 1, space.n_basis)
    b = solve_triangular(l, u[:, :n_keep], trans="T", lower=True)
    b = _fix_component_signs(b, g @ np.ones(space.n_basis))

    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("zero total variance; curves are all identical")
    eigenvalues = w[:n_keep]
    variance_fraction = eigenvalues / total
    scores = xc @ (g @ b)

    components = tuple(FunctionalCurve(space, b[:, j]) for j in range(n_keep))
    return FpcaModel(
        space=space,
        mean=FunctionalCurve(space, mean_c),
        components=components,
        eigenvalues=eigenvalues,
        variance_fraction=variance_fraction,
        training_scores=scores,
        labels=labels,
    )


def fpca_project(curve: FunctionalCurve, model: FpcaModel) -> np.ndarray:
    """Scores s_i = <curve - mean, PC_i> under the L2 inner product, one per component."""
    if curve.space != model.space:
        raise ValueError("curve is not in the model's curve space")
    centered = curve.coefficients - model.mean.coefficients
    return (model.space.gram @ centered) @ model.component_matrix()


def reconstruct(model: FpcaModel, scores: np.ndarray, n: int) -> FunctionalCurve:
    """Eq.-style synthesis: mean + sum_{i<n} s_i * PC_i, in coefficient space."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > model.n_components:
        raise ValueError(f"n = {n} exceeds the {model.n_components} available components")
    if n > len(scores):
        raise ValueError(f"n = {n} exceeds the {len(scores)} provided scores")
    c = model.mean.coefficients.copy()
    if n:
        c = c + model.component_matrix()[:, :n] @ scores[:n]
    return FunctionalCurve(model.space, c)


def save_model(path, model: FpcaModel) -> None:
    """Serialize to JSON, the curve space included: a basis block and a curve_space block.

    The blocks (basis size and order; lambda, grid, semitone reference) let a
    later run check that it uses the same space. The Gram matrix is recomputed on load, not stored.
    """
    space = model.space
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "basis": {"n_basis": space.n_basis, "order": space.order},
        "curve_space": {"lambda": space.lam, "grid_points": space.grid_points, "semitone_ref_hz": space.ref_hz},
        "mean": model.mean.coefficients.tolist(),
        "components": [c.coefficients.tolist() for c in model.components],
        "eigenvalues": model.eigenvalues.tolist(),
        "variance_fraction": model.variance_fraction.tolist(),
        "training_scores": model.training_scores.tolist(),
        "labels": [dataclasses.asdict(l) for l in model.labels],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> FpcaModel:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file version: {version!r}")
    if "curve_space" not in payload:
        raise ValueError("model file has no curve_space block, so its scores cannot be checked; refit the model")
    basis, cs = payload["basis"], payload["curve_space"]
    space = CurveSpace(basis["n_basis"], basis["order"], cs["lambda"], cs["grid_points"], cs["semitone_ref_hz"])
    components = tuple(FunctionalCurve(space, np.asarray(c)) for c in payload["components"])
    return FpcaModel(
        space=space,
        mean=FunctionalCurve(space, np.asarray(payload["mean"])),
        components=components,
        eigenvalues=np.asarray(payload["eigenvalues"], dtype=np.float64),
        variance_fraction=np.asarray(payload["variance_fraction"], dtype=np.float64),
        training_scores=np.asarray(payload["training_scores"], dtype=np.float64),
        labels=tuple(CurveLabel(**l) for l in payload["labels"]),
    )
