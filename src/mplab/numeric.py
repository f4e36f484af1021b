"""Floating-point laboratory: moment map, orbit samplers, and identity checks.

Axis conventions (fixed once by calibration against the exact engine, not by
formula):

* the dominant chamber is the positive third-axis ray,
* real-coordinate points have moment values in the (e1, e3)-plane (the
  negated eigenspace of entrywise conjugation), and the fixed axis of the
  conjugation involution is e2,
* the per-factor unit vector sends (0:1) to +e3 and the Borel-fixed point
  (1:0) to -e3.  The latter sign is forced by the exact polytopes: the
  factor-times-point orbit closure must land on {lam1 - lam2}, not
  {lam1 + lam2}, on the chamber ray.

The derivative identity for invariant sections is checked with the
fundamental vector field generated by exp(-t*xi); with that convention and
the pairing normalization calibrated below, the identity

    L(xi_M) |s|^2 = 4 pi r (-w(pr xi) + <pr xi, Phi>) |s|^2

holds for every upper-triangular xi, where w is the section's weight in
alpha-units and pr is the imaginary-part projection onto the compact algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .orbits import FlagPoint
from .reps import BiHomogPoly, SectionSpaceSpec, highest_weight_vector

CHAMBER_AXIS = np.array([0.0, 0.0, 1.0])
KSTAR_AXIS = 1           # coordinate fixed by the conjugation involution
QSTAR_PLANE = (0, 2)     # coordinates negated by it

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

ComplexPair = tuple[complex, complex]
ComplexFlagPoint = tuple[ComplexPair, ComplexPair]


class NormalizationUncalibratedError(RuntimeError):
    """Gradient checks require the calibration constant to be fixed first."""


def _as_complex_pairs(point) -> ComplexFlagPoint:
    if isinstance(point, FlagPoint):
        return point.as_complex_pairs()
    (a1, c1), (a2, c2) = point
    return ((complex(a1), complex(c1)), (complex(a2), complex(c2)))


def hopf_vector(a: complex, c: complex) -> np.ndarray:
    """Unit vector of a homogeneous coordinate pair; (0:1) -> +e3, (1:0) -> -e3."""
    n = abs(a) ** 2 + abs(c) ** 2
    if n == 0:
        raise ValueError("zero coordinate pair")
    ac = np.conj(a) * c
    return np.array([-2 * ac.real, -2 * ac.imag, abs(c) ** 2 - abs(a) ** 2]) / n


def _hopf_batch(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    n = np.abs(a) ** 2 + np.abs(c) ** 2
    ac = np.conj(a) * c
    return np.stack([-2 * ac.real, -2 * ac.imag,
                     np.abs(c) ** 2 - np.abs(a) ** 2], axis=-1) / n[:, None]


def moment_map(point, lam1: float, lam2: float) -> np.ndarray:
    """Diagonal-action moment value lam1*h(p1) + lam2*h(p2) in R^3 (alpha-units)."""
    (a1, c1), (a2, c2) = _as_complex_pairs(point)
    return lam1 * hopf_vector(a1, c1) + lam2 * hopf_vector(a2, c2)


@dataclass(frozen=True)
class SampleSet:
    """Reproducible orbit sample: identical (inputs, seed) give identical arrays."""

    seed: int
    subgroup: str
    base_point: ComplexFlagPoint
    lam1: int
    lam2: int
    coords: np.ndarray   # (n, 4) complex: a1, c1, a2, c2
    phis: np.ndarray     # (n, 3) float

    @property
    def count(self) -> int:
        return int(self.coords.shape[0])


def _draw_matrices(subgroup: str, n: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample 2x2 matrices (g1, g2) applied to the two factors."""
    if subgroup == "B":
        alpha = np.exp(rng.uniform(-3, 3, n) + 1j * rng.uniform(-np.pi, np.pi, n))
        beta = np.tan(rng.uniform(-1.55, 1.55, n)) + 1j * np.tan(rng.uniform(-1.55, 1.55, n))
        g = _upper(alpha, beta)
        return g, g
    if subgroup == "H":
        alpha = np.exp(rng.uniform(-3, 3, n)).astype(complex)
        beta = np.tan(rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, n)).astype(complex)
        g = _upper(alpha, beta)
        return g, g
    if subgroup == "G":
        return _haar_su2(n, rng), _haar_su2(n, rng)
    if subgroup == "G'":
        theta = rng.uniform(-np.pi, np.pi, n)
        t = rng.uniform(-2, 2, n)
        s = np.tan(rng.uniform(-1.5, 1.5, n))
        k = np.zeros((n, 2, 2), dtype=complex)
        k[:, 0, 0] = np.cos(theta)
        k[:, 0, 1] = np.sin(theta)
        k[:, 1, 0] = -np.sin(theta)
        k[:, 1, 1] = np.cos(theta)
        an = _upper(np.exp(t).astype(complex), (np.exp(t) * s).astype(complex))
        g = k @ an
        return g, g
    raise ValueError(f"unknown subgroup tag {subgroup!r}; expected B, H, G or G'")


def _upper(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    n = alpha.shape[0]
    g = np.zeros((n, 2, 2), dtype=complex)
    g[:, 0, 0] = alpha
    g[:, 0, 1] = beta
    g[:, 1, 1] = 1 / alpha
    return g


def _haar_su2(n: int, rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    g = np.zeros((n, 2, 2), dtype=complex)
    g[:, 0, 0] = q[:, 0] + 1j * q[:, 1]
    g[:, 0, 1] = q[:, 2] + 1j * q[:, 3]
    g[:, 1, 0] = -q[:, 2] + 1j * q[:, 3]
    g[:, 1, 1] = q[:, 0] - 1j * q[:, 1]
    return g


def sample_orbit(x, subgroup: str, n: int, seed: int,
                 lam1: int = 2, lam2: int = 1) -> SampleSet:
    """n orbit points g.x with g from a seeded parametrization of the subgroup.

    B is the complex upper-triangular determinant-1 group, H its real
    positive-diagonal identity component, G pairs of independently drawn
    special-unitary elements acting factor-by-factor, and G' the real
    determinant-1 group; B, H, G' act by the same matrix on both factors.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    base = _as_complex_pairs(x)
    rng = np.random.default_rng(seed)
    g1, g2 = _draw_matrices(subgroup, n, rng)
    (a1, c1), (a2, c2) = base
    v1 = g1 @ np.array([a1, c1], dtype=complex)
    v2 = g2 @ np.array([a2, c2], dtype=complex)
    coords = np.stack([v1[:, 0], v1[:, 1], v2[:, 0], v2[:, 1]], axis=1)
    phis = lam1 * _hopf_batch(coords[:, 0], coords[:, 1]) \
        + lam2 * _hopf_batch(coords[:, 2], coords[:, 3])
    return SampleSet(seed=seed, subgroup=subgroup, base_point=base,
                     lam1=lam1, lam2=lam2, coords=coords, phis=phis)


def sampled_delta(samples: SampleSet, mode: str = "radial",
                  eps: float = 0.05) -> tuple[float, float] | None:
    """Interval estimate of the chamber-ray cut of the sampled moment image.

    ``radial`` returns [min |Phi|, max |Phi|]; valid when the sampled image
    is swept around the (e1, e3)-plane, as for real tori and diagonal-type
    orbits.  ``angular`` keeps only samples within ``eps`` radians of the
    positive chamber ray and hulls their norms; returns None when no sample
    qualifies (the numeric stand-in for an empty cut).
    """
    if samples.count == 0:
        raise ValueError("empty sample set")
    norms = np.linalg.norm(samples.phis, axis=1)
    if mode == "radial":
        return (float(norms.min()), float(norms.max()))
    if mode == "angular":
        safe = np.maximum(norms, 1e-300)
        angles = np.arccos(np.clip(samples.phis[:, 2] / safe, -1.0, 1.0))
        angles = np.where(norms == 0, 0.0, angles)  # the origin lies on the ray
        keep = angles < eps
        if not keep.any():
            return None
        kept = norms[keep]
        return (float(kept.min()), float(kept.max()))
    raise ValueError(f"unknown mode {mode!r}")


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, d) float array, compared byte for byte."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("a point cloud must have shape (n, d)")
    rows = points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return points[first]


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric sample-based Hausdorff distance between two point clouds.

    Both clouds are reduced to their distinct points first, which leaves the
    distance unchanged.  Both sides matter: when every point is equidistant
    from the other cloud, as in the two-point negative control of
    :func:`coadjoint_fixed_check`, the tree cannot prune and repeated query
    points cost as much as distinct ones.
    """
    from scipy.spatial import cKDTree  # the only SciPy import outside the gradient check

    a, b = _distinct_rows(a), _distinct_rows(b)
    d_ab = cKDTree(b).query(a)[0].max()
    d_ba = cKDTree(a).query(b)[0].max()
    return float(max(d_ab, d_ba))


def coadjoint_fixed_check(lam: float, n: int, seed: int, plane: str = "q") -> float:
    """Hausdorff distance between a sphere-plane cut and a stabilizer orbit.

    The sphere of radius lam cut by the (e1, e3)-plane is compared with the
    orbit of lam*e3 under the rotation subgroup fixed by entrywise
    conjugation (computed by genuinely conjugating the algebra element, not
    by reusing the circle parametrization).  ``plane='k'`` is the negative
    control: the sphere is cut by the fixed axis instead, leaving two points.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if lam < 0:
        raise ValueError("radius must be >= 0")
    rng = np.random.default_rng(seed)
    if plane == "q":
        th = rng.uniform(0, 2 * np.pi, n)
        cut = np.stack([lam * np.cos(th), np.zeros(n), lam * np.sin(th)], axis=1)
    elif plane == "k":
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        cut = np.stack([np.zeros(n), signs * lam, np.zeros(n)], axis=1)
    else:
        raise ValueError(f"unknown plane {plane!r}")
    psi = rng.uniform(0, 2 * np.pi, n)
    base = 0.5j * lam * _PAULI[2]  # algebra element with coordinates (0, 0, lam)
    cos, sin = np.cos(psi), np.sin(psi)
    u = np.empty((n, 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1] = cos, sin, -sin, cos
    orbit = su2_coordinates(u @ base @ u.conj().transpose(0, 2, 1))
    return hausdorff_distance(cut, orbit)


def su2_coordinates(xi: np.ndarray) -> np.ndarray:
    """Coordinates of an anti-hermitian traceless matrix in the (i/2)*Pauli basis.

    Also takes a stack of matrices, shape (..., 2, 2), giving shape (..., 3).
    """
    p, q = xi[..., 0, 0], xi[..., 0, 1]
    return np.stack([2 * q.imag, 2 * q.real, 2 * p.imag], axis=-1)


def borel_imaginary_part(xi: np.ndarray) -> np.ndarray:
    """Projection (xi + xi*)/(2i) of an upper-triangular element onto the compact algebra."""
    return (xi + xi.conj().T) / 2j


def section_norm_sq(vec: BiHomogPoly, spec: SectionSpaceSpec, point) -> float:
    """Scale-invariant squared norm |F(z)|^2 / (|z1|^(2 r lam1) |z2|^(2 r lam2))."""
    (a1, c1), (a2, c2) = _as_complex_pairs(point)
    val = vec.evaluate_complex((a1, c1, a2, c2))
    n1 = abs(a1) ** 2 + abs(c1) ** 2
    n2 = abs(a2) ** 2 + abs(c2) ** 2
    return float(abs(val) ** 2 / (n1 ** (spec.r * spec.lam1) * n2 ** (spec.r * spec.lam2)))


def _flow_norm_sq(vec: BiHomogPoly, spec: SectionSpaceSpec, point,
                  xi: np.ndarray, t: float) -> float:
    from scipy.linalg import expm

    g = expm(-t * xi)
    (a1, c1), (a2, c2) = _as_complex_pairs(point)
    v1 = g @ np.array([a1, c1])
    v2 = g @ np.array([a2, c2])
    return section_norm_sq(vec, spec, ((v1[0], v1[1]), (v2[0], v2[1])))


def _check_borel(xi: np.ndarray):
    if abs(xi[1, 0]) > 1e-12 or abs(xi[0, 0] + xi[1, 1]) > 1e-12:
        raise ValueError("xi must be upper triangular and traceless")


def calibrate_gradient_normalization() -> float:
    """Fix the pairing constant from one closed-form datum and freeze it.

    Uses the r=1, weights (2,1), k=0 section at a fixed real point with a
    real-diagonal-plus-shear flow direction; the constant is the unique
    scalar making the derivative identity exact there.
    """
    spec = SectionSpaceSpec(1, 2, 1)
    vec = highest_weight_vector(spec, 0)
    point = ((1.0 + 0j, 2.0 + 0j), (1.0 + 0j, 3.0 + 0j))
    xi = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
    h = 1e-5
    lhs = (_flow_norm_sq(vec, spec, point, xi, h)
           - _flow_norm_sq(vec, spec, point, xi, -h)) / (2 * h)
    eta = borel_imaginary_part(xi)
    theta = su2_coordinates(eta)
    weight_alpha = (spec.r * (spec.lam1 + spec.lam2) - 0) / spec.r
    phi = moment_map(point, spec.lam1, spec.lam2)
    denom = float(np.dot(phi, theta))
    if abs(denom) < 1e-9:
        raise RuntimeError("degenerate calibration datum")
    norm2 = section_norm_sq(vec, spec, point)
    return float((lhs / (4 * np.pi * spec.r * norm2)
                  + weight_alpha * theta[2] / (4 * np.pi)) / denom)


def gradient_identity_residual(point, xi: np.ndarray, spec: SectionSpaceSpec,
                               k: int, kappa: float | None,
                               step: float = 1e-5) -> float:
    """Relative residual of the derivative identity at one (point, direction).

    Central finite difference of |s|^2 along the exp(-t*xi) flow against
    4 pi r (-w(pr xi) + kappa * <Phi, pr xi>) |s|^2, relative to max(1, |rhs|).
    Raises if the section vanishes at the point or kappa is not calibrated.
    """
    if kappa is None:
        raise NormalizationUncalibratedError(
            "run calibrate_gradient_normalization() first and pass its value")
    _check_borel(xi)
    vec = highest_weight_vector(spec, k)
    norm2 = section_norm_sq(vec, spec, point)
    if norm2 <= 0:
        raise ValueError("section vanishes at the point; residual undefined")
    lhs = (_flow_norm_sq(vec, spec, point, xi, step)
           - _flow_norm_sq(vec, spec, point, xi, -step)) / (2 * step)
    theta = su2_coordinates(borel_imaginary_part(xi))
    weight_alpha = (spec.r * (spec.lam1 + spec.lam2) - 2 * k) / spec.r
    phi = moment_map(point, spec.lam1, spec.lam2)
    rhs = 4 * np.pi * spec.r * (-weight_alpha * theta[2] / (4 * np.pi)
                                + kappa * float(np.dot(phi, theta))) * norm2
    return float(abs(lhs - rhs) / max(1.0, abs(rhs)))


CSV_COLUMNS = ("a1re", "a1im", "c1re", "c1im", "a2re", "a2im",
               "c2re", "c2im", "phi1", "phi2", "phi3", "norm")


# A float repr never holds a comma, quote or newline, so no field needs quoting.
_CSV_ROW = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"


def write_samples_csv(samples: SampleSet, stream: IO[str]) -> None:
    """Deterministic CSV dump of a sample set (row order = draw order).

    Every field is the ``repr`` of a Python float, so the bytes are those of
    ``csv.writer`` with ``lineterminator="\\n"``.
    """
    table = np.empty((samples.count, len(CSV_COLUMNS)))
    table[:, 0:8:2] = samples.coords.real
    table[:, 1:8:2] = samples.coords.imag
    table[:, 8:11] = samples.phis
    table[:, 11] = np.linalg.norm(samples.phis, axis=1)
    stream.write(",".join(CSV_COLUMNS) + "\n")
    stream.writelines(_CSV_ROW % tuple(row) for row in table.tolist())
