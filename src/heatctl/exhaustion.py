"""Dirichlet problems on nested centered boxes vs a large reference box.

States supported in a small box are expanded exactly (closed-form sine
overlaps) in every box basis, semigroups act in their own eigensystems, and
differences are evaluated through cross inner products, so no interpolation
error enters.  The reference box stands in for the unbounded domain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlProblem, _forced_end, gramian_condition, min_norm_control
from .errors import FidelityError, NumericError, ParameterError
from .geometry import region_boxes
from .spectral import (DomainSpec, box_integrals, build_basis, galerkin_schrodinger,
                       semigroup_apply)
from .uncertainty import _line_fit

CONTROL_FIDELITY_TOL = 1e-3


def centered_box(L, d=1, boundary="dirichlet"):
    """``(-L/2, L/2)^d`` as a domain."""
    return DomainSpec(boundary, (float(L),) * d, (-float(L) / 2,) * d)


def box_basis(L, omega_cut, d=1):
    """Dirichlet basis on the centered box with frequencies up to ``omega_cut``."""
    return build_basis(centered_box(L, d), float(omega_cut) ** 2 * d)


def cross_gram(basis_a, basis_b, boxes):
    """Matrix of ``int_box phi^a_i phi^b_j`` summed over absolute boxes."""
    return box_integrals(basis_a, basis_b, boxes)


def overlap_matrix(dst_basis, src_basis):
    """Coefficients of zero-extended src modes in the dst basis."""
    return cross_gram(dst_basis, src_basis, [src_basis.domain.box()])


def _contains(outer, inner):
    return all(o_lo <= i_lo + 1e-12 and i_hi <= o_hi + 1e-12
               for (o_lo, o_hi), (i_lo, i_hi) in zip(outer, inner))


def embed_zero_extension(u, src_basis, dst_basis):
    """Zero-extend a coefficient vector into a larger box basis.

    Returns ``(coeffs, fidelity)`` with ``fidelity = ||coeffs|| / ||u||``;
    the loss ``1 - fidelity`` is the truncation cost of the dst basis.
    """
    src_box = src_basis.domain.box()
    dst_box = dst_basis.domain.box()
    if not _contains(dst_box, src_box) or dst_basis.domain.volume <= src_basis.domain.volume:
        raise ParameterError("target box must strictly contain the source box")
    u = np.asarray(u, dtype=float)
    coeffs = overlap_matrix(dst_basis, src_basis) @ u
    norm = float(np.linalg.norm(u))
    fidelity = float(np.linalg.norm(coeffs)) / norm if norm > 0 else 1.0
    return coeffs, fidelity


def bump_state(basis, R=1.0):
    """Lowest Dirichlet mode of the centered box of side ``R``, in ``basis``.

    The bump is unit-norm on its own support; the returned coefficients are
    its exact projection onto ``basis``.  The source basis is cut just above
    the lowest eigenvalue, which is simple, and sorts its modes by
    eigenvalue, so its first mode is the bump even where the cut admits more.
    """
    d = basis.domain.dimension
    src = build_basis(centered_box(R, d), d * (math.pi / R) ** 2 + 1e-9, n_max=8)
    return overlap_matrix(basis, src)[:, 0]


@dataclass(frozen=True)
class ExhaustionRun:
    """Common data of an exhaustion experiment on boxes ``(-L/2, L/2)^d``."""

    L_list: tuple
    L_ref: float
    t: float
    R: float = 1.0
    omega_cut: float = 60.0
    d: int = 1
    potential: object = None
    fidelity_tol: float = 1e-6

    def __post_init__(self):
        L = tuple(float(x) for x in self.L_list)
        if not L:
            raise ParameterError("L list must not be empty")
        if any(b <= a for a, b in zip(L[:-1], L[1:])):
            raise ParameterError("L list must be strictly increasing")
        if min(L) < 2 * self.R:
            raise ParameterError("boxes must satisfy L >= 2 R")
        if self.L_ref < 2 * max(L):
            raise ParameterError("reference box must satisfy L_ref >= 2 max(L)")
        if self.t <= 0:
            raise ParameterError("t must be positive")
        object.__setattr__(self, "L_list", L)


@dataclass(frozen=True)
class DiffReport:
    L_list: tuple
    differences: tuple
    fidelities: tuple
    slope_vs_Lsq: float | None
    intercept: float | None


def _heat_state(L, run, tol):
    """Basis, handle, bump coefficients and bump fidelity on the box of side ``L``;
    refused when the bump loses more than ``tol`` of its norm."""
    basis = box_basis(L, run.omega_cut, run.d)
    op = galerkin_schrodinger(basis, run.potential)
    c = bump_state(basis, run.R)
    fid = float(np.linalg.norm(c))
    if 1.0 - fid > tol:
        raise FidelityError(
            f"bump loses {1.0 - fid:.2e} of its norm in the L={L} basis")
    return basis, op, c, fid


def semigroup_difference(run):
    """Per L, ``|| (exp(-t H_ref) - exp(-t H_L)) u0 ||`` for the bump state.

    The small-box semigroup acts as ``exp(-t H_L) ⊕ I`` restricted to the
    zero-extension, and the comparison uses exact cross inner products in
    the reference basis, so the reported values carry only the (checked)
    basis-truncation error.

    The square ``d2 = ||v_R||^2 + ||v_L||^2 - 2 <v_R, O v_L>`` is formed by
    cancellation, so a ``d2`` at or below its rounding floor
    ``gamma_n (||v_R||^2 + ||v_L||^2 + 2 ||v_R|| ||O v_L||)``, with
    ``gamma_n = n u / (1 - n u)``, ``u = 2**-53`` and ``n`` the size of the
    reference basis, is refused with :class:`NumericError`; every reported
    difference is positive.  The slope and intercept of ``ln difference``
    against ``L^2`` are ``None`` for fewer than two boxes.
    """
    basis_R, op_R, c_R, _ = _heat_state(run.L_ref, run, run.fidelity_tol)
    v_R = semigroup_apply(op_R, run.t, c_R)
    nu = op_R.n * 2.0 ** -53
    diffs, fids = [], []
    for L in run.L_list:
        basis_L, op_L, c_L, fid_L = _heat_state(L, run, run.fidelity_tol)
        v_L = semigroup_apply(op_L, run.t, c_L)
        Ov_L = overlap_matrix(basis_R, basis_L) @ v_L
        sq_R, sq_L = v_R @ v_R, v_L @ v_L
        d2 = float(sq_R + sq_L - 2.0 * v_R @ Ov_L)
        floor = nu / (1.0 - nu) * (sq_R + sq_L + 2.0 * math.sqrt(sq_R) * np.linalg.norm(Ov_L))
        if d2 <= floor:
            raise NumericError(f"semigroup difference at L={L}, t={run.t} is below rounding: "
                               f"d^2={d2:.3e} <= floor {floor:.3e}")
        diffs.append(math.sqrt(d2))
        fids.append(fid_L)
    if len(diffs) >= 2:
        coef, _ = _line_fit([L ** 2 for L in run.L_list], np.log(diffs))
        slope, intercept = float(coef[1]), float(coef[0])
    else:
        slope = intercept = None
    return DiffReport(
        L_list=run.L_list,
        differences=tuple(diffs),
        fidelities=tuple(fids),
        slope_vs_Lsq=slope,
        intercept=intercept,
    )


@dataclass(frozen=True)
class ControlFamilyReport:
    L_list: tuple
    control_norms: tuple
    residuals: tuple
    conditions: tuple


def nested_control_family(S, T, run):
    """Min-norm null-controls on each box, replayed on the reference box.

    Per L: solve the truncated Gramian control for the bump state on
    ``(-L/2, L/2)``, record its norm, then drive the reference dynamics with
    the same control (supported in ``S ∩ Λ_L``) and record the final-state
    residual relative to the unit initial state.  Representation loss of the
    bump shows up inside the residual, so only the coarse fidelity gate
    ``CONTROL_FIDELITY_TOL`` is applied here.
    """
    if T <= 0:
        raise ParameterError("T must be positive")
    basis_R, op_R, c_R, _ = _heat_state(run.L_ref, run, tol=CONTROL_FIDELITY_TOL)
    mu_R = op_R.eigvals
    norms, residuals, conds = [], [], []
    for L in run.L_list:
        basis_L, op_L, c_L, _ = _heat_state(L, run, tol=CONTROL_FIDELITY_TOL)
        problem = ControlProblem.from_set(op_L, S, T, u0=c_L)
        signal, cost = min_norm_control(problem)
        v = signal.phases[0].v if signal.phases else np.zeros(op_L.n)
        Cx = cross_gram(basis_R, basis_L, region_boxes(basis_L.domain, S))
        Cx = op_L.to_eigenbasis(op_R.to_eigenbasis(Cx).T).T
        uT = _forced_end(Cx, mu_R, op_L.eigvals, op_R.to_eigenbasis(c_R), v, T)
        norms.append(cost)
        residuals.append(float(np.linalg.norm(uT)))
        conds.append(gramian_condition(problem))
    return ControlFamilyReport(
        L_list=run.L_list,
        control_norms=tuple(norms),
        residuals=tuple(residuals),
        conditions=tuple(conds),
    )
