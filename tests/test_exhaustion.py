import math
import re

import numpy as np
import pytest

from heatctl import (ExhaustionRun, FidelityError, NumericError, ParameterError, PotentialSpec,
                     box_basis, bump_state, embed_zero_extension,
                     nested_control_family, overlap_matrix, periodic_band,
                     semigroup_difference)
from heatctl.exhaustion import centered_box, cross_gram
from oracles import gl_integral, quad_gram


def test_embed_zero_vector():
    src = box_basis(1.0, 20.0)
    dst = box_basis(2.0, 20.0)
    coeffs, fid = embed_zero_extension(np.zeros(src.n), src, dst)
    assert np.array_equal(coeffs, np.zeros(dst.n))


def test_embed_mode_one_keeps_norm():
    src = box_basis(1.0, 5.0)        # only mode 1 of (-1/2, 1/2)
    dst = box_basis(2.0, 64 * math.pi / 2.0)  # 64 modes on (-1, 1)
    assert dst.n == 64
    coeffs, fid = embed_zero_extension(np.array([1.0]), src, dst)
    assert fid >= 0.999
    # Parseval oracle: the zero-extension has unit norm
    f = lambda x: np.where(np.abs(x) < 0.5, np.sqrt(2.0) * np.sin(np.pi * (x + 0.5)), 0.0)
    norm_sq = gl_integral(lambda x: f(x) ** 2, -0.5, 0.5, order=96)
    assert abs(norm_sq - 1.0) < 1e-12
    assert np.linalg.norm(coeffs) <= 1.0 + 1e-12


def test_embed_round_trip():
    # payload resolvable by both 64-mode bases: low modes of the small box
    src = box_basis(1.0, 64 * math.pi / 1.0)
    dst = box_basis(2.0, 64 * math.pi / 2.0)
    assert src.n == dst.n == 64
    u = np.eye(src.n)[0]  # the mode-1 bump again
    O = overlap_matrix(dst, src)
    back = O.T @ (O @ u)
    assert np.linalg.norm(back - u) < 1e-3


def test_cross_gram_1d_boxes_of_different_lengths():
    big, small = box_basis(3.0, 30.0), box_basis(1.3, 30.0)
    boxes = [((-0.4, 0.2),), ((0.3, 0.65),)]
    C = cross_gram(big, small, boxes)
    assert C.shape == (big.n, small.n)
    assert np.max(np.abs(C - quad_gram(big, boxes, other=small))) < 1e-10


def test_cross_gram_2d_bases():
    big, small = box_basis(3.0, 8.0, d=2), box_basis(1.7, 8.0, d=2)
    boxes = [small.domain.box(), ((-0.5, 0.1), (0.2, 0.8))]
    C = cross_gram(big, small, boxes)
    assert C.shape == (big.n, small.n)
    assert np.max(np.abs(C - quad_gram(big, boxes, order=48, other=small))) < 1e-10


def test_embed_rejects_non_nested():
    src = box_basis(2.0, 20.0)
    dst = box_basis(1.0, 20.0)
    with pytest.raises(ParameterError):
        embed_zero_extension(np.zeros(src.n), src, dst)


def test_bump_state_is_projection():
    basis = box_basis(4.0, 50.0)
    c = bump_state(basis, 1.0)
    assert 0.999 < np.linalg.norm(c) <= 1.0 + 1e-12


def test_run_validation():
    with pytest.raises(ParameterError):
        ExhaustionRun(L_list=(2.0, 2.0), L_ref=8.0, t=0.1)
    with pytest.raises(ParameterError):
        ExhaustionRun(L_list=(2.0, 3.0), L_ref=4.0, t=0.1)
    with pytest.raises(ParameterError):
        ExhaustionRun(L_list=(1.5, 3.0), L_ref=8.0, t=0.1, R=1.0)


def test_run_refuses_an_empty_L_list():
    with pytest.raises(ParameterError, match="L list must not be empty"):
        ExhaustionRun(L_list=(), L_ref=8.0, t=0.1)


def test_difference_under_its_rounding_floor_is_refused():
    # d^2 = ||v_R||^2 + ||v_L||^2 - 2 <v_R, O v_L> is 9.5e-15 here, under the
    # floor of ~1.3e-13 that rounding leaves in those three terms at n = 490
    run = ExhaustionRun(L_list=(3.0, 4.0), L_ref=11.0, t=0.05, omega_cut=140.0)
    with pytest.raises(NumericError, match=r"^semigroup difference at L=4\.0, t=0\.05 is below "
                                           r"rounding: d\^2=\S+ <= floor \S+$") as err:
        semigroup_difference(run)
    d2, floor = (float(x) for x in re.findall(r"=(\S+) <= floor (\S+)$", str(err.value))[0])
    assert d2 <= floor < 1e-12
    # the box below it is resolved: its difference is well above the floor
    diff = semigroup_difference(ExhaustionRun(L_list=(3.0,), L_ref=11.0, t=0.05, omega_cut=140.0))
    assert diff.differences[0] > 1e-5 and diff.slope_vs_Lsq is None


def test_difference_self_comparison_vanishes():
    # comparing the reference box with itself through the cross-Gram route
    from heatctl import semigroup_apply
    from heatctl.exhaustion import _heat_state, cross_gram
    run = ExhaustionRun(L_list=(4.0,), L_ref=8.0, t=0.1, omega_cut=161.0)
    basis, op, c, fid = _heat_state(8.0, run, run.fidelity_tol)
    v = semigroup_apply(op, 0.1, c)
    O = cross_gram(basis, basis, [basis.domain.box()])
    d2 = float(v @ v + v @ v - 2 * v @ (O @ v))
    assert abs(d2) < 1e-10


def test_difference_decreasing_in_L():
    run = ExhaustionRun(L_list=(2.0, 4.0), L_ref=8.0, t=0.1, omega_cut=161.0)
    rep = semigroup_difference(run)
    assert rep.differences[0] > rep.differences[1] >= 0.0


def test_difference_short_time_locality():
    # at t -> 0 both semigroups are near the identity; the reported value
    # bottoms out at the basis-truncation floor of the initial state
    run = ExhaustionRun(L_list=(2.0, 3.0, 4.0), L_ref=8.0, t=1e-6, omega_cut=161.0)
    rep = semigroup_difference(run)
    assert all(d <= 5e-3 for d in rep.differences)


def test_difference_decay_and_fidelity():
    run = ExhaustionRun(L_list=(2.0, 3.0, 4.0), L_ref=8.0, t=0.1, omega_cut=161.0)
    rep = semigroup_difference(run)
    d = rep.differences
    assert d[0] > d[1] > d[2] > 0
    assert rep.slope_vs_Lsq < -1.0 / (64 * 0.1)
    assert all(1 - f <= 1e-6 for f in rep.fidelities)


def test_difference_fidelity_error():
    run = ExhaustionRun(L_list=(2.0,), L_ref=8.0, t=0.1, omega_cut=20.0)
    with pytest.raises(FidelityError):
        semigroup_difference(run)


def test_difference_decay_2d():
    # product geometry: the reference square dominates two nested squares
    run = ExhaustionRun(L_list=(2.0, 2.5), L_ref=5.0, t=0.1, omega_cut=11.0,
                        d=2, fidelity_tol=1e-2)
    rep = semigroup_difference(run)
    assert rep.differences[0] > rep.differences[1] > 0
    assert rep.slope_vs_Lsq < 0


def test_difference_with_constant_potential_scales_by_exp_minus_ct():
    # -Laplace + c on every box: exp(-t(H + c)) = exp(-ct) exp(-tH), so each
    # difference scales by exp(-ct); the larger boxes lose digits to the
    # cancellation in d^2 = |v_R|^2 + |v_L|^2 - 2 v_R.O v_L
    c, t, L = 1.5, 0.1, (2.0, 3.0, 4.0)
    free = semigroup_difference(ExhaustionRun(L_list=L, L_ref=8.0, t=t, omega_cut=161.0))
    shifted = semigroup_difference(ExhaustionRun(L_list=L, L_ref=8.0, t=t, omega_cut=161.0,
                                                 potential=PotentialSpec.const(c)))
    for d0, d1, tol in zip(free.differences, shifted.differences, (1e-12, 1e-9, 1e-6)):
        assert abs(d1 - math.exp(-c * t) * d0) <= tol * d1


def test_nested_controls_with_indicator_potential():
    # the replay conjugates the cross Gram into both eigenbases; without it
    # the residuals do not fall with L
    S = periodic_band(1.0, 0.5)
    run = ExhaustionRun(L_list=(2.0, 3.0, 4.0), L_ref=8.0, t=0.1, omega_cut=40.0,
                        potential=PotentialSpec.indicator([(-0.5, 0.5)], height=2.0))
    fam = nested_control_family(S, 0.5, run)
    res = fam.residuals
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.02
    assert max(fam.control_norms) / min(fam.control_norms) <= 2.0


def test_nested_controls_refuse_a_non_positive_horizon():
    run = ExhaustionRun(L_list=(2.0,), L_ref=4.0, t=0.1, omega_cut=20.0)
    for T in (0.0, -1.0):
        with pytest.raises(ParameterError, match="^T must be positive$"):
            nested_control_family(periodic_band(1.0, 0.5), T, run)


def test_nested_controls_zero_state():
    S = periodic_band(1.0, 0.5)
    run = ExhaustionRun(L_list=(2.0,), L_ref=8.0, t=0.1, omega_cut=40.0)
    # residual for L = L_ref equivalent: control solves its own problem exactly
    fam = nested_control_family(S, 0.5, run)
    assert fam.control_norms[0] > 0
    assert fam.residuals[0] < 1.0


def test_nested_controls_family_properties():
    S = periodic_band(1.0, 0.5)
    run = ExhaustionRun(L_list=(2.0, 3.0, 4.0), L_ref=8.0, t=0.1, omega_cut=40.0)
    fam = nested_control_family(S, 0.5, run)
    norms = fam.control_norms
    assert max(norms) / min(norms) <= 2.0
    res = fam.residuals
    assert res[0] > res[1] > res[2]


def test_nested_control_same_box_nulls_itself():
    # applying the control on its own box (as reference) must null the state
    S = periodic_band(1.0, 0.5)
    run = ExhaustionRun(L_list=(4.0,), L_ref=8.0, t=0.1, omega_cut=40.0)
    from heatctl import ControlProblem, duhamel_solve, min_norm_control
    from heatctl.exhaustion import _heat_state
    basis, op, c, fid = _heat_state(4.0, run, tol=1e-3)
    prob = ControlProblem.from_set(op, S, 0.5, u0=c)
    signal, _ = min_norm_control(prob)
    traj = duhamel_solve(prob, signal, [0.5])
    assert traj.final_norm() <= 1e-8
