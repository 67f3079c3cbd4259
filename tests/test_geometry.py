"""Geometry layer: domain types, bounds, radius correction, verification."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fsspack.formulation import Assignment, PairSets, build_nlp
from fsspack.geometry import (
    CartesianPoint,
    Instance,
    Layout,
    LayoutFormatError,
    ProhibitedCircle,
    as_center_array,
    correct_radius,
    format_radius,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    radius_upper_bound,
    save_layout,
    verify_layout,
)

EMPTY = Instance("empty", [])


def oracle_upper_bound(largest: Fraction, n: int) -> float:
    # Exact rational radicand, square root at 50 digits.
    radicand = (Fraction(1) - largest * largest) / n
    if radicand <= 0:
        return 0.0
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.mpf(radicand.numerator) / radicand.denominator))


def single_disk(x: float, y: float, r: float) -> Instance:
    return Instance("one-disk", [ProhibitedCircle(CartesianPoint(x, y), r)])


# --- domain types ----------------------------------------------------------


def test_cart_polar_quadrants():
    # The polar convention of the packing program: theta in [0, 2*pi],
    # measured from the +x axis, and r = 0 at the origin.
    centers = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 0.0]])
    p = build_nlp(
        EMPTY, Assignment((), (0, 1, 2, 3)), Layout(centers, 0.0), 2.0, PairSets([], []), 1.0
    )
    z = p.pack_start(centers, 0.1)
    assert z[p.var_b[0]] == pytest.approx(math.pi)
    assert z[p.var_b[1]] == pytest.approx(1.5 * math.pi)
    assert z[p.var_b[2]] == 0.0
    assert z[p.var_a[3]] == 0.0
    assert np.allclose(p.extract_centers(z), centers, rtol=0.0, atol=1e-15)


def test_prohibited_circle_validation():
    with pytest.raises(ValueError):
        ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        ProhibitedCircle(CartesianPoint(0.0, 0.0), -1.0)
    assert ProhibitedCircle(CartesianPoint(2.5, 0.0), 1.0).is_vacuous()
    assert not ProhibitedCircle(CartesianPoint(0.9, 0.0), 0.2).is_vacuous()


def test_instance_prohibited_accessors():
    inst = single_disk(-0.5, 0.25, 0.1)
    assert inst.f_count == 1
    assert inst.max_prohibited_radius() == 0.1
    assert EMPTY.prohibited_centers().shape == (0, 2)


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        Layout(np.zeros((2, 2)), -0.1)
    lay = Layout(np.array([[0.1, 0.2]]), 0.3)
    assert lay.n == 1
    assert lay.points()[0] == CartesianPoint(0.1, 0.2)


def test_as_center_array_shapes():
    assert as_center_array([(0.1, 0.2)]).shape == (1, 2)
    assert as_center_array([CartesianPoint(0.0, 0.0)]).shape == (1, 2)
    assert as_center_array(np.zeros(2)).shape == (1, 2)
    with pytest.raises(ValueError):
        as_center_array(np.zeros((2, 3)))


# --- radius upper bound ----------------------------------------------------


def test_radius_upper_bound_oracle():
    # Frozen: single disk of radius 1/10.5 at the centre, n = 10.
    inst = single_disk(0.0, 0.0, float(Fraction(1) / Fraction("10.5")))
    got = radius_upper_bound(inst, 10)
    assert got == 0.31479035963882684
    assert got == pytest.approx(oracle_upper_bound(Fraction(1) / Fraction("10.5"), 10), abs=5e-16)


def test_radius_upper_bound_empty_container():
    assert radius_upper_bound(EMPTY, 1) == 1.0
    assert radius_upper_bound(EMPTY, 4) == 0.5
    assert radius_upper_bound(EMPTY, 100) == pytest.approx(oracle_upper_bound(Fraction(0), 100), abs=5e-16)


def test_radius_upper_bound_saturated():
    # A prohibited disk as large as the container leaves no room.
    assert radius_upper_bound(single_disk(0.0, 0.0, 1.0), 3) == 0.0
    assert radius_upper_bound(single_disk(0.0, 0.0, 2.0), 3) == 0.0


def test_radius_upper_bound_rejects_bad_n():
    with pytest.raises(ValueError):
        radius_upper_bound(EMPTY, 0)


# --- radius correction -----------------------------------------------------


def test_correct_radius_symmetric_pair():
    # Wall clearance and half pair distance are both exactly 0.5.
    assert correct_radius([(0.5, 0.0), (-0.5, 0.0)], EMPTY) == 0.5


def test_correct_radius_pair_limited():
    # Pair term 0.9/2 undercuts both wall terms.
    assert correct_radius([(0.5, 0.0), (-0.4, 0.0)], EMPTY) == 0.45


def test_correct_radius_wall_limited():
    got = correct_radius([(0.3, 0.4)], EMPTY)
    assert got == pytest.approx(0.5, abs=1e-15)
    assert got <= 0.5


def test_correct_radius_prohibited_limited():
    inst = single_disk(0.0, 0.0, 0.2)
    got = correct_radius([(0.6, 0.0)], inst)
    assert got == pytest.approx(0.4, abs=1e-15)


def test_correct_radius_degenerate():
    assert correct_radius([(0.25, 0.0), (0.25, 0.0)], EMPTY) == 0.0
    assert correct_radius([(1.0, 0.0)], EMPTY) == 0.0
    assert correct_radius([(1.5, 0.0)], EMPTY) == 0.0
    with pytest.raises(ValueError):
        correct_radius(np.empty((0, 2)), EMPTY)


def test_correct_radius_feasible_at_tolerance_zero():
    # Corrected layouts must verify clean, and be maximal up to 1e-9.
    rng = np.random.default_rng(21)
    inst = single_disk(0.3, -0.2, 0.15)
    checked = 0
    while checked < 50:
        pts = rng.uniform(-0.9, 0.9, size=(4, 2))
        keep = np.hypot(pts[:, 0], pts[:, 1]) < 0.98
        keep &= np.hypot(pts[:, 0] - 0.3, pts[:, 1] + 0.2) > 0.16
        if not keep.all():
            continue
        r = correct_radius(pts, inst)
        if r <= 1e-9:
            continue
        assert verify_layout(Layout(pts, r), inst, 0.0).feasible
        inflated = Layout(pts, r + 1e-9)
        assert not verify_layout(inflated, inst, 1e-10).feasible
        checked += 1


# --- verification ----------------------------------------------------------


def test_verify_layout_reports_worst_family():
    lay = Layout(np.array([[0.5, 0.0], [-0.5, 0.0]]), 0.5 + 1e-9)
    rep = verify_layout(lay, EMPTY, 1e-10)
    assert not rep.feasible
    assert rep.worst_pairwise_violation == pytest.approx(2e-9, rel=1e-3)
    assert rep.pairwise_indices == (0, 1)
    assert rep.worst() == rep.worst_pairwise_violation
    assert "circles (0, 1)" in rep.describe_worst()


def test_verify_layout_prohibited_overlap():
    inst = single_disk(0.0, 0.0, 0.3)
    lay = Layout(np.array([[0.4, 0.0]]), 0.2)
    rep = verify_layout(lay, inst, 0.0)
    assert not rep.feasible
    assert rep.worst_prohibited_violation == pytest.approx(0.1, abs=1e-12)
    assert rep.prohibited_indices == (0, 0)
    assert "prohibited disk 0" in rep.describe_worst()


def test_verify_layout_feasible_roundoff_free():
    # 1e-17 past the wall is invisible in double but not in extended
    # precision; the verifier must still call the exact case feasible.
    lay = Layout(np.array([[0.25, 0.0]]), 0.75)
    rep = verify_layout(lay, EMPTY, 0.0)
    assert rep.feasible
    assert rep.worst() == 0.0


def test_verify_layout_rejects_negative_tol():
    with pytest.raises(ValueError):
        verify_layout(Layout(np.array([[0.0, 0.0]]), 0.1), EMPTY, -1e-9)
    # NaN fails every comparison, so it must not slip past as "not negative".
    with pytest.raises(ValueError):
        verify_layout(Layout(np.array([[0.0, 0.0]]), 0.1), EMPTY, math.nan)


def test_feasibility_report_to_dict_round_trips_json():
    rep = verify_layout(Layout(np.array([[0.0, 0.0]]), 0.5), EMPTY, 0.0)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["feasible"] is True
    assert doc["worst_pairwise_violation"] == 0.0


# --- formatting and files --------------------------------------------------


def test_format_radius_truncates():
    assert format_radius(0.25060816845812556) == "0.25060816"
    assert format_radius(0.1) == "0.10000000"
    assert format_radius(0.999999999) == "0.99999999"
    assert format_radius(0.0) == "0.00000000"


def test_layout_file_round_trip(tmp_path):
    lay = Layout(np.array([[0.123456789012345, -0.5], [0.25, 0.75]]), 0.2071067811865476)
    path = tmp_path / "lay.json"
    save_layout(lay, "problem2", path)
    loaded, name = load_layout(path)
    assert name == "problem2"
    assert loaded.n == 2
    assert np.array_equal(loaded.centers, lay.centers)
    # The radius field is truncated to 8 places, so it reloads slightly
    # smaller; a feasible layout therefore stays feasible.
    assert loaded.radius == 0.20710678
    doc = json.loads(path.read_text())
    assert doc["radius"] == "0.20710678"
    assert doc["n"] == 2


def test_layout_dict_validation():
    lay = Layout(np.array([[0.1, 0.2]]), 0.3)
    doc = layout_to_dict(lay, "x")
    for missing in ("instance", "n", "radius", "centers"):
        bad = dict(doc)
        del bad[missing]
        with pytest.raises(LayoutFormatError):
            layout_from_dict(bad)
    bad = dict(doc)
    bad["n"] = 7
    with pytest.raises(LayoutFormatError):
        layout_from_dict(bad)
    bad = dict(doc)
    bad["centers"] = [["0.1", "0.2", "0.3"]]
    with pytest.raises(LayoutFormatError):
        layout_from_dict(bad)
    bad = dict(doc)
    bad["centers"] = [["zero", "0.2"]]
    with pytest.raises(LayoutFormatError):
        layout_from_dict(bad)
