"""Geometry layer: domain types, bounds, radius correction, verification."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsspack.formulation import build_nlp
from fsspack.geometry import (
    EXTENDED_DPS,
    CartesianPoint,
    FeasibilityReport,
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
from fsspack.instances import builtin_instance

EMPTY = Instance("empty", [])
# Far enough that float64 clearances from it are off by ~1e-10.
FAR_DISK = Instance("far-disk", [ProhibitedCircle(CartesianPoint(0.0, 1e6 + 0.5), 1e6)])


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
    p = build_nlp(EMPTY, np.ones(4, dtype=bool), Layout(centers, 0.0), 2.0, ([], []), 1.0)
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


def test_correct_radius_forms_differences_exactly():
    # Rounding x_i - x_j to float64 made these two circles overlap by
    # 2e-17 at the corrected radius, and a verifier that rounds the same
    # difference accepted it.
    pts = np.array(
        [[0.12094954855618259, -0.275435676119069], [-0.05062971946144226, 0.08199793332047081]]
    )
    r = correct_radius(pts, EMPTY)
    assert r == _reference_correct(pts, EMPTY)
    with mpmath.workdps(EXTENDED_DPS):
        dx = mpmath.mpf(pts[0, 0]) - mpmath.mpf(pts[1, 0])
        dy = mpmath.mpf(pts[0, 1]) - mpmath.mpf(pts[1, 1])
        assert 2 * mpmath.mpf(r) <= mpmath.hypot(dx, dy)
    assert verify_layout(Layout(pts, r), EMPTY, 0.0).feasible
    assert not verify_layout(Layout(pts, math.nextafter(r, math.inf)), EMPTY, 0.0).feasible


def test_correct_radius_far_prohibited_disk():
    # The disk clearance binds within 1e-9 of the pair term, and its
    # float64 value is ~1e-10 off: a fixed 1e-12 refinement window
    # skipped it and returned a radius the verifier rejects.
    pts = np.array([[0.13774717447663481, 0.37128890867950554], [0.1783607686388096, 0.11709070677495748]])
    r = correct_radius(pts, FAR_DISK)
    assert r == _reference_correct(pts, FAR_DISK)
    assert r < 0.12871110084163012
    assert verify_layout(Layout(pts, r), FAR_DISK, 0.0).feasible
    assert not verify_layout(Layout(pts, math.nextafter(r, math.inf)), FAR_DISK, 0.0).feasible


ANGLES = st.floats(0.0, 2.0 * math.pi)
UNIT = st.floats(0.0, 1.0)


def polar_point(distance: float, angle: float) -> CartesianPoint:
    return CartesianPoint(distance * math.cos(angle), distance * math.sin(angle))


@st.composite
def disk_groups(draw):
    """One or two prohibited disks of a drawn kind."""
    kind = draw(st.sampled_from(["free", "wall", "covering", "vacuous", "tangent", "overlapping"]))
    radius = draw(st.floats(1e-6, 0.6))
    angle = draw(ANGLES)
    if kind == "free":
        coords = st.floats(-1.2, 1.2)
        return [ProhibitedCircle(CartesianPoint(draw(coords), draw(coords)), radius)]
    if kind == "wall":  # touches the container from inside
        return [ProhibitedCircle(polar_point(1.0 - radius, angle), radius)]
    if kind == "covering":  # contains the container's centre
        return [ProhibitedCircle(polar_point(draw(UNIT) * radius, angle), radius)]
    if kind == "vacuous":
        return [ProhibitedCircle(polar_point(1.0 + radius + draw(UNIT), angle), radius)]
    # Two disks, touching or overlapping.
    first = ProhibitedCircle(polar_point(draw(UNIT), angle), radius)
    other = draw(st.floats(1e-6, 0.6))
    reach = radius + other
    if kind == "overlapping":
        reach *= draw(st.floats(0.0, 1.0, exclude_max=True))
    c = polar_point(reach, draw(ANGLES))
    return [first, ProhibitedCircle(CartesianPoint(first.center.x + c.x, first.center.y + c.y), other)]


@st.composite
def packing_cases(draw):
    groups = draw(st.lists(disk_groups(), max_size=2))
    instance = Instance("drawn", [disk for group in groups for disk in group])
    centers = draw(
        st.lists(
            st.builds(polar_point, UNIT, ANGLES),
            min_size=1,
            max_size=6,
            unique_by=lambda p: (p.x, p.y),
        )
    )
    if instance.prohibited:  # one centre just off a disk's rim
        disk = draw(st.sampled_from(instance.prohibited))
        off = polar_point(disk.radius + 0.1 * draw(UNIT), draw(ANGLES))
        centers.append(CartesianPoint(disk.center.x + off.x, disk.center.y + off.y))
    # Most centres inside a disk would only give r = 0; keep one of them.
    clear = [
        p for p in centers
        if math.hypot(p.x, p.y) < 1.0
        and all(math.hypot(p.x - f.center.x, p.y - f.center.y) > f.radius for f in instance.prohibited)
    ]
    centers = clear or centers[:1]
    if draw(st.integers(0, 3)) == 3:  # a coincident pair
        centers.append(centers[0])
    return np.array([[p.x, p.y] for p in centers]), instance


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(packing_cases())
def test_corrected_radius_is_the_largest_that_verifies(case):
    # A positive corrected radius verifies at tolerance zero, and one ulp
    # more does not.
    centers, instance = case
    r = correct_radius(centers, instance)
    if r > 0.0:
        assert verify_layout(Layout(centers, r), instance, 0.0).feasible
        inflated = Layout(centers, math.nextafter(r, math.inf))
        assert not verify_layout(inflated, instance, 0.0).feasible


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_centres(bad):
    inst = single_disk(0.0, -0.5, 0.2)
    for coord in (0, 1):
        pts = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.1, 0.1]])
        pts[2, coord] = bad
        with pytest.raises(ValueError, match="circle 2"):
            correct_radius(pts, inst)
        rep = verify_layout(Layout(pts, 0.1), inst, 0.0)
        assert not rep.feasible
        assert rep.containment_index == 2
        assert rep.worst_containment_violation == math.inf
        assert rep.describe_worst() == "containment of circle 2"
        # The finite circles are still checked against each other.
        assert rep.pairwise_indices == (0, 3)
        assert rep.prohibited_indices == (3, 0)
        assert verify_layout(Layout(pts, 0.5), inst, 0.0).worst_pairwise_violation == pytest.approx(
            1.0 - math.hypot(0.4, 0.1), abs=1e-15
        )


# --- screened checks against the all-candidates reference ------------------


def _reference_correct(centers, instance: Instance) -> float:
    """Every term in 50-digit arithmetic, differences formed there."""
    pts = np.asarray(centers, dtype=float)
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    with mpmath.workdps(EXTENDED_DPS):
        p = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in pts]
        terms = [1 - mpmath.hypot(x, y) for x, y in p]
        terms += [
            mpmath.hypot(p[i][0] - p[j][0], p[i][1] - p[j][1]) / 2
            for i in range(len(p))
            for j in range(i + 1, len(p))
        ]
        terms += [
            mpmath.hypot(x - mpmath.mpf(fc[f, 0]), y - mpmath.mpf(fc[f, 1])) - mpmath.mpf(fr[f])
            for x, y in p
            for f in range(fc.shape[0])
        ]
        best = min(terms)
        if best <= 0:
            return 0.0
        out = float(best)
        if mpmath.mpf(out) > best:
            out = math.nextafter(out, -math.inf)
        return out


def _reference_verify(layout: Layout, instance: Instance, tol: float) -> FeasibilityReport:
    """The all-candidates 50-digit loop, differences formed in extended precision."""
    n = layout.n
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    with mpmath.workdps(EXTENDED_DPS):
        p = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in layout.centers]
        radius = mpmath.mpf(float(layout.radius))

        def first_max(items):
            worst = at = None
            for key, raw in items:
                if worst is None or raw > worst:
                    worst, at = raw, key
            return worst, at

        worst_cont, cont_idx = first_max(
            (i, mpmath.hypot(p[i][0], p[i][1]) + radius - 1) for i in range(n)
        )
        worst_pair, pair_idx = first_max(
            ((i, j), 2 * radius - mpmath.hypot(p[i][0] - p[j][0], p[i][1] - p[j][1]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        worst_proh, proh_idx = first_max(
            (
                (i, f),
                radius
                + mpmath.mpf(fr[f])
                - mpmath.hypot(p[i][0] - mpmath.mpf(fc[f, 0]), p[i][1] - mpmath.mpf(fc[f, 1])),
            )
            for i in range(n)
            for f in range(fc.shape[0])
        )
        cont, pair, proh = (
            0.0 if v is None or v <= 0 else float(v) for v in (worst_cont, worst_pair, worst_proh)
        )
    return FeasibilityReport(
        feasible=(cont <= tol and pair <= tol and proh <= tol),
        tol=float(tol),
        worst_containment_violation=cont,
        worst_pairwise_violation=pair,
        worst_prohibited_violation=proh,
        containment_index=cont_idx,
        pairwise_indices=pair_idx,
        prohibited_indices=proh_idx,
    )


def _free_points(rng, instance: Instance, n: int) -> np.ndarray:
    """n uniform points inside the unit disk and clear of every prohibited disk."""
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    out = np.empty((0, 2))
    while out.shape[0] < n:
        pts = rng.uniform(-1.0, 1.0, size=(4 * n, 2))
        ok = np.hypot(pts[:, 0], pts[:, 1]) < 1.0
        ok &= (np.hypot(pts[:, None, 0] - fc[:, 0], pts[:, None, 1] - fc[:, 1]) > fr).all(axis=1)
        out = np.vstack((out, pts[ok]))
    return out[:n]


def _exact_hex_lattice(spacing: float, limit: float) -> np.ndarray:
    # Spacing a power of two and a row height with few significant bits:
    # every coordinate difference is exact in float64, so lattice
    # distances tie exactly.
    height = float(Fraction(spacing * math.sqrt(3.0) / 2.0).limit_denominator(2**20))
    k = int(2.0 / spacing) + 1
    pts = [
        (col * spacing + (row % 2) * spacing / 2.0, row * height)
        for row in range(-k, k + 1)
        for col in range(-k, k + 1)
    ]
    return np.array([p for p in pts if math.hypot(*p) <= limit])


def _oracle_cases():
    """(label, centres, instance) covering ties, walls, tangency and scale."""
    rng = np.random.default_rng(11)
    p6 = builtin_instance(6)
    p1 = builtin_instance(1, 11)
    tangent = Instance(
        "tangent",
        [ProhibitedCircle(CartesianPoint(0.5, 0.0), 0.25), ProhibitedCircle(CartesianPoint(-0.5, 0.0), 0.25)],
    )
    vacuous = Instance(
        "vacuous",
        [ProhibitedCircle(CartesianPoint(2.0, 0.0), 1.0), ProhibitedCircle(CartesianPoint(0.0, -2.5), 1.0)],
    )
    for k in range(20):
        inst = (EMPTY, p6, single_disk(0.3, -0.2, 0.15))[k % 3]
        yield f"random-{k}", _free_points(rng, inst, int(rng.integers(2, 13))), inst
    lattice = _exact_hex_lattice(0.25, 0.75)
    yield "hex-ties", lattice, EMPTY
    yield "hex-ties-tangent", lattice, tangent
    yield "hex-ties-reversed", lattice[::-1].copy(), EMPTY
    yield "coincident", np.array([[0.1, 0.2], [0.1, 0.2], [0.3, -0.1], [0.1, 0.2]]), EMPTY
    yield "on-wall", np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0], [0.0, 0.0]]), EMPTY
    yield "tangent", np.array([[0.0, 0.0], [0.0, 0.5], [0.0, -0.5]]), tangent
    yield "vacuous", np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]]), vacuous
    yield "far-disk-pinned", np.array(
        [[0.13774717447663481, 0.37128890867950554], [0.1783607686388096, 0.11709070677495748]]
    ), FAR_DISK
    yield "exact-difference-pinned", np.array(
        [[0.12094954855618259, -0.275435676119069], [-0.05062971946144226, 0.08199793332047081]]
    ), EMPTY
    # Seven circles whose far-disk clearances differ by 1e-12, well inside
    # the ~1e-10 float64 error: the float64 order of that family is noise.
    for a in range(30):
        arc = []
        for k, step in enumerate(rng.permutation(7)):
            x = 0.2 * k - 0.6
            with mpmath.workdps(EXTENDED_DPS):
                reach = mpmath.mpf(1e6) + mpmath.mpf(0.08 + 0.001 * a) + mpmath.mpf(1e-12) * int(step)
                y = mpmath.mpf(1e6 + 0.5) - mpmath.sqrt(reach**2 - mpmath.mpf(x) ** 2)
            arc.append((x, float(y)))
        yield f"far-disk-arc-{a}", np.array(arc), FAR_DISK
    # Two circles whose pair term ties the far-disk clearance to ~1e-9.
    for k in range(40):
        x0 = rng.uniform(-0.3, 0.3)
        y0 = 0.5 - rng.uniform(0.05, 0.2)
        with mpmath.workdps(EXTENDED_DPS):
            clear = float(
                mpmath.hypot(mpmath.mpf(x0), mpmath.mpf(y0) - mpmath.mpf(1e6 + 0.5)) - mpmath.mpf(1e6)
            )
        turn = rng.uniform(-0.9 * math.pi, -0.1 * math.pi)
        dist = 2.0 * clear * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0))
        yield f"far-disk-{k}", np.array(
            [[x0, y0], [x0 + dist * math.cos(turn), y0 + dist * math.sin(turn)]]
        ), FAR_DISK
    for n in range(2, 61, 2):
        for inst in (p6, p1):
            yield f"{inst.name}-n{n}", _free_points(rng, inst, n), inst


def test_screened_checks_match_the_reference():
    for label, pts, inst in _oracle_cases():
        r = correct_radius(pts, inst)
        assert r == _reference_correct(pts, inst), label
        for radius in (r, math.nextafter(r, math.inf), r + 1e-9):
            lay = Layout(pts, radius)
            assert verify_layout(lay, inst, 0.0) == _reference_verify(lay, inst, 0.0), (label, radius)


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


def test_load_layout_rejects_bad_files(tmp_path):
    path = tmp_path / "lay.json"
    path.write_text("[1, 2]")
    with pytest.raises(LayoutFormatError, match="JSON object"):
        load_layout(path)
    path.write_text("{not json")
    with pytest.raises(LayoutFormatError, match="invalid JSON"):
        load_layout(path)
    path.write_bytes(b'{"instance": "probl\xe8me2"}')
    with pytest.raises(LayoutFormatError, match="not UTF-8"):
        load_layout(path)


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
