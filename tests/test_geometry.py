"""Geometry layer: domain types, bounds, radius correction, verification."""

import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsspack.geometry import (
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
from fsspack.instances import builtin_catalogue, builtin_instance
from strategies import ANGLES, UNIT, drawn_instances, polar_point

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


def test_prohibited_circle_validation():
    with pytest.raises(ValueError):
        ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        ProhibitedCircle(CartesianPoint(0.0, 0.0), -1.0)
    assert ProhibitedCircle(CartesianPoint(2.5, 0.0), 1.0).is_vacuous()
    assert not ProhibitedCircle(CartesianPoint(0.9, 0.0), 0.2).is_vacuous()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prohibited_circle_refuses_non_finite_centres(bad):
    # Let through, a NaN centre would stop correct_radius with a bare
    # "cannot convert NaN to integer ratio", and radius_upper_bound would
    # skip the disk.
    for center in (CartesianPoint(bad, 0.0), CartesianPoint(0.0, bad)):
        with pytest.raises(ValueError, match="prohibited centre must be finite"):
            ProhibitedCircle(center, 0.1)


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


def test_radius_upper_bound_counts_only_disks_inside_the_container():
    # A disk that reaches outside the container takes less than its area
    # from it: the bound must still hold over layouts that verify.
    outside = single_disk(3.0, 0.0, 1.5)
    assert correct_radius(np.array([[0.0, 0.0]]), outside) == 1.0
    assert radius_upper_bound(outside, 1) == 1.0
    assert radius_upper_bound(outside, 2) == math.sqrt(0.5)
    overhang = single_disk(1.4, 0.0, 0.6)
    verified = correct_radius(np.array([[-0.1, 0.0]]), overhang)
    assert verified == pytest.approx(0.9, abs=1e-15)
    assert radius_upper_bound(overhang, 1) == 1.0 > verified
    # A disk inside the container still counts beside one that overhangs.
    both = Instance("both", overhang.prohibited + single_disk(0.0, 0.5, 0.5).prohibited)
    assert radius_upper_bound(both, 3) == math.sqrt(0.75 / 3)
    # A disk that covers the container, off centre, leaves no room.
    assert radius_upper_bound(single_disk(0.5, 0.0, 1.6), 2) == 0.0


def test_radius_upper_bound_of_bundled_instances():
    # Every bundled disk lies inside the container, so each cap is the
    # plain area bound over the largest disk.
    for inst in builtin_catalogue().values():
        largest = inst.max_prohibited_radius()
        for n in (1, 10, 100):
            assert radius_upper_bound(inst, n) == math.sqrt((1.0 - largest * largest) / n)


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


def test_verify_layout_rejects_overhangs_below_any_working_precision():
    # A circle on the rim pokes out by its radius, however small.
    for r in (1e-60, 5e-324):
        rep = verify_layout(Layout(np.array([[1.0, 0.0]]), r), EMPTY, 0.0)
        assert not rep.feasible
        assert rep.worst_containment_violation == r
    # sqrt(2) * 2^-1074 past the wall rounds up to two subnormal steps.
    rep = verify_layout(Layout(np.array([[5e-324, 5e-324]]), 1.0), EMPTY, 0.0)
    assert rep.worst_containment_violation == 1e-323
    # Violations past the largest double round up to inf or -DBL_MAX.
    # The float64 screen overflows to inf and NaN on the way, silently.
    huge = np.array([[1.5e308, 0.0], [-1.5e308, 0.0]])
    rep = verify_layout(Layout(huge, 0.0), EMPTY, 0.0)
    assert (rep.worst_containment_violation, rep.worst_pairwise_violation) == (1.5e308, 0.0)
    assert correct_radius(huge, EMPTY) == 0.0
    rep = verify_layout(Layout(np.zeros((2, 2)), 1e308), EMPTY, 0.0)
    assert (rep.worst_containment_violation, rep.worst_pairwise_violation) == (1e308, math.inf)
    # 1 - 1e-251 rounds to 1 at any practical working precision.
    r = correct_radius(np.array([[1e-251, 0.0]]), EMPTY)
    assert r == math.nextafter(1.0, 0.0)
    assert not verify_layout(Layout(np.array([[1e-251, 0.0]]), 1.0), EMPTY, 0.0).feasible


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
    dx, dy = (Fraction(a) - Fraction(b) for a, b in zip(pts[0], pts[1]))
    assert (2 * Fraction(r)) ** 2 <= dx * dx + dy * dy
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


@st.composite
def packing_cases(draw):
    instance = draw(drawn_instances())
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
    # A positive corrected radius verifies at tolerance zero.  Whenever
    # the corrected radius verifies, r = 0 included, one ulp more does not.
    centers, instance = case
    r = correct_radius(centers, instance)
    feasible = verify_layout(Layout(centers, r), instance, 0.0).feasible
    assert feasible or r == 0.0
    if feasible:
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
        with pytest.raises(ValueError, match="circle 2"):
            Layout(pts, 0.1)
        # A Layout's array can still be changed after construction.
        lay = Layout(np.zeros((4, 2)), 0.1)
        lay.centers[:] = pts
        with pytest.raises(ValueError, match="circle 2"):
            verify_layout(lay, inst, 0.0)


# --- screened checks against the all-candidates reference ------------------


def _reference_precision(*arrays) -> int:
    """Working bits at which mpmath rounds every check on these doubles exactly.

    All inputs are multiples of 2^low and below 2^high.  A violation
    P - sqrt(Q) that is not 0 is then at least 2^(2 low - high - 3) in
    size, and a double t next to it misses it by at least
    2^(4 low - 3 high - 120), so an evaluation good to 2^(high + 4 - bits)
    rounds it exactly once bits > 4 (high - low) + 125.
    """
    values = [abs(float(v)) for a in arrays for v in np.ravel(a) if v != 0.0]
    high = max(math.frexp(v)[1] for v in values)
    low = min(
        (num & -num).bit_length() - den.bit_length()
        for num, den in (v.as_integer_ratio() for v in values)
    )
    return 4 * (high - low) + 128


def _directed(value: mpmath.mpf, direction: int) -> float:
    # float() rounds to nearest; step one ulp up (direction 1) or down
    # (direction -1) if that went the wrong way.
    out = float(value)
    if (mpmath.mpf(out) - value) * direction < 0:
        out = math.nextafter(out, direction * math.inf)
    return out


def _reference_correct(centers, instance: Instance) -> float:
    """Every term in mpmath at _reference_precision, rounded down."""
    pts = np.asarray(centers, dtype=float)
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    with mpmath.workprec(_reference_precision(1.0, pts, fc, fr)):
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
        return max(0.0, _directed(min(terms), -1))


def _reference_verify(layout: Layout, instance: Instance, tol: float) -> FeasibilityReport:
    """The all-candidates mpmath loop, each violation rounded up to a double."""
    n = layout.n
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    r = float(layout.radius)
    with mpmath.workprec(_reference_precision(1.0, r, layout.centers, fc, fr)):
        p = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in layout.centers]
        radius = mpmath.mpf(r)

        def first_max(items):
            worst = at = None
            for key, raw in items:
                value = _directed(raw, 1)
                if worst is None or value > worst:
                    worst, at = value, key
            return (0.0 if worst is None else max(0.0, worst)), at

        cont, cont_idx = first_max(
            (i, mpmath.hypot(p[i][0], p[i][1]) + radius - 1) for i in range(n)
        )
        pair, pair_idx = first_max(
            ((i, j), 2 * radius - mpmath.hypot(p[i][0] - p[j][0], p[i][1] - p[j][1]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        proh, proh_idx = first_max(
            (
                (i, f),
                radius
                + mpmath.mpf(fr[f])
                - mpmath.hypot(p[i][0] - mpmath.mpf(fc[f, 0]), p[i][1] - mpmath.mpf(fc[f, 1])),
            )
            for i in range(n)
            for f in range(fc.shape[0])
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
            with mpmath.workdps(50):
                reach = mpmath.mpf(1e6) + mpmath.mpf(0.08 + 0.001 * a) + mpmath.mpf(1e-12) * int(step)
                y = mpmath.mpf(1e6 + 0.5) - mpmath.sqrt(reach**2 - mpmath.mpf(x) ** 2)
            arc.append((x, float(y)))
        yield f"far-disk-arc-{a}", np.array(arc), FAR_DISK
    # Two circles whose pair term ties the far-disk clearance to ~1e-9.
    for k in range(40):
        x0 = rng.uniform(-0.3, 0.3)
        y0 = 0.5 - rng.uniform(0.05, 0.2)
        with mpmath.workdps(50):
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
    # Extreme scales, where a fixed working precision loses the wall or
    # a prohibited disk, and subnormal or huge distances.
    yield "tiny-single", np.array([[1e-251, 0.0]]), EMPTY
    yield "tiny-pair", np.array([[2.2e-251, 0.0], [0.0, 0.0]]), EMPTY
    yield "tiny-far-disk", np.array([[1e-251, 0.0], [0.0, -1e-251], [-2.2e-251, 1e-251]]), FAR_DISK
    yield "subnormal", np.array([[5e-324, 0.0], [0.0, -1e-320], [1.5e-323, 2e-323], [-3e-310, 4e-310]]), EMPTY
    yield "subnormal-far-disk", np.array([[5e-324, 0.0], [0.0, 1e-320]]), FAR_DISK
    yield "huge", np.array([[1e300, 0.0], [-1e300, 3e299], [0.25, -0.5], [7e299, 7e299]]), FAR_DISK
    # The pair prefilter keeps a pair by its squared distance.  In an
    # unjittered lattice nearly every squared distance ties another
    # exactly: here the 510 nearest pairs fall in groups of up to 170
    # exact ties, all within 1.4e-11 of each other.  Coincident centres
    # make the closest distance 0.
    wide = _exact_hex_lattice(2.0**-4, 0.45)
    yield "hex-ties-wide", wide, EMPTY
    yield "hex-ties-coincident", np.vstack((wide[::7], wide[::21])), EMPTY
    # Squares of separations near 1e-154 are subnormal and keep few bits;
    # near 1e-162 they underflow.  (0, 1) is 2.22e-162 apart and squares
    # to 0; (2, 3) is closer, 2.2e-162, but squares to 5e-324.
    yield "separation-1e-154", 1e-154 * rng.uniform(-3.0, 3.0, size=(12, 2)), EMPTY
    yield "separation-1e-162", np.array(
        [[0.0, 0.0], [1.57e-162, 1.57e-162], [3e-150, 0.0], [3e-150 + 2.2e-162, 0.0]]
    ), EMPTY
    # Near sqrt(DBL_MAX) = 1.34e154, dx*dx overflows: some squares are
    # inf, some just below DBL_MAX, and where the closest pair's is the
    # latter, the prefilter's threshold overflows too.
    edge = math.sqrt(sys.float_info.max)
    yield "overflowing-squares", np.array(
        [[edge, 0.0], [-edge, 0.0], [0.0, edge], [0.5 * edge, -0.5 * edge], [0.1, 0.0], [0.0, 0.2]]
    ), EMPTY
    yield "overflowing-threshold", np.array([[0.0, 0.0], [edge, 0.0], [-edge, 0.0], [0.0, -edge]]), EMPTY
    # Subnormal separations, for the screen's absolute term 8 * 2^-1074:
    # (0, 1) is sqrt(113) = 10.63 steps of 2^-1074 apart, and hypot rounds
    # it to 11; (2, 3) is sqrt(104) = 10.20 and rounds to 10.  Rounded
    # up, both violations tie, so (0, 1) is the first maximum.
    step = math.ulp(0.0)
    yield "subnormal-ties", step * np.array([[0.0, 0.0], [7.0, 8.0], [1000.0, 0.0], [1010.0, 2.0]]), EMPTY


def test_screened_checks_match_the_reference():
    for label, pts, inst in _oracle_cases():
        r = correct_radius(pts, inst)
        assert r == _reference_correct(pts, inst), label
        # At 1e16, every pair's rounded violation ties at 2e16 or so, and
        # the first pair in loop order is the worst.
        for radius in (r, math.nextafter(r, math.inf), r + 1e-9, 1e16):
            lay = Layout(pts, radius)
            rep = verify_layout(lay, inst, 0.0)
            assert rep == _reference_verify(lay, inst, 0.0), (label, radius)
            # Rounding up makes the verdict the worst value's, at any tolerance.
            for tol in (0.0, 1e-12):
                assert verify_layout(lay, inst, tol).feasible == (rep.worst() <= tol), (label, tol)


# --- formatting and files --------------------------------------------------


def test_format_radius_truncates():
    assert format_radius(0.25060816845812556) == "0.25060816"
    assert format_radius(0.1) == "0.10000000"
    assert format_radius(0.999999999) == "0.99999999"
    assert format_radius(0.0) == "0.00000000"
    assert format_radius(5e-324) == "0.00000000"
    # The default decimal context holds 28 digits, so quantizing to 8
    # places raised InvalidOperation from 1e20 up.
    assert format_radius(9.99e19) == "99900000000000000000.00000000"
    assert format_radius(1e20) == "100000000000000000000.00000000"
    text = format_radius(sys.float_info.max)
    assert text == "17976931348623157" + "0" * 292 + ".00000000"  # repr's 17 digits
    assert float(text) == sys.float_info.max


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
    save_layout(Layout(lay.centers, 1e20), "problem2", path)
    assert load_layout(path)[0].radius == 1e20
    assert json.loads(path.read_text())["radius"] == "100000000000000000000.00000000"


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("radius", [0.0, 5e-324, 0.2071067811865476, 1e20, sys.float_info.max])
@pytest.mark.parametrize("name", ["problem2", 'pröblèm "円" \\ 2\n'])
def test_saved_layout_is_json_dumps_indent_2(tmp_path, n, radius, name):
    centers = np.array([[-0.0, 0.0], [0.123456789012345, -5e-324], [-0.0, -0.75]])[:n]
    layout = Layout(centers, radius)
    path = tmp_path / "lay.json"
    save_layout(layout, name, path)
    want = json.dumps(layout_to_dict(layout, name), indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    loaded, loaded_name = load_layout(path)
    assert loaded_name == name
    assert loaded.centers.tobytes() == centers.tobytes()


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
    # Integers no double holds: float() overflows on 400 digits, and
    # json.loads refuses 5000, past Python's digit limit, with a ValueError.
    for digits, message in ((400, "'radius' is not a decimal string"), (5000, "invalid JSON")):
        radius = "1" + "0" * digits
        path.write_text(f'{{"instance": "x", "n": 1, "radius": {radius}, "centers": [[0, 0]]}}')
        with pytest.raises(LayoutFormatError, match=message):
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
    # JSON true and false load as bools, which pass as int and which
    # float() reads as 1.0 and 0.0.
    for field, value, message in (
        ("n", True, "'n' must be a positive integer"),
        ("radius", True, "'radius' is not a decimal string"),
        ("centers", [[True, "0.2"]], r"centers\[0\]\[0\] is not a decimal string"),
        ("centers", [["0.1", False]], r"centers\[0\]\[1\] is not a decimal string"),
    ):
        bad = dict(doc)
        bad[field] = value
        with pytest.raises(LayoutFormatError, match=message):
            layout_from_dict(bad)
