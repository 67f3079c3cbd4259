"""Free masks, pair pruning, and the assembled nonlinear program."""

import math

import numpy as np
import pytest

from fsspack.formulation import (
    FAMILY_CONTAINMENT,
    FAMILY_PAIR,
    FAMILY_PROHIBITED,
    EvaluationError,
    build_nlp,
    prune_pairs,
    row_id_count,
)
from fsspack.geometry import CartesianPoint, Instance, Layout, ProhibitedCircle

EMPTY = Instance("empty", [])


def disk(x, y, r):
    return ProhibitedCircle(CartesianPoint(x, y), r)


def mask(n, *free):
    # Free mask of n circles, True at the given indices.  In test names,
    # "polar" is the paper's name for a free circle, "cart" for a boxed one.
    out = np.zeros(n, dtype=bool)
    out[list(free)] = True
    return out


def row_of(problem, family, who):
    # row_tag decodes each row's id into (family, circle indices).
    for row in range(problem.m):
        if problem.row_tag(row) == (family, tuple(who)):
            return row
    raise AssertionError(f"no row tagged ({family}, {who})")


def all_pairs(n, k):
    # Every circle pair in triu order, every (circle, disk) in row-major order.
    return np.column_stack(np.triu_indices(n, k=1)), np.indices((n, k)).reshape(2, -1).T


# --- free mask -------------------------------------------------------------


def test_free_mask_is_validated():
    # Integer indices would be read as fancy indexing, not as a mask.
    lay = Layout(np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]]), 0.0)
    pairs = all_pairs(3, 0)
    for bad in (np.array([0, 1, 0]), [2], mask(2, 1), mask(4), np.zeros((3, 1), dtype=bool)):
        with pytest.raises(ValueError, match="bool mask of shape"):
            prune_pairs(lay, bad, 0.1, 0.3, EMPTY)
        with pytest.raises(ValueError, match="bool mask of shape"):
            build_nlp(EMPTY, bad, lay, 0.1, pairs, 0.3)
    p = build_nlp(EMPTY, [False, True, False], lay, 0.1, pairs, 0.3)
    assert np.isfinite(p.lower).tolist() == [True, True, True, False, False, True, True]


# --- frozen constraint values ----------------------------------------------
# Each family is pinned on a configuration simple enough to evaluate by
# hand; exact-in-double cases use equality.


def build_simple(free, centers, instance=EMPTY, delta=2.0, r_cap=1.0, pairs=None):
    lay = Layout(np.asarray(centers, dtype=float), 0.0)
    if pairs is None:
        pairs = all_pairs(len(free), instance.f_count)
    return build_nlp(instance, free, lay, delta, pairs, r_cap)


def test_value_containment_boxed():
    p = build_simple(mask(1), [(0.3, 0.4)])
    z = p.pack_start(np.array([[0.3, 0.4]]), 0.2)
    g = p.constraint_values(z)
    # (1 - 0.2)^2 - 0.3^2 - 0.4^2
    assert g[row_of(p, FAMILY_CONTAINMENT, (0,))] == pytest.approx(0.39, abs=1e-15)


def test_value_containment_polar():
    p = build_simple(mask(1, 0), [(0.5, 0.0)])
    z = p.pack_start(np.array([[0.5, 0.0]]), 0.2)
    g = p.constraint_values(z)
    # The same squared row as a boxed circle: (1 - 0.2)^2 - 0.5^2
    assert g[row_of(p, FAMILY_CONTAINMENT, (0,))] == pytest.approx(0.39, abs=1e-15)


def test_value_pair_cart_cart():
    p = build_simple(mask(2), [(0.0, 0.0), (1.0, 0.0)])
    z = p.pack_start(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.25)
    g = p.constraint_values(z)
    assert g[row_of(p, FAMILY_PAIR, (0, 1))] == 0.75


def test_value_pair_polar_polar():
    p = build_simple(mask(2, 0, 1), [(0.5, 0.0), (-0.5, 0.0)])
    z = p.pack_start(np.array([[0.5, 0.0], [-0.5, 0.0]]), 0.5)
    g = p.constraint_values(z)
    # Antipodal at radius 0.5: separation exactly matches touching circles.
    assert g[row_of(p, FAMILY_PAIR, (0, 1))] == 0.0


def test_value_pair_cart_polar():
    p = build_simple(mask(2, 1), [(0.5, 0.0), (-0.5, 0.0)])
    z = p.pack_start(np.array([[0.5, 0.0], [-0.5, 0.0]]), 0.25)
    g = p.constraint_values(z)
    assert g[row_of(p, FAMILY_PAIR, (0, 1))] == pytest.approx(0.75, abs=1e-12)


def test_value_prohibited_cartesian():
    inst = Instance("d", [disk(0.0, 0.0, 0.2)])
    p = build_simple(mask(1), [(0.5, 0.0)], inst)
    z = p.pack_start(np.array([[0.5, 0.0]]), 0.1)
    g = p.constraint_values(z)
    assert g[row_of(p, FAMILY_PROHIBITED, (0, 0))] == pytest.approx(0.16, abs=1e-15)


def test_value_prohibited_polar():
    inst = Instance("d", [disk(0.0, 0.5, 0.1)])
    p = build_simple(mask(1, 0), [(0.6, 0.0)], inst)
    z = p.pack_start(np.array([[0.6, 0.0]]), 0.2)
    g = p.constraint_values(z)
    assert g[row_of(p, FAMILY_PROHIBITED, (0, 0))] == pytest.approx(0.52, abs=1e-12)


def test_coordinate_systems_agree():
    # A row is the same function of the centres whichever circles are
    # free: its value, its violation in distance units and the merit
    # value agree row by row across posings.
    inst = Instance("d", [disk(0.2, 0.3, 0.1)])
    centers = np.array([[0.31, -0.22], [-0.47, 0.11], [0.05, 0.58]])
    rng = np.random.default_rng(31)
    by_id = rng.uniform(0.0, 2.0, row_id_count(3, 1))
    tagged, merits = [], []
    for free in (mask(3), mask(3, 0, 1, 2), mask(3, 1)):
        p = build_simple(free, centers, inst)
        z = p.pack_start(centers, 0.17)
        rows = zip(p.row_ids.tolist(), p.constraint_values(z), p.linear_violations(z))
        tagged.append({key: (g, lv) for key, g, lv in rows})
        merits.append(p.augmented_lagrangian(z, by_id[p.row_ids], 10.0)[0])
    assert tagged[0].keys() == tagged[1].keys() == tagged[2].keys()
    for key, value in tagged[0].items():
        assert tagged[1][key] == pytest.approx(value, abs=1e-12), key
        assert tagged[2][key] == pytest.approx(value, abs=1e-12), key
    assert merits[1] == pytest.approx(merits[0], abs=1e-12)
    assert merits[2] == pytest.approx(merits[0], abs=1e-12)


def test_the_mask_changes_only_the_bounds():
    # Every circle has (x, y) at 1 + 2i and 2 + 2i, whichever circles are
    # free.  So at one z every mask gives the same program bit for bit,
    # and the masks differ only in lower and upper: a boxed centre gets
    # c +- delta, a free one exactly -inf and +inf.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, 3))
        disks = [disk(*rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.2)) for _ in range(k)]
        inst = Instance("d", disks)
        centers = rng.uniform(-0.9, 0.9, size=(n, 2))
        delta = float(rng.uniform(0.0, 0.3))
        r_cap = float(rng.uniform(0.05, 0.5))
        radius = float(rng.uniform(0.0, r_cap))
        masks = [mask(n), mask(n, *range(n)), rng.random(n) < 0.5]
        problems = [build_simple(m, centers, inst, delta, r_cap) for m in masks]
        z = problems[0].pack_start(centers, radius) + rng.normal(0.0, 0.05, 2 * n + 1)
        multipliers = rng.uniform(0.0, 2.0, problems[0].m)

        def evaluate(p):
            return (
                p.pack_start(centers, radius),
                p.row_ids,
                p.constraint_values(z),
                p.jacobian(z),
                *p.augmented_lagrangian(z, multipliers, 10.0),
                *p.outer_update(z, multipliers, 10.0),
                p.extract_centers(z),
            )

        want = evaluate(problems[0])
        for free, p in zip(masks, problems):
            for got, expected in zip(evaluate(p), want):
                assert np.array_equal(got, expected)
            assert (p.lower[0], p.upper[0]) == (0.0, r_cap)
            boxed, c = ~np.repeat(free, 2), centers.ravel()
            assert np.array_equal(p.lower[1:][boxed], c[boxed] - delta)
            assert np.array_equal(p.upper[1:][boxed], c[boxed] + delta)
            assert (p.lower[1:][~boxed] == -math.inf).all()
            assert (p.upper[1:][~boxed] == math.inf).all()


# --- pruning ---------------------------------------------------------------


def test_prune_drops_far_boxed_pair():
    lay = Layout(np.array([[-0.9, 0.0], [0.9, 0.0]]), 0.0)
    circle_pairs, _ = prune_pairs(lay, mask(2), 0.01, 0.3, EMPTY)
    assert circle_pairs.shape == (0, 2)
    # The same geometry with one free circle is never pruned.
    circle_pairs, _ = prune_pairs(lay, mask(2, 1), 0.01, 0.3, EMPTY)
    assert circle_pairs.tolist() == [[0, 1]]


def test_prune_keeps_near_boxed_pair():
    lay = Layout(np.array([[-0.2, 0.0], [0.2, 0.0]]), 0.0)
    circle_pairs, _ = prune_pairs(lay, mask(2), 0.01, 0.3, EMPTY)
    assert circle_pairs.tolist() == [[0, 1]]


def test_prune_prohibited_clearance():
    inst = Instance("d", [disk(-0.9, 0.0, 0.05)])
    lay = Layout(np.array([[0.9, 0.0]]), 0.0)
    _, clearances = prune_pairs(lay, mask(1), 0.01, 0.3, inst)
    assert clearances.shape == (0, 2)
    _, clearances = prune_pairs(lay, mask(1, 0), 0.01, 0.3, inst)
    assert clearances.tolist() == [[0, 0]]


def box_gap(ci, cj, delta):
    # Exact minimum distance between the clipped movement boxes.
    lo_i = np.maximum(-1.0, ci - delta)
    hi_i = np.minimum(1.0, ci + delta)
    lo_j = np.maximum(-1.0, cj - delta)
    hi_j = np.minimum(1.0, cj + delta)
    gap = np.maximum(0.0, np.maximum(lo_j - hi_i, lo_i - hi_j))
    return math.hypot(gap[0], gap[1])


def test_pruned_pairs_cannot_collide():
    # Soundness property against an exact box-distance oracle.
    rng = np.random.default_rng(11)
    inst = Instance("d", [disk(0.2, -0.1, 0.15), disk(-0.4, 0.4, 0.1)])
    pruned_seen = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-0.95, 0.95, size=(n, 2))
        delta = float(rng.uniform(0.0, 0.2))
        r_cap = float(rng.uniform(0.05, 0.4))
        free = np.array([rng.random() >= 0.7 for _ in range(n)])
        lay = Layout(pts, 0.0)
        circle_pairs, clearances = prune_pairs(lay, free, delta, r_cap, inst)
        kept_circle = set(map(tuple, circle_pairs.tolist()))
        kept_proh = set(map(tuple, clearances.tolist()))
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in kept_circle:
                    continue
                pruned_seen += 1
                assert not free[i] and not free[j]
                assert box_gap(pts[i], pts[j], delta) >= 2.0 * r_cap - 1e-12
            for f in range(inst.f_count):
                if (i, f) in kept_proh:
                    continue
                pruned_seen += 1
                assert not free[i]
                fc = inst.prohibited_centers()[f]
                fr = float(inst.prohibited_radii()[f])
                # Nearest reachable point of the movement box to the disk.
                lo = np.maximum(-1.0, pts[i] - delta)
                hi = np.minimum(1.0, pts[i] + delta)
                nearest = np.clip(fc, lo, hi)
                assert math.hypot(*(nearest - fc)) >= r_cap + fr - 1e-12
    assert pruned_seen > 50


def test_prune_rejects_negative_delta():
    lay = Layout(np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        prune_pairs(lay, mask(1), -0.1, 0.3, EMPTY)


def test_prune_and_build_reject_nan_box_sizes():
    # NaN passes a test of delta < 0 or r_cap < 0; it would give NaN bounds.
    inst = Instance("d", [disk(0.0, 0.0, 0.1)])
    lay = Layout(np.array([[0.5, 0.0], [-0.5, 0.0]]), 0.0)
    pairs = all_pairs(2, 1)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        prune_pairs(lay, mask(2), math.nan, 0.3, inst)
    with pytest.raises(ValueError, match="r_cap must be nonnegative"):
        prune_pairs(lay, mask(2), 0.1, math.nan, inst)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        build_nlp(inst, mask(2), lay, math.nan, pairs, 0.3)
    with pytest.raises(ValueError, match="r_cap must be nonnegative"):
        build_nlp(inst, mask(2), lay, 0.1, pairs, math.nan)


# --- program assembly ------------------------------------------------------


def test_build_counts_and_bounds():
    inst = Instance("d", [disk(0.0, 0.0, 0.2)])
    centers = np.array([[0.5, 0.0], [0.95, 0.0]])
    p = build_simple(mask(2), centers, inst, delta=0.2, r_cap=0.4)
    assert p.nv == 5
    assert p.m == 2 + 1 + 2
    assert p.lower[0] == 0.0 and p.upper[0] == 0.4
    # A movement box is c +- delta, also past the container's edge: the
    # containment rows hold the container.
    # Circle 1's (x, y) are variables 3 and 4.
    assert (p.lower[3], p.upper[3]) == (0.95 - 0.2, 0.95 + 0.2)
    assert (p.lower[4], p.upper[4]) == (-0.2, 0.2)


def test_build_rejects_bad_pairs():
    centers = np.array([[0.0, 0.0], [0.5, 0.0]])
    a = mask(2)
    lay = Layout(centers, 0.0)
    with pytest.raises(ValueError):
        build_nlp(EMPTY, a, lay, 0.1, ([(0, 5)], []), 0.5)
    with pytest.raises(ValueError):
        build_nlp(EMPTY, a, lay, 0.1, ([], [(0, 0)]), 0.5)
    inst = Instance("d", [disk(0.0, 0.0, 0.1)])
    with pytest.raises(ValueError):
        build_nlp(inst, a, lay, 0.1, ([], [(0, 3)]), 0.5)
    # The error names the first offending pair.
    with pytest.raises(ValueError, match=r"pair \(1, 1\) references circles outside"):
        build_nlp(EMPTY, a, lay, 0.1, ([(0, 1), (1, 1), (-1, 0)], []), 0.5)
    with pytest.raises(ValueError, match=r"pair \(-1, 0\) references an unknown circle"):
        build_nlp(inst, a, lay, 0.1, ([(0, 1)], [(1, 0), (-1, 0), (2, 0)]), 0.5)


def test_pack_extract_round_trip():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-0.6, 0.6, size=(5, 2))
    a = mask(5, 1, 2, 4)
    p = build_simple(a, centers)
    z = p.pack_start(centers, 0.1)
    back = p.extract_centers(z)
    assert np.allclose(back, centers, atol=1e-15)


def test_linear_violations_match_geometry():
    centers = np.array([[0.25, 0.0], [-0.25, 0.0]])
    p = build_simple(mask(2), centers)
    z = p.pack_start(centers, 0.3)
    lv = p.linear_violations(z)
    pair_row = row_of(p, FAMILY_PAIR, (0, 1))
    cont_row = row_of(p, FAMILY_CONTAINMENT, (0,))
    # Overlap by 0.1 in distance units; containment has 0.45 slack.
    assert lv[pair_row] == pytest.approx(0.1, abs=1e-15)
    assert lv[cont_row] == pytest.approx(-0.45, abs=1e-15)


def test_constraint_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    inst = Instance("d", [disk(0.25, -0.1, 0.12)])
    centers = rng.uniform(-0.5, 0.5, size=(4, 2))
    p = build_simple(mask(4, 1, 3), centers, inst, delta=0.5, r_cap=0.6)
    z = p.pack_start(centers, 0.21)
    jac = p.jacobian(z)
    assert p.constraint_values(z).shape == (p.m,)
    assert jac.shape == (p.m, p.nv)

    h = 1e-6
    for col in range(p.nv):
        zp, zm = z.copy(), z.copy()
        zp[col] += h
        zm[col] -= h
        fd = (p.constraint_values(zp) - p.constraint_values(zm)) / (2 * h)
        worst = np.max(np.abs(jac[:, col] - fd) / np.maximum(1.0, np.abs(fd)))
        assert worst < 1e-7, f"column {col}"


def test_constraint_values_reject_non_finite():
    p = build_simple(mask(2, 1), [(0.5, 0.0), (-0.5, 0.0)])
    z = p.pack_start(np.array([[0.5, 0.0], [-0.5, 0.0]]), 0.1)
    z[1] = math.nan
    with pytest.raises(EvaluationError, match="family"):
        p.constraint_values(z)


def test_outer_update_matches_the_separate_calls():
    # One gather serves what constraint_values, linear_violations and
    # lagrangian_gradient each gather for themselves: bit for bit equal.
    rng = np.random.default_rng(23)
    inst = Instance("d", [disk(0.1, -0.2, 0.15), disk(-0.3, 0.35, 0.1)])
    centers = rng.uniform(-0.5, 0.5, size=(5, 2))
    p = build_simple(mask(5, 1, 2, 4), centers, inst)
    z = p.pack_start(centers, 0.15)
    multipliers = np.abs(rng.standard_normal(p.m))
    values, violations, candidate, gradient = p.outer_update(z, multipliers, 10.0)
    g = p.constraint_values(z)
    want = np.maximum(0.0, multipliers - 10.0 * g)
    assert candidate.any() and not candidate.all()
    assert np.array_equal(values, g)
    assert np.array_equal(violations, p.linear_violations(z))
    assert np.array_equal(candidate, want)
    assert np.array_equal(gradient, p.lagrangian_gradient(z, want))
    z[1] = math.nan
    with pytest.raises(EvaluationError, match="non-finite value in containment family"):
        p.outer_update(z, multipliers, 10.0)


def test_row_ids_name_each_constraint():
    # Ids depend on the circles and the disk alone: not on the mask, the
    # row order or the orientation of a pair.
    inst = Instance("d", [disk(0.1, -0.2, 0.15), disk(-0.3, 0.35, 0.1)])
    centers = np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, -0.5]])
    pairs = ([(0, 2), (2, 1)], [(1, 0), (2, 1)])
    n, k = 3, 2
    want = {
        (FAMILY_CONTAINMENT, (0,)): 0,
        (FAMILY_CONTAINMENT, (1,)): 1,
        (FAMILY_CONTAINMENT, (2,)): 2,
        (FAMILY_PAIR, (0, 2)): n + 0 * n + 2,
        (FAMILY_PAIR, (1, 2)): n + 1 * n + 2,
        (FAMILY_PROHIBITED, (1, 0)): n + n * n + 1 * k + 0,
        (FAMILY_PROHIBITED, (2, 1)): n + n * n + 2 * k + 1,
    }
    assert row_id_count(n, k) == n + n * n + n * k
    for free in (mask(3), mask(3, 0, 2)):
        p = build_simple(free, centers, inst, pairs=pairs)
        tags = [p.row_tag(row) for row in range(p.m)]
        assert dict(zip(tags, p.row_ids.tolist())) == want


def test_row_tag_decodes_every_row():
    # Family and circles of every row, from its id alone, under every
    # mask; n = 1 and k = 0 leave the pair or the clearance arrays empty,
    # of shape (0, 2).  Containment rows come in circle order.
    rng = np.random.default_rng(29)
    disks = [disk(0.1, -0.2, 0.15), disk(-0.3, 0.35, 0.1)]
    for n, k in ((4, 2), (1, 2), (4, 0), (1, 0)):
        inst = Instance("d", disks[:k])
        lay = Layout(rng.uniform(-0.5, 0.5, size=(n, 2)), 0.0)
        # Nothing is pruned while every circle is free.
        circle_pairs, clearances = prune_pairs(lay, mask(n, *range(n)), 0.1, 0.2, inst)
        assert circle_pairs.shape == (n * (n - 1) // 2, 2)
        assert clearances.shape == (n * k, 2)
        for free in (mask(n), mask(n, *range(n)), mask(n, *range(0, n, 2))):
            p = build_nlp(inst, free, lay, 0.1, (circle_pairs, clearances), 0.2)
            want = [(FAMILY_CONTAINMENT, (i,)) for i in range(n)]
            want += [(FAMILY_PAIR, (i, j)) for i, j in circle_pairs.tolist()]
            want += [(FAMILY_PROHIBITED, (i, f)) for i, f in clearances.tolist()]
            assert [p.row_tag(row) for row in range(p.m)] == want

    # An error names its row by the same decoding: a pair low index first.
    # Circles 0 and 2 sit far enough apart that only their pair row
    # overflows; each containment row stays finite.
    centers = [(1e154, 0.0), (-0.5, 0.0), (-1e154, 0.0)]
    p = build_simple(mask(3, 2), centers, pairs=([(2, 0)], []))
    z = p.pack_start(np.array(centers), 0.1)
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match=r"pair family constraint for indices \(0, 2\)"):
            p.constraint_values(z)


def test_merit_gradient_matches_jacobian():
    # The merit gradient sums the row partials by one bincount; the dense
    # jacobian places the same partials entry by entry.
    rng = np.random.default_rng(5)
    inst = Instance("d", [disk(0.1, -0.2, 0.15)])
    centers = rng.uniform(-0.5, 0.5, size=(4, 2))
    p = build_simple(mask(4, 1, 2), centers, inst)
    z = p.pack_start(centers, 0.15)
    jac = p.jacobian(z)
    multipliers = np.abs(rng.standard_normal(p.m))
    penalty = 10.0
    w = np.maximum(0.0, multipliers - penalty * p.constraint_values(z))
    assert w.any() and not w.all()
    _, grad = p.augmented_lagrangian(z, multipliers, penalty)
    want = -(w @ jac)
    want[0] -= 1.0
    assert np.allclose(grad, want, rtol=0.0, atol=1e-12)
    want = -(multipliers @ jac)
    want[0] -= 1.0
    assert np.allclose(p.lagrangian_gradient(z, multipliers), want, rtol=0.0, atol=1e-12)


def test_lagrangian_hessian_matches_central_differences():
    # Random programs in the style of C6: 2-5 circles, each boxed or free,
    # 0-3 disks, random nonnegative multipliers, some of them zero.  The
    # Hessian is constant, so central differences of the gradient are
    # exact up to rounding; it must also be symmetric.
    rng = np.random.default_rng(91)
    h = 1e-6
    disks_seen = set()
    for _ in range(60):
        n, k = int(rng.integers(2, 6)), int(rng.integers(0, 4))
        disks_seen.add(k)
        inst = Instance(
            "random",
            [disk(*rng.uniform(-0.5, 0.5, size=2), rng.uniform(0.05, 0.2)) for _ in range(k)],
        )
        centers = rng.uniform(-0.6, 0.6, size=(n, 2))
        p = build_simple(rng.random(n) >= 0.5, centers, inst, delta=0.5, r_cap=0.7)
        z = p.pack_start(centers, rng.uniform(0.05, 0.3))
        multipliers = rng.exponential(1.0, p.m) * (rng.random(p.m) < 0.8)
        hessian = p.lagrangian_hessian(multipliers)
        assert hessian.shape == (p.nv, p.nv)
        assert np.array_equal(hessian, hessian.T)
        for col in range(p.nv):
            zp, zm = z.copy(), z.copy()
            zp[col] += h
            zm[col] -= h
            fd = (p.lagrangian_gradient(zp, multipliers) - p.lagrangian_gradient(zm, multipliers))
            fd /= 2 * h
            scale = np.maximum(1.0, np.maximum(np.abs(hessian[:, col]), np.abs(fd)))
            worst = np.max(np.abs(hessian[:, col] - fd) / scale)
            assert worst < 1e-6, f"column {col}"
    assert disks_seen == {0, 1, 2, 3}


def test_program_without_pairs_or_disks():
    # Both pair families empty: only containment rows, one of them free.
    centers = np.array([[0.2, -0.1], [-0.3, 0.4]])
    p = build_simple(mask(2, 1), centers, pairs=([], []))
    assert [p.row_tag(row)[0] for row in range(p.m)] == [FAMILY_CONTAINMENT] * 2
    z = p.pack_start(centers, 0.25)
    g = p.constraint_values(z)
    # (1 - 0.25)^2 - 0.3^2 - 0.4^2
    assert g[row_of(p, FAMILY_CONTAINMENT, (1,))] == pytest.approx(0.3125, abs=1e-15)
    jac = p.jacobian(z)
    assert jac.shape == (2, 5)
    multipliers = np.array([0.5, 2.0])
    value, grad = p.augmented_lagrangian(z, multipliers, 10.0)
    w = np.maximum(0.0, multipliers - 10.0 * g)
    want = -(w @ jac)
    want[0] -= 1.0
    assert np.isfinite(value)
    assert np.allclose(grad, want, rtol=0.0, atol=1e-12)
    assert np.allclose(p.extract_centers(z), centers, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("assignment", [(False,) * 3, (True,) * 3, (False, True, False)])
@pytest.mark.parametrize("with_pairs", [False, True])
@pytest.mark.parametrize("with_disks", [False, True])
def test_non_finite_variable_reaches_merit(assignment, with_pairs, with_disks):
    # The solver checks only the merit value and gradient for finiteness,
    # so every non-finite variable must show in one of them (see the
    # augmented_lagrangian docstring).
    centers = np.array([[0.31, -0.22], [-0.47, 0.11], [0.05, 0.58]])
    inst = Instance("d", [disk(0.2, 0.3, 0.1)]) if with_disks else EMPTY
    pairs = all_pairs(3, inst.f_count)
    if not with_pairs:
        pairs = ([], pairs[1])
    p = build_simple(np.array(assignment), centers, inst, pairs=pairs)
    start = p.pack_start(centers, 0.17)
    settings = [(np.zeros(p.m), 10.0), (np.linspace(0.5, 2.0, p.m), 1e6)]
    # A free centre is unbounded, so a finite x or y whose square
    # overflows must show too.
    free = np.flatnonzero(assignment)
    unbounded = set((1 + 2 * free).tolist() + (2 + 2 * free).tolist())
    for j in range(p.nv):
        for bad in (math.nan, math.inf, -math.inf) + ((1e200, -1e200) if j in unbounded else ()):
            z = start.copy()
            z[j] = bad
            for multipliers, penalty in settings:
                with np.errstate(all="ignore"):
                    value, grad = p.augmented_lagrangian(z, multipliers, penalty)
                assert not (math.isfinite(value) and np.isfinite(grad).all()), (j, bad, penalty)
