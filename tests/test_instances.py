"""Bundled instance catalogue and the instance file format."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fsspack.instances import (
    MAX_UNION_COUNT,
    MIN_UNION_COUNT,
    InstanceFormatError,
    UnknownInstanceError,
    builtin_catalogue,
    builtin_instance,
    instance_from_name,
    instance_name,
    load_instance,
    save_instance,
)

SMALL = Fraction(1) / Fraction("10.5")
LARGE = Fraction("10.25") / Fraction("17.5")


def test_central_disk_geometry():
    inst = builtin_instance(2)
    assert inst.name == "problem2"
    assert inst.f_count == 1
    disk = inst.prohibited[0]
    assert (disk.center.x, disk.center.y) == (0.0, 0.0)
    assert disk.radius == float(SMALL)


def test_offset_disk_geometry():
    # The offset variants touch the container wall from inside.
    for pid, r in ((3, SMALL), (5, LARGE)):
        disk = builtin_instance(pid).prohibited[0]
        assert disk.center.x == 0.0
        assert disk.center.y == float(r - 1)
        assert disk.radius == float(r)
        assert math.hypot(disk.center.x, disk.center.y) + disk.radius == pytest.approx(1.0, abs=1e-15)


def test_large_disk_geometry():
    disk = builtin_instance(4).prohibited[0]
    assert (disk.center.x, disk.center.y) == (0.0, 0.0)
    assert disk.radius == float(LARGE)


def test_four_disk_cross_geometry():
    inst = builtin_instance(6)
    assert inst.f_count == 4
    offset = float(1 - SMALL)
    got = {(f.center.x, f.center.y) for f in inst.prohibited}
    assert got == {(0.0, -offset), (0.0, offset), (-offset, 0.0), (offset, 0.0)}
    assert all(f.radius == float(SMALL) for f in inst.prohibited)


def test_union_truncation_is_prefix_nested():
    full = builtin_instance(1, MAX_UNION_COUNT)
    assert full.f_count == 11
    for count in range(MIN_UNION_COUNT, MAX_UNION_COUNT + 1):
        part = builtin_instance(1, count)
        assert part.name == f"problem1-f{count}"
        assert part.prohibited == full.prohibited[:count]


def test_all_bundled_disks_fit_in_container():
    for inst in builtin_catalogue().values():
        centers = inst.prohibited_centers()
        radii = inst.prohibited_radii()
        reach = np.hypot(centers[:, 0], centers[:, 1]) + radii
        assert (reach <= 1.0 + 1e-12).all(), inst.name


def test_builtin_instance_rejects_bad_ids():
    with pytest.raises(ValueError):
        builtin_instance(0)
    with pytest.raises(ValueError):
        builtin_instance(7)
    with pytest.raises(ValueError):
        builtin_instance(1, MIN_UNION_COUNT - 1)
    with pytest.raises(ValueError):
        builtin_instance(1, MAX_UNION_COUNT + 1)
    with pytest.raises(ValueError):
        builtin_instance(2, 5)


def test_instance_names_and_catalogue():
    assert instance_name(1, 7) == "problem1-f7"
    assert instance_name(1) == "problem1-f11"
    assert instance_name(4) == "problem4"
    catalogue = builtin_catalogue()
    assert len(catalogue) == (MAX_UNION_COUNT - MIN_UNION_COUNT + 1) + 5
    assert instance_from_name("problem6").f_count == 4
    with pytest.raises(UnknownInstanceError):
        instance_from_name("problem9")


def test_instance_file_round_trip(tmp_path):
    inst = builtin_instance(1, 11)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.name == inst.name
    assert back.prohibited == inst.prohibited


def test_load_instance_field_errors(tmp_path):
    path = tmp_path / "bad.json"

    def load_doc(doc):
        path.write_text(json.dumps(doc))
        return load_instance(path)

    with pytest.raises(InstanceFormatError, match="name"):
        load_doc({"prohibited": []})
    with pytest.raises(InstanceFormatError, match="prohibited"):
        load_doc({"name": "x"})
    with pytest.raises(InstanceFormatError, match=r"prohibited\[0\]\.x"):
        load_doc({"name": "x", "prohibited": [{"y": "0", "r": "0.1"}]})
    with pytest.raises(InstanceFormatError, match=r"prohibited\[1\]\.r"):
        load_doc({
            "name": "x",
            "prohibited": [
                {"x": "0", "y": "0", "r": "0.1"},
                {"x": "0", "y": "0", "r": "bogus"},
            ],
        })
    with pytest.raises(InstanceFormatError, match="positive"):
        load_doc({"name": "x", "prohibited": [{"x": "0", "y": "0", "r": "-0.1"}]})
    with pytest.raises(InstanceFormatError, match="finite"):
        load_doc({"name": "x", "prohibited": [{"x": "inf", "y": "0", "r": "0.1"}]})
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_instance(path)
    path.write_bytes(b'{"name": "probl\xe8me"}')
    with pytest.raises(InstanceFormatError, match="not UTF-8"):
        load_instance(path)
    # float() reads JSON true and false as 1.0 and 0.0.
    for field, flag in (("x", False), ("y", True), ("r", True)):
        entry = {"x": "0", "y": "0", "r": "0.1", field: flag}
        with pytest.raises(InstanceFormatError, match=rf"prohibited\[0\]\.{field}: not a decimal"):
            load_doc({"name": "x", "prohibited": [entry]})
    # Integers no double holds: float() overflows on 400 digits, and
    # json.loads refuses 5000, past Python's digit limit, with a ValueError.
    for digits, message in ((400, r"prohibited\[0\]\.x: not a decimal"), (5000, "invalid JSON")):
        x = "1" + "0" * digits
        path.write_text(f'{{"name": "x", "prohibited": [{{"x": {x}, "y": 0, "r": 0.1}}]}}')
        with pytest.raises(InstanceFormatError, match=message):
            load_instance(path)


def test_load_instance_warns_on_vacuous_disk(tmp_path):
    path = tmp_path / "vac.json"
    path.write_text(json.dumps({
        "name": "far",
        "prohibited": [{"x": "5.0", "y": "0.0", "r": "0.5"}],
    }))
    with pytest.warns(UserWarning, match="outside the container"):
        inst = load_instance(path)
    assert inst.f_count == 1
