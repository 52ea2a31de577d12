from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsurf import ScenarioError, SchemaError, apply_germ, extend_eval, get_trunc_order
from logsurf import cli, reflect
from logsurf.cli import main, run
from logsurf.reflect import worst
from logsurf.series import evaluate as series_evaluate
from logsurf.surface import LPoint

from conftest import bits

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RAW_ARITHMETIC = ("math range error", "Numerical result out of range", "division by zero",
                  "integer division result too large for a float", "int too large to convert to float",
                  "math domain error")


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def _write(tmp_path: Path, name: str, obj: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_single_scenario_exit_zero(tmp_path, capsys):
    rc = main(["run", str(SCENARIOS / "wedge_right_angle.json"), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS wedge_right_angle")


def test_batch_runs_every_scenario(tmp_path, capsys):
    rc = main(["run", "--batch", str(SCENARIOS), "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.stem for p in SCENARIOS.glob("*.json"))
    assert len(names) >= 8
    for name in names:
        payload = json.loads((tmp_path / name / "summary.json").read_text())
        assert payload["passed"] is True
        for table in payload["tables"]:
            assert (tmp_path / name / f"{table}.csv").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    src = SCENARIOS / "reflect_wedge.json"
    r1 = run(src, tmp_path / "a")
    r2 = run(src, tmp_path / "b")
    assert r1.passed and r2.passed
    s1 = (tmp_path / "a" / "summary.json").read_text()
    s2 = (tmp_path / "b" / "summary.json").read_text()
    assert '"timestamp"' in s1
    assert _strip_timestamp(s1) == _strip_timestamp(s2)
    for name in ("states.csv", "extension_grid.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _outputs(out: Path) -> dict:
    """Every file a run wrote, by name, the summary without its timestamp line."""
    return {p.name: _strip_timestamp(p.read_text()) if p.name == "summary.json" else p.read_bytes()
            for p in sorted(out.iterdir())}


def _counted_towers(monkeypatch) -> list:
    """The (steps, order) of each cli.tower call from now on."""
    calls = []
    build = cli.tower
    monkeypatch.setattr(cli, "tower", lambda corner, steps, order: calls.append((steps, order))
                        or build(corner, steps, order))
    return calls


@pytest.mark.parametrize("order", [None, 16])
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_a_warm_run_writes_what_a_cold_one_does(tmp_path, name, order):
    # the second run reads the towers that the first one kept
    cold = run(SCENARIOS / f"{name}.json", tmp_path / "cold", trunc_order=order)
    warm = run(SCENARIOS / f"{name}.json", tmp_path / "warm", trunc_order=order)
    assert cold.passed and warm.passed
    assert _outputs(tmp_path / "cold") == _outputs(tmp_path / "warm")


def test_a_pass_builds_each_corner_once(tmp_path, monkeypatch):
    # expansion_sanity and reflect_wedge share a corner, so a first pass builds it,
    # expansion_negative's corner and the mirror; envelope_wedge builds no tower
    calls = _counted_towers(monkeypatch)
    for path in sorted(SCENARIOS.glob("*.json")):
        run(path, tmp_path / path.stem)
    assert len(calls) == 3
    for path in sorted(SCENARIOS.glob("*.json")):
        run(path, tmp_path / path.stem)
    assert len(calls) == 3


def test_a_tower_is_kept_per_order(tmp_path, monkeypatch):
    calls = _counted_towers(monkeypatch)
    src = SCENARIOS / "expansion_sanity.json"
    run(src, tmp_path / "a", trunc_order=32)
    run(src, tmp_path / "b", trunc_order=16)
    assert calls == [(5, 32), (5, 16)]
    assert {st.order for states in cli._TOWERS.values() for st in states} == {16, 32}


def _corner(a_phi=0.0, eps=1.0):
    """reflect_wedge.json's corner at order 16, with psi's tangent argument and eps given."""
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())["corner"]
    obj["psi"]["a_phi"], obj["eps"] = a_phi, eps
    return cli._parse_corner(obj, "$.corner", 16)


def test_corners_equal_up_to_a_zeros_sign_are_kept_apart(monkeypatch):
    calls = _counted_towers(monkeypatch)
    plus, minus = _corner(a_phi=0.0), _corner(a_phi=-0.0)
    assert plus == minus
    cli._tower(plus, 3, 16)
    cli._tower(minus, 3, 16)
    assert len(calls) == 2 and len(cli._TOWERS) == 2


def test_the_least_recently_used_tower_is_evicted(monkeypatch):
    calls = _counted_towers(monkeypatch)
    corners = [_corner(eps=eps) for eps in (1.0, 0.9, 0.8, 0.7, 0.6)]
    for corner in corners[:4]:
        cli._tower(corner, 2, 16)
    cli._tower(corners[0], 2, 16)  # a hit, now the most recently used
    cli._tower(corners[4], 2, 16)  # evicts corners[1]
    assert len(calls) == 5
    assert list(cli._TOWERS) == [(repr(c), 16) for c in (corners[2], corners[3], corners[0], corners[4])]
    cli._tower(corners[1], 2, 16)
    assert len(calls) == 6


def test_a_deeper_request_rebuilds_and_a_shallower_one_reads(monkeypatch):
    calls = _counted_towers(monkeypatch)
    corner = _corner()
    three = cli._tower(corner, 3, 16)
    five = cli._tower(corner, 5, 16)
    again = cli._tower(corner, 3, 16)
    assert calls == [(3, 16), (5, 16)]
    assert again == five[:3] and again is not five and all(a is b for a, b in zip(again, five))
    assert [st.s for st in three] == [st.s for st in again]


def test_a_tower_that_raises_is_not_kept(tmp_path):
    # s_1 = eps = 1e-320, so s_3 underflows as the tower is built
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
    obj["corner"]["eps"] = 1e-320
    path = _write(tmp_path, "tiny.json", obj)
    errors = []
    for out in ("a", "b"):
        with pytest.raises(SchemaError) as exc:
            run(path, tmp_path / out)
        errors.append((str(exc.value), exc.value.location))
        assert cli._TOWERS == {}
    assert errors[0] == errors[1]
    assert errors[0][1] == "$.corner.eps"


def test_a_run_refused_at_steps_keeps_no_tower(tmp_path):
    # level 156's radius scale overflows: each corner runner refuses steps past 155,
    # and the reflect runner a grid it cannot use, before it builds any level
    cases = [*((name, "steps", steps, "$.steps") for steps in (156, 157)
               for name in ("reflect_wedge", "envelope_wedge", "expansion_sanity")),
             ("reflect_wedge", "grid", {"r_n": 1}, "$.grid.r_n")]
    for name, key, value, loc in cases:
        obj = json.loads((SCENARIOS / f"{name}.json").read_text())
        obj[key] = value
        with mock.patch.object(cli, "tower", wraps=cli.tower) as built, pytest.raises(SchemaError) as exc:
            run(_write(tmp_path, "deep.json", obj), tmp_path / "o", trunc_order=16)
        assert (exc.value.location, built.call_count) == (loc, 0), (name, key, value)
        assert cli._TOWERS == {}


def test_the_deepest_level_is_the_last_whose_radius_scale_is_a_float():
    assert math.isfinite(100.0 ** (cli._DEEPEST_LEVEL - 1))
    with pytest.raises(OverflowError):
        100.0 ** cli._DEEPEST_LEVEL


def test_the_kept_towers_are_bounded_by_levels_times_order(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_KEPT", 100)
    corners = [_corner(eps=eps) for eps in (1.0, 0.9, 0.8)]
    for corner in corners:
        cli._tower(corner, 3, 16)  # 48 each: a third one drops the first
    assert list(cli._TOWERS) == [(repr(c), 16) for c in corners[1:]]
    cli._tower(corners[0], 7, 16)  # 112 alone: nothing is kept
    assert cli._TOWERS == {}


def test_a_reflect_run_calls_no_scalar_extension(tmp_path):
    # the batch builds each outside point's OutsideExtension itself
    with mock.patch.object(reflect, "membership", wraps=reflect.membership) as member, \
            mock.patch.object(reflect, "extend_eval", wraps=reflect.extend_eval) as scalar:
        assert run(SCENARIOS / "reflect_wedge.json", tmp_path / "o").passed
    assert member.call_count == 0 and scalar.call_count == 0


def test_seed_precedence(tmp_path):
    src = SCENARIOS / "reflect_wedge.json"
    file_seed = json.loads(src.read_text())["seed"]
    run(src, tmp_path / "a")
    pa = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert pa["provenance"]["seed"] == file_seed
    run(src, tmp_path / "b", seed=123)
    pb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert pb["provenance"]["seed"] == 123


def test_negative_seed_exits_two(tmp_path, capsys):
    # the flag and run() follow the file's rule for its seed
    src = SCENARIOS / "reflect_wedge.json"
    rc = main(["run", str(src), "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error (reflect_wedge.json): $.seed: expected an integer >= 0, got -1" in err
    assert "Traceback" not in err
    with pytest.raises(SchemaError) as exc:
        run(src, tmp_path / "o", seed=-1)
    assert exc.value.location == "$.seed"


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a directory cannot be made under an existing file
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    rc = main(["run", str(SCENARIOS / "envelope_wedge.json"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error (envelope_wedge.json): $: cannot write the report to {out}: ")
    assert err.count("\n") == 1


def test_trunc_order_recorded(tmp_path):
    src = SCENARIOS / "wedge_irrational.json"
    run(src, tmp_path / "a")
    pa = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert pa["provenance"]["trunc_order"] == get_trunc_order()
    run(src, tmp_path / "b", trunc_order=12)
    pb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert pb["provenance"]["trunc_order"] == 12


def test_run_passes_its_order_down(tmp_path, monkeypatch):
    # a run never sets the global order, and reads it once at most: as the
    # default of a file that names no order, before any series is built
    def refuse(n):
        raise AssertionError(f"a run set the global order to {n}")

    reads = []
    monkeypatch.setattr(cli.config, "trunc_order", refuse)
    monkeypatch.setattr(cli.config, "get_trunc_order", lambda: reads.append(1) or 32)
    for path in sorted(SCENARIOS.glob("*.json")):
        for order in (None, 16):
            reads.clear()
            assert run(path, tmp_path / path.stem, trunc_order=order).passed, path.name
            assert len(reads) <= (order is None)


def test_schema_error_locations(tmp_path):
    missing = _write(tmp_path, "missing.json", {"scenario": "reflect", "steps": 3})
    with pytest.raises(SchemaError) as exc:
        run(missing, tmp_path / "o1")
    assert exc.value.location == "$.corner"

    for name, kind in (("unknown", "bogus"), ("list_kind", []), ("object_kind", {"a": 1})):
        unknown = _write(tmp_path, f"{name}.json", {"scenario": kind})
        with pytest.raises(SchemaError) as exc:
            run(unknown, tmp_path / "o2")
        assert exc.value.location == "$.scenario"

    bad_theta = _write(
        tmp_path,
        "badtheta.json",
        {"scenario": "wedge", "theta": {"kind": "zzz"}, "edge0": [], "edge1": []},
    )
    with pytest.raises(SchemaError) as exc:
        run(bad_theta, tmp_path / "o3")
    assert exc.value.location == "$.theta.kind"

    obj = json.loads((SCENARIOS / "expansion_sanity.json").read_text())
    obj["corner"]["g0"]["terms"][0]["den"] = 3
    off_lattice = _write(tmp_path, "lattice.json", obj)
    with pytest.raises(SchemaError) as exc:
        run(off_lattice, tmp_path / "o4")
    assert exc.value.location == "$.corner.g0.terms[0]"

    # a corner field out of range is named itself, not its parent object
    for field, value in (("eps", 0.0), ("eps", -1.0), ("psi.radius", 0.0), ("chi.radius", -1.0),
                         ("chi.k", 0), ("psi.k", 0)):
        obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
        *parents, key = field.split(".")
        target = obj["corner"]
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(SchemaError) as exc:
            run(_write(tmp_path, "corner_field.json", obj), tmp_path / "o5")
        assert exc.value.location == f"$.corner.{field}"

    # the checks of LPoint, IrrationalAngle and CornerSpec, made by the parser
    # at the field: a tangent modulus, an irrational opening, a data term's im
    for field, value in (("psi.a_r", 0.0), ("chi.a_r", -1.0), ("theta.value", 0.0),
                         ("g0.terms.0.im", 1.0), ("g1.terms.0.im", -0.5)):
        obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
        obj["corner"]["g1"]["terms"] = [{"num": 1, "den": 1, "re": 0.0}]
        *parents, key = field.split(".")
        target = obj["corner"]
        for parent in parents:
            target = target[int(parent) if parent.isdigit() else parent]
        target[key] = value
        with pytest.raises(SchemaError) as exc:
            run(_write(tmp_path, "corner_field.json", obj), tmp_path / "o6")
        assert exc.value.location == "$.corner." + field.replace(".0.", "[0].")


def test_schema_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"scenario": "bogus"})
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error (bad.json)" in err
    assert "$.scenario" in err
    # files that cannot be read as json at all: bytes that are not UTF-8,
    # an integer past the 4,300-digit conversion limit, and nesting past
    # the recursion limit
    unreadable = {
        "latin1.json": b'{"scenario": "caf\xe9"}',
        "digits.json": b'{"scenario": "wedge", "seed": ' + b"7" * 5000 + b"}",
        "nested.json": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, content in unreadable.items():
        (tmp_path / name).write_bytes(content)
        rc = main(["run", str(tmp_path / name), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error ({name}): $: " in err
        assert "Traceback" not in err
    # a kind that is not a string, which cannot be looked up by hash
    for name, kind in (("list_kind.json", [1]), ("object_kind.json", {})):
        _write(tmp_path, name, {"scenario": kind})
        rc = main(["run", str(tmp_path / name), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error ({name}): $.scenario: " in capsys.readouterr().err


def test_scenario_error_curved_ray(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "expansion_sanity.json").read_text())
    obj["corner"]["psi"]["h_terms"] = [{"deg": 2, "re": 0.1}]
    curved = _write(tmp_path, "curved.json", obj)
    rc = main(["run", str(curved), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "$.corner.psi" in capsys.readouterr().err


def test_reflect_refuses_a_curved_chi_at_the_corner(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
    obj["corner"]["chi"]["h_terms"] = [{"deg": 2, "re": 0.1}]
    rc = main(["run", str(_write(tmp_path, "curved.json", obj)), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error (curved.json): $.corner: closed-form bases exist only for straight boundary rays" in err


@pytest.mark.parametrize(
    "g0",
    [
        # z**(1/2) on the real ray: level 1's h has d = 1, the levels above d = 2
        {"d": 2, "radius": 2.0, "terms": [{"num": 1, "den": 2, "re": 1.0}]},
        # a data radius past any base radius cap
        {"d": 1, "radius": 1e308, "terms": [{"num": 1, "den": 1, "re": 1.0}]},
    ],
)
def test_reflect_passes_fractional_data_and_huge_radii(tmp_path, capsys, g0):
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
    obj["corner"]["g0"] = g0
    rc = main(["run", str(_write(tmp_path, "data.json", obj)), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS data: 12/12 checks")


def test_wedge_resonant_terms_on_the_second_edge(tmp_path):
    # At theta = pi/2, beta = 2 and 4 resonate with n = 1 (odd, sign -1)
    # and n = 2 (sign +1): each edge-1 term gives -i * c * sign / theta
    # times z**beta log z, and no z**beta term.
    obj = json.loads((SCENARIOS / "wedge_right_angle.json").read_text())
    obj["edge0"] = []
    obj["edge1"] = [{"beta_num": 2, "beta_den": 1, "coeff": 1.5},
                    {"beta_num": 4, "beta_den": 1, "coeff": 0.5}]
    report = run(_write(tmp_path, "resonant.json", obj), tmp_path / "o")
    assert report.passed and len(report.checks) == 5
    with open(tmp_path / "o" / "expansion.csv", newline="") as fh:
        rows = {(float(a), int(m)): (float(re), float(im))
                for a, m, re, im in list(csv.reader(fh))[1:]}
    theta = math.pi / 2
    assert rows[(2.0, 1)] == pytest.approx((0.0, 1.5 / theta), abs=1e-15)
    assert rows[(4.0, 1)] == pytest.approx((0.0, -0.5 / theta), abs=1e-15)


@pytest.mark.parametrize(
    "data, observed",
    [({"kind": "constant", "value": 2.5}, 0.0), ({"kind": "re"}, 5.6e-17)],
)
def test_poisson_constant_and_re_data(tmp_path, data, observed):
    obj = json.loads((SCENARIOS / "poisson_disk.json").read_text())
    obj["data"] = data
    report = run(_write(tmp_path, "poisson.json", obj), tmp_path / "o")
    assert report.passed
    [check] = report.checks
    assert check.name == f"poisson_{data['kind']}"
    assert check.observed == pytest.approx(observed, abs=1e-17)


@pytest.mark.parametrize(
    "name, path, value, loc",
    [
        ("wedge_right_angle", ("grid", "r_min"), 0, "$.grid.r_min"),
        ("wedge_right_angle", ("grid", "r_max"), 1e308, "$.grid.r_max"),
        # past level 155, whose radius scale 100**154 is the last float
        ("reflect_wedge", ("steps",), 200, "$.steps"),
        ("envelope_wedge", ("phi_max",), -5, "$.phi_max"),
        ("expansion_sanity", ("R",), -1, "$.R"),
        ("wedge_irrational", ("grid", "phi_n"), 10**6, "$.grid.phi_n"),
        ("reflect_wedge", ("oracle_points",), 10**6, "$.oracle_points"),
        ("poisson_disk", ("nodes",), 10**6, "$.nodes"),
        ("envelope_wedge", ("samples",), 10**6, "$.samples"),
        ("reflect_wedge", ("corner", "g0", "terms", 0, "num"), 10**6, "$.corner.g0.terms[0]"),
        ("reflect_wedge", ("corner", "chi", "h_terms"), [{"deg": 33, "re": 0.1}],
         "$.corner.chi.h_terms[0].deg"),
        ("green_disk", ("y", "re"), math.nan, "$.y.re"),
        ("reflect_wedge", ("corner", "g0", "radius"), math.inf, "$.corner.g0.radius"),
        ("reflect_wedge", ("corner", "eps"), 10**400, "$.corner.eps"),
        ("reflect_wedge", ("trunc_order",), 1025, "$.trunc_order"),
        ("reflect_wedge", ("trunc_order",), 10**9, "$.trunc_order"),
        ("reflect_wedge", None, 1025, "$.trunc_order"),
        ("reflect_wedge", None, 10**9, "$.trunc_order"),
        # flags take only json booleans, not strings or numbers read by truthiness
        ("reflect_wedge", ("negative",), "false", "$.negative"),
        ("expansion_negative", ("strip_logs",), "no", "$.strip_logs"),
        ("expansion_sanity", ("expect_windows_ok",), 1, "$.expect_windows_ok"),
        # a rational edge exponent must have a finite float, nonzero when it is positive
        ("wedge_irrational", ("edge0", 0, "beta_num"), 10**400, "$.edge0[0]"),
        ("wedge_irrational", ("edge0", 0, "beta_den"), 10**400, "$.edge0[0]"),
        # a disc check over no points would pass with nothing checked
        ("poisson_disk", ("points",), [], "$.points"),
        ("green_disk", ("x_list",), [], "$.x_list"),
        # the trig data takes n * phi as a float
        ("poisson_disk", ("data", "terms", 0, "n"), 10**400, "$.data.terms[0].n"),
        # every corner runner refuses such a depth before it builds a level
        ("reflect_wedge", ("steps",), 10**9, "$.steps"),
        ("envelope_wedge", ("steps",), 200, "$.steps"),
        ("expansion_sanity", ("steps",), 200, "$.steps"),
        # n has a float, but n * phi overflows it
        ("poisson_disk", ("data", "terms", 0, "n"), 10**308, "$.data.terms[0].n"),
        # s_1 = eps = 1e-320, so s_3 = s_1 / 100**2 underflows within three steps
        ("reflect_wedge", ("corner", "eps"), 1e-320, "$.corner.eps"),
        # s_1 is the first corner field equal to it: a germ radius, a data radius
        ("reflect_wedge", ("corner", "chi", "radius"), 1e-320, "$.corner.chi.radius"),
        ("reflect_wedge", ("corner", "g0", "radius"), 1e-320, "$.corner.g0.radius"),
        # g1 behind the rotated chi transports to s_1 = 5e-321, no field's value
        ("reflect_wedge", ("corner", "g1", "radius"), 1e-320, "$.corner"),
        # pi * p / q has no float
        ("wedge_right_angle", ("theta", "q"), 10**400, "$.theta"),
        ("expansion_negative", ("corner", "theta", "q"), 10**400, "$.corner.theta"),
        # at theta = 1, level 1025's reach 2**1024 - pi/2 has no float
        ("envelope_wedge", ("phi_max",), 9e307, "$.phi_max"),
        ("envelope_wedge", ("phi_max",), 1e308, "$.phi_max"),
        # z**beta overflows past |z| = 1: on the grid, or at the harmonicity stencil
        ("wedge_irrational", ("grid", "r_max"), 1e308, "$.grid.r_max"),
        ("wedge_irrational", ("edge0", 0), {"beta_num": int(1e300), "beta_den": 1, "coeff": 1.0},
         "$.edge0[0]"),
        ("wedge_irrational", ("edge0", 0, "beta_num"), 10**20, "$.edge0[0]"),
        # floats hold no exponent between R = 1e308 and the next one, R + 1
        ("expansion_sanity", ("R",), 1e308, "$.R"),
        # the window check's |z|**S underflows at a sampled radius
        ("expansion_sanity", ("R",), 100, "$.R"),
        ("expansion_sanity", ("R",), 1000, "$.R"),
        ("expansion_sanity", ("R",), 1e6, "$.R"),
        # a deep window's |z|**R' underflows where C_k divides by it
        ("expansion_sanity", ("steps",), 60, "$.R"),
        # constants that disagree at the corner: edge1's last beta = 0 term, else edge0's
        ("wedge_irrational", ("edge1", 0, "beta_num"), 0, "$.edge1[0]"),
        ("wedge_irrational", ("edge0", 0, "beta_num"), 0, "$.edge0[0]"),
        ("wedge_right_angle", ("edge0", 0, "beta_num"), 0, "$.edge0[0]"),
        # level 156's radius scale 100**155 has no float, in every corner runner
        ("envelope_wedge", ("steps",), 156, "$.steps"),
        ("expansion_sanity", ("steps",), 156, "$.steps"),
        # the envelope's window of level 6 (1e-300) or 11 (1e-290) or 3 (3e-308) is so
        # small that K has no float, at the first corner field equal to s_1
        ("envelope_wedge", ("corner", "eps"), 1e-300, "$.corner.eps"),
        ("envelope_wedge", ("corner", "eps"), 1e-290, "$.corner.eps"),
        ("envelope_wedge", ("corner", "chi", "radius"), 3e-308, "$.corner.chi.radius"),
        # A ** k overflows where the certificate's scales underflow, which is raised first
        ("expansion_negative", ("corner", "g0", "terms", 0, "re"), 1e150, "$"),
    ],
)
def test_out_of_range_numbers_exit_two(tmp_path, capsys, monkeypatch, name, path, value, loc):
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    flags = []
    if path is None:  # the value goes to the --trunc-order flag
        flags = ["--trunc-order", str(value)]
    else:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    if loc == "$.trunc_order":
        # Refused before any series exists: order 10**9 would ask np.zeros for 16 GB.
        monkeypatch.setattr(np, "zeros", _no_allocation)
    mutated = _write(tmp_path, "mutated.json", obj)
    rc = main(["run", str(mutated), "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error (mutated.json): {loc}: " in err
    assert "Traceback" not in err
    # nor a raw message of float arithmetic
    assert not any(raw in err for raw in RAW_ARITHMETIC)


# Probe J's values: every numeric leaf of every shipped file but `seed` is set to each.
EDIT_VALUES = (0, -1, 0.5, 1e-320, 1e-200, 1e308, 2**53, 1e6, math.nan, math.inf, -math.inf,
               -0.0, 5e-324, -1e308)

# The edits whose error is at `$`: the certificate's scales underflow, and they can
# underflow from s_1, from a sampled C_k or from R, so no one field names them yet.
AT_ROOT = {
    *((name, f"$.corner.{field}", 1e-200)
      for name in ("expansion_negative", "expansion_sanity")
      for field in ("eps", "psi.radius", "chi.radius", "g0.radius", "g1.radius")),
    ("expansion_negative", "$.corner.g0.terms[0].re", 1e308),
    ("expansion_negative", "$.corner.g0.terms[0].re", -1e308),
}

# The edits whose error names another field of the relation that fails: r_max
# over r_min, an edge term's sin(beta * theta), a term's exponent on the 1/d
# lattice, and a certificate power that a smaller R avoids.
AT_ANOTHER_FIELD = {
    *((name, "$.grid.r_min", value, "$.grid.r_max")
      for name in ("wedge_irrational", "wedge_right_angle") for value in (1e308, 2**53, 1e6)),
    *(("wedge_irrational", "$.theta.value", value, "$.edge0[0]") for value in (1e-320, 5e-324)),
    *((name, "$.corner.g0.d", 2**53, "$.corner.g0.terms[0]")
      for name in ("envelope_wedge", "expansion_negative", "expansion_sanity", "reflect_wedge")),
    ("expansion_negative", "$.corner.g0.terms[0].re", 2**53, "$.R"),
    ("expansion_negative", "$.corner.g0.terms[0].re", 1e6, "$.R"),
    ("expansion_sanity", "$.corner.g1.d", 2**53, "$.R"),
}


def _numeric_leaves(obj, path="$"):
    """(json path, container, key) of every number in obj but a `seed`, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(obj, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and key != "seed":
            yield sub, obj, key


def test_every_single_field_edit_names_its_field(tmp_path):
    # Probe J's sweep, 1,750 edits in one process: each edit returns a report or
    # raises SchemaError or ScenarioError, with no raw arithmetic text, at the
    # edited path or a prefix of it other than `$`, but for the listed edits
    seen_at_root, seen_elsewhere, edits = set(), set(), 0
    for file in sorted(SCENARIOS.glob("*.json")):
        text = file.read_text()
        for path, _, _ in list(_numeric_leaves(json.loads(text))):
            for value in EDIT_VALUES:
                obj = json.loads(text)
                _, parent, key = next(leaf for leaf in _numeric_leaves(obj) if leaf[0] == path)
                parent[key] = value
                edits += 1
                try:
                    run(_write(tmp_path, file.name, obj), tmp_path / "o")
                    continue
                except (SchemaError, ScenarioError) as exc:
                    error = exc
                assert not any(raw in str(error) for raw in RAW_ARITHMETIC), (path, value, str(error))
                loc = error.location
                if loc == "$":
                    seen_at_root.add((file.stem, path, value))
                elif not (path == loc or path.startswith((loc + ".", loc + "["))):
                    seen_elsewhere.add((file.stem, path, value, loc))
    assert edits == 1750
    # a mended edit leaves its list, so each list only shrinks
    assert seen_at_root == AT_ROOT
    assert seen_elsewhere == AT_ANOTHER_FIELD


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("R", 100, "$.R: |z|**S underflows to 0.0 at level 2: |z| = 1.575364725297846e-05, S = 100.25; "
                   "a smaller R avoids it, as do fewer steps"),
        ("steps", 60, "$.R: |z|**R' underflows to 0.0 at level 59: |z| = 1.0000000000000006e-118, "
                      "R' = 2.75; a smaller R avoids it, as do fewer steps"),
    ],
    ids=["R_100", "steps_60"],
)
def test_a_certificate_power_that_underflows_names_R(tmp_path, capsys, key, value, message):
    obj = json.loads((SCENARIOS / "expansion_sanity.json").read_text())
    obj[key] = value
    rc = main(["run", str(_write(tmp_path, "mutated.json", obj)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error (mutated.json): {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        # 100**155 is past the float range; 155 levels pass, and deeper files build none
        ("reflect_wedge", "steps", 157, "$.steps: expected an integer <= 155, got 157"),
        # at theta = 1 the window of x = 1e47 is level 158's; 1e46 passes
        ("envelope_wedge", "phi_max", 1e47,
         "$.phi_max: level 158's radius scale 100**157 overflows a float"),
        # past level 1024 the level's reach has no float either
        ("envelope_wedge", "phi_max", 1e308,
         "$.phi_max: phi_max = 1.000e+308 needs a level past 1024, whose radius scale 100**1024 or "
         "more overflows a float"),
        # the same rule where steps is optional
        ("expansion_sanity", "steps", 156, "$.steps: expected an integer <= 155, got 156"),
    ],
)
def test_an_overflowing_radius_scale_names_its_field(tmp_path, capsys, name, key, value, message):
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    obj[key] = value
    mutated = _write(tmp_path, "mutated.json", obj)
    rc = main(["run", str(mutated), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error (mutated.json): {message}\n" in capsys.readouterr().err


def test_a_trig_order_whose_angle_overflows_names_its_term(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "poisson_disk.json").read_text())
    obj["data"]["terms"].append({"n": 10**308, "cos": 1.0})
    mutated = _write(tmp_path, "mutated.json", obj)
    rc = main(["run", str(mutated), "--out", str(tmp_path / "o")])
    assert rc == 2
    i = len(obj["data"]["terms"]) - 1
    message = f"$.data.terms[{i}].n: n * pi overflows a float for n = 1.000e+308"
    assert f"error (mutated.json): {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path, rc, err",
    [
        ("poisson_disk", ("data", "terms", 1, "cos"), 1, ""),
        ("reflect_wedge", ("corner", "g0", "terms", 0, "re"), 1, ""),
        ("expansion_negative", ("corner", "g0", "terms", 0, "re"), 2,
         "error (mutated.json): $: certificate scales underflow at level 1: t = 0.0\n"),
    ],
    ids=["poisson_trig_cos", "reflect_g0", "expansion_g0"],
)
def test_an_overflowing_run_prints_no_numpy_warnings(tmp_path, capsys, name, path, rc, err):
    # the overflow fails a check or exits 2; numpy's RuntimeWarnings stay off stderr
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    leaf = obj
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = 1e308
    mutated = _write(tmp_path, "mutated.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(mutated), "--out", str(tmp_path / "o")]) == rc
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "edge0, r_max, message",
    [
        ([{"beta_num": int(1e300), "beta_den": 1, "coeff": 1.0}], 2,
         "$.edge0[0]: z**beta overflows a float at the harmonicity stencil, just past |z| = 1"),
        ([{"beta_num": 400, "beta_den": 1, "coeff": 1.0}], 1e3,
         "$.grid.r_max: the solution overflows a float on the grid, at r up to 1000.0"),
        (None, 1e308, "$.grid.r_max: the solution overflows a float on the grid, at r up to 1e+308"),
    ],
    ids=["stencil_before_grid", "grid_r_max_1e3", "grid_r_max_1e308"],
)
def test_failing_wedge_reports_its_first_failing_evaluation(tmp_path, capsys, edge0, r_max, message):
    # The harmonicity loop runs before the grid pass, so a term that
    # overflows at its stencil is named even where the grid overflows too.
    obj = json.loads((SCENARIOS / "wedge_irrational.json").read_text())
    if edge0 is not None:
        obj["edge0"] = edge0
    obj["grid"]["r_max"] = r_max
    mutated = _write(tmp_path, "mutated.json", obj)
    rc = main(["run", str(mutated), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error (mutated.json): {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theta, side, beta, coeff, loc, cause",
    [
        # beta * theta underflows to 0.0: the sine is 0
        (0.5, "edge0", 5e-324, 1.0, "$.edge0[0]",
         "c / sin(beta * theta) is not finite: sin(5e-324 * 0.5) = 0.0"),
        # the sine is the subnormal 5e-324, and c / sin overflows to inf
        (1.0, "edge0", 5e-324, 1.0, "$.edge0[0]",
         "c / sin(beta * theta) is not finite: sin(5e-324 * 1.0) = 5e-324"),
        (1.0, "edge0", 5e-324, 1e-320, "$.edge0[0]",
         "cot(beta * theta) is not finite: tan(5e-324 * 1.0) = 5e-324"),
        (1.0, "edge1", 5e-324, 1.0, "$.edge1[1]",
         "c / sin(beta * theta) is not finite: sin(5e-324 * 1.0) = 5e-324"),
        # beta * theta overflows to inf, where the sine has no value
        (2.0, "edge0", 1e308, 1.0, "$.edge0[0]",
         "c / sin(beta * theta) is not finite: sin(1e+308 * 2.0) = nan"),
    ],
)
def test_wedge_refuses_a_term_without_a_finite_closed_form(tmp_path, capsys, theta, side, beta,
                                                           coeff, loc, cause):
    obj = json.loads((SCENARIOS / "wedge_irrational.json").read_text())
    obj["theta"]["value"] = theta
    num, den = beta.as_integer_ratio()  # the float's exact value
    term = {"beta_num": num, "beta_den": den, "coeff": coeff}
    if side == "edge0":
        obj["edge0"] = [term]
    else:
        obj["edge1"].append(term)
    mutated = _write(tmp_path, "mutated.json", obj)
    rc = main(["run", str(mutated), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error (mutated.json): {loc}: {cause}\n" in capsys.readouterr().err


def test_wedge_runner_evaluates_each_grid_point_once(tmp_path):
    # one pass over the 8 x 7 grid feeds both boundary checks, the
    # compatibility check and the grid table
    from logsurf import corner

    with mock.patch.object(corner, "lp_evaluate", wraps=corner.lp_evaluate) as f:
        assert run(SCENARIOS / "wedge_irrational.json", tmp_path).passed
    assert f.call_count == 8 * 7


def test_reflect_runner_makes_one_batch_per_tower_and_one_for_the_grid(tmp_path):
    # negative: true builds two towers; each sends its boundary and oracle
    # points through one extend_eval_many call in reflect.tower_errors
    with mock.patch.object(reflect, "extend_eval_many", wraps=reflect.extend_eval_many) as batch, \
            mock.patch.object(cli, "extend_eval_many", batch):
        assert run(SCENARIOS / "reflect_wedge.json", tmp_path).passed
    assert batch.call_count == 3


def test_reflect_runner_makes_no_scalar_membership_call():
    # the oracle angles take membership_many (200 scalar calls before); the
    # extension grid's points in no window still take membership, so the two
    # towers' checks are counted on their own
    towers = [_reflect_tower(), _reflect_tower(mirror=True)]
    rng = np.random.default_rng(7)
    with mock.patch.object(reflect, "membership", wraps=reflect.membership) as member, \
            mock.patch.object(reflect, "apply_germ", wraps=reflect.apply_germ) as germ:
        for states, base in towers:
            reflect.tower_errors(states, base, rng, 100)
    # two towers, two levels below the top, five boundary images each
    assert (member.call_count, germ.call_count) == (0, 2 * 2 * 5)


def _scalar_oracle(states, rng, n_oracle):
    """The oracle points and their levels, by the scalar loop that reflect._oracle_points replaces."""
    lower, upper = states[-1].lower, states[-1].upper
    pad = (upper - lower) * 1e-3
    r, phi, level = [], [], []
    for _ in range(n_oracle):
        ang = lower + pad + (upper - lower - 2 * pad) * rng.random()
        lev = reflect.membership(states, LPoint(states[-1].s * 0.1, ang))
        if lev is None:
            continue
        s_lev = states[lev - 1].s
        z = LPoint(s_lev * 0.5 * rng.random() + s_lev * 1e-6, ang)
        r.append(z.r)
        phi.append(z.phi)
        level.append(lev)
    return r, phi, level


def _reflect_states(mirror=False, **changes):
    """reflect_wedge's tower (3 levels), its corner changed by changes[field] = {key: value}."""
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
    for field, values in changes.items():
        target = obj["corner"] if field == "corner" else obj["corner"][field]
        target.update(values)
    corner = cli._parse_corner(obj["corner"], "$.corner", 32)
    return cli._tower(reflect.conjugate_corner(corner) if mirror else corner, obj["steps"], 32)


def _reflect_tower(mirror=False):
    """reflect_wedge's tower and its base, or the mirror's."""
    obj = json.loads((SCENARIOS / "reflect_wedge.json").read_text())
    base, _ = cli._straight_wedge_base(cli._parse_corner(obj["corner"], "$.corner", 32), "$.corner")
    return _reflect_states(mirror), reflect.conjugate_evaluator(base) if mirror else base


def _oracle_outcome(draw, states, seed):
    """The points draw(states, rng, 100) gives as float hex, with their levels,
    or its exception's type and message; then the generator's state."""
    rng = np.random.default_rng(seed)
    try:
        r, phi, level = draw(states, rng, 100)
        result = (bits(*r), bits(*phi), [int(k) for k in level])
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, rng.bit_generator.state


# The top window of this tower spans 4 ulps of its lower edge 1e6, so
# lower + pad == lower, and a draw whose angle rounds to lower is in no window.
NARROW = {"psi": {"a_phi": 1e6}, "chi": {"a_phi": 1e6 + 2e-10},
          "theta": {"value": (1e6 + 2e-10) - 1e6}}


@pytest.mark.parametrize("seed", [7, 0, 1])
@pytest.mark.parametrize(
    "mirror, changes",
    [(False, {}), (True, {}), (False, NARROW)],
    ids=["reflect_wedge", "reflect_wedge_mirror", "narrow_top_window"],
)
def test_oracle_draw_is_the_scalar_loop(mirror, changes, seed):
    states = _reflect_states(mirror, **changes)
    got = _oracle_outcome(reflect._oracle_points, states, seed)
    assert got == _oracle_outcome(_scalar_oracle, states, seed)
    if changes:  # some draws land in no window, so fewer than 100 points are drawn
        assert 0 < len(got[0][0]) // 2 < 100


@pytest.mark.parametrize(
    "eps, seed",
    [
        # s_3 = 1e-322: a radius s_3 * 0.5 * u + s_3 * 1e-6 rounds to 0.0
        (1e-318, 0),
        # s_3 = 5e-324: the first probe radius s_3 * 0.1 is 0.0
        (5e-320, 7),
    ],
)
def test_oracle_draw_raises_lpoints_exception_where_the_scalar_loop_does(eps, seed):
    states = _reflect_states(corner={"eps": eps})
    got = _oracle_outcome(reflect._oracle_points, states, seed)
    assert got[0] == (ValueError, "modulus must be a finite positive real, got 0.0")
    assert got == _oracle_outcome(_scalar_oracle, states, seed)


def _scalar_rows(states, base, rng):
    """tower_errors' two rows by the scalar loop: apply_germ images, extend_eval
    values, h_k by evaluate, base.f references, each folded into its level's entry."""
    boundary, oracle = [0.0] * (len(states) - 1), [0.0] * len(states)
    for st in states[:-1]:
        t_cap = min(states[st.k].s, st.phi.radius) * 0.5
        for t in np.geomspace(t_cap * 1e-2, t_cap, 5):
            z = apply_germ(st.phi, LPoint(float(t), 0.0))
            err = abs(extend_eval(states, base, z).real - series_evaluate(st.h, z).real)
            boundary[st.k - 1] = worst(boundary[st.k - 1], err)
    r, phi, level = _scalar_oracle(states, rng, 100)
    for z, k in zip(map(LPoint, r, phi), level):
        err = abs(extend_eval(states, base, z) - base.f(z)) / (1.0 + abs(base.f(z)))
        oracle[k - 1] = worst(oracle[k - 1], err)
    return boundary, oracle


@pytest.mark.parametrize("mirror", [False, True], ids=["reflect_wedge", "reflect_wedge_mirror"])
def test_reflect_checks_fold_the_scalar_values(tmp_path, mirror):
    # tower_errors' rows are the scalar loop's, level by level, and fold to the
    # shipped boundary_data and oracle_match, bit for bit; the mirror tower
    # draws where the first tower left the generator
    towers = [_reflect_tower(), _reflect_tower(mirror=True)][:1 + mirror]
    rng, scalar_rng = np.random.default_rng(7), np.random.default_rng(7)
    for states, base in towers:
        rows = reflect.tower_errors(states, base, rng, 100)
        scalar = _scalar_rows(states, base, scalar_rng)
    assert [len(row) for row in rows] == [2, 3]
    assert [bits(*row) for row in rows] == [bits(*row) for row in scalar]
    observed = {c.name: c.observed for c in run(SCENARIOS / "reflect_wedge.json", tmp_path).checks}
    suffix = "_mirror" if mirror else ""
    shipped = observed[f"boundary_data{suffix}"], observed[f"oracle_match{suffix}"]
    assert bits(*(worst(0.0, *row) for row in rows)) == bits(*shipped)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scaling_the_extension_at_one_level_moves_that_levels_entries_alone(k):
    # the images of a straight phi_(k-1) lie in window k, so they move with it
    states, base = _reflect_tower()
    rows = reflect.tower_errors(states, base, np.random.default_rng(7), 100)

    def scaled(states, base, r, phi):
        level = reflect.membership_many(states, np.asarray(r), np.asarray(phi))
        values = extend_eval_many(states, base, r, phi)
        return [v * (1.0 + 1e-9) if lev == k else v for v, lev in zip(values, level.tolist())]

    extend_eval_many = reflect.extend_eval_many
    with mock.patch.object(reflect, "extend_eval_many", scaled):
        moved = reflect.tower_errors(states, base, np.random.default_rng(7), 100)
    changed = [[i + 1 for i, (a, b) in enumerate(zip(row, new)) if bits(a) != bits(b)]
               for row, new in zip(rows, moved)]
    assert changed == [[k - 1] if k > 1 else [], [k]]
    assert worst(0.0, *moved[1]) <= 1e-8  # oracle_match still passes


def test_window_cover_fails_for_a_domain_outside_the_windows(tmp_path, capsys):
    # The envelope's constants have wide slack by construction: c * 100 or
    # C * 0.9 still lie inside every window at all 200 samples.  Halving C
    # widens the domain enough that 25 samples leave their window.
    def halved(*args, **kwargs):
        env = envelope(*args, **kwargs)
        return dataclasses.replace(env, domain=dataclasses.replace(env.domain, C=env.domain.C / 2))

    envelope = cli.envelope
    with mock.patch.object(cli, "envelope", halved):
        rc = main(["run", str(SCENARIOS / "envelope_wedge.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL envelope_wedge: 1/2 checks")
    checks = {c["name"]: c for c in json.loads((tmp_path / "summary.json").read_text())["checks"]}
    assert (checks["window_cover"]["observed"], checks["window_cover"]["passed"]) == (25.0, False)
    assert checks["constants_positive"]["passed"] is True


@pytest.mark.parametrize("name", ["envelope_wedge", "expansion_sanity"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("a_r", 0.5, "boundary tangents must have unit modulus"),
        ("a_phi", 1.5, "the declared opening does not match the tangents"),
        ("a_phi", -1.0, "the first tangent argument must precede the second"),
    ],
    ids=["unit_modulus", "declared_opening", "must_precede"],
)
def test_corner_normalization_errors_are_at_the_corner(tmp_path, capsys, name, field, value, message):
    # as in the reflect runner, the tower's own errors name $.corner, not $
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    obj["corner"]["chi"][field] = value
    rc = main(["run", str(_write(tmp_path, "mutated.json", obj)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error (mutated.json): $.corner: {message}\n"


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("reflect_wedge", ("corner", "eps"), 0, "$.corner.eps: expected a number > 0, got 0"),
        ("reflect_wedge", ("corner", "eps"), -0.0, "$.corner.eps: expected a number > 0, got -0.0"),
        ("envelope_wedge", ("corner", "psi", "a_r"), 0, "$.corner.psi.a_r: expected a number > 0, got 0"),
        ("expansion_sanity", ("corner", "g1", "radius"), -1,
         "$.corner.g1.radius: expected a number > 0, got -1"),
        ("wedge_irrational", ("grid", "r_min"), 0, "$.grid.r_min: expected a number > 0, got 0"),
        ("wedge_right_angle", ("grid", "r_max"), -1, "$.grid.r_max: expected a number > 0, got -1"),
        ("expansion_sanity", ("R",), -1e-300, "$.R: expected a number >= 0, got -1e-300"),
        ("envelope_wedge", ("phi_max",), 0.5, "$.phi_max: expected a number >= 1, got 0.5"),
        ("poisson_disk", ("points",), [], "$.points: expected a nonempty array, got []"),
        ("green_disk", ("x_list",), [], "$.x_list: expected a nonempty array, got []"),
    ],
    ids=["eps_zero", "eps_negative_zero", "a_r", "radius", "r_min", "r_max", "R", "phi_max", "points",
         "x_list"],
)
def test_a_reader_refuses_its_range_at_its_field(tmp_path, capsys, name, path, value, message):
    # each bound lives in the reader of its field, which states it in one form
    obj = json.loads((SCENARIOS / f"{name}.json").read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    rc = main(["run", str(_write(tmp_path, "mutated.json", obj)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error (mutated.json): {message}\n"


def test_envelope_runner_sweeps_its_sample_levels(tmp_path):
    # the samples take one sweep, and the last, at phi_max, is the deepest level envelope reads
    obj = json.loads((SCENARIOS / "envelope_wedge.json").read_text())
    # envelope reads level 1 alone, so no tower is built
    with mock.patch.object(cli, "envelope_levels", wraps=cli.envelope_levels) as levels, \
            mock.patch.object(cli, "tower", wraps=cli.tower) as built:
        assert run(SCENARIOS / "envelope_wedge.json", tmp_path).passed
    assert levels.call_count == 1 and built.call_count == 0
    assert levels.call_args.args[1][-1] == obj["phi_max"]


@pytest.mark.parametrize(
    "data",
    [None, {"kind": "constant", "value": 2.5}, {"kind": "re"}],
    ids=["trig", "constant", "re"],
)
def test_poisson_solve_takes_node_data(tmp_path, monkeypatch, data):
    # one solve, which makes one values call, on the whole node array
    received = []
    solver = cli.unit_disk_solver

    def recording(nodes):
        solve = solver(nodes)
        return lambda values: solve(lambda eta: received.append((eta.dtype, eta.shape)) or values(eta))

    monkeypatch.setattr(cli, "unit_disk_solver", recording)
    obj = json.loads((SCENARIOS / "poisson_disk.json").read_text())
    if data is not None:
        obj["data"] = data
    assert run(_write(tmp_path, "poisson.json", obj), tmp_path / "o").passed
    assert received == [(np.dtype(complex), (obj["nodes"],))]


_coefficient = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    terms=st.lists(st.tuples(st.integers(0, 10**300), _coefficient, _coefficient), max_size=4),
    nodes=st.integers(16, 2048),
    xi=st.complex_numbers(max_magnitude=0.999),
)
def test_trig_node_data_is_the_per_node_sum(terms, nodes, xi):
    # n * pi is finite for n up to 1e300, as the runner requires; the
    # reference at a point xi of the disc is the same sum times |xi|**n
    eta = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    want = [float(sum(a * math.cos(n * phi) + b * math.sin(n * phi) for n, a, b in terms))
            for phi in (math.atan2(e.imag, e.real) for e in eta.tolist())]
    assert bits(*cli._trig_values(terms, eta).tolist()) == bits(*want)
    r, phi = abs(xi), math.atan2(xi.imag, xi.real)
    ref = sum(r ** n * (a * math.cos(n * phi) + b * math.sin(n * phi)) for n, a, b in terms)
    assert bits(*cli._trig_values(terms, np.array([xi]), r).tolist()) == bits(ref)


def test_disc_runners_solve_once_per_data(tmp_path, monkeypatch):
    # Poisson solves its data once for all points; Green solves the pole y
    # once and each swapped pole x once
    solves = []
    solver = cli.unit_disk_solver

    def counting(nodes):
        solve = solver(nodes)

        def counted(h):
            solves.append(nodes)
            return solve(h)

        return counted

    monkeypatch.setattr(cli, "unit_disk_solver", counting)
    assert run(SCENARIOS / "poisson_disk.json", tmp_path / "p").passed
    assert solves == [512]
    solves.clear()
    assert run(SCENARIOS / "green_disk.json", tmp_path / "g").passed
    assert solves == [1024] * 5


@pytest.mark.parametrize("name", ["expansion_sanity", "expansion_negative", "reflect_wedge"])
def test_certificate_and_reflect_runners_evaluate_expansions_in_batches(tmp_path, name):
    # the certificate's gamma, the wedge base f under the descent and the
    # oracle references all go through logpower.evaluate_many
    from logsurf import corner, reflect

    with mock.patch.object(corner, "lp_evaluate", wraps=corner.lp_evaluate) as base_f, \
            mock.patch.object(reflect, "lp_evaluate", wraps=reflect.lp_evaluate) as gamma:
        assert run(SCENARIOS / f"{name}.json", tmp_path / name).passed
    assert (base_f.call_count, gamma.call_count) == (0, 0)


def _no_allocation(*args, **kwargs):
    raise AssertionError(f"np.zeros{args} was called")


def test_nan_error_fails_its_check(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "poisson_disk.json").read_text())
    obj["data"]["terms"][1]["cos"] = 1e308
    huge = _write(tmp_path, "huge.json", obj)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["run", str(huge), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL huge")
    payload = json.loads((tmp_path / "o" / "summary.json").read_text())
    [check] = payload["checks"]
    assert check["name"] == "poisson_trig"
    assert check["passed"] is False
    assert math.isnan(check["observed"])


def _number_paths(obj, path=()):
    """Key paths to every number in a scenario object, booleans excluded."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path
        return
    for key, value in items:
        yield from _number_paths(value, path + (key,))


_NUMBER_FIELDS = [
    (src.name, path)
    for src in sorted(SCENARIOS.glob("*.json"))
    for path in _number_paths(json.loads(src.read_text()))
]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    field=st.sampled_from(_NUMBER_FIELDS),
    value=st.sampled_from([0, -1, math.nan, math.inf, 1e308, 1e-308, 10**6]),
)
def test_any_number_in_any_field_exits_zero_one_or_two(field, value):
    name, path = field
    obj = json.loads((SCENARIOS / name).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / name
        src.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", str(src), "--out", str(Path(tmp) / "o")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_failed_check_exit_one(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "expansion_negative.json").read_text())
    obj["expect_windows_ok"] = True
    flipped = _write(tmp_path, "flipped.json", obj)
    rc = main(["run", str(flipped), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL flipped")
    payload = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["scale_windows"]


def test_batch_requires_files(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["run", "--batch", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no scenario files" in capsys.readouterr().err


def test_batch_runs_every_file_and_exits_with_the_worst_code(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    # sorted first: a schema error, after which the other files still run
    (batch / "a_bad.json").write_text(json.dumps({"scenario": "no_such_kind"}))
    failing = json.loads((SCENARIOS / "expansion_negative.json").read_text())
    failing["expect_windows_ok"] = True
    _write(batch, "b_fail.json", failing)
    _write(batch, "c_pass.json", json.loads((SCENARIOS / "wedge_right_angle.json").read_text()))
    rc = main(["run", "--batch", str(batch), "--out", str(tmp_path / "o")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error (a_bad.json): $.scenario: " in captured.err
    assert captured.out.splitlines()[0].startswith("FAIL b_fail")
    assert captured.out.splitlines()[1].startswith("PASS c_pass")
    for name in ("b_fail", "c_pass"):
        assert (tmp_path / "o" / name / "summary.json").exists()
    # without the error, a failed check is the worst code
    (batch / "a_bad.json").unlink()
    assert main(["run", "--batch", str(batch), "--out", str(tmp_path / "o2")]) == 1


def test_batch_runs_the_files_after_a_kind_that_is_not_a_string(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    _write(batch, "a_list.json", {"scenario": []})
    _write(batch, "b_pass.json", json.loads((SCENARIOS / "wedge_right_angle.json").read_text()))
    rc = main(["run", "--batch", str(batch), "--out", str(tmp_path / "o")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error (a_list.json): $.scenario: " in captured.err
    assert "Traceback" not in captured.err
    [line] = captured.out.splitlines()
    assert line.startswith("PASS b_pass")
    assert (tmp_path / "o" / "b_pass" / "summary.json").exists()


def test_argument_validation():
    with pytest.raises(SystemExit):
        main(["run"])
    with pytest.raises(SystemExit):
        main(["run", "a.json", "--batch", "dir"])


def test_summary_structure(tmp_path):
    report = run(SCENARIOS / "wedge_irrational.json", tmp_path)
    assert report.passed
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert set(payload) == {"scenario", "checks", "constants", "passed", "tables", "provenance"}
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    for c in payload["checks"]:
        assert set(c) == {"name", "passed", "observed", "tolerance"}
    assert payload["tables"] == sorted(payload["tables"])
    assert set(payload["provenance"]) == {"version", "seed", "trunc_order", "timestamp"}
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "phi", "u", "re_f", "im_f", "status"]
    assert all(row[5] == "ok" for row in rows[1:])


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_summary_bytes_are_the_sorted_indented_dump(tmp_path, path):
    run(path, tmp_path)
    text = (tmp_path / "summary.json").read_bytes().decode()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_outside_grid_rows_have_empty_value_cells(tmp_path):
    run(SCENARIOS / "reflect_wedge.json", tmp_path)
    data = (tmp_path / "extension_grid.csv").read_bytes()
    assert b"\n0.010238362555396089,1.3346666666666667,,,,outside\n" in data
    assert data.startswith(b"r,phi,u,re_f,im_f,status\n") and b"\r" not in data


def test_reflect_grid_marks_outside_points(tmp_path):
    run(SCENARIOS / "reflect_wedge.json", tmp_path)
    with open(tmp_path / "extension_grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    statuses = {row[5] for row in rows}
    assert statuses == {"ok", "outside"}
    for row in rows:
        if row[5] == "outside":
            assert row[2] == row[3] == row[4] == ""


def test_cert_density_script_certifies_the_files_gamma(capsys):
    # expansion_negative strips the logs from gamma, so the certificate
    # the script times fails its windows at every density, as the run does
    path = SCENARIOS.parent / "scripts" / "cert_density.py"
    spec = importlib.util.spec_from_file_location("cert_density", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--scenario", "expansion_negative.json", "--repeats", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[7] for row in rows] == ["False"] * len(script.DENSITIES)
