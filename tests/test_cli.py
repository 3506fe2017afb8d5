"""The command-line driver, run in-process through `cli.main`."""

import json
import re

import pytest

from cechmf import cli, signs
from cechmf.scenes_builtin import builtin_scene_dict
from conftest import SHEARED_FILE, sheared_a2c_spec


def test_verify_reports_invalid_scene(tmp_path, capsys):
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0]["f"] = "x"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "--scene", str(path), "--suite", "d2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["scene:f=x*g chart 0"]


def test_verify_reports_bad_divisor_on_overlap(tmp_path, capsys):
    # both divisors restrict to y*y on the overlap: neither a coordinate
    # nor a unit there, though each chart's divisor is a coordinate
    spec = {
        "charts": [
            {"id": 0, "vars": ["x", "y"], "x": "x", "f": "x", "g": "1"},
            {"id": 1, "vars": ["u", "v"], "x": "u", "f": "u", "g": "1"},
        ],
        "overlaps": [
            {
                "tuple": [0, 1],
                "vars": ["y"],
                "res": {"0": {"x": "y*y", "y": "y"}, "1": {"u": "y*y", "v": "y"}},
            }
        ],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "--scene", str(path), "--suite", "d2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["scene:divisor-shape (0, 1)"]


def test_verify_reports_overlap_variables_not_the_lead_charts(tmp_path, capsys):
    # the overlap (0, 1) names its first variable a, not chart 0's x1:
    # restricting out of it is undefined, and validation reports the
    # failed convention instead of raising on the unknown variable
    spec = builtin_scene_dict("SCENE-P2")
    overlap = spec["overlaps"][0]
    overlap["vars"], overlap["inverted"] = ["a", "x2"], ["a"]
    overlap["res"] = {
        "0": {"x1": "a", "x2": "x2"},
        "1": {"y1": {"num": "1", "den": "a"}, "y2": {"num": "x2", "den": "a"}},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "--scene", str(path), "--suite", "scene", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["scene:lead-vars (0, 1)"]


@pytest.mark.parametrize(
    "command",
    [["verify", "--suite", "d2"], ["homology"], ["pushforward"]],
    ids=["verify", "homology", "pushforward"],
)
def test_every_command_validates_the_scene(tmp_path, capsys, command):
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0]["f"] = "x*y + y"  # f != x*g
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(command + ["--scene", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert [s["suite"] for s in report["suites"]] == ["scene"]
    failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["scene:f=x*g chart 0"]


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--scene", "SCENE-A1", "--suite", "nosuch"]) == 2
    assert "unknown suite 'nosuch'" in capsys.readouterr().err


def test_unknown_suite_is_named_before_the_scene_is_opened(tmp_path, capsys):
    # the scene file fails validation, which the command never gets to
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0]["f"] = "x"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "--scene", str(path), "--suite", "nosuch"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("unknown suite 'nosuch'; available: ")
    assert len(err.strip().splitlines()) == 1


def test_unwritable_report_path_exits_2_after_printing_the_report(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    argv = ["verify", "--scene", "SCENE-A1", "--suite", "signs", "--format", "json"]
    assert cli.main([*argv, "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["ok"]
    assert err.startswith(f"cannot write report {path}: ")
    assert len(err.strip().splitlines()) == 1
    assert not path.exists()


def test_scene_file_is_the_sheared_scene():
    assert json.loads(SHEARED_FILE.read_text()) == sheared_a2c_spec("1")


def test_pushforward_on_a_scene_file_with_polynomial_gluing(capsys):
    # chart 1 is glued by y -> y + x^2, so a restricted monomial has two terms
    assert cli.main(["pushforward", "--scene", str(SHEARED_FILE), "--format", "json"]) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    passed = {c["id"]: c["passed"] for c in suite["checks"]}
    assert passed["pushforward:routes-equal"]


def test_homology_reports_dims(capsys):
    assert cli.main(["homology", "--scene", "SCENE-A1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (suite,) = report["suites"]
    assert suite["suite"] == "homology"
    dims = {c["id"]: c["payload"]["dims"] for c in suite["checks"]}
    assert set(dims) == {"homology:omega", "homology:omega_y", "homology:cone"}
    for d in dims.values():
        assert {"even", "odd", "stable", "window"} <= set(d)


def test_verify_reports_ledger_todd_sign(capsys):
    assert cli.main(["verify", "--scene", "SCENE-A1", "--suite", "signs", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["todd_sign"] == signs.sign("todd-factor") == -1


def _pushforward(tmp_path, scene, y_class):
    path = tmp_path / "class.json"
    path.write_text(y_class)
    return cli.main(["pushforward", "--scene", scene, "--input", str(path), "--format", "json"])


def test_pushforward_input_unit_class(tmp_path, capsys):
    assert _pushforward(tmp_path, "SCENE-A2", '{"0": {"": "1"}}') == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert [(c["id"], c["passed"]) for c in suite["checks"]] == [("pushforward:image", True)]


@pytest.mark.parametrize(
    "scene, y_class, message",
    [
        ("SCENE-P2", '{"1": {"": "y2"}}', "not a cocycle"),
        ("SCENE-A2", '{"7": {"": "1"}}', "tuple (7,) not in atlas"),
        ("SCENE-A2", '{"0": {"": "q"}}', "unknown variable 'q'"),
        ("SCENE-A2", '{"0": {"": "1/0"}}', "zero denominator in '1/0'"),
        ("SCENE-A2", '{"0": {"5": "1"}}', "tuple '0' key '5': dx indices"),
        ("SCENE-A2", '{"0": {"1,0": "1"}}', "tuple '0' key '1,0': dx indices"),
        ("SCENE-A2", "[1]", "expected an object of tuples, got list"),
        ("SCENE-A2", '{"0": {"": 5}}', "tuple '0' key '': expected a polynomial string"),
        ("SCENE-A2", '{"0": "1"}', "tuple '0': expected an object, got str"),
        ("SCENE-P2", '{"0": {"": "1"}}', "tuple '0': Y misses it"),
        ("SCENE-A2", '{"x": {"": "1"}}', "tuple 'x': expected comma-separated integers"),
        ("SCENE-A2", '{"0": {"0,x": "1"}}', "tuple '0' key '0,x': expected comma-separated integers"),
        ("SCENE-A2", '{"0": {"": "1"}, " 0": {"": "x"}}', "tuple ' 0': tuple (0,) is given twice"),
        ("SCENE-A2", '{"0": {"0,1": "1", "0, 1": "x"}}', "tuple '0' key '0, 1': dx indices (0, 1) are given twice"),
    ],
    ids=[
        "not-a-cocycle",
        "unknown-tuple",
        "unknown-variable",
        "zero-denominator",
        "dx-out-of-range",
        "dx-not-increasing",
        "not-an-object",
        "not-a-string",
        "terms-not-an-object",
        "tuple-off-Y",
        "tuple-not-integers",
        "dx-not-integers",
        "tuple-repeated",
        "dx-repeated",
    ],
)
def test_pushforward_input_rejected(tmp_path, capsys, scene, y_class, message):
    assert _pushforward(tmp_path, scene, y_class) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


def _p1_text(edit):
    spec = builtin_scene_dict("SCENE-P1")
    edit(spec)
    return json.dumps(spec)


@pytest.mark.parametrize(
    "text, where",
    [
        ("{", "line 1"),
        ('{"charts": [{"id": "zero"}]}', "chart zero"),
        ('{"charts": 5}', "'charts'"),
        (_p1_text(lambda s: s["charts"][0].update(f="t+")), "chart 0: field 'f'"),
        (_p1_text(lambda s: s["overlaps"][0]["res"]["0"].update(t=1)), "res['0']['t']"),
        ('{"name": "E", "charts": []}', "'charts'"),
        (_p1_text(lambda s: s["overlaps"][0].update(tuple=[0])), "overlap [0]: an overlap needs"),
        (_p1_text(lambda s: s["overlaps"][0].update(tuple=[])), "overlap []: an overlap needs"),
        (_p1_text(lambda s: s["overlaps"][0].update(tuple=[0, 0, 1])), "overlap [0, 0, 1]: repeated"),
        (_p1_text(lambda s: s.update(name=["x"])), "scene: field 'name'"),
    ],
    ids=[
        "json",
        "chart-id",
        "charts-type",
        "polynomial",
        "image-type",
        "no-charts",
        "overlap-of-one-chart",
        "overlap-of-no-chart",
        "overlap-repeated-chart",
        "name-not-a-string",
    ],
)
def test_malformed_scene_file_exits_2(tmp_path, capsys, text, where):
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert cli.main(["homology", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read scene file {path}")
    assert where in err
    assert len(err.strip().splitlines()) == 1


def _verify_p2_pushforward(capsys, *options):
    """SCENE-P2's pushforward suite, which fails its homology context (the
    window is not stable) with a payload."""
    code = cli.main(["verify", "--scene", "SCENE-P2", "--suite", "pushforward", *options])
    return code, capsys.readouterr().out


def test_text_report_shows_each_failure_with_its_payload(tmp_path, capsys):
    code, report = _verify_p2_pushforward(capsys, "--format", "json")
    (failed,) = [c for c in json.loads(report)["suites"][0]["checks"] if not c["passed"]]
    path = tmp_path / "report.txt"
    assert _verify_p2_pushforward(capsys, "--report", str(path)) == (code, path.read_text())
    assert code == 1
    lines = path.read_text().splitlines()
    assert lines[0] == "scene SCENE-P2  seed 0  N 6  D 4"
    assert re.fullmatch(r"\[FAIL\(1\)\] pushforward: 2 checks in \d+\.\d\ds", lines[1])
    assert lines[2:] == [
        f"    FAIL {failed['id']}: {failed['detail']}",
        "        dims: {'window': 4, 'even': 7, 'odd': 3, 'even_next': 10, 'odd_next': 6, 'stable': False}",
        f"        route_value: {failed['payload']['route_value']}",
        "total 2 checks, 1 failed",
    ]
    assert failed["id"] == "pushforward:homology-context"


def test_timings_add_only_seconds_per_suite(capsys):
    _, plain = _verify_p2_pushforward(capsys, "--format", "json")
    _, timed = _verify_p2_pushforward(capsys, "--format", "json", "--timings")
    plain, timed = json.loads(plain), json.loads(timed)
    seconds = [suite.pop("seconds") for suite in timed["suites"]]
    assert timed == plain
    assert len(seconds) == 1 and isinstance(seconds[0], float) and seconds[0] >= 0


def test_verify_keeps_the_report_when_a_suite_raises(monkeypatch, capsys):
    """A suite that raises is one failed check `<suite>:raised`; the
    suites before and after it still report, and the exit code is 1."""

    def raises(scene, seed=0):
        raise RuntimeError("no such tuple")

    monkeypatch.setitem(cli.SUITES, "hq", raises)
    assert cli.main(["verify", "--scene", "SCENE-A1", "--suite", "all", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in report["suites"]] == list(cli.SUITES)
    failed = [c for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert [c["id"] for c in failed] == ["hq:raised"]
    assert failed[0]["payload"] == {"type": "RuntimeError", "message": "no such tuple"}
    others = [s for s in report["suites"] if s["suite"] != "hq"]
    assert all(s["checks"] for s in others)
