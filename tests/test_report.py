"""The verdict in the library: each function of `affinvar.report` is the
report that the CLI command of its name prints, and the quadric gates refuse
a model at one gate, the same one for `validate`, `decompose` and
`simulate`."""

import json
from pathlib import Path

import numpy as np
import pytest

import affinvar
import affinvar.polyhedral
from affinvar.cli import main
from affinvar.convex import minimalize
from affinvar.errors import AffinvarError, NumericalFailureError
from affinvar.modelio import fixture_path, load_fixture, load_model
from affinvar.quadratic import canonical_quadric_model
from conftest import assert_witness, load_module, random_affine_image

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("cir", "triangle_channel", "hyperbola_wedge", "parabola3", "cone3")
SIM_ARGS = ["--paths", "10", "--steps", "10"]
QUADRIC_EDGE_MODELS = ("ellipsoid", "parabola-outside", "parabola-outside-broken",
                       "cone-unnormalized", "parabola-broken-structure",
                       "parabola-c-zero", "cone-hyperboloid")


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _models():
    """The fixtures and their first 20 seed-11 affine images, as the
    digest list draws them."""
    for fx in FIXTURES:
        yield pytest.param(load_fixture(fx), id=fx)
    for fx in ("hyperbola_wedge", "triangle_channel", "parabola3", "cone3"):
        rng = np.random.default_rng(11)
        for i in range(20):
            yield pytest.param(random_affine_image(rng, load_fixture(fx)),
                               id=f"{fx}-image{i}")


@pytest.mark.parametrize("model", _models())
def test_library_validate_is_the_cli_report(tmp_path, capsys, model):
    path = tmp_path / "model.json"
    affinvar.save_model(model, path)
    code, out, _ = _cli(capsys, "validate", str(path))
    report = affinvar.validate(load_model(path))
    assert report.to_dict() == json.loads(out)
    assert code == (0 if report.passed else 1)
    assert all(isinstance(c, affinvar.Check) for c in report.checks)


# the other commands, with the flags of the CLI call as keyword arguments
LIBRARY_CALLS = {"canonicalize": {}, "decompose": {}, "classify": {},
                 "simulate": {"steps": 10, "paths": 10, "seed": 3}}


@pytest.mark.parametrize("model", _models())
@pytest.mark.parametrize("command", LIBRARY_CALLS)
def test_library_report_is_the_cli_report(tmp_path, capsys, command, model):
    path = tmp_path / "model.json"
    affinvar.save_model(model, path)
    kwargs = LIBRARY_CALLS[command]
    code, out, err = _cli(capsys, command, str(path), *(
        arg for key, value in kwargs.items() for arg in (f"--{key}", str(value))))
    try:
        rep = getattr(affinvar.report, command)(load_model(path), **kwargs)
    except AffinvarError as exc:   # a model outside the command's domain
        assert code in (1, 3) and not out
        assert json.loads(err) == {"schema": 1, "error": type(exc).__name__,
                                   "detail": str(exc)}
        return
    assert rep.to_dict() == json.loads(out)
    assert code == (0 if rep.passed else 3 if rep.inconclusive else 1)


def test_a_missing_decomposition_fails_and_a_failed_search_is_inconclusive(
        capsys, monkeypatch):
    path = str(fixture_path("triangle_channel"))
    rep = affinvar.report.decompose(load_fixture("triangle_channel"))
    assert rep.blocks["decomposition"]["status"] == "not-representable"
    assert not rep.passed and not rep.inconclusive and rep.checks == ()
    code, out, _ = _cli(capsys, "decompose", path)
    assert code == 1 and json.loads(out) == rep.to_dict()
    assert json.loads(out)["passed"] is False

    def search_fails(model):
        raise NumericalFailureError("no step decreases the objective")

    # decompose imports the search from its defining module when it runs
    monkeypatch.setattr(affinvar.polyhedral, "psd_decompose", search_fails)
    rep = affinvar.report.decompose(load_fixture("triangle_channel"))
    assert not rep.passed and rep.inconclusive
    code, out, _ = _cli(capsys, "decompose", path)
    assert code == 3 and json.loads(out) == rep.to_dict()
    assert json.loads(out)["decomposition"] == {
        "status": "inconclusive", "detail": "no step decreases the objective"}


def _edge_model(tmp_path, name: str) -> str:
    obj = load_module(ROOT / "tools" / "cli_digests.py")._edge_models()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_outside_of_a_broken_parabola_is_refused_on_its_side(tmp_path,
                                                            capsys):
    # theta_12 = 0.7 breaks the parabolic structure, and the state space is
    # the outside: every command refuses the side, the earlier gate
    path = _edge_model(tmp_path, "parabola-outside-broken")
    code, out, _ = _cli(capsys, "validate", path)
    assert code == 1
    assert [(c["name"], c["passed"]) for c in json.loads(out)["checks"]] == [
        ("quadric-admissible-kind", True), ("state-space-side", False)]
    for argv in (["decompose", path], ["simulate", path, *SIM_ARGS]):
        code, out, err = _cli(capsys, *argv)
        assert code == 1 and not out
        assert json.loads(err) == {
            "schema": 1, "error": "PreconditionFailedError",
            "detail": "the state space is the outside of the quadric"}


@pytest.mark.parametrize("name", QUADRIC_EDGE_MODELS)
def test_commands_refuse_a_quadric_on_its_first_failed_gate(tmp_path, capsys,
                                                            name):
    path = _edge_model(tmp_path, name)
    frame = canonical_quadric_model(load_model(path))
    gates = list(frame.gates())
    check, error = gates[-1]
    assert not check.passed and error is not None
    assert all(c.passed and e is None for c, e in gates[:-1])
    code, out, _ = _cli(capsys, "validate", path)
    assert code == 1 and json.loads(out)["checks"] == [
        c.to_dict() for c, _ in gates]
    refused = {"schema": 1, "error": type(error).__name__,
               "detail": str(error)}
    code, _, err = _cli(capsys, "simulate", path, *SIM_ARGS)
    assert code == 1 and json.loads(err) == refused
    # decompose reads the gates up to the structure fit
    code, out, err = _cli(capsys, "decompose", path)
    if len(list(frame.gates(closed_forms=False))) == len(gates):
        assert code == 1 and json.loads(err) == refused
    else:
        assert code == 0 and json.loads(out)["decomposition"]["status"] == "ok"


def _validate_reports(runs):
    for label, argv, code, out, _ in runs:
        if argv[0] == "validate" and out.strip():
            yield label, json.loads(out)


def test_every_failed_check_carries_a_margin_a_witness_or_info(
        cli_digest_runs):
    bare = [(label, c["name"])
            for label, report in _validate_reports(cli_digest_runs)
            for c in report["checks"] if not c["passed"]
            and not {"margin", "witness", "info"} & set(c)]
    assert bare == []


def test_drift_checks_carry_their_own_margin_and_message(cli_digest_runs):
    # a certified drift check's margin is its certificate's constant; a
    # refuted one names the outward drift, which its diffusion check does not
    seen = set()
    for label, report in _validate_reports(cli_digest_runs):
        for c in report["checks"]:
            if c["name"].endswith("-drift") and c["name"].startswith("facet"):
                seen.add(c["passed"])
                if c["passed"]:
                    assert c["margin"] == c["certificate"]["c"] >= 0, label
                else:
                    assert "margin" not in c and "witness" in c, label
                    assert c["info"] == "drift points outward on facet", label
            elif c["name"].endswith("-diffusion"):
                assert "drift" not in c.get("info", ""), (label, c)
    assert seen == {True, False}


def test_every_failed_drift_check_has_a_verified_witness(cli_digest_runs):
    # the witness of a failed facet-i-drift check lies in the minimal
    # polyhedron and on facet i, to a normalized tolerance, and the drift
    # gamma_i mu is negative there
    refuted = set()
    for label, argv, _, out, _ in cli_digest_runs:
        if argv[0] != "validate" or not out.strip():
            continue
        for c in json.loads(out)["checks"]:
            name = c["name"].split("-")
            if name[0] != "facet" or name[2] != "drift" or c["passed"]:
                continue
            model = load_model(argv[1])
            poly = minimalize(model.state_space)
            i = int(name[1])
            assert_witness(np.array(c["witness"]),
                           model.drift.row_functional(poly.gamma[i]), poly, i)
            refuted.add(label)
    assert {"validate interval-outward-drift",
            "validate triangle-outward-drift"} <= refuted


# the checks whose margin is a negated residual or a least eigenvalue:
# each passes iff its margin clears minus its tolerance
SIGNED = ("parabolic-drift-structure", "parabolic-drift-psd",
          "parabolic-drift-degenerate-match", "cone-drift-symmetry",
          "cone-drift-psd")


def test_signed_margins_have_the_sign_of_their_verdict(cli_digest_runs):
    seen = set()
    for label, report in _validate_reports(cli_digest_runs):
        for c in report["checks"]:
            if c["name"] in SIGNED or (c["name"].endswith("-diffusion")
                                       and c.get("certificate") is None):
                seen.add((c["name"].split("-")[0], c["passed"]))
                assert (c["margin"] >= -1e-6) is c["passed"], (label, c)
    # passing and failing drift checks, and facets whose row does not vanish
    assert {("parabolic", True), ("parabolic", False), ("cone", True),
            ("facet", False)} <= seen
