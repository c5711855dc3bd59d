"""The verdict in the library: `affinvar.validate` is the report the CLI
prints, and the quadric gates refuse a model at one gate, the same one for
`validate`, `decompose` and `simulate`."""

import json
from pathlib import Path

import numpy as np
import pytest

import affinvar
from affinvar.cli import main
from affinvar.modelio import fixture_path, load_fixture, load_model
from affinvar.quadratic import canonical_quadric_model
from conftest import load_module, random_affine_image

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
