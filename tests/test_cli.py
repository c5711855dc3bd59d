import copy
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import affinvar.cli
from affinvar import errors, report
from affinvar.cli import main
from affinvar.core import (AffineMatrixField, AffineVectorField, ModelSpec,
                           Polyhedron, QuadraticForm, QuadraticSpace,
                           change_model_coordinates)
from affinvar.modelio import fixture_path, load_model, save_model
from affinvar.quadratic import check_open_invariance_general, classify_quadric
from affinvar.tolerances import TOL, Tolerances, current
from conftest import (load_module, random_affine_image, random_canonical_model,
                      translated)

FIXTURES = ("cir", "triangle_channel", "hyperbola_wedge", "parabola3", "cone3")

# expected validate verdicts for every shipped fixture
GOLDEN_VERDICTS = {
    "cir": 0,
    "triangle_channel": 0,
    "hyperbola_wedge": 1,   # facet diffusion conditions fail (representability
                            # example, not an invariant state space)
    "parabola3": 0,
    "cone3": 0,
}


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_cir(capsys):
    code, rep = _run(capsys, "validate", str(fixture_path("cir")))
    assert code == 0
    assert rep["passed"] and rep["schema"] == 1
    drift_checks = [c for c in rep["checks"] if c["name"] == "facet-0-drift"]
    assert drift_checks[0]["certificate"]["c"] == pytest.approx(1.0)
    assert rep["canonical"] == {"m": 1, "n": 0}
    assert rep["decompose"]["status"] == "ok"


def test_validate_triangle_channel_reports_not_representable(capsys):
    code, rep = _run(capsys, "validate", str(fixture_path("triangle_channel")))
    assert code == 0
    assert rep["passed"]
    assert rep["decompose"]["status"] == "not-representable"
    assert rep["canonical"] == {"m": 0, "n": 2}


def test_validate_golden_verdicts(capsys):
    for name, expected in GOLDEN_VERDICTS.items():
        code, _ = _run(capsys, "validate", str(fixture_path(name)))
        assert code == expected, name


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_missing_field_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1}))
    code = main(["validate", str(bad)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("field,value", [("drift.b", float("nan")),
                                         ("gamma", float("inf"))])
def test_nonfinite_input_exit_code(tmp_path, capsys, field, value):
    obj = json.loads(fixture_path("cir").read_text())
    if field == "drift.b":
        obj["drift"]["b"][0] = value
    else:
        obj["state_space"]["gamma"][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite" in json.loads(err)["detail"]


@pytest.mark.parametrize("fixture,field,value", [
    ("parabola3", "closed", "false"), ("parabola3", "closed", None),
    ("cir", "dimension", 1.7), ("cir", "dimension", "1"),
    ("cir", "dimension", True)])
def test_ill_typed_field_exit_code(tmp_path, capsys, fixture, field, value):
    # closed must be a JSON boolean and dimension a JSON integer: bool("false")
    # would be closed, null open, and int() would read 1.7, "1" and true as 1
    obj = json.loads(fixture_path(fixture).read_text())
    (obj["state_space"] if field == "closed" else obj)[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{field} must be a JSON" in json.loads(err)["detail"]


@pytest.mark.parametrize("command", ["validate", "canonicalize"])
def test_minimal_flag_in_file_not_trusted(tmp_path, capsys, command):
    # cir with the redundant facet x + 1 >= 0, claimed minimal: the redundant
    # facet carries no diffusion multiple, so it must be removed, not trusted
    obj = json.loads(fixture_path("cir").read_text())
    space = obj["state_space"]
    space["gamma"].append([1.0])
    space["delta"].append(1.0)
    space["minimal"] = True
    path = tmp_path / "cir_redundant.json"
    path.write_text(json.dumps(obj))
    code, rep = _run(capsys, command, str(path))
    assert code == 0 and rep["passed"]
    if command == "validate":
        assert [c["name"] for c in rep["checks"] if "facet" in c["name"]] == \
            ["facet-0-diffusion", "facet-0-drift"]
    else:
        assert rep["transformed_model"]["state_space"]["minimal"] is True


def test_seed_only_on_simulate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(fixture_path("cir")), "--seed", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


def _edge_model(tmp_path, name: str) -> Path:
    """The edge model `name` of the digest list, written to tmp_path."""
    tool = load_module(Path(__file__).resolve().parents[1] / "tools" /
                       "cli_digests.py")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(tool._edge_models()[name]))
    return path


def test_lp_budget(capsys, lp_calls, tmp_path, rng):
    """The facet diffusion checks and Psi are LP-free, the drift certificates
    and the interior point are solved once.  The interior point is one NNLS.
    When gamma has full row rank (cir, simplicial cones) the drift
    certificates come from a pseudo-inverse and minimalize keeps every
    facet; when it is rank-deficient (triangle_channel, hyperbola_wedge) one
    NNLS solves each certificate, and minimalize tests each facet for a
    certificate over the others.  A refuted drift condition gets its witness
    from one least-distance NNLS.  So none of these calls takes an LP."""
    cone = tmp_path / "simplicial_cone.json"
    save_model(random_affine_image(rng, random_canonical_model(rng, 3, 1, 1)),
               cone)
    outward = _edge_model(tmp_path, "triangle-outward-drift")
    scaled = _edge_model(tmp_path, "triangle-scaled-facet")
    for model, command, expected in (
            (fixture_path("triangle_channel"), "validate", 0),
            (fixture_path("triangle_channel"), "canonicalize", 0),
            (fixture_path("cir"), "validate", 0),
            (fixture_path("cir"), "canonicalize", 0),
            (fixture_path("hyperbola_wedge"), "validate", 1),
            (cone, "validate", 0),
            (_edge_model(tmp_path, "cir-overflow"), "validate", 0),
            (outward, "validate", 1),
            (scaled, "validate", 0),
            (scaled, "canonicalize", 0)):
        lp_calls.clear()
        code, _ = _run(capsys, command, str(model))
        assert code == expected, (model, command)
        assert lp_calls == [], (model, command)


def test_cir_overflow_drift_is_certified(capsys, tmp_path):
    # a = 1e20 on the half-line: gamma mu(x) = 1e20 x + 1 is 1 > 0 on the
    # facet {x = 0}, and its certificate has lambda = 1e20, c = 1; no bound
    # on the multipliers refuses it
    code, rep = _run(capsys, "validate",
                     str(_edge_model(tmp_path, "cir-overflow")))
    assert code == 0
    drift = {c["name"]: c for c in rep["checks"]}["facet-0-drift"]
    assert drift["passed"]
    assert drift["certificate"] == {"lambda": [1e20], "c": 1.0}


@pytest.mark.filterwarnings("error")
def test_psd_margin_of_the_largest_doubles(capsys, tmp_path):
    # theta(x) = 1e308 + x on x >= 0: 1 + |w_max| + |w_min| overflows, the
    # relative least eigenvalue is 1/2, and the diffusion row, which does
    # not vanish on {x = 0}, still fails its facet
    obj = json.loads(fixture_path("cir").read_text())
    obj["diffusion"]["A0"] = [[1e308]]
    path = tmp_path / "cir-huge.json"
    path.write_text(json.dumps(obj))
    code, rep = _run(capsys, "validate", str(path))
    checks = {c["name"]: c for c in rep["checks"]}
    psd = checks["theta-psd-on-interior-samples"]
    assert code == 1 and not checks["facet-0-diffusion"]["passed"]
    assert psd["passed"] and psd["margin"] == 0.5


@pytest.mark.parametrize("fixture", ["parabola3", "cone3"])
def test_negated_quadric_keeps_its_verdicts(capsys, tmp_path, fixture):
    # -Phi < 0 is the set Phi > 0: the classification keeps kind and q with
    # sign -1, and every command its exit code; simulate runs in the same
    # canonical frame, so its statistics keep their bits
    obj = json.loads(fixture_path(fixture).read_text())
    space = obj["state_space"]
    cls = classify_quadric(QuadraticForm(np.array(space["A"]),
                                         np.array(space["b"]), space["c"]))
    for key in ("A", "b", "c"):
        space[key] = (-np.array(space[key])).tolist()
    space["component"] = "negative"
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(obj))
    flipped = classify_quadric(QuadraticForm(np.array(space["A"]),
                                             np.array(space["b"]), space["c"]))
    assert (flipped.kind, flipped.q, flipped.sign) == (cls.kind, cls.q, -1)
    assert cls.sign == 1
    sim = ("--paths", "20", "--steps", "10", "--seed", "3")
    for argv in (("validate",), ("classify",), ("decompose",),
                 ("simulate", *sim), ("simulate", *sim, "--scheme", "plain")):
        code, rep = _run(capsys, argv[0], str(fixture_path(fixture)),
                         *argv[1:])
        got, flipped_rep = _run(capsys, argv[0], str(path), *argv[1:])
        assert got == code, argv
        if argv[0] == "simulate":
            assert flipped_rep["simulation"] == rep["simulation"], argv


@pytest.mark.parametrize("fixture", ["cir", "triangle_channel",
                                     "hyperbola_wedge"])
def test_validate_is_blind_to_the_scale_of_a_facet_row(capsys, tmp_path,
                                                       fixture):
    # a positive multiple of a facet row (gamma_i, delta_i) leaves the set
    # unchanged, and so validate's exit code and each check's verdict
    def verdicts(obj):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(obj))
        code, rep = _run(capsys, "validate", str(path))
        return code, [(c["name"], c["passed"]) for c in rep["checks"]]

    base = json.loads(fixture_path(fixture).read_text())
    expected = verdicts(base)
    space = base["state_space"]
    for i in range(len(space["delta"])):
        for scale in (1e-7, 1e7):
            obj = copy.deepcopy(base)
            obj["state_space"]["gamma"][i] = [scale * v for v in
                                              space["gamma"][i]]
            obj["state_space"]["delta"][i] = scale * space["delta"][i]
            assert verdicts(obj) == expected, (i, scale)


# the exit codes of validate, canonicalize and decompose on each polyhedral
# fixture
POLYHEDRAL_CODES = {"cir": (0, 0, 0), "triangle_channel": (0, 0, 1),
                    "hyperbola_wedge": (1, 1, 0)}


@pytest.mark.parametrize("fixture", list(POLYHEDRAL_CODES))
@pytest.mark.parametrize("shift", [2e6, -2e6, 1e7, -1e7])
def test_verdicts_do_not_depend_on_where_the_state_space_lies(
        capsys, tmp_path, fixture, shift):
    # the model of x + shift (1, ..., 1): no tolerance bounds where a point
    # may lie, so validate and canonicalize keep the fixture's exit codes,
    # and decompose does at |shift| = 2e6 (at 1e7 its PSD search on
    # triangle_channel is inconclusive, a scale problem of its own)
    path = tmp_path / "translated.json"
    save_model(translated(load_model(fixture_path(fixture)), shift), path)
    commands = ("validate", "canonicalize", "decompose")
    if abs(shift) > 2e6:
        commands = commands[:2]
    for command, expected in zip(commands, POLYHEDRAL_CODES[fixture]):
        code, _ = _run(capsys, command, str(path))
        assert code == expected, command


def test_thin_wedge_has_an_interior(capsys, tmp_path):
    # the zero model on {1e-7 x_1 >= |x_2|}, the orthant's image by a map of
    # condition 1e7: every least-distance point lies near x_1 = 1e7 t, where
    # the least-distance residual's last entry is -1e-14, and it is a point,
    # not a proof that the interior is empty
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps({
        "dimension": 2, "drift": {"a": zero, "b": [0.0, 0.0]},
        "diffusion": {"A0": zero, "A": [zero, zero]},
        "state_space": {"kind": "polyhedral",
                        "gamma": [[1e-7, 1.0], [1e-7, -1.0]],
                        "delta": [0.0, 0.0]}}))
    for command in ("validate", "canonicalize", "decompose"):
        code, _ = _run(capsys, command, str(path))
        assert code == 0, command


def _count_calls(monkeypatch, module, name: str) -> list:
    """A list that grows by one on each call of module.name, patched at
    every binding of it across the package."""
    real, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("affinvar") and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_coupling_rows_solved_once_per_command(capsys, monkeypatch, tmp_path):
    """Each subcommand decides each fact at most once: validate's
    admissibility check and canonical transform share the coupling rows
    (memoized on the polyhedron), and the interior point and the quadric
    classification are found once per call.  So a cache of the facts per
    model would save no call.  Independent facet rows (cir, an orthant
    image) have an interior without a solve, so only validate's witness
    and simulate's start solve for the point."""
    import affinvar.convex as convex
    import affinvar.polyhedral as polyhedral
    import affinvar.quadratic as quadratic
    facts = [_count_calls(monkeypatch, module, name) for module, name in (
        (convex, "_interior_point"), (polyhedral, "_coupling_rows"),
        (polyhedral, "canonical_transform"), (polyhedral, "psd_decompose"))]
    sim = ("--paths", "10", "--steps", "10")
    # decompose exits 1: triangle_channel's theta has no PSD decomposition
    for argv, code, expected in ((("validate",), 0, [1, 1, 1, 1]),
                                 (("canonicalize",), 0, [1, 1, 1, 0]),
                                 (("decompose",), 1, [1, 0, 0, 1]),
                                 (("simulate", *sim), 0, [1, 1, 1, 0])):
        for calls in facts:
            calls.clear()
        got, _ = _run(capsys, argv[0], str(fixture_path("triangle_channel")),
                      *argv[1:])
        assert (got, [len(c) for c in facts]) == (code, expected), argv
    bench_models = load_module(
        Path(__file__).resolve().parents[1] / "perfbench" / "bench_models.py")
    _, image, _ = bench_models.generated_models(7919)[5]   # p 4, m 1, n 2
    orthant = tmp_path / "orthant.json"
    orthant.write_text(json.dumps(image))
    for path in (fixture_path("cir"), orthant):
        for argv, solves in ((("validate",), 1), (("canonicalize",), 0),
                             (("decompose",), 0), (("simulate", *sim), 1)):
            facts[0].clear()
            got, _ = _run(capsys, argv[0], str(path), *argv[1:])
            assert (got, len(facts[0])) == (0, solves), (path, argv)
    classified = _count_calls(monkeypatch, quadratic, "classify_quadric")
    for fx in ("parabola3", "cone3"):
        for argv in (("validate",), ("classify",), ("decompose",),
                     ("simulate", *sim)):
            classified.clear()
            got, _ = _run(capsys, argv[0], str(fixture_path(fx)), *argv[1:])
            assert (got, len(classified)) == (0, 1), (fx, argv)


def test_facet_rank_decided_once_per_polyhedron(capsys, monkeypatch,
                                                tmp_path):
    """A polyhedral validate ranks each polyhedron's facet rows once, in
    `convex.facet_rank`: the certificate system reads the rank of its own
    matrix off the SVD its pseudo-inverse is built from.  The only other
    rank taken is that of row subsets in `canonical_transform`'s greedy
    loop.  Rank-deficient rows (triangle_channel, hyperbola_wedge) rank the
    subsets `minimalize` tries too; rows of full rank (cir, the generated
    orthant images) take one rank in all.  A rank is the polyhedron's when
    its argument is that polyhedron's own gamma; any other rank is
    attributed to the function that takes it."""
    real, calls, polyhedra = np.linalg.matrix_rank, [], {}
    post_init = Polyhedron.__post_init__

    def record(poly):
        post_init(poly)
        polyhedra[id(poly.gamma)] = poly    # kept alive: ids stay unique

    def spy(*args, **kwargs):
        poly = polyhedra.get(id(args[0]))
        if poly is None or poly.gamma is not args[0]:
            calls.append((sys._getframe(1).f_code.co_name, None))
        else:
            calls.append(("facet_rank", poly))
        return real(*args, **kwargs)

    monkeypatch.setattr(Polyhedron, "__post_init__", record)
    monkeypatch.setattr(np.linalg, "matrix_rank", spy)
    bench_models = load_module(
        Path(__file__).resolve().parents[1] / "perfbench" / "bench_models.py")
    paths = [fixture_path(fx) for fx in
             ("cir", "triangle_channel", "hyperbola_wedge")]
    for i, (_, image, _) in enumerate(bench_models.generated_models(7919)):
        paths.append(tmp_path / f"gen{i}.json")
        paths[-1].write_text(json.dumps(image))
    for path in paths:
        calls.clear()
        got, _ = _run(capsys, "validate", str(path))
        ranked = [id(poly) for name, poly in calls if name == "facet_rank"]
        others = [name for name, _ in calls if name != "facet_rank"]
        assert got in (0, 1) and len(set(ranked)) == len(ranked) >= 1, path
        assert set(others) <= {"_rank"}, path
        if path.stem not in ("triangle_channel", "hyperbola_wedge"):
            assert (len(ranked), others) == (1, []), path


def _plane_model(tmp_path):
    """The only facet is 0 x + 1 >= 0, so the state space is R^2: a
    well-formed model with no facet row, whose interior point is the origin."""
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "dimension": 2, "drift": {"a": [[-1.0, 0.0], [0.0, -1.0]],
                                  "b": [0.0, 0.0]},
        "diffusion": {"A0": [[1.0, 0.0], [0.0, 1.0]],
                      "A": np.zeros((2, 2, 2)).tolist()},
        "state_space": {"kind": "polyhedral", "gamma": [[0.0, 0.0]],
                        "delta": [1.0]}}))
    return path


@pytest.mark.parametrize("command", ["validate", "canonicalize", "decompose"])
def test_constant_facet_model_exits_zero(tmp_path, capsys, command):
    code, rep = _run(capsys, command, str(_plane_model(tmp_path)))
    assert code == 0 and rep["passed"]
    if command == "validate":
        assert rep["checks"][0] == {"name": "interior-nonempty",
                                    "passed": True, "witness": [0.0, 0.0]}
    if command == "canonicalize":  # the row bounds nothing and is dropped
        assert (rep["transform"]["m"], rep["transform"]["n"]) == (0, 0)
        assert rep["transformed_model"]["state_space"]["gamma"] == []


@pytest.mark.parametrize("csv", [False, True])
@pytest.mark.parametrize("scheme", ["full-truncation", "plain"])
def test_constant_facet_model_simulates(tmp_path, capsys, scheme, csv):
    # with no facet left there is nothing to project onto or exit through
    args = ["simulate", str(_plane_model(tmp_path)), "--t", "0.5", "--steps",
            "10", "--paths", "20", "--seed", "2", "--scheme", scheme]
    if csv:
        args += ["--csv", str(tmp_path / "paths.csv")]
    code, rep = _run(capsys, *args)
    assert code == 0 and rep["passed"]
    assert rep["simulation"]["exit_fraction"] == 0.0


def test_canonicalized_plane_model_reads_back(tmp_path, capsys):
    # the written model has "gamma": [], which must read back as R^2
    out = tmp_path / "canonical.json"
    code, _ = _run(capsys, "canonicalize", str(_plane_model(tmp_path)),
                   "--model-out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["state_space"]["gamma"] == []
    code, rep = _run(capsys, "validate", str(out))
    assert code == 0 and rep["passed"]


def test_decompose_inconclusive_reports(tmp_path, capsys):
    # theta = -5e-7 + 1000 x on {x >= 0}: the decomposition search is
    # inconclusive, which decompose reports (exit 3) rather than only an
    # error on stderr
    path = tmp_path / "half_line.json"
    path.write_text(json.dumps({
        "dimension": 1, "drift": {"a": [[0.0]], "b": [0.0]},
        "diffusion": {"A0": [[-5e-7]], "A": [[[1000.0]]]},
        "state_space": {"kind": "polyhedral", "gamma": [[1.0]],
                        "delta": [0.0]}}))
    code, rep = _run(capsys, "decompose", str(path))
    assert code == 3
    assert rep["passed"] is False
    assert rep["decomposition"]["status"] == "inconclusive"
    assert rep["decomposition"]["detail"]


def test_decompose_hyperbola_wedge(capsys):
    code, rep = _run(capsys, "decompose", str(fixture_path("hyperbola_wedge")))
    assert code == 0
    dec = rep["decomposition"]
    assert dec["status"] == "ok"
    assert dec["min_eigenvalue"] >= -1e-8
    B0 = np.array(dec["B0"])
    Bi = np.array(dec["Bi"])
    m = load_model(fixture_path("hyperbola_wedge"))
    A0 = B0 + np.tensordot(m.state_space.delta, Bi, axes=(0, 0))
    assert np.abs(A0 - m.diffusion.A0).max() <= 1e-8


def test_decompose_triangle_channel_exit_one(capsys):
    code, rep = _run(capsys, "decompose", str(fixture_path("triangle_channel")))
    assert code == 1
    assert rep["decomposition"]["status"] == "not-representable"


def test_decompose_quadratic_fixtures(capsys):
    code, rep = _run(capsys, "decompose", str(fixture_path("parabola3")))
    assert code == 0
    assert rep["decomposition"]["kind"] == "parabolic"
    assert rep["decomposition"]["c"] == pytest.approx(1.0)
    code, rep = _run(capsys, "decompose", str(fixture_path("cone3")))
    assert code == 0
    assert rep["decomposition"]["kind"] == "conical"
    assert rep["decomposition"]["coeff_zeta"] == pytest.approx(1.0)


def test_classify_fixtures(capsys):
    code, rep = _run(capsys, "classify", str(fixture_path("parabola3")))
    assert code == 0 and rep["classification"]["kind"] == "parabolic"
    code, rep = _run(capsys, "classify", str(fixture_path("cone3")))
    assert code == 0 and rep["classification"]["kind"] == "cone"
    assert rep["classification"]["q"] == 3


def test_canonicalize_writes_transform_and_model(tmp_path, capsys):
    out_model = tmp_path / "canonical.json"
    code, rep = _run(capsys, "canonicalize", str(fixture_path("triangle_channel")),
                     "--model-out", str(out_model))
    assert code == 0
    assert rep["transform"]["m"] == 0 and rep["transform"]["n"] == 2
    transformed = load_model(out_model)
    assert transformed.dimension == 4
    block = [c for c in rep["checks"] if c["name"] == "block-identity"][0]
    assert block["passed"] and 0.0 <= block["margin"] <= 1e-9
    # transformed facets: first two are coordinates
    g = transformed.state_space.gamma
    assert np.allclose(g[:2, :2], np.eye(2), atol=1e-12)


def test_simulate_cir_with_csv(tmp_path, capsys):
    csv = tmp_path / "paths.csv"
    code, rep = _run(capsys, "simulate", str(fixture_path("cir")),
                     "--t", "0.5", "--steps", "50", "--paths", "20",
                     "--seed", "4", "--x0", "0.3", "--csv", str(csv))
    assert code == 0
    sim = rep["simulation"]
    assert sim["exit_fraction"] == 0.0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,path,x1"
    assert len(lines) == 1 + 20 * 51
    t0, path0, x0 = lines[1].split(",")
    assert float(t0) == 0.0 and int(path0) == 0 and float(x0) == 0.3


def _csv_rows(ens, p: int) -> str:
    """The --csv text written row by row: the reference of the writer."""
    text = "t,path," + ",".join(f"x{i+1}" for i in range(p)) + "\n"
    for ipath in range(ens.states.shape[0]):
        for it, t in enumerate(ens.times):
            row = ",".join(repr(float(v)) for v in ens.states[ipath, it])
            text += f"{float(t)!r},{ipath},{row}\n"
    return text


@pytest.mark.parametrize("fx", ["cir", "triangle_channel", "parabola3",
                                "cone3"])
def test_simulate_csv_bytes_match_the_row_formatter(tmp_path, capsys, fx):
    csv = tmp_path / "paths.csv"
    code, _ = _run(capsys, "simulate", str(fixture_path(fx)), "--t", "0.3",
                   "--steps", "12", "--paths", "11", "--seed", "3",
                   "--csv", str(csv))
    assert code == 0
    model = load_model(fixture_path(fx))
    ens = report.simulate(model, 0.3, 12, 11, 3, csv=True).ensemble
    assert csv.read_bytes() == _csv_rows(ens, model.dimension).encode()


def test_csv_writer_keeps_every_float_repr(tmp_path):
    # signed zeros, subnormals, the largest double, non-finite values and
    # times that are not multiples of a round step
    values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
              1.7976931348623157e308, float("nan"), float("inf"),
              -float("inf"), 0.1 + 0.2, -1e16, 123.0]
    states = np.array(values * 4)[:3 * 7 * 2].reshape(3, 7, 2)
    ens = SimpleNamespace(states=states, times=np.linspace(0.0, 0.7, 7) / 3)
    out = tmp_path / "paths.csv"
    affinvar.cli._write_csv(str(out), ens)
    assert out.read_bytes() == _csv_rows(ens, 2).encode()


@pytest.mark.parametrize("fx,x0,scheme", [
    ("triangle_channel", "0.8,0.8,0,0", "full-truncation"),
    ("triangle_channel", "0.8,0.8,0,0", "plain"),
    ("cir", "0.02", "plain"),          # 13% of the paths exit
])
def test_simulate_report_same_with_and_without_csv(tmp_path, capsys, fx, x0,
                                                   scheme):
    # without --csv the paths are streamed, not stored; the report must not
    # change (final states, exit flags at 1e-8, non-finite count)
    args = ["simulate", str(fixture_path(fx)), "--t", "1.0", "--steps", "50",
            "--paths", "200", "--seed", "5", "--scheme", scheme, "--x0", x0]
    main(args)
    streamed = capsys.readouterr().out
    main(args + ["--csv", str(tmp_path / "paths.csv")])
    stored = capsys.readouterr().out
    assert json.loads(streamed)["passed"]
    assert streamed == stored


@pytest.mark.parametrize("tol", ["0", "nan", "-1e-3", "inf"])
def test_bad_tol_rejected(capsys, tol):
    code = main(["validate", str(fixture_path("cir")), f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "--tol" in json.loads(captured.err)["detail"]
    assert current() == Tolerances()


@pytest.mark.parametrize("args,expected", [
    (("--t=nan",), 2), (("--t=inf",), 2), (("--t=-inf",), 2),
    (("--t=nan", "--steps=5"), 2), (("--x0=nan",), 2), (("--x0=inf",), 2),
    (("--x0=one",), 2), (("--x0=1,2",), 2), (("--t=0",), 1),
    (("--t=-1", "--steps=5"), 1), (("--seed=-1",), 1),
    (("--seed=18446744073709551616",), 1)],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_simulate_rejects_malformed_input(capsys, args, expected):
    # a non-finite horizon or a malformed start point is a parse error (exit
    # 2, before any work); a finite non-positive horizon, or a seed outside
    # the 64-bit Philox key word, fails its precondition (exit 1)
    code = main(["simulate", str(fixture_path("cir")), "--paths", "10",
                 *args])
    captured = capsys.readouterr()
    assert code == expected and not captured.out
    err = json.loads(captured.err)["error"]
    assert err == ("parse" if expected == 2 else "PreconditionFailedError")


@pytest.mark.parametrize("fixture,cut,x0,expected", [
    ("cone3", None, "-2,0.5,0", 1), ("triangle_channel", -1.4, "0,1.4,0,0", 1),
    ("cir", None, "0", 0), ("triangle_channel", None, "0,1.5,0,0", 0),
    ("cone3", None, "0,0,0", 0), ("parabola3", None, "0,0,0", 0)],
    ids=["cone3-backward-nappe", "channel-vertex", "cir-origin",
         "channel-vertex-singular", "cone3-apex", "parabola3-vertex"])
def test_simulate_start_needs_psd_theta(tmp_path, capsys, fixture, cut, x0,
                                        expected):
    # a member of the state space where theta is not PSD fails its
    # precondition (exit 1): the cone's backward nappe, and the vertex of
    # triangle_channel cut at x_1 + x_2 >= 1.4; where theta is PSD but
    # singular, the run starts
    obj = json.loads(fixture_path(fixture).read_text())
    if cut is not None:
        obj["state_space"]["delta"][2] = cut
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code = main(["simulate", str(path), f"--x0={x0}", "--paths", "10",
                 "--steps", "10"])
    captured = capsys.readouterr()
    assert code == expected
    if expected:
        assert not captured.out
        err = json.loads(captured.err)
        assert err["error"] == "PreconditionFailedError"
        assert "theta is not PSD at x0" in err["detail"]
    else:
        start = json.loads(captured.out)["simulation"]["x0"]
        assert start == [float(v) for v in x0.split(",")]


def test_simulate_deterministic_reports(capsys):
    args = ["simulate", str(fixture_path("cir")), "--t", "0.2", "--steps", "20",
            "--paths", "10", "--seed", "9"]
    code1, rep1 = _run(capsys, *args)
    code2, rep2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_simulate_cone_fixture(capsys):
    code, rep = _run(capsys, "simulate", str(fixture_path("cone3")),
                     "--t", "0.2", "--steps", "100", "--paths", "50",
                     "--seed", "3", "--scheme", "plain")
    assert code == 0


def _quadric_variant(fixture, diffusion=None, **space):
    """The fixture's model file as a dict, with the given diffusion and
    state-space entries replaced."""
    obj = json.loads(fixture_path(fixture).read_text())
    obj["diffusion"].update(diffusion or {})
    obj["state_space"].update(space)
    return obj


_ZERO3 = [np.zeros((3, 3)).tolist()] * 3
_CONE3_A = np.array(json.loads(fixture_path("cone3").read_text())
                    ["diffusion"]["A"])


# models that fail validate's quadric route at the named check, its last one
_QUADRIC_FAILURES = {
    "quadric-admissible-kind": _quadric_variant(  # outside the unit ball
        "parabola3", A=np.eye(3).tolist(), b=[0.0, 0.0, 0.0], c=-1.0),
    "state-space-side": _quadric_variant("parabola3", component="negative"),
    "square-root-block-present": _quadric_variant(
        "parabola3", {"A0": np.diag([0.0, 0.0, 1.0]).tolist(), "A": _ZERO3},
        A=np.diag([0.0, -1.0, 0.0]).tolist()),
    "cone-full-dimension": _quadric_variant(
        "cone3", A=np.diag([1.0, -1.0, 0.0]).tolist()),
    "conical-structure": _quadric_variant(
        "cone3", {"A0": np.eye(3).tolist(), "A": _ZERO3}),
    "cone-zeta-form": _quadric_variant(
        "cone3", {"A": (2.0 * _CONE3_A).tolist()}),
}


@pytest.mark.parametrize("check", list(_QUADRIC_FAILURES))
def test_validate_quadric_failure_checks(tmp_path, capsys, check):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_QUADRIC_FAILURES[check]))
    code, rep = _run(capsys, "validate", str(path))
    assert code == 1 and not rep["passed"]
    assert rep["checks"][-1]["name"] == check
    assert not rep["checks"][-1]["passed"]
    assert all(c["passed"] for c in rep["checks"][:-1])


_PARABOLA3 = json.loads(fixture_path("parabola3").read_text())["diffusion"]


def _polyhedral_dict(b, A0, A, gamma, delta) -> dict:
    """A polyhedral model file with zero drift matrix."""
    return {"dimension": len(b), "drift": {"a": np.zeros((len(b),) * 2).tolist(),
                                           "b": b},
            "diffusion": {"A0": A0, "A": A},
            "state_space": {"kind": "polyhedral", "gamma": gamma,
                            "delta": delta}}


# well-typed models that no affine diffusion admits, with the error each
# raises and the commands that reach it; validate reports the failed check
# of the structure models instead (test_validate_quadric_failure_checks,
# test_validate_reports_a_refuted_parabolic_structure).  The
# last one is polyhedral: theta = diag(x_1, 1 + x_2) on {x_1 >= 0} is not
# PSD where x_2 < -1, so its canonical block is inconsistent
_INADMISSIBLE = {
    "not-in-span": (_QUADRIC_FAILURES["conical-structure"], "NotInSpanError",
                    ("decompose", "simulate")),
    "negative-c": (_quadric_variant(
        "parabola3", {"A0": (-np.array(_PARABOLA3["A0"])).tolist(),
                      "A": (-np.array(_PARABOLA3["A"])).tolist()}),
        "NegativeCError", ("decompose", "simulate")),
    # theta_11 = 1 + 4 x_1 is no multiple of zeta: the fit residual is 1
    "broken-structure": (_quadric_variant(
        "parabola3", {"A0": np.diag([1.0, 1.0, 1.0]).tolist()}),
        "NotAdmissibleError", ("decompose", "simulate")),
    "mixed-signature": (_quadric_variant(
        "parabola3", A=np.diag([1.0, -1.0, 0.0]).tolist(), b=[0.0, 0.0, 1.0],
        c=0.0), "NotAdmissibleQuadricError",
        ("validate", "classify", "decompose", "simulate")),
    "zero-quadratic-part": (_quadric_variant(
        "parabola3", A=np.zeros((3, 3)).tolist()), "ZeroQuadraticPartError",
        ("validate", "classify", "decompose", "simulate")),
    "theta-leaves-psd-cone": (_polyhedral_dict(
        [1.0, 0.0], np.diag([0.0, 1.0]).tolist(),
        [np.diag([1.0, 0.0]).tolist(), np.diag([0.0, 1.0]).tolist()],
        [[1.0, 0.0]], [0.0]), "ModelInconsistencyError",
        ("validate", "canonicalize", "simulate")),
    # {x >= 1, x <= 0}: validate reports its failed interior-nonempty check
    "empty-polyhedron": (_polyhedral_dict(
        [0.0], [[0.0]], [[[0.0]]], [[1.0], [-1.0]], [-1.0, 0.0]),
        "InteriorEmptyError", ("canonicalize", "decompose", "simulate")),
}


@pytest.mark.parametrize("model,command", [
    (model, command) for model, (_, _, commands) in _INADMISSIBLE.items()
    for command in commands])
def test_inadmissible_quadric_models_exit_1(tmp_path, capsys, model, command):
    obj, error, _ = _INADMISSIBLE[model]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code = main([command, str(path), "--paths", "10", "--steps", "10"]
                if command == "simulate" else [command, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("model,margin", [("broken-structure", -1.0),
                                          ("negative-c", -1.0)])
def test_validate_reports_a_refuted_parabolic_structure(tmp_path, capsys,
                                                        model, margin):
    # the fit's negated residual, or its negative c, is the failed check's
    # margin
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_INADMISSIBLE[model][0]))
    code, rep = _run(capsys, "validate", str(path))
    assert code == 1 and not rep["passed"]
    assert [(c["name"], c["passed"]) for c in rep["checks"]] == [
        ("quadric-admissible-kind", True), ("parabolic-structure", False)]
    assert rep["checks"][-1]["margin"] == pytest.approx(margin)


@pytest.mark.parametrize("command,obj,detail", [
    ("canonicalize", json.loads(fixture_path("parabola3").read_text()),
     "applies to polyhedral"),
    ("classify", json.loads(fixture_path("cir").read_text()),
     "applies to quadratic"),
    ("decompose", _QUADRIC_FAILURES["quadric-admissible-kind"],
     "ellipsoid-type quadrics carry no affine diffusion"),
    ("simulate", _QUADRIC_FAILURES["quadric-admissible-kind"],
     "ellipsoid-type quadrics carry no affine diffusion"),
    ("simulate", _QUADRIC_FAILURES["state-space-side"],
     "the state space is the outside of the quadric"),
    ("simulate", _QUADRIC_FAILURES["cone-zeta-form"],
     "the conical closed forms need theta = zeta"),
], ids=["canonicalize-quadric", "classify-polyhedron", "decompose-ellipsoid",
        "simulate-ellipsoid", "simulate-outside", "simulate-unnormalized-cone"])
def test_commands_outside_their_domain_exit_1(tmp_path, capsys, command, obj,
                                              detail):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code = main([command, str(path), "--paths", "10", "--steps", "10"]
                if command == "simulate" else [command, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert detail in json.loads(captured.err)["detail"]


@pytest.mark.parametrize("scheme", ["full-truncation", "plain"])
def test_simulate_refuses_a_hyperboloid(tmp_path, capsys, scheme):
    # {x_1^2 - |y|^2 + 1 >= 0} with theta = zeta: the cone's root is no
    # root on a hyperboloid, which has no normalized frame
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_quadric_variant("cone3", c=1.0)))
    code = main(["simulate", str(path), "--paths", "10", "--steps", "10",
                 "--scheme", scheme])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err)["error"] == "NotAdmissibleQuadricError"


# the exit code of cli.main for every AffinvarError class in errors.py:
# 1 for a model that fails a check or lies outside a command's domain,
# 2 for unreadable input, 3 for an internal failure
_EXIT_CODES = {
    "AffinvarError": 3, "DimensionMismatchError": 3, "NotSymmetricError": 3,
    "ParseError": 2, "NotAdmissibleError": 1, "RankDeficiencyError": 3,
    "ModelInconsistencyError": 1, "NotRepresentableError": 1,
    "NumericalFailureError": 3, "NotInSpanError": 1, "NotNormalizedError": 3,
    "NegativeCError": 1, "PreconditionFailedError": 1,
    "InteriorEmptyError": 1, "ZeroQuadraticPartError": 1,
    "NotAdmissibleQuadricError": 1, "SigmaMismatchError": 3,
}


def test_every_error_class_has_a_pinned_exit_code(monkeypatch, capsys):
    # a new error class fails here until it is given its code on purpose
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.AffinvarError)}
    assert set(classes) == set(_EXIT_CODES)
    for name, cls in classes.items():
        exc = cls("raised by the handler")

        def handler(args, exc=exc):
            raise exc

        monkeypatch.setattr(affinvar.cli, "_report", handler)
        code = main(["validate", str(fixture_path("cir"))])
        err = json.loads(capsys.readouterr().err)
        assert code == _EXIT_CODES[name], name
        assert err["error"] == ("parse" if code == 2 else name)


def test_validate_empty_polyhedron(tmp_path, capsys):
    # {x >= 1} and {x <= 0}: nothing else is checked
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_polyhedral_dict(
        [0.0], [[0.0]], [[[0.0]]], [[1.0], [-1.0]], [-1.0, 0.0])))
    code, rep = _run(capsys, "validate", str(path))
    assert code == 1 and not rep["passed"]
    assert rep["checks"] == [{"name": "interior-nonempty", "passed": False,
                              "info": "empty interior"}]


def test_validate_reports_a_square_root_facet_with_zero_multiple(tmp_path,
                                                                 capsys):
    # gamma_1 theta(x) = x_1 (0, 1): a square-root facet whose multiple
    # c_1 = B_1 . gamma_1 is 0.  Admissibility and the canonical transform
    # read one rule, so the facet fails in the report, and no transform
    # raises after it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_polyhedral_dict(
        [1.0, 0.0], np.diag([0.0, 1.0]).tolist(),
        [[[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)).tolist()], [[1.0, 0.0]],
        [0.0])))
    code, rep = _run(capsys, "validate", str(path))
    assert code == 1 and not rep["passed"]
    (check,) = [c for c in rep["checks"] if c["name"] == "facet-0-diffusion"]
    # no margin: c_1 = 0 fails the strict condition c_1 > 0
    assert not check["passed"] and "margin" not in check
    assert check["info"] == "nonpositive diffusion multiple on square-root facet"
    assert "canonical" not in rep


def test_parabolic_open_invariance_needs_the_closed_conditions(tmp_path,
                                                               capsys):
    # b_1 = 5 clears the open bound, but a_Q1 = 0.7 breaks the drift
    # structure: validate and the library give the same open verdict
    obj = json.loads(fixture_path("parabola3").read_text())
    obj["drift"]["a"][1][0] = 0.7
    obj["drift"]["b"][0] = 5.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, rep = _run(capsys, "validate", str(path))
    assert code == 1
    (check,) = [c for c in rep["checks"]
                if c["name"] == "parabolic-drift-structure"]
    assert not check["passed"]
    assert rep["open_invariance"] == {"passed": False,
                                      "margin": pytest.approx(1.0)}
    assert not check_open_invariance_general(load_model(path)).passed


def test_out_writes_the_stdout_bytes(tmp_path, capsys):
    model = str(fixture_path("cir"))
    assert main(["validate", model]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["validate", model, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout


def test_simulate_parabola_off_the_normal_frame(tmp_path, capsys):
    # the normalized model [[zeta, 0], [0, 1]] on {z_1 >= z_2^2} seen through
    # the inverse of the normalization S for c = 2 and A1 = (0.3, -0.5)^T
    c, A1 = 2.0, np.array([[0.3], [-0.5]])
    A = np.zeros((3, 3, 3))
    A[0][0, 0], A[1][0, 1], A[1][1, 0] = 4.0, 2.0, 2.0
    space = QuadraticSpace(QuadraticForm(np.diag([0.0, -1.0, 0.0]),
                                         np.eye(3)[0], 0.0))
    normal = ModelSpec(3, AffineVectorField(
        np.array([[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.2, 0.0, -1.0]]),
        np.array([2.0, 0.0, 0.5])),
        AffineMatrixField(np.diag([0.0, 1.0, 1.0]), A), space)
    S = np.diag([1.0 / c, 1.0 / np.sqrt(c), 1.0])
    S[2, :2] = -A1[:, 0] / c
    model = change_model_coordinates(normal, np.linalg.inv(S), np.zeros(3),
                                     space)
    path = tmp_path / "model.json"
    save_model(model, path)
    code, rep = _run(capsys, "decompose", str(path))
    assert code == 0
    assert rep["decomposition"]["c"] == pytest.approx(c)
    assert np.allclose(rep["decomposition"]["A1"], A1)
    assert _run(capsys, "validate", str(path))[0] == 0
    paths = 4000
    code, rep = _run(capsys, "simulate", str(path), "--t", "0.5", "--steps",
                     "200", "--paths", str(paths), "--seed", "5")
    assert code == 0
    sim = rep["simulation"]
    assert model.state_space.contains(np.array(sim["x0"]))
    gap = np.abs(np.subtract(sim["final_mean"], sim["mean_ode_final"]))
    assert np.all(gap <= 4 * np.array(sim["final_std"]) / np.sqrt(paths))


# np.linalg.inv calls per command: one per map, the normalized parabola's
# composite S T inverted only by simulate, which maps the paths back
INVERSIONS = {"parabola3": {"validate": 2, "simulate": 3, "decompose": 1,
                            "classify": 1},
              "cone3": {"validate": 1, "simulate": 1, "decompose": 1,
                        "classify": 1},
              "triangle_channel": {"validate": 1, "simulate": 1,
                                   "canonicalize": 1, "decompose": 0}}


@pytest.mark.parametrize("command,fits,congruences", [
    ("validate", 2, 2), ("simulate", 2, 2), ("decompose", 1, 1),
    ("classify", 0, 0)])
def test_parabolic_frame_built_once(capsys, frame_calls, command, fits,
                                    congruences):
    # one congruence and one fit give the canonical frame and its structure;
    # validate and simulate add one of each for the normalized frame
    extra = ["--paths", "10", "--steps", "5"] if command == "simulate" else []
    assert main([command, str(fixture_path("parabola3")), *extra]) == 0
    capsys.readouterr()
    assert frame_calls == {"fits": fits, "congruences": congruences,
                           "inversions": INVERSIONS["parabola3"][command]}


@pytest.mark.parametrize("command,congruences", [
    ("validate", 1), ("simulate", 1), ("decompose", 1), ("classify", 0)])
def test_conical_frame_built_once(capsys, frame_calls, command, congruences):
    # theta = zeta already: the canonical frame is the normalized one
    extra = ["--paths", "10", "--steps", "5"] if command == "simulate" else []
    assert main([command, str(fixture_path("cone3")), *extra]) == 0
    capsys.readouterr()
    assert frame_calls == {"fits": 0, "congruences": congruences,
                           "inversions": INVERSIONS["cone3"][command]}


@pytest.mark.parametrize("command,congruences", [
    ("validate", 1), ("canonicalize", 1), ("simulate", 1), ("decompose", 0)])
def test_polyhedral_map_inverted_once(capsys, frame_calls, command,
                                      congruences):
    # the canonical transform's one map serves the congruence of theta, the
    # drift, the image polyhedron and the paths mapped back; the congruence
    # is computed once, in the canonical model that Psi is read off
    extra = ["--paths", "10", "--steps", "5"] if command == "simulate" else []
    assert main([command, str(fixture_path("triangle_channel")), *extra]) in \
        (0, 1)
    capsys.readouterr()
    assert frame_calls == {"fits": 0, "congruences": congruences,
                           "inversions": INVERSIONS["triangle_channel"][command]}


def test_decompose_refuses_a_hyperboloid(tmp_path, capsys):
    # theta = zeta still fits the conical basis on {x_1^2 - |y|^2 + 1 >= 0},
    # but a hyperboloid bounds no diffusion: decompose fails it as validate
    # and simulate do
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_quadric_variant("cone3", c=1.0)))
    assert _run(capsys, "validate", str(path))[0] == 1
    assert main(["decompose", str(path)]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert json.loads(captured.err)["error"] == "NotAdmissibleQuadricError"


def test_tol_flag(capsys, monkeypatch):
    seen = []
    run = affinvar.cli._report

    def spy(args):
        seen.append(TOL.feasibility)
        return run(args)

    monkeypatch.setattr(affinvar.cli, "_report", spy)
    code, _ = _run(capsys, "validate", str(fixture_path("cir")),
                   "--tol", "1e-7")
    assert code == 0
    # in effect during the call, and gone once main returns
    assert seen == [pytest.approx(1e-7)]
    assert current() == Tolerances()


def test_tol_scoped_per_thread(capsys, monkeypatch):
    # both threads are inside their --tol call when either reads TOL, and
    # neither has returned before the other has read
    barrier = threading.Barrier(2, timeout=60)
    seen, after = {}, {}
    run = affinvar.cli._report

    def spy(args):
        barrier.wait()
        seen[args.tol] = TOL.feasibility
        barrier.wait()
        return run(args)

    def call(tol):
        after[tol] = (main(["validate", str(fixture_path("cir")),
                            "--tol", str(tol)]), current())

    monkeypatch.setattr(affinvar.cli, "_report", spy)
    threads = [threading.Thread(target=call, args=(tol,))
               for tol in (1e-6, 1e-7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    capsys.readouterr()
    assert seen == {1e-6: pytest.approx(1e-6), 1e-7: pytest.approx(1e-7)}
    assert after == {tol: (0, Tolerances()) for tol in (1e-6, 1e-7)}
