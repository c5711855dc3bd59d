"""Report schema 1, written down in ``report_schema_1.json``: every report
and every error object that the CLI prints validates against it, and a
misspelled key does not."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from affinvar.cli import main
from affinvar.modelio import fixture_path

SCHEMA = json.loads((Path(__file__).parent / "report_schema_1.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _problems(obj) -> list[str]:
    return [error.message for error in VALIDATOR.iter_errors(obj)]


def test_the_schema_is_a_json_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_every_printed_object_is_schema_1(cli_digest_runs, capsys):
    # the digest list runs validate, canonicalize, decompose and classify on
    # every fixture and simulate on all but hyperbola_wedge, added here, and
    # every command on each edge model
    runs = [(label, out, err) for label, _, _, out, err in cli_digest_runs]
    main(["simulate", str(fixture_path("hyperbola_wedge")), "--paths", "10",
          "--steps", "10"])
    captured = capsys.readouterr()
    runs.append(("simulate hyperbola_wedge", captured.out, captured.err))
    printed = 0
    for label, out, err in runs:
        for text in (out, err):
            if text.strip():
                assert _problems(json.loads(text)) == [], label
                printed += 1
    assert printed == len(runs)


@pytest.fixture(scope="module")
def cir_report():
    import affinvar
    return affinvar.validate(affinvar.load_fixture("cir")).to_dict()


@pytest.mark.parametrize("key", ["name", "passed", "margin", "certificate"])
def test_a_misspelled_check_key_fails(cir_report, key):
    report = copy.deepcopy(cir_report)
    assert _problems(report) == []
    check = next(c for c in report["checks"] if key in c)
    check[key[:-1] + key[-1] * 2] = check.pop(key)   # "margin" -> "marginn"
    assert _problems(report) != []


def test_a_misspelled_check_name_fails(cir_report):
    report = copy.deepcopy(cir_report)
    report["checks"][0]["name"] = "interior-non-empty"
    assert _problems(report) != []
