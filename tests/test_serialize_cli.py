"""JSON schema round-trips, CLI subcommands, exit codes, schema validation."""

import json
import math
from fractions import Fraction

import pytest

from folnerlab import (MatrixOverPol, SchemaError, algebra_for, dump_element,
                       element_to_json, load_element, parse_element)
from folnerlab.cli import main
from folnerlab.serialize import element_from_json

from conftest import SCHEMA_DIR, schema_registry, schema_validator

AZ = algebra_for("group:Z")
AHEIS = algebra_for("group:heisenberg")
AS3 = algebra_for("finite:S3")


# ---------------------------------------------------------------------------
# element / matrix serialization

def test_one_minus_g_element_schema():
    obj = {"algebra": "group:Z", "mode": "exact",
           "terms": [{"irrep": 0, "row": 1, "col": 1, "re": "1", "im": "0"},
                     {"irrep": 1, "row": 1, "col": 1, "re": "-1", "im": "0"}]}
    a = parse_element(obj)
    assert a == AZ.group_element({0: 1, 1: -1})


def test_empty_terms_is_zero():
    assert parse_element({"algebra": "group:Z", "mode": "exact", "terms": []}).is_zero()


def test_row_out_of_range_rejected():
    obj = {"algebra": "finite:S3", "mode": "float",
           "terms": [{"irrep": "sgn", "row": 2, "col": 1, "re": 1.0, "im": 0.0}]}
    with pytest.raises(SchemaError):
        parse_element(obj)


def test_mode_must_match_provider():
    obj = {"algebra": "group:Z", "mode": "float",
           "terms": [{"irrep": 0, "row": 1, "col": 1, "re": 1.0, "im": 0.0}]}
    with pytest.raises(SchemaError):
        parse_element(obj)
    obj = {"algebra": "su2", "mode": "exact",
           "terms": [{"irrep": 0, "row": 1, "col": 1, "re": "1", "im": "0"}]}
    with pytest.raises(SchemaError):
        parse_element(obj)


def test_float_coefficient_string_rejected_and_vice_versa():
    with pytest.raises(SchemaError):
        parse_element({"algebra": "su2", "mode": "float",
                       "terms": [{"irrep": 0, "row": 1, "col": 1,
                                  "re": "1", "im": 0.0}]})
    with pytest.raises(SchemaError):
        parse_element({"algebra": "group:Z", "mode": "exact",
                       "terms": [{"irrep": 0, "row": 1, "col": 1,
                                  "re": 1.0, "im": "0"}]})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10 ** 400, None, [1], True],
                         ids=["inf", "-inf", "nan", "huge-int", "null", "list", "true"])
def test_float_coefficient_must_be_a_finite_number(bad):
    # the schema's "number" is finite and excludes booleans; the rest is not
    # a number at all
    term = {"irrep": 0, "row": 1, "col": 1, "re": 1.0, "im": 0.0}
    for part in ("re", "im"):
        with pytest.raises(SchemaError):
            parse_element({"algebra": "su2", "mode": "float",
                           "terms": [{**term, part: bad}]})


@pytest.mark.parametrize("shape", [{"entries": 5}, {"entries": None}, {"n": 1.0},
                                   {"n": True}, {"n": "1"}],
                         ids=["entries-int", "entries-null", "n-float", "n-true", "n-str"])
def test_malformed_matrix_shape_is_schema_error(shape):
    obj = {"algebra": "group:Z", "mode": "exact", "n": 1,
           "entries": [[element_to_json(AZ.one())]], **shape}
    with pytest.raises(SchemaError):
        parse_element(obj)


def test_exact_byte_roundtrip(rng):
    from conftest import random_element

    for algebra, pool in ((AZ, range(-3, 4)),
                          (AHEIS, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, -2)])):
        for _ in range(6):
            a = random_element(algebra, rng, list(pool))
            text = dump_element(a)
            b = load_element(text)
            assert b == a
            assert dump_element(b) == text


def test_matrix_roundtrip():
    a = AZ.group_element({0: Fraction(1, 2), 1: Fraction(-3, 7)})
    b = AZ.group_element({-2: (Fraction(1), Fraction(2, 5))})
    T = MatrixOverPol(AZ, [[a, b], [AZ.zero(), AZ.one()]])
    text = dump_element(T)
    T2 = load_element(text)
    assert isinstance(T2, MatrixOverPol)
    assert T2.n == 2
    assert dump_element(T2) == text
    assert all(T.entries[i][j] == T2.entries[i][j]
               for i in range(2) for j in range(2))


def test_label_forms_per_provider():
    assert element_to_json(AHEIS.group_element({(1, 2, 3): 1}))["terms"][0]["irrep"] == [1, 2, 3]
    assert element_to_json(AS3.basis("std", 2, 1))["terms"][0]["irrep"] == "std"
    assert element_to_json(AZ.group_element({-4: 1}))["terms"][0]["irrep"] == -4


def test_element_matrix_schema_files_validate():
    a = AHEIS.group_element({(1, 0, 0): (Fraction(1, 2), Fraction(3))})
    schema_validator("element").validate(element_to_json(a))
    T = MatrixOverPol(AHEIS, [[a]])
    from folnerlab import matrix_to_json

    schema_validator("matrix").validate(matrix_to_json(T))


# ---------------------------------------------------------------------------
# CLI

def write(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else dump_element(payload))
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def validate(kind, payload):
    schema_validator(kind).validate(payload)


def test_cli_folner_certificate(capsys):
    code, out = run_cli(capsys, ["folner", "--ring", "su2", "--S", "1",
                                 "--epsilon", "1/2", "--max-radius", "64"])
    assert code == 0
    assert out["kind"] == "folner_certificate"
    validate("folner", out)


def test_cli_folner_exhaustion_exit_2(capsys):
    code, out = run_cli(capsys, ["folner", "--ring", "group:Z", "--S", "[1,-1]",
                                 "--epsilon", "1/10", "--max-radius", "3"])
    assert code == 2
    assert out["kind"] == "exhaustion_report"
    validate("folner", out)


def test_cli_rejects_decimal_epsilon(capsys):
    code, _ = run_cli(capsys, ["folner", "--ring", "su2", "--S", "1",
                               "--epsilon", "0.5"])
    assert code == 1


def test_cli_profile_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "prof.csv"
    code, out = run_cli(capsys, ["profile", "--ring", "group:Z", "--S", "[1,-1]",
                                 "--max-radius", "4", "--csv", str(csv_path)])
    assert code == 0
    validate("profile", out)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("radius,")
    assert len(lines) == 6
    # exact integers and a p/q ratio column
    assert lines[2].split(",")[:4] == ["1", "3", "2", "4"]
    assert lines[2].split(",")[4] == "4/3"


def test_cli_kernel_dim_laplacian(capsys, tmp_path):
    lap = AZ.group_element({-1: -1, 0: 2, 1: -1})
    path = write(tmp_path, "lap.json", MatrixOverPol.from_element(lap))
    code, out = run_cli(capsys, ["kernel-dim", "--ring", "group:Z",
                                 "--matrix", path, "--window", "20"])
    assert code == 0
    assert out["lower"] == "0"
    assert out["upper"] == "2/41"  # n |bd|/|F| with bd = {+-20}, |F| = 41
    assert out["window_weight"] == 41
    validate("kernel_dim", out)


def test_cli_zero_divisor_certificate(capsys, tmp_path):
    AXZ = algebra_for("group:ZxZ/2")
    a = AXZ.group_element({(0, 0): 1, (0, 1): -1})
    path = write(tmp_path, "a.json", a)
    code, out = run_cli(capsys, ["zero-divisor", "--element", path,
                                 "--max-radius", "2"])
    assert code == 0
    assert out["kind"] == "zero_divisor_certificate"
    assert out["verified"] is True
    validate("zero_divisor", out)


def test_cli_zero_divisor_not_found_exit_2(capsys, tmp_path):
    a = AZ.group_element({0: 1, 1: -1})
    path = write(tmp_path, "omg.json", a)
    code, out = run_cli(capsys, ["zero-divisor", "--element", path,
                                 "--max-radius", "10"])
    assert code == 2
    assert out["kind"] == "not_found_report"
    validate("zero_divisor", out)


@pytest.mark.parametrize("tag, a, s, max_radius, expected_code, kind", [
    ("group:Z", {0: 2, 1: 1}, {0: 1, 1: -1}, 10, 0, "ore_pair"),
    # s = 1 + h with h of order 2 annihilates 1 - h, so t = 0 is found
    ("group:ZxZ/2", {(1, 0): 1}, {(0, 0): 1, (0, 1): 1}, 4, 0,
     "zero_divisor_certificate"),
    ("group:heisenberg", {(1, 0, 0): 1}, {(0, 1, 0): 1}, 1, 2,
     "exhaustion_report"),
], ids=["pair", "zero_divisor", "exhaustion"])
def test_cli_ore_pair(capsys, tmp_path, tag, a, s, max_radius, expected_code, kind):
    algebra = algebra_for(tag)
    a = write(tmp_path, "a.json", algebra.group_element(a))
    s = write(tmp_path, "s.json", algebra.group_element(s))
    code, out = run_cli(capsys, ["ore-pair", "--a", a, "--s", s,
                                 "--max-radius", str(max_radius)])
    assert code == expected_code
    assert out["kind"] == kind
    if kind == "ore_pair":
        assert out["residual_zero"] is True
    validate("ore_pair", out)


def test_cli_tower(capsys, tmp_path):
    path = write(tmp_path, "omg.json", AZ.group_element({0: 1, 1: -1}))
    code, out = run_cli(capsys, ["tower", "--matrix", path,
                                 "--moduli", "3,9,27,81", "--window", "10"])
    assert code == 0
    assert out["quotient_dims"] == ["1/3", "1/9", "1/27", "1/81"]
    validate("tower", out)


def test_cli_check_axioms(capsys):
    for ring in ("su2", "finite:S3", "group:Z/6"):
        code, out = run_cli(capsys, ["check-axioms", "--ring", ring])
        assert code == 0
        assert out["ok"] is True
        validate("check_axioms", out)
    code, out = run_cli(capsys, ["check-axioms", "--ring", "group:heisenberg",
                                 "--generators", "[[1,0,0],[0,1,0]]",
                                 "--limit", "2"])
    assert code == 0
    validate("check_axioms", out)


def test_cli_error_paths(capsys, tmp_path):
    code, _ = run_cli(capsys, ["folner", "--ring", "group:nope", "--S", "1",
                               "--epsilon", "1/2"])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, ["zero-divisor", "--element", str(bad)])
    assert code == 1
    path = write(tmp_path, "omg.json", AZ.group_element({0: 1, 1: -1}))
    code, _ = run_cli(capsys, ["kernel-dim", "--ring", "finite:S3",
                               "--matrix", path, "--window", "2"])
    assert code == 1  # ring flag contradicts the file's algebra
    # a negative radius budget is an error, not an exhausted search
    for argv in (["folner", "--ring", "su2", "--S", "1", "--epsilon", "1/2",
                  "--max-radius", "-1"],
                 ["profile", "--ring", "su2", "--S", "1", "--max-radius", "-1"],
                 ["zero-divisor", "--element", path, "--max-radius", "-1"],
                 ["ore-pair", "--a", path, "--s", path, "--max-radius", "-2"]):
        code, out = run_cli(capsys, argv)
        assert (code, out) == (1, None)


def test_cli_rejects_boolean_labels(capsys):
    # JSON true is not the integer label 1, so it never reaches a report
    code, out = run_cli(capsys, ["folner", "--ring", "group:Z", "--S", "true",
                                 "--epsilon", "1/2", "--max-radius", "8"])
    assert (code, out) == (1, None)
    with pytest.raises(SchemaError):
        parse_element({"algebra": "group:Z", "mode": "exact",
                       "terms": [{"irrep": True, "row": 1, "col": 1, "re": "1", "im": "0"}]})


def test_boolean_matrix_indices_are_rejected(capsys, tmp_path):
    # JSON true is not the index 1: it never reaches an element or a report
    term = {"irrep": 1, "row": True, "col": 2, "re": 1.0, "im": 0.0}
    obj = {"algebra": "su2", "mode": "float", "terms": [term]}
    with pytest.raises(SchemaError):
        element_from_json(obj)
    with pytest.raises(SchemaError):
        element_from_json({**obj, "terms": [{**term, "row": 1, "col": False}]})
    path = write(tmp_path, "bool.json", json.dumps(obj))
    code, out = run_cli(capsys, ["kernel-dim", "--matrix", path, "--window", "2"])
    assert (code, out) == (1, None)


SU2_TERM = '{"algebra":"su2","mode":"float","terms":[{"irrep":0,"row":1,"col":1,"re":%s,"im":0}]}'
Z_ONE = '{"algebra":"group:Z","mode":"exact","terms":[{"irrep":0,"re":"1","im":"0"}]}'


@pytest.mark.parametrize("text", [
    SU2_TERM % "1e400", SU2_TERM % "-1e400", SU2_TERM % "NaN", SU2_TERM % "Infinity",
    SU2_TERM % "-Infinity", SU2_TERM % "null", SU2_TERM % "[1]", SU2_TERM % "true",
    SU2_TERM.replace('"im":0', '"im":1.5e308') % "1.5e308",
    '{"algebra":"group:Z","mode":"exact","n":1,"entries":5}',
    '{"algebra":"group:Z","mode":"exact","n":1.0,"entries":[[%s]]}' % Z_ONE,
], ids=["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "null", "list", "true",
        "modulus-overflow", "entries-int", "n-float"])
def test_cli_rejects_non_finite_and_malformed_input(capsys, tmp_path, text):
    # Python's json reads 1e400 as inf and takes the NaN and Infinity tokens;
    # none of these reaches a report, and none ends in a traceback
    path = write(tmp_path, "bad.json", text)
    code = main(["kernel-dim", "--matrix", path, "--window", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error:")


def test_cli_deterministic_bytes(capsys, tmp_path):
    path = write(tmp_path, "omg.json", AZ.group_element({0: 1, 1: -1}))
    argv = ["kernel-dim", "--matrix", path, "--window", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_cli_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, ["folner", "--ring", "finite:S3", "--S", '"std"',
                               "--epsilon", "1/10", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "folner_certificate"


# ---------------------------------------------------------------------------
# the schemas themselves


def _subschemas(node):
    """Every JSON object nested in ``node``, ``node`` included."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _subschemas(child)


def test_every_schema_ref_resolves_and_shared_shapes_stay_closed(capsys, tmp_path):
    import jsonschema

    registry = schema_registry()
    refs = 0
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(path.read_text())
        # the metaschema also checks the $defs that no payload reaches
        jsonschema.Draft202012Validator.check_schema(doc)
        resolver = registry.resolver(base_uri=doc["$id"])
        for sub in _subschemas(doc):
            if "$ref" in sub:
                resolver.lookup(sub["$ref"])  # raises on a dangling ref
                refs += 1
    assert refs > 0

    # additionalProperties does not see properties that arrive through a
    # $ref, so a shared shape is closed by its own additionalProperties or
    # by the referring schema's unevaluatedProperties
    zd = write(tmp_path, "zd.json",
               algebra_for("group:ZxZ/2").group_element({(0, 0): 1, (0, 1): -1}))
    omg = write(tmp_path, "omg.json", AZ.group_element({0: 1, 1: -1}))
    runs = {
        "zero_divisor": (["zero-divisor", "--element", zd, "--max-radius", "2"],
                         lambda p: p["a"]["terms"][0]),
        "profile": (["profile", "--ring", "group:Z", "--S", "[1,-1]",
                     "--max-radius", "2"], lambda p: p["rows"][0]),
        "tower": (["tower", "--matrix", omg, "--moduli", "3,9", "--window", "2"],
                  lambda p: p["source_estimate"]),
        # the root extends the shared estimate, which has no nested object
        "kernel_dim": (["kernel-dim", "--matrix", omg, "--window", "2"], None),
    }
    for kind, (argv, inner) in runs.items():
        _, out = run_cli(capsys, argv)
        validator = schema_validator(kind)
        validator.validate(out)
        for target in filter(None, (lambda p: p, inner)):
            payload = json.loads(json.dumps(out))
            target(payload)["unexpected"] = 1
            assert not validator.is_valid(payload), (kind, "extra key accepted")


def test_no_schema_shape_is_written_twice():
    seen = {}
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        for sub in _subschemas(json.loads(path.read_text())):
            text = json.dumps(sub, sort_keys=True)
            if len(text) > 150:
                seen.setdefault(text, []).append(path.name)
    repeated = [names for names in seen.values() if len(names) > 1]
    assert not repeated, f"shape written more than once, in {repeated}"
