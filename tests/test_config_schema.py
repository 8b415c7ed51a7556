"""The config table, `cli.FIELDS`, against every malformed value and every command.

A reference config holds every optional block.  Each case sets one table path to one of
NaN, +-Inf, -1, 0, 2.5, true, "x", [], {}, null and 1e308, or adds an unknown key to one
block.  `cli.parse_config` must raise a ConfigParse that names the path as malformed
exactly when the value is outside the path's kind, and one that names the unknown key;
`cli.main` must end every command in exit 0, 2, 3 or 4 and never raise.  The kinds are
decided here from their names alone, not by the converters under test.  In the main runs
numpy's warnings do not raise, as in a command line run (which prints them): the extreme
values that stay in kind (tf = 1e308, a gamma range up to 1e308) overflow, and must still
end in a typed exit.  README's config section documents the table: both list the same
fields.
"""
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from choreoqep import cli

from conftest import make_reference_spec

BAD = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, "x", [], {}, None, 1e308]
BLOCKS = [""] + [path for path, (kind, _) in cli.FIELDS.items() if kind == "object"]
COMMANDS = [["validate"], ["spectrum", "--which", "del"], ["solve"], ["solve", "--which", "del"],
            ["error-surface"], ["error-surface", "--grid", "k"], ["converge"], ["choreo"]]


def reference() -> dict:
    spec, zeros = make_reference_spec(), np.zeros
    return {"d": 2, "n": 3, **{k: getattr(spec, k).tolist() for k in ("J1", "J2", "J3", "J4")},
            "J5": zeros((2, 2)).tolist(), "J6": [0.0, 0.0], "J7": [0.0, 0.0],
            "time": {"t0": 0.0, "tf": 1.0, "M": 20},
            "operator": {"N": 1, "gamma": [-0.5, 0.0, 0.5]},
            "targets": {"omega": [2.0, 5.0], "tol": 1e-6, "j4_free": 25.0, "discrete": False},
            "boundary": {"x_t0": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]],
                         "x_tf": [[-0.1, 0.4], [0.6, -0.3], [0.2, 0.1]],
                         "head": zeros((3, 2, 2)).tolist(), "tail": zeros((3, 2, 2)).tolist()},
            "amplitudes": {"xs": [1.0, 0.0, 0.0, 1.0], "particles": zeros((2, 4)).tolist(),
                           "random": False, "scale": 1.0},
            "choreo": {"which": ["cel"], "amplitudes": [1.0, 0.0, 0.0, 1.0]},
            "sweep": {"epsilons": [0.1, 0.05], "nu": 0.0,
                      "gamma_grid": {"min": -1.0, "max": 1.0, "points": 2},
                      "k_grid": {"ks": [0.0], "Ms": [20]}}}


def corrupted(path: str, value) -> dict:
    """The reference config with the field at the dotted path set to value."""
    raw = reference()
    *blocks, key = path.split(".")
    block = raw
    for name in blocks:
        block = block[name]
    block[key] = value
    return raw


CASES = [(path, value) for path in cli.FIELDS for value in BAD] + [
    (f"{block}.extra" if block else "extra", 0) for block in BLOCKS]


def in_kind(kind: str, value) -> bool:
    """Whether value is of kind.  No bad value is an integer >= 1, a non-empty list, one of
    a choice's names or an array of a shape; a complex value of any shape is an array of
    finite numbers, [] among them."""
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    return {"finite": number, "positive": number and value > 0,
            "bool": isinstance(value, bool), "object": isinstance(value, dict),
            "complex": number or value == []}.get(kind, False)


def expected_error(path: str, value) -> str | None:
    """The start of the ConfigParse that names the case's path, None when none must."""
    if path not in cli.FIELDS:
        return f"unknown field {path}"
    return None if in_kind(cli.FIELDS[path][0], value) else f"malformed {path}:"


def parse_error(raw: dict) -> str | None:
    try:
        cli.parse_config(raw)
    except cli.ConfigParse as exc:
        return str(exc)
    return None


def test_the_reference_config_parses_and_every_kind_is_judged():
    assert parse_error(reference()) is None
    assert {kind for kind, _ in cli.FIELDS.values()} == {
        "count", "finite", "positive", "bool", "object", "complex", "counts", "finites",
        "positives", "settings", "family", "matrix", "vector", "complex (2N + 1)"}


def test_parse_config_names_a_path_exactly_when_its_value_is_malformed():
    wrong = []
    for path, value in CASES:
        error, want = parse_error(corrupted(path, value)), expected_error(path, value)
        named = error is not None and error.startswith(f"malformed {path}:")
        if (want is None and named) or (want is not None and not (error or "").startswith(want)):
            wrong.append((path, value, error))
    assert wrong == []


def run_main(raw: dict, argv: list) -> tuple[int, str]:
    """cli.main's exit code and standard error on the config raw, numpy's warnings ignored."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(raw))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main([*argv, "--config", f"{tmp}/config.json", "--out", f"{tmp}/out"])
    return code, err.getvalue()


def test_every_command_runs_the_reference_config():
    assert [run_main(reference(), argv)[0] for argv in COMMANDS] == [cli.EXIT_OK] * len(COMMANDS)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.sampled_from(CASES), st.sampled_from([  # as often a value in kind,
    case for case in CASES if expected_error(*case) is None])), st.sampled_from(COMMANDS))
def test_no_command_ends_in_a_traceback(case, argv):  # which the command then runs with
    path, value = case
    code, err = run_main(corrupted(*case), argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ASSUMPTION, cli.EXIT_NUMERICAL)
    if expected_error(path, value) is not None:
        assert code == cli.EXIT_CONFIG and f"config error: {expected_error(path, value)}" in err


def config_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("\n## The config\n")[1].split("\n## ")[0]


def test_the_readme_documents_every_field_of_the_table_and_no_other():
    """Every path has its row in the section's table, and every dotted name in its text
    whose first part is a block of the table is a field (or a complex field's _re or _im)."""
    section = config_section()
    rows = re.findall(r"^\| `([\w.]+)` \|", section, flags=re.M)
    assert sorted(rows) == sorted(cli.FIELDS)
    parts = {f"{path}{part}" for path, (kind, _) in cli.FIELDS.items()
             if kind.startswith("complex") for part in ("_re", "_im")}
    named = {name for name in re.findall(r"`([A-Za-z]\w*(?:\.\w+)+)`", section)
             if name.split(".")[0] in BLOCKS}
    assert named - set(cli.FIELDS) - parts == set()
