"""Every failure of the package is one of three kinds, by type.

The paper's solvers fail in two ways: a standing assumption on the roots of the
classical or transcendental pencil fails (`pencil.AssumptionViolation`), or the numerics
do (`numkernel.NumericalFailure`).  The CLI adds a third, a config it cannot read
(`cli.ConfigParse`).  Walking the package's modules finds every exception class it
defines; each is one of the three kinds, and `cli.main` turns each into its exit code and
one stderr line, with no table of classes to keep in step.
"""
import importlib
import inspect
import pkgutil

import pytest

import choreoqep
from choreoqep import cli, numkernel, pencil

from conftest import make_reference_spec
from test_cli import write_config

BASES = (pencil.AssumptionViolation, numkernel.NumericalFailure)
KINDS = {cli.ConfigParse: (cli.EXIT_CONFIG, "config error: "),
         pencil.AssumptionViolation: (cli.EXIT_ASSUMPTION, "assumption violation: "),
         numkernel.NumericalFailure: (cli.EXIT_NUMERICAL, "numerical failure: ")}


def defined_exceptions() -> list:
    """Every exception class a module of the package defines, found by walking them."""
    found = []
    for info in pkgutil.iter_modules(choreoqep.__path__, "choreoqep."):
        module = importlib.import_module(info.name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


EXCEPTIONS = defined_exceptions()


def kind(cls) -> type:
    """The one kind cls belongs to; fails when it has none or two."""
    if cls is cli.ConfigParse:
        return cls
    bases = [base for base in BASES if issubclass(cls, base)]
    assert len(bases) == 1, (cls, bases)
    return bases[0]


def test_the_walk_finds_the_package_s_exceptions():
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in EXCEPTIONS}
    assert {"choreoqep.cli.ConfigParse", "choreoqep.pencil.AssumptionViolation",
            "choreoqep.numkernel.NumericalFailure", "choreoqep.periodic.DelayResonant",
            "choreoqep.scaleop.OutOfRange"} <= names


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__qualname__)
def test_every_exception_is_one_kind(cls):
    assert kind(cls) in KINDS


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__qualname__)
def test_main_maps_each_exception_to_its_kind_s_exit_and_one_line(
        cls, tmp_path, monkeypatch, capsys):
    def fail(cfg, args, out_dir):
        raise cls("probe reason")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    config = write_config(tmp_path, make_reference_spec())
    code = cli.main(["validate", "--config", config, "--out", str(tmp_path / "out")])
    exit_code, prefix = KINDS[kind(cls)]
    err = capsys.readouterr().err
    assert code == exit_code and err == f"{prefix}probe reason\n"
