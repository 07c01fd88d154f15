"""Smoke tests for the experiment scripts: each runs at a small size."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol_scaling(capsys):
    script = load_script("protocol_scaling")
    assert script.main(["--n", "8", "--ell1", "2", "4", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:3]]
    assert [row[0] for row in rows] == ["2", "4"]
    assert "fitted c =" in out


def test_protocol_scaling_rejects_oversized_ell1():
    with pytest.raises(SystemExit):
        load_script("protocol_scaling").main(["--n", "6", "--ell1", "4"])
