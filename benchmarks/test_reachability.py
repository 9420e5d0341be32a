"""The reachability check of ``benchmarks/reachability.py``.

Every function under ``src/`` must be reached by a user path (an example,
a CLI main, a perfbench workload or ``bench_smoke``) or stand on the
script's allow-list with a kind and a reason.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from reachability import ALLOWED, KINDS, Recorder, check, defined_functions

ROOT = Path(__file__).resolve().parent.parent

SYNTHETIC = '''
def used():
    return 1


def unlisted():
    return 2


class Shape:
    def declared(self):
        """Subclasses compute it."""
        raise NotImplementedError

    @property
    def area(self):
        return used()
'''


def test_an_unlisted_unreached_function_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "synthetic_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(SYNTHETIC)
    functions = defined_functions(tmp_path)
    assert sorted(function.name for function in functions) == [
        "synthetic_pkg.shapes.Shape.area",
        "synthetic_pkg.shapes.unlisted",
        "synthetic_pkg.shapes.used",
    ]
    monkeypatch.syspath_prepend(str(tmp_path))
    shapes = importlib.import_module("synthetic_pkg.shapes")
    with Recorder() as recorder:
        assert shapes.Shape().area == 1

    report = check(functions, recorder.seen, {})
    assert [function.name for function in report.unlisted] == ["synthetic_pkg.shapes.unlisted"]

    allowed = {"synthetic_pkg.shapes.unlisted": ("oracle", "a reference the tests compare with")}
    report = check(functions, recorder.seen, allowed)
    assert not report.unlisted and not report.stale
    assert list(report.allowed) == ["synthetic_pkg.shapes.unlisted"]

    stale = {"synthetic_pkg.shapes.used": ("oracle", "reached, so the entry is stale")}
    assert check(functions, recorder.seen, stale).stale == ["synthetic_pkg.shapes.used"]


def test_every_allow_list_entry_has_a_kind_and_a_one_line_reason():
    for name, (kind, reason) in ALLOWED.items():
        assert kind in KINDS, name
        assert reason and "\n" not in reason, name


def test_every_src_function_has_a_user_path_or_an_allow_list_entry():
    pytest.importorskip("scipy", reason="drmt_main --milp is one of the user paths")
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "reachability.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr[-4000:]
