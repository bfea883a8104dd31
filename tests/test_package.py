"""The package surface: lazily resolved public names, and the modules each
kind of command loads at start-up."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compolab


def test_every_public_name_resolves_to_its_submodule_object():
    for module, names in compolab._EXPORTS.items():
        submodule = getattr(compolab, module)
        assert submodule.__name__ == f"compolab.{module}"
        for name in names:
            assert getattr(compolab, name) is getattr(submodule, name), name
    assert sorted(compolab.__all__) == sorted(
        name for names in compolab._EXPORTS.values() for name in names
    )
    assert compolab.enumeration.BRUTE_FORCE_CAP is compolab.BRUTE_FORCE_CAP


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from compolab import *", namespace)
    assert set(compolab.__all__) <= set(namespace)
    assert namespace["set_partitions"] is compolab.enumeration.set_partitions


def test_unknown_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        compolab.no_such_name


# What a fresh process holds after importing the CLI and after running a
# closed-form command, then each brute-force statistic and a brute-force
# count, the count again with --workers at the CPU count (accepted, and still
# counted in one process).  Runs without site, whose start-up files could load
# any of these on their own.
_SNAPSHOTS = """
import json, os, sys
from compolab.cli import main
loaded = [set(sys.modules)]
main(["value", "bell", "-n", "5"])
loaded.append(set(sys.modules))
main(["value", "minimax", "-n", "5", "-m", "2", "--method", "brute"])
loaded.append(set(sys.modules))
main(["value", "kj", "-n", "5", "-m", "3", "-j", "2"])
loaded.append(set(sys.modules))
main(["value", "comp", "-n", "5", "-m", "2", "--method", "brute"])
loaded.append(set(sys.modules))
main(["value", "comp", "-n", "5", "-m", "2", "--method", "brute", "--workers", str(os.cpu_count() or 1)])
loaded.append(set(sys.modules))
watched = %r
print(json.dumps([sorted(watched & names) for names in loaded]))
"""

_HEAVY = ("multiprocessing", "dataclasses", "pathlib", "typing", "compolab.enumeration",
          "compolab.graphs", "compolab.bijection")


def test_commands_import_only_the_modules_they_run():
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", _SNAPSHOTS % (set(_HEAVY),)],
                          env=env, capture_output=True, text=True, check=True)
    after_import, after_bell, *after_brute = json.loads(done.stdout.splitlines()[-1])
    assert done.stdout.splitlines()[:5] == ["52", "15", "11", "47", "47"]
    assert after_import == []
    assert after_bell == []
    for loaded in after_brute:
        assert "compolab.enumeration" in loaded
        assert "multiprocessing" not in loaded


# A text-format value and an enumeration, in a fresh process without site.
_TEXT_ONLY = """
import sys
from compolab.cli import main
main(["value", "bell", "-n", "5"])
main(["enumerate", sys.argv[1]])
print("json" in sys.modules)
"""


def test_text_output_leaves_json_unloaded(tmp_path):
    graph = tmp_path / "k3.graph"
    graph.write_text("n 3\n1 2\n2 3\n1 3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", _TEXT_ONLY, str(graph)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["52", "{1,2,3}", "{1,2}|{3}", "{1,3}|{2}",
                                        "{1}|{2,3}", "{1}|{2}|{3}", "False"]
