"""The package surface: lazily resolved public names, the modules each kind
of command loads at start-up, and the compile cost of the brute-force module."""

import json
import os
import subprocess
import sys
import tokenize
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
    assert compolab.stats.BRUTE_FORCE_CAP is compolab.BRUTE_FORCE_CAP


def test_brute_statistics_resolve_on_the_package_and_on_enumeration():
    # The statistics moved to `stats`; both of their earlier paths still
    # reach the moved functions.
    from compolab import enumeration, stats

    for name in ("minimax_count_brute", "kj_count_brute"):
        assert getattr(compolab, name) is getattr(stats, name), name
        assert getattr(enumeration, name) is getattr(stats, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from compolab import *", namespace)
    assert set(compolab.__all__) <= set(namespace)
    assert namespace["set_partitions"] is compolab.enumeration.set_partitions


def test_unknown_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        compolab.no_such_name


# What a fresh process holds of the watched modules after importing the CLI,
# and after running one command.  Runs without site, whose start-up files could
# load any of these on their own.
_LOADED = """
import json, sys
from compolab.cli import main
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit:  # help or a usage error
        pass
print(json.dumps(sorted(%r & set(sys.modules))))
"""

_HEAVY = {"argparse", "gettext", "multiprocessing", "dataclasses", "pathlib", "typing"} | {
    f"compolab.{name}" for name in ("bijection", "closedform", "enumeration", "graphs", "listing",
                                    "numtheory", "partitions", "reading", "stats", "suites",
                                    "tables", "usage", "walker")
}


def _loaded(*argv: str) -> tuple[list[str], set[str]]:
    """What a fresh process running ``compolab ARGV`` prints, and the watched
    modules it holds at the end."""
    env = dict(os.environ, PYTHONPATH=str(Path(compolab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", _LOADED % (_HEAVY,), *argv],
                          env=env, capture_output=True, text=True, check=True)
    *printed, loaded = done.stdout.splitlines()
    return printed, {name.removeprefix("compolab.") for name in json.loads(loaded)}


def test_commands_import_only_the_modules_they_run(tmp_path):
    graph = tmp_path / "k3.graph"
    graph.write_text("n 3\n1 2\n2 3\n1 3\n")
    reference = tmp_path / "rowsum.b"
    reference.write_text("# row sums\n0 1\n1 2\n2 5\n3 15\n")
    brute = ["--method", "brute"]
    # A brute-force count builds no Partition, so no command below loads the
    # object layer; a brute statistic loads neither the connectivity table
    # (`enumeration`) nor graph code; only a file's reader loads `reading`;
    # and --workers at the CPU count is accepted and still counts in one process.
    walk = {"walker"}
    expected = [
        ((), [], set()),
        (("value", "bell", "-n", "5"), ["52"], {"numtheory"}),
        (("value", "comp", "-n", "5", "-m", "2"), ["47"], {"closedform", "numtheory"}),
        (("value", "minimax", "-n", "5", "-m", "2", *brute), ["15"], walk | {"stats"}),
        (("value", "kj", "-n", "5", "-m", "3", "-j", "2"), ["11"], walk | {"stats"}),
        (("value", "comp", "-n", "5", "-m", "2", *brute), ["47"],
         walk | {"enumeration", "graphs"}),
        (("value", "comp", "-n", "5", "-m", "2", *brute, "--workers", str(os.cpu_count() or 1)),
         ["47"], walk | {"enumeration", "graphs"}),
        (("enumerate", str(graph)), ["{1,2,3}", "{1,2}|{3}", "{1,3}|{2}", "{1}|{2,3}",
                                     "{1}|{2}|{3}"],
         walk | {"enumeration", "graphs", "listing", "reading"}),
    ]
    for argv, printed, modules in expected:
        assert _loaded(*argv) == (printed, modules), argv

    # The commands that compute many cells live in `tables` (table, bfile)
    # and `suites` (verify), and every cell reads its closed form, which
    # loads `numtheory` only for a number table; each row gives the last
    # line printed.
    table, suite = {"tables", "closedform"}, {"suites", "closedform"}
    expected = [
        (("table", "comp", "--max-n", "5"), "  5 |  52  52  47  35  16   1",
         table | {"numtheory"}),
        (("verify", "rowsum", "--n-max", "3"), "rowsum: 4/4 identities hold",
         suite | {"numtheory"}),
        (("bfile", "rowsum", "--range", "0..3"), "3 15", table),
        # A reference is split by the code graph files use, yet loads no graph code.
        (("bfile", "rowsum", "--range", "0..3", "--compare", str(reference)), "3 15",
         table | {"reading"}),
        (("table", "k1", "--max-n", "5", *brute), "  5 |  11  15  10   7   5   4",
         table | walk | {"stats"}),
        (("verify", "k1", "--n-max", "3"), "k1: 9/9 identities hold",
         suite | walk | {"numtheory", "stats"}),
        (("verify", "reflection", "--n-max", "3"), "reflection: 6/6 identities hold",
         suite | walk | {"numtheory", "stats"}),
        (("table", "comp", "--max-n", "5", *brute), "  5 |  52  52  47  35  16   1",
         table | walk | {"enumeration", "graphs"}),
        (("verify", "threeway", "--n-max", "3"), "threeway: 10/10 identities hold",
         suite | walk | {"numtheory", "enumeration", "graphs"}),
        # The recursion alone reads no number table.
        (("verify", "bijection", "--n-max", "3"), "bijection: 10/10 identities hold",
         suite | walk | {"enumeration", "graphs", "bijection"}),
    ]
    for argv, last, modules in expected:
        printed, loaded = _loaded(*argv)
        assert (printed[-1], loaded) == (last, modules), argv

    # argparse renders help and usage errors, and only those load it.
    usage = {"argparse", "gettext", "usage"}
    assert _loaded("-h")[1] == usage
    assert _loaded("value", "comp", "-n", "5", "--method", "nope") == ([], usage)


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


def test_modules_compile_below_the_token_step():
    # A job run with PYTHONDONTWRITEBYTECODE=1 compiles each module it loads
    # afresh: every job compiles cli.py, and the compile of the largest
    # module a job loads (graphs, cli, closedform, tables, stats, bijection)
    # sets its peak RSS.  CPython 3.11's compile() allocates about 110-120 KiB
    # more once a module passes 2,048 parser tokens, more than the benchmark's
    # 0.1 MB bound on peak_rss_mb.  Tokens are counted without comments, blank
    # lines and line breaks inside brackets.
    paths = sorted(Path(compolab.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} >= {"cli", "enumeration", "graphs", "numtheory"}
    for path in paths:
        with tokenize.open(path) as source:
            count = sum(token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                        for token in tokenize.generate_tokens(source.readline))
        assert count <= 2048, (
            f"{path.name} has {count} tokens, past the 2,048 at which compiling it "
            "costs about 0.11 MB more"
        )
