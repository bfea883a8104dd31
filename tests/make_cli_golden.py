"""Rebuild ``tests/cli_golden.json``, the golden outputs of the command line.

    PYTHONPATH=src python tests/make_cli_golden.py

Each case is a literal argv and what ``compolab.cli.main`` makes of it in
process: the exit code, the sha256 of stdout and the first line of stderr.
An argv names its input files ``{tmp}/NAME``, and the corpus holds each
file's bytes (as latin-1 text), so a replay writes them into a fresh
directory and reads that directory's path back as ``{tmp}`` in the output.
``{workers}`` stands for the benchmark's worker count, ``min(2, CPUs)``.

The cases are every ``cli`` job of the three benchmark workloads at seeds 11
and 12 (the library stream is not a command line), the first 1,500 distinct
argvs that ``test_cli_fuzz._argv`` draws at seed 1, and the refusals of
``test_cli.test_huge_sizes_are_refused_before_allocating`` whose inputs are
small (not ``/dev/zero``, the million-digit files or the 2,000,000 lines),
a header count of 50 digits, which the refusal shows cut, and three edges a
graph file on ``n 3`` refuses: ``1 4`` and ``0 2`` (an endpoint outside the
vertex set) and ``5 5`` (a self-loop).

Rerun this only for an intended output change, and list the cases it
changes; never edit a digest by hand.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from compolab.cli import main

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "cli_golden.json"
WORKERS = str(min(2, os.cpu_count() or 1))


def replay(argv: list[str], tmp: str) -> list:
    """[exit code, sha256 of stdout, first stderr line] of one argv, run in
    process, with ``{tmp}`` and ``{workers}`` put in and ``{tmp}`` put back."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([word.replace("{tmp}", tmp).replace("{workers}", WORKERS)
                         for word in argv])
        except SystemExit as exc:  # argparse: help or a usage error
            code = exc.code
    stdout = out.getvalue().replace(tmp, "{tmp}")
    first = err.getvalue().replace(tmp, "{tmp}").split("\n", 1)[0]
    return [code, hashlib.sha256(stdout.encode()).hexdigest(), first]


def write_files(files: dict[str, str], tmp: Path) -> None:
    for name, data in files.items():
        (tmp / name).parent.mkdir(exist_ok=True)
        (tmp / name).write_bytes(data.encode("latin-1"))


def _workload_argvs(tmp: Path) -> list[tuple[list[str], bytes]]:
    """Each ``cli`` job of the benchmark workloads at seeds 11 and 12, with its
    expected stdout; ``--workers`` takes ``{workers}``."""
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    from workloads import WORKLOADS

    sys.set_int_max_str_digits(0)  # as run.py: the oracle prints a binomial past 4,300 digits
    jobs = []
    for seed in (11, 12):
        for name, build in WORKLOADS.items():
            work = tmp / f"{name}-{seed}"
            work.mkdir()
            for job in build(seed, work, int(WORKERS)):
                if job.argv[0] == "cli":
                    argv = list(job.argv[1:])
                    if "--workers" in argv:
                        argv[argv.index("--workers") + 1] = "{workers}"
                    jobs.append((argv, job.expected))
    return jobs


def _fuzz_argvs(tmp: Path) -> list[list[str]]:
    import test_cli_fuzz

    files = test_cli_fuzz.files.__wrapped__(tmp)
    rng = random.Random(1)
    argvs: dict[str, list[str]] = {}
    while len(argvs) < 1500:
        argv = test_cli_fuzz._argv(rng, files)
        argvs.setdefault(json.dumps(argv), argv)
    return list(argvs.values())


def _refusal_argvs(tmp: Path) -> list[list[str]]:
    (tmp / "huge.graph").write_text("n 1000000000\n")
    (tmp / "wide.graph").write_text("n 65\n1 2\n")
    (tmp / "long.graph").write_text("n " + "7" * 50 + "\n")  # a count too long to read
    brute = ["value", "comp", "-m", "0", "--method", "brute", "-n"]
    argvs = [brute + [n] for n in ("65", "3000", "100000")]
    argvs += [["enumerate", str(tmp / f"{name}.graph")] for name in ("huge", "wide", "long")]
    for edge in ("1 4", "0 2", "5 5"):
        path = tmp / f"edge{edge.replace(' ', '')}.graph"
        path.write_text(f"n 3\n{edge}\n")
        argvs.append(["enumerate", str(path)])
    for kind, cell in (("minimax", ["-m", "1"]), ("kj", ["-m", "0", "-j", "2"]),
                       ("k1", ["-m", "0"])):
        argvs.append(["value", kind, *cell, "--method", "brute", "-n", str(10**9)])
    argvs += [["table", kind, "--method", "brute", "--max-n", str(10**6)]
              for kind in ("comp", "k1")]
    argvs += [["verify", suite, "--n-max", str(10**6)]
              for suite in ("threeway", "bijection", "k1", "reflection")]
    return argvs


def build() -> dict:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        workload = _workload_argvs(tmp)
        argvs = [argv for argv, _ in workload] + _fuzz_argvs(tmp) + _refusal_argvs(tmp)
        argvs = [[word.replace(name, "{tmp}") for word in argv] for argv in argvs]
        cases = {json.dumps(argv): [argv, *replay(argv, name)] for argv in argvs}
        # The benchmark's own oracle agrees with every workload case.
        for argv, (_, expected) in zip(argvs, workload):
            assert cases[json.dumps(argv)][1:3] == [0, hashlib.sha256(expected).hexdigest()], argv
        named = {word.removeprefix("{tmp}/") for argv in argvs for word in argv
                 if word.startswith("{tmp}/")}
        files = {path.relative_to(tmp).as_posix(): path.read_bytes().decode("latin-1")
                 for path in sorted(tmp.rglob("*"))
                 if path.is_file() and path.relative_to(tmp).as_posix() in named}
    return {"files": files, "cases": list(cases.values())}


def dump(corpus: dict) -> str:
    """One line per file and per case, so that a changed case is one diff line."""
    files = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in corpus["files"].items())
    cases = ",\n".join(f"    {json.dumps(case)}" for case in corpus["cases"])
    return f'{{\n  "files": {{\n{files}\n  }},\n  "cases": [\n{cases}\n  ]\n}}\n'


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    CORPUS.write_text(dump(build()))
    print(f"wrote {CORPUS}")
