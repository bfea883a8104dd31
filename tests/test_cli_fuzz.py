"""Seeded CLI fuzz: every argv shape ends in exit 0-3, with no traceback, and
with nothing on stdout when the exit code reports an error; and the direct
parse of a command line agrees with argparse wherever it does not decline."""

import os
import random

import pytest

from compolab import cli
from compolab.cli import ROUTES, main
from compolab.suites import _SUITES
from compolab.usage import _bind_range_value, build_parser

KINDS = sorted(ROUTES) + ["nope"]
METHODS = sorted({method for _, routes in ROUTES.values() for method in routes}) + ["nope"]


def _number(rng, high=9):
    return rng.choice([str(rng.randint(-1, high))] * 9 + ["x"])


def _options(rng, *, workers=True):
    out = []
    if rng.random() < 0.3:
        out += ["--max-brute-n", _number(rng)]
    if workers and rng.random() < 0.3:
        out += ["--workers", rng.choice(["1", "1", "0"])]
    return out


def _argv(rng, files) -> list[str]:
    command = rng.choice(["value"] * 3 + ["bfile"] * 2 + ["table", "verify", "enumerate", "nope"])
    if command == "value":
        argv = ["value", rng.choice(KINDS)]
        for flag, chance in (("-n", 0.95), ("-m", 0.8), ("-j", 0.4)):
            if rng.random() < chance:
                argv += [flag, _number(rng)]
        if rng.random() < 0.5:
            argv += ["--method", rng.choice(METHODS)]
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(["text", "json", "csv"])]
        if rng.random() < 0.1:
            argv.append("--paper-literal")
        return argv + _options(rng)
    if command == "table":
        argv = ["table", rng.choice(["comp", "k1", "bell", "nope"]), "--max-n", _number(rng)]
        if rng.random() < 0.5:
            argv += ["--method", rng.choice(METHODS)]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(["text", "csv", "json", "xml"])]
        if rng.random() < 0.1:
            argv.append("--paper-literal")
        return argv + _options(rng)
    if command == "verify":
        # The bijection suite walks n_max + 1 vertices, so keep n_max small.
        suite = rng.choice(sorted(_SUITES) + ["nope"])
        return ["verify", suite, "--n-max", _number(rng, high=6)] + _options(rng)
    if command == "enumerate":
        path = rng.choice(files["graph"])
        # A raised cap only on the file over the brute-force limit of 20
        # vertices, which no cap raises: on big.graph (13 isolated vertices)
        # it would walk Bell(13) partitions.
        if path == files["wide"] and rng.random() < 0.5:
            return ["enumerate", path, "--max-brute-n", "64"]
        return ["enumerate", path] + _options(rng, workers=False)
    if command == "bfile":
        a, b = rng.randint(-1, 9), rng.randint(-1, 9)
        text = rng.choice([f"{a}..{b}"] * 6 + ["abc", "1..", "..", "3..2..1", f"{a}"])
        argv = ["bfile", rng.choice(["rowsum", "k1zero", "nope"]), "--range", text]
        if rng.random() < 0.8:
            argv += ["--compare", rng.choice(files["bfile"])]
        return argv
    return ["nope"]


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        return str(path)

    binary = write("binary", b"\xff\xfe\x00\x01n 3\n")
    common = [binary, str(tmp_path / "missing"), str(tmp_path)]
    wide = write("path21.graph", "n 21\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 21)))
    return {
        "wide": wide,
        "graph": common + [
            write("path.graph", "n 4\n1 2\n2 3\n3 4\n"),
            write("complete.graph", "n 9\n" + "".join(
                f"{u} {v}\n" for u in range(1, 10) for v in range(u + 1, 10))),
            write("labels.graph", "3 7\n7 12\n"),
            write("loop.graph", "n 2\n1 1\n"),
            write("big.graph", "n 13\n"),
            write("superscript.graph", "n \u00b2\n".encode()),
            wide,
        ],
        "bfile": common + [
            write("rowsum.b", "# reference\n0 1\n1 2\n2 5\n3 15\n4 52\n5 203\n6 877\n"),
            write("k1zero.b", "0 1\n1 0\n2 1\n3 1\n4 4\n5 11\n"),
            write("malformed.b", "0 1 extra\n"),
            write("letters.b", "a b\n"),
        ],
    }


def test_cli_fuzz_exit_contract(files, capsys):
    rng = random.Random(20170)
    seen = set()
    for _ in range(400):
        argv = _argv(rng, files)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv}: {exc!r} escaped main")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
        if code in (2, 3):
            assert out == "", (argv, code)
        seen.add((argv[0], code))
    # Every subcommand ran, and every exit code showed up.
    assert {command for command, _ in seen} >= {"value", "table", "verify", "enumerate", "bfile"}
    assert {code for _, code in seen} == {0, 1, 2, 3}


# One argv of each benchmark job's shape; `_parse` must take every one.
_BENCHMARK_SHAPES = [
    "value comp -n 11 -m 5 --method brute",
    f"value comp -n 11 -m 5 --method brute --workers {min(2, os.cpu_count() or 1)}",
    "value minimax -n 10 -m 4 --method brute",
    "value kj -n 10 -m 3 -j 2",
    "verify threeway --n-max 9",
    "verify bijection --n-max 6",
    "verify reflection --n-max 6",
    "table comp --max-n 60 --format csv",
    "value comp -n 80 -m 40",
    "table comp --max-n 150 --method explicit --format csv",
    "bfile k1zero --range 1..150",
    "value bell -n 1000",
    "value binomial -n 20000 -m 10000",
]

# Forms that `_parse` leaves to argparse, each one edit of `value comp -n 5`.
_DECLINED = [
    ["value", "comp", "-n", "5", "-h"],
    ["value", "comp", "--n", "5"],
    ["value", "comp", "-n", "5", "--meth", "brute"],
    ["value", "comp", "-n=5"],
    ["value", "comp", "-n5"],
    ["value", "comp", "-n", "-5"],
    ["value", "comp", "-n", " -5"],
    ["value", "comp", "-n", ""],
    ["value", "comp", "-n", "5", "-n", "6"],
    ["value", "comp", "-n", "5", "-m", "1", "--k", "2"],
    ["value", "comp", "-n", "5", "--method", "explicit", "--paper-literal"],
    ["value", "comp", "-n", "x"],
    ["value", "comp", "-n", "5", "--method", "nope"],
    ["value", "comp", "-n", "5", "--max-brute-n", "-1"],
    ["value", "comp", "-n", "5", "--workers", "0"],
    ["value", "comp", "-n", "5", "--workers", str((os.cpu_count() or 1) + 1)],
    ["value", "comp"],
    ["value", "-n", "5"],
    ["value", "comp", "-n", "5", "comp"],
    ["value", "comp", "-n", "5", "--", "-m", "1"],
    ["value", "comp", "-n", "5", "-m"],
    ["enumerate", "-"],
    ["-h"],
    [],
]


def test_direct_parse_agrees_with_argparse(files, capsys):
    parser = build_parser()
    argvs = [shape.split() for shape in _BENCHMARK_SHAPES] + _DECLINED
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(400):
            argv = _argv(rng, files)
            # The same words with the positional argument last.
            argvs += [argv, argv[:1] + argv[2:] + argv[1:2]]
    taken = 0
    for argv in argvs:
        direct = cli._parse(argv)
        try:
            expected = vars(parser.parse_args(_bind_range_value(argv)))
        except SystemExit:  # help or a usage error
            expected = None
        if direct is not None:
            # Functions compare by identity, so `func` is argparse's object too.
            assert vars(direct) == expected, argv
            taken += 1
    capsys.readouterr()
    assert all(cli._parse(shape.split()) for shape in _BENCHMARK_SHAPES)
    assert not any(cli._parse(argv) for argv in _DECLINED)
    # Most well-formed command lines skip argparse.
    assert taken > len(argvs) // 3, (taken, len(argvs))
