"""Seeded CLI fuzz: every argv shape ends in exit 0-3, with no traceback, and
with nothing on stdout when the exit code reports an error."""

import random

import pytest

from compolab.cli import ROUTES, main
from compolab.tables import _SUITES

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
        # A raised cap only on the file too wide for the connectivity table:
        # on big.graph (13 isolated vertices) it would walk Bell(13) partitions.
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
