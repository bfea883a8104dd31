"""CLI surface: commands, formats, routes and exit codes."""

import argparse
import decimal
import errno
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from conftest import COMP_TABLE, K1_TABLE

import compolab
from compolab import (cli, closedform, enumeration, listing, numtheory, stats, suites, tables,
                      walker)
from compolab.cli import ROUTES, main
from compolab.closedform import (
    MemoStore,
    comp_count_explicit,
    comp_count_paper_literal,
    comp_count_recursive,
)
from compolab.enumeration import compositions
from compolab.errors import CompolabError, MalformedInputError
from compolab.graphs import complete, from_vertices_and_edges
from compolab.numtheory import bell_numbers
from compolab.reading import MAX_LINE, read_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------

def test_value_comp_recursive(capsys):
    code, out, _ = run(capsys, "value", "comp", "-n", "6", "-m", "3")
    assert code == 0 and out.strip() == "153"


@pytest.mark.parametrize("method", ["recursive", "explicit", "brute"])
def test_value_comp_methods_agree(capsys, method):
    code, out, _ = run(capsys, "value", "comp", "-n", "5", "-m", "2", "--method", method)
    assert code == 0 and out.strip() == "47"


def test_value_paper_literal_flag(capsys):
    code, out, _ = run(capsys, "value", "comp", "-n", "3", "-m", "1", "--paper-literal")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "value", "comp", "-n", "3", "-m", "1")
    assert out.strip() == "5"
    code, _, _ = run(capsys, "value", "bell", "-n", "3", "--paper-literal")
    assert code == 2
    # --paper-literal is --method paper-literal, and cannot be combined with --method.
    value = ["value", "comp", "-n", "3", "-m", "1"]
    for fmt in ("text", "json"):
        shorthand = run(capsys, *value, "--format", fmt, "--paper-literal")
        assert shorthand == run(capsys, *value, "--format", fmt, "--method", "paper-literal")
    assert json.loads(shorthand[1])["method"] == "paper-literal"
    with pytest.raises(SystemExit) as exc:
        main([*value, "--paper-literal", "--method", "brute"])
    assert exc.value.code == 2


def test_value_kinds(capsys):
    assert run(capsys, "value", "kj", "-n", "6", "-m", "6", "-j", "1")[1].strip() == "11"
    assert run(capsys, "value", "bell", "-n", "0")[1].strip() == "1"
    assert run(capsys, "value", "stirling2", "-n", "4", "-m", "2")[1].strip() == "7"
    assert run(capsys, "value", "binomial", "-n", "5", "-m", "2")[1].strip() == "10"
    assert run(capsys, "value", "minimax", "-n", "4", "-m", "2")[1].strip() == "5"
    assert run(capsys, "value", "minimax", "-n", "4", "-m", "2", "--method", "brute")[1].strip() == "5"
    assert run(capsys, "value", "maximin", "-n", "3", "-m", "3")[1].strip() == "2"
    assert run(capsys, "value", "k1", "-n", "7", "-m", "4")[1].strip() == "87"
    assert run(capsys, "value", "k1", "-n", "7", "-m", "4", "--method", "brute")[1].strip() == "87"


def test_value_json_record(capsys):
    code, out, _ = run(capsys, "value", "comp", "-n", "4", "-m", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"n": 4, "m": 2, "value": "13", "method": "explicit"}


def test_value_missing_parameter(capsys):
    code, _, err = run(capsys, "value", "comp", "-n", "4")
    assert code == 2 and "requires" in err


def test_value_invalid_parameters_exit_2(capsys):
    code, _, _ = run(capsys, "value", "comp", "-n", "3", "-m", "5")
    assert code == 2


def test_value_resource_limit_exit_3(capsys):
    code, _, _ = run(capsys, "value", "comp", "-n", "13", "-m", "1", "--method", "brute")
    assert code == 3
    code, _, _ = run(
        capsys, "value", "comp", "-n", "5", "-m", "1", "--method", "brute",
        "--max-brute-n", "4",
    )
    assert code == 3


def test_huge_sizes_are_refused_before_allocating(tmp_path):
    # Each run is a child process under a 300 MB address-space limit, so a
    # size checked only after its graph is built fails here (out of memory,
    # or the timeout) instead of exhausting the host.  The brute comp count
    # refuses by its cap (exit 3); a graph file's vertex count is refused by
    # name (exit 2).  A file that never ends is refused at its first line
    # longer than MAX_LINE (exit 2).  A million-digit count or label is
    # refused before int() reads it (int() is quadratic in the digits), and
    # every message stays one short line.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    huge = tmp_path / "huge.graph"
    huge.write_text("n 1000000000\n")
    wide = tmp_path / "wide.graph"
    wide.write_text("n 65\n1 2\n")
    brute = ["value", "comp", "-m", "0", "--method", "brute", "-n"]
    cases = [(brute + ["65"], 3, "65 vertices exceeds the brute-force cap"),
             (brute + ["3000"], 3, "3000 vertices exceeds the brute-force cap"),
             (brute + ["100000"], 3, "100000 vertices exceeds the brute-force cap"),
             (["enumerate", str(huge)], 2, "n = 1000000000 is above"),
             (["enumerate", str(wide)], 2, "n = 65 is above"),
             (["enumerate", "/dev/zero"], 2, f"line 1 is longer than {MAX_LINE} characters"),
             (["bfile", "rowsum", "--range", "0..1", "--compare", "/dev/zero"], 2,
              f"line 1 is longer than {MAX_LINE} characters")]
    digits = "7" * 10**6
    for i, (text, message) in enumerate([
            (f"n {digits}\n1 2\n", "n = 777"), (f"n 3\n1 {digits}\n", "line 2: label '777"),
            (f"n 3\n{digits} 2\n", "line 2: label '777"),
            (f"n 3\n1 {'0' * 10**6}2\n2 {digits}3\n", "line 3: label '777")]):
        path = tmp_path / f"digits{i}.graph"
        path.write_text(text)
        cases.append((["enumerate", str(path)], 2, message))
    # A b-file index too long to be in the range, or a value too long to equal
    # its term, is never converted, and its echo is cut; the term is printed
    # before the reference is checked.
    for i, (text, code, message) in enumerate([
            (f"{digits} 1\n", 1, "MISMATCH index 0: missing from reference"),
            (f"{digits}x 1\n", 2, "line 1: expected integers, got '777"),
            (f"0 {digits}\n", 1, f"computed 1, reference {digits[:40]}..."),
            (f"0 {digits}_\n", 2, "line 1: expected integers, got '0 777")]):
        path = tmp_path / f"digits{i}.b"
        path.write_text(text)
        cases.append((["bfile", "rowsum", "--range", "0..0", "--compare", str(path)], code,
                      message, "0 1\n" if code == 1 else ""))
    for kind, cell in (("minimax", ["-m", "1"]), ("kj", ["-m", "0", "-j", "2"]),
                       ("k1", ["-m", "0"])):
        cases.append((["value", kind, *cell, "--method", "brute", "-n", str(10**9)], 3,
                      "1000000000 vertices exceeds the brute-force cap"))
    for kind in ("comp", "k1"):
        cases.append((["table", kind, "--method", "brute", "--max-n", str(10**6)], 3,
                      "13 vertices exceeds the brute-force cap"))
    for suite in ("threeway", "bijection", "k1", "reflection"):
        cases.append((["verify", suite, "--n-max", str(10**6)], 3,
                      "13 vertices exceeds the brute-force cap"))
    # Left out until the exact routes get cost caps: each runs far past the
    # timeout, though none allocates past the limit at once.
    #   value bell -n 100000;  verify rowsum --n-max 1000000;
    #   bfile rowsum --range 1000..1001;  table comp --max-n 1000000 (explicit)
    # Files are read a line at a time, so two million lines (8 MB of text)
    # fit under the limit: the graph file's edges are kept as bitsets, and
    # the b-file reference keeps one entry per index.
    lines = 2 * 10**6
    many = tmp_path / "many.graph"
    many.write_text("n 2\n" + "1 2\n" * lines)
    reference = tmp_path / "many.b"
    reference.write_text("0 1\n" + "1 2\n" * (lines - 1))
    long_reads = [(["enumerate", str(many)], "{1,2}\n{1}|{2}\n"),
                  (["bfile", "rowsum", "--range", "0..1", "--compare", str(reference)],
                   "0 1\n1 2\n")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def wait(children):
        out, err = children[0].communicate(timeout=60)
        return children.popleft().returncode, out, err

    def run_limited(argvs):
        """Each argv's (exit code, stdout, stderr), in order.  The children are
        independent, so each starts before the one ahead of it is awaited: two
        run at a time.  A child left running when the caller stops is killed."""
        children = deque()
        try:
            for argv in argvs:
                children.append(subprocess.Popen(
                    [sys.executable, "-m", "compolab.cli", *argv], env=env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit))
                if len(children) == 2:
                    yield wait(children)
            while children:
                yield wait(children)
        finally:
            for child in children:
                child.kill()

    done = run_limited([argv for argv, *_ in cases + long_reads])
    for (argv, code, message, *out), (returncode, stdout, stderr) in zip(cases, done):
        assert (returncode, stdout) == (code, "".join(out)), (argv, stderr)
        assert stderr.count("\n") == 1 and message in stderr, argv
        assert len(stderr) < 200, argv
        assert "Traceback" not in stderr, argv
    for (argv, out), result in zip(long_reads, done, strict=True):
        assert result == (0, out, ""), argv


def test_negative_brute_cap_is_a_usage_error(capsys):
    # A cap below 0 is a bad flag value, refused by the parser (exit 2) before
    # any route runs, not a resource refusal (exit 3).
    for argv in (["table", "comp", "--max-n", "3", "--method", "brute"],
                 ["value", "minimax", "-n", "3", "-m", "1", "--method", "brute"],
                 ["verify", "threeway", "--n-max", "2"], ["enumerate", "missing.graph"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-brute-n", "-5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == (
            f"compolab {argv[0]}: error: argument --max-brute-n: must be 0 or more, got -5")
    # 0 is a cap: the empty graph fits under it, one vertex does not.
    brute = ["value", "comp", "-m", "0", "--method", "brute", "--max-brute-n", "0", "-n"]
    assert run(capsys, *brute, "0") == (0, "1\n", "")
    assert run(capsys, *brute, "1")[0] == 3


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the recorded text is Python 3.11's argparse rendering")
def test_help_and_usage_errors_print_the_recorded_text(monkeypatch, capsys):
    # cli_usage.json holds stdout, stderr and the exit code of `compolab -h`,
    # each `<command> -h` and five usage errors; COLUMNS fixes the width
    # argparse wraps to.
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(Path(__file__).with_name("cli_usage.json").read_text())
    assert len(cases) == 11
    for case in cases:
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (case["code"], case["stdout"], case["stderr"]), (
            case["argv"])


def test_value_output_is_exact_decimal(capsys):
    _, out, _ = run(capsys, "value", "comp", "-n", "30", "-m", "15")
    text = out.strip()
    assert text.isdigit() and "e" not in text
    assert int(text) == comp_count_recursive(30, 15, memo=MemoStore())


def test_value_prints_more_digits_than_the_int_str_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "value", "binomial", "-n", "16000", "-m", "8000")
    assert code == 0
    digits = out.strip()
    assert len(digits) > 4300
    # Decimal renders an int without passing through the limited int -> str path.
    assert digits == str(decimal.Decimal(math.comb(16000, 8000)))
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _outcome(route, *values):
    args = argparse.Namespace(max_brute_n=None)
    try:
        return route(args, MemoStore(), *values)
    except CompolabError as exc:  # a rejected input must be rejected by every route
        return type(exc)


def test_every_route_agrees_with_the_default_route():
    for kind, (params, routes) in ROUTES.items():
        _, _, default = cli._select_route(argparse.Namespace(kind=kind, method=None))
        for method, route in routes.items():
            if method == "paper-literal":
                continue  # the documented erratum, checked on its own above
            for n in range(7):
                for m in range(n + 1):
                    values = [{"n": n, "m": m, "j": 2}[name] for name in params]
                    assert _outcome(route, *values) == _outcome(default, *values), (
                        kind, method, n, m,
                    )


def test_workers_bounded_by_cpu_count(capsys):
    too_many = str((os.cpu_count() or 1) + 1)
    for workers in ("0", too_many):
        with pytest.raises(SystemExit) as exc:
            main(["value", "comp", "-n", "9", "-m", "4", "--method", "brute",
                  "--workers", workers])
        assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away; fileno() names a scratch fd."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_2(monkeypatch, capsys, tmp_path):
    graph = tmp_path / "k4.graph"
    graph.write_text("n 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    rows = set()  # the rows whose cells the explicit route computed
    real = closedform.comp_count_explicit

    def counting(n, m, memo=None):
        rows.add(n)
        return real(n, m, memo=memo)

    monkeypatch.setattr(closedform, "comp_count_explicit", counting)
    streamed = ["table", "comp", "--max-n", "150", "--format", "csv"]
    for argv in (["table", "comp", "--max-n", "6"], streamed, ["enumerate", str(graph)]):
        rows.clear()
        read_end, write_end = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(write_end))
            code = main(argv)
        finally:
            os.close(read_end)
            os.close(write_end)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, argv
        # A streamed table stops at its first failed write.
        assert argv is not streamed or len(rows) <= 1, rows


class _FullDevice(_ClosedPipe):
    """A stdout on a full device: every write and flush fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_full_device_exits_2(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", _FullDevice(write_end))
        code = main(["value", "bell", "-n", "5"])
    finally:
        os.close(read_end)
        os.close(write_end)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_comp_csv_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "comp", "--max-n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m0,m1,m2,m3,m4,m5,m6"
    for n, row in COMP_TABLE.items():
        assert lines[1 + n] == ",".join([str(n)] + [str(v) for v in row])
    assert lines[7] == "6,203,203,188,153,97,32,1"


def test_table_k1_csv_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "k1", "--max-n", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m0,m1,m2,m3,m4,m5,m6,m7,m8"
    for n, row in K1_TABLE.items():
        assert lines[n] == ",".join([str(n)] + [str(v) for v in row])
    assert lines[8] == "8,715,877,674,523,409,322,255,203,162"


def test_table_single_cell(capsys):
    code, out, _ = run(capsys, "table", "comp", "--max-n", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].split("|")[1].strip() == "1"


def test_table_formats_hold_identical_values(capsys):
    _, csv_out, _ = run(capsys, "table", "comp", "--max-n", "5", "--format", "csv")
    _, json_out, _ = run(capsys, "table", "comp", "--max-n", "5", "--format", "json")
    _, text_out, _ = run(capsys, "table", "comp", "--max-n", "5", "--format", "text")
    csv_cells = [
        value
        for line in csv_out.strip().splitlines()[1:]
        for value in line.split(",")[1:]
    ]
    json_cells = [record["value"] for record in json.loads(json_out)]
    assert {record["method"] for record in json.loads(json_out)} == {"explicit"}
    text_cells = [
        value
        for line in text_out.strip().splitlines()[1:]
        for value in line.split("|")[1].split()
    ]
    assert csv_cells == json_cells == text_cells


@pytest.mark.parametrize("method", ["explicit", "brute"])
def test_table_comp_methods_match_reference(capsys, method):
    code, out, _ = run(
        capsys, "table", "comp", "--max-n", "6", "--format", "csv", "--method", method
    )
    assert code == 0
    lines = out.strip().splitlines()
    for n, row in COMP_TABLE.items():
        assert lines[1 + n] == ",".join([str(n)] + [str(v) for v in row])


def test_table_k1_brute_matches_reference(capsys):
    code, out, _ = run(
        capsys, "table", "k1", "--max-n", "6", "--format", "csv", "--method", "brute"
    )
    assert code == 0
    lines = out.strip().splitlines()
    for n in range(1, 7):
        assert lines[n] == ",".join([str(n)] + [str(v) for v in K1_TABLE[n]])


@pytest.mark.parametrize("method,count", [
    ("explicit", comp_count_explicit), ("paper-literal", comp_count_paper_literal),
    ("recursive", comp_count_recursive),
])
def test_table_explicit_matches_each_cell_alone(capsys, method, count):
    # The table evaluates row by row over one store; each cell must equal its
    # own count over a fresh store, in row-major order.
    expected = [(n, m, str(count(n, m))) for n in range(41) for m in range(n + 1)]
    _, csv_out, _ = run(capsys, "table", "comp", "--max-n", "40", "--format", "csv",
                        "--method", method)
    csv_cells = [
        (int(line.split(",")[0]), m, value)
        for line in csv_out.strip().splitlines()[1:]
        for m, value in enumerate(line.split(",")[1:])
    ]
    _, json_out, _ = run(capsys, "table", "comp", "--max-n", "40", "--format", "json",
                         "--method", method)
    json_cells = [(r["n"], r["m"], r["value"]) for r in json.loads(json_out)]
    assert csv_cells == json_cells == expected


def test_table_explicit_reads_no_memo_cell(monkeypatch, capsys):
    # Wrong cells and inner sums in the table's store must not reach the
    # explicit route: it shares only the weight vector with the recursion.
    def poisoned():
        store = MemoStore()
        for n in range(21):
            for m in range(n + 1):
                store._table[n, m] = store._inner[n, m] = 7
        return store

    monkeypatch.setattr(tables, "MemoStore", poisoned)
    _, out, _ = run(capsys, "table", "comp", "--max-n", "20", "--format", "json",
                    "--method", "explicit")
    assert [(r["n"], r["m"], r["value"]) for r in json.loads(out)] == [
        (n, m, str(comp_count_explicit(n, m))) for n in range(21) for m in range(n + 1)
    ]


def test_recursion_reads_no_weight_vector(monkeypatch, capsys):
    # The recursion, and the Bell numbers that `verify rowsum` checks it
    # against, must not read the closed forms' number tables from the store
    # that a table or a suite shares.
    def never(self, *args):
        raise AssertionError("a number table of the store was read")

    for accessor in ("weights", "stirling_row", "bell_numbers"):
        monkeypatch.setattr(MemoStore, accessor, never)
    _, out, _ = run(capsys, "table", "comp", "--max-n", "20", "--format", "json",
                    "--method", "recursive")
    assert [(r["n"], r["m"], r["value"]) for r in json.loads(out)] == [
        (n, m, str(comp_count_explicit(n, m))) for n in range(21) for m in range(n + 1)
    ]
    code, out, _ = run(capsys, "verify", "rowsum", "--n-max", "8")
    b = bell_numbers(9)
    assert code == 0 and out == "".join(
        f"ok   row_sum({n}) = {b[n + 1]} = bell({n + 1})\n" for n in range(9)
    ) + "rowsum: 9/9 identities hold\n"


@pytest.mark.parametrize("kind,extra,cap,first_over", [
    ("comp", (), 12, 13), ("k1", (), 12, 13), ("comp", ("--max-brute-n", "5"), 5, 6),
])
def test_table_brute_over_the_cap_exits_3_before_any_cell(monkeypatch, capsys, kind,
                                                          extra, cap, first_over):
    from compolab import enumeration, stats

    def never(*args, **kwargs):
        raise AssertionError("a brute counter ran")

    monkeypatch.setattr(enumeration, "composition_count_brute", never)
    monkeypatch.setattr(stats, "kj_count_brute", never)
    code, out, err = run(capsys, "table", kind, "--max-n", "14", "--method", "brute", *extra)
    assert code == 3 and out == ""
    assert err == (f"error: {first_over} vertices exceeds the brute-force cap of {cap} "
                   "(pass a higher cap explicitly to proceed)\n")


def test_brute_statistics_over_20_vertices_exit_3_before_any_walk(monkeypatch, capsys):
    # The limit of 20 vertices binds the brute statistics too, whatever the
    # cap: unrefused, each run would walk Bell(19) partitions or more, so the
    # walker raises instead.
    def never(n):
        raise AssertionError(f"a walk over {n} positions started")

    monkeypatch.setattr(stats, "_block_stream", never)
    message = "error: 21 vertices exceeds the brute-force limit of 20, which no cap raises\n"
    brute = ["--method", "brute", "--max-brute-n", "25"]
    for kind, cell in (("minimax", ["-m", "1"]), ("kj", ["-m", "0", "-j", "2"]),
                       ("k1", ["-m", "0"])):
        assert run(capsys, "value", kind, "-n", "21", *cell, *brute) == (3, "", message), kind
    assert run(capsys, "table", "k1", "--max-n", "21", *brute) == (3, "", message)


def test_table_k1_rejects_paper_literal(capsys):
    code, out, _ = run(capsys, "table", "k1", "--max-n", "4", "--paper-literal")
    assert code == 2 and out == ""
    table = ["table", "comp", "--max-n", "4"]
    for fmt in ("text", "csv", "json"):
        shorthand = run(capsys, *table, "--format", fmt, "--paper-literal")
        assert shorthand == run(capsys, *table, "--format", fmt, "--method", "paper-literal")
    assert {r["method"] for r in json.loads(shorthand[1])} == {"paper-literal"}
    for kind in ("comp", "k1"):
        with pytest.raises(SystemExit) as exc:
            main(["table", kind, "--max-n", "4", "--paper-literal", "--method", "brute"])
        assert exc.value.code == 2


def test_brute_graphs_over_20_vertices_are_refused_before_any_cell():
    # A raised cap does not lift the limit of 20 vertices: a brute comp
    # table, or a threeway or bijection suite, whose walks reach 21 vertices
    # exits 3 at once with nothing on stdout, naming the first count over the
    # limit.  Unrefused, its first cells would walk Bell(11) to Bell(18)
    # partitions, and a streamed table would print rows before failing.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    message = "error: 21 vertices exceeds the brute-force limit of 20, which no cap raises\n"
    for argv in (["table", "comp", "--method", "brute", "--max-n", "21"],
                 ["table", "comp", "--method", "brute", "--max-n", "24", "--format", "csv"],
                 ["verify", "threeway", "--n-max", "21"],
                 ["verify", "bijection", "--n-max", "21"]):
        done = subprocess.run(
            [sys.executable, "-m", "compolab.cli", *argv, "--max-brute-n", "25"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", message), argv


@pytest.mark.parametrize("kind,method", [
    ("comp", "explicit"), ("comp", "recursive"), ("comp", "brute"), ("comp", "paper-literal"),
    ("k1", "formula"), ("k1", "brute"),
])
def test_table_bytes_match_the_whole_table(capsys, kind, method):
    # Each format is written as its rows come; the bytes must equal the
    # whole table rendered at once: json.dumps of the cells, the csv lines,
    # and the text grid aligned to its widest cell.
    first = cli._TABLE_FIRST_ROW[kind]
    count = {"comp": comp_count_explicit, "k1": closedform.k1_count_formula}[kind]
    if method == "paper-literal":
        count = comp_count_paper_literal
    for max_n in (first, first + 1, 5, 9, *([] if method == "brute" else [25])):
        rows = [[str(count(n, m)) for m in range(n + 1)] for n in range(first, max_n + 1)]
        table = ["table", kind, "--max-n", str(max_n), "--method", method, "--format"]
        cells = [{"n": n, "m": m, "value": value, "method": method}
                 for n, row in enumerate(rows, first) for m, value in enumerate(row)]
        assert run(capsys, *table, "json") == (0, json.dumps(cells, indent=2) + "\n", "")
        csv = ["n," + ",".join(f"m{m}" for m in range(max_n + 1))]
        csv += [",".join([str(n), *row]) for n, row in enumerate(rows, first)]
        assert run(capsys, *table, "csv") == (0, "\n".join(csv) + "\n", ""), max_n
        width = max([len(c["value"]) for c in cells] + [len(str(max_n)), len(f"m{max_n}"), 3])
        header = " " * (width + 3) + " ".join(f"m{m}".rjust(width) for m in range(max_n + 1))
        text = [header.rstrip()]
        text += [f"{n:>{width}} | " + " ".join(value.rjust(width) for value in row)
                 for n, row in enumerate(rows, first)]
        assert run(capsys, *table, "text") == (0, "\n".join(text) + "\n", ""), max_n


@pytest.mark.parametrize("argv,diagonals", [
    (["table", "comp", "--max-n", "30", "--format", "csv"], 31),
    (["table", "comp", "--max-n", "30", "--paper-literal"], 31),
    (["verify", "threeway", "--n-max", "9"], 10),
    (["verify", "reflection", "--n-max", "9"], 9),
])
def test_each_diagonal_builds_its_weight_vector_once(monkeypatch, capsys, argv, diagonals):
    # Each row steps every diagonal's vector in the shared store by one
    # exponent, so a command builds one vector per diagonal from its
    # Stirling row, whatever order its cells take within a row.
    built = []
    real = closedform._weight_terms

    def counting(row, e):
        built.append(len(row) - 1)
        return real(row, e)

    monkeypatch.setattr(closedform, "_weight_terms", counting)
    assert run(capsys, *argv)[0] == 0
    assert sorted(built) == list(range(diagonals)), built


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_streams_its_rows(monkeypatch, fmt):
    # csv and json write each row as it is computed, so no table is held
    # whole.  At --max-n 150 Python's allocations peak at about 1.6 MiB; a
    # table rendered whole peaked at 4.6 MiB (csv) and 16 MiB (json).
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert main(["table", "comp", "--max-n", "3", "--format", fmt]) == 0  # load first
    tracemalloc.start()
    try:
        assert main(["table", "comp", "--max-n", "150", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "suite,n_max",
    [("rowsum", 8), ("threeway", 5), ("bijection", 4), ("k1", 6), ("reflection", 6)],
)
def test_verify_suites_pass(capsys, suite, n_max):
    code, out, _ = run(capsys, "verify", suite, "--n-max", str(n_max))
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("identities hold")


def test_verify_reports_each_identity(capsys):
    _, out, _ = run(capsys, "verify", "rowsum", "--n-max", "6")
    lines = out.strip().splitlines()
    assert len(lines) == 8  # 7 identities + summary
    assert all(line.startswith("ok") for line in lines[:-1])
    for n_max in ("-1", "-2"):  # no row to check, and nothing fails
        assert run(capsys, "verify", "rowsum", "--n-max", n_max) == (
            0, "rowsum: 0/0 identities hold\n", "")
    # The agreement suites print comp's methods in table order, not default first.
    _, out, _ = run(capsys, "verify", "threeway", "--n-max", "2")
    assert out.splitlines()[:-1] == [
        f"ok   comp({n},{m}): recursive={c} explicit={c} brute={c}"
        for n in range(3) for m, c in enumerate(COMP_TABLE[n][:n + 1])
    ]


def test_agreement_suite_takes_every_route_of_its_kind(monkeypatch, capsys):
    # A route added to ROUTES joins its kind's suite with no more wiring.
    monkeypatch.setitem(
        ROUTES["comp"][1], "off-by-one",
        lambda a, memo, n, m: comp_count_recursive(n, m) + (n == 2),
    )
    code, out, _ = run(capsys, "verify", "threeway", "--n-max", "3")
    assert code == 1
    lines = out.strip().splitlines()[:-1]
    assert len(lines) == 10
    for line in lines:
        assert "off-by-one=" in line
        assert line.startswith("FAIL") == line.split()[1].startswith("comp(2,"), line


def test_memo_conflict_is_a_failed_check_without_traceback(monkeypatch, capsys):
    # A route that writes a wrong value into the memo the recursion has filled
    # makes two computations of one cell disagree: one stderr line, exit 1.
    def disagreeing(a, memo, n, m):
        value = comp_count_recursive(n, m) + (n == 2)
        memo.put(n, m, value)
        return value

    monkeypatch.setitem(ROUTES["comp"][1], "disagreeing", disagreeing)
    code, _, err = run(capsys, "verify", "threeway", "--n-max", "3")
    assert code == 1
    assert err.startswith("error: memo cell (2, ") and err.count("\n") == 1
    assert "Traceback" not in err


def _skip_first_state(walker):
    """The walker, one partition short: it skips the first state of each walk."""
    def skipping(n):
        states = walker(n)
        next(states)
        return states
    return skipping


def _plus_one(kernel):
    """The kernel with 1 added to its result, or to each entry of a tuple result."""
    def poisoned(*args):
        value = kernel(*args)
        return tuple(x + 1 for x in value) if isinstance(value, tuple) else value + 1
    return poisoned


# name -> (owner, attribute, poison): the kernels the agreement terms are built on.
_KERNELS = {
    "recursion": (closedform, "_comp_recursive", _plus_one),
    "stirling-sum": (closedform, "_stirling_power_sum", _plus_one),
    "bell-prefix": (closedform.MemoStore, "bell_numbers", _plus_one),
    "bell-numbers": (numtheory, "bell_numbers", _plus_one),
    "extensions": (enumeration, "_count_extensions", _plus_one),
    "statistic-row": (stats, "_statistic_row", _plus_one),
    "walker": (walker, "_block_stream", _skip_first_state),
}

# suite -> {kernel: the terms that move when it is poisoned}.  A kernel left
# out moves no term and the suite still passes; one named moves exactly its
# terms, and the suite fails.
_KERNEL_TERMS = {
    "threeway": {"recursion": {"recursive"}, "stirling-sum": {"explicit"},
                 "extensions": {"brute"}, "walker": {"brute"}},
    "k1": {"bell-prefix": {"formula"}, "statistic-row": {"brute"}, "walker": {"brute"}},
    # The known defect: one Stirling sum, with identical arguments, serves both
    # reflected-maximin and formula, so only the brute term checks them.  It
    # stays until maximin has a brute route of its own.
    "reflection": {"stirling-sum": {"reflected-maximin", "formula"},
                   "statistic-row": {"brute"}, "walker": {"brute"}},
    # The right-hand side, bell(n + 1), is not printed: poisoned Bell numbers
    # move no term, but fail every check.
    "rowsum": {"recursion": {"row_sum"}, "bell-numbers": set()},
    # The one shared kernel: lhs and rhs both walk with _block_stream.  The
    # suite checks the two maps between them, not the count.
    "bijection": {"walker": {"lhs", "rhs"}, "recursion": {"expected"}},
}

_SUITE_N_MAX = {"threeway": 5, "k1": 6, "reflection": 6, "rowsum": 8, "bijection": 4}
_clear_rows = stats._statistic_row.cache_clear  # kept: the poison replaces the name


def _verify_terms(capsys, suite):
    """A verify run's exit code and, per line, {term: value} (rowsum: its one sum)."""
    _clear_rows()  # no row left from another run
    code, out, _ = run(capsys, "verify", suite, "--n-max", str(_SUITE_N_MAX[suite]))
    _clear_rows()  # no poisoned row left for later runs
    lines = [line.split(None, 1)[1] for line in out.splitlines()[:-1]]
    return code, [dict(re.findall(r"([\w-]+)=(\S+)", line))
                  or {"row_sum": line.split()[2]} for line in lines]


def test_each_agreement_term_reads_its_own_kernel(monkeypatch, capsys):
    # Poison one kernel at a time: exactly the terms built on it move, so no
    # simplification can let a route check itself without failing here.
    assert sorted(_KERNEL_TERMS) == sorted(suites._SUITES) == list(cli._SUITE_NAMES)
    for suite, moved in _KERNEL_TERMS.items():
        clean_code, clean = _verify_terms(capsys, suite)
        assert clean_code == 0, suite
        for kernel, (owner, name, poison) in _KERNELS.items():
            real = getattr(owner, name)
            with monkeypatch.context() as patch:
                # Every binding of the kernel, in whichever module imported it by name.
                modules = [m for k, m in sys.modules.items() if k.startswith("compolab.")]
                for module in [owner, *modules]:
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            patch.setattr(module, attr, poison(real))
                code, poisoned = _verify_terms(capsys, suite)
            changed = {term for before, after in zip(clean, poisoned, strict=True)
                       for term in before if before[term] != after[term]}
            assert changed == moved.get(kernel, set()), (suite, kernel)
            assert code == (1 if kernel in moved else 0), (suite, kernel)


def test_verify_brute_suite_respects_cap(monkeypatch, capsys):
    # Each suite with brute terms refuses, before any walk, an n_max whose
    # largest enumeration passes the cap: n_max vertices, or n_max + 1 for
    # bijection's right-hand side.  rowsum has no brute term, so no cap.
    walks = _record_walks(monkeypatch)
    for suite, n_max, vertices in (("threeway", 13, 13), ("k1", 13, 13),
                                   ("reflection", 13, 13), ("bijection", 12, 13)):
        assert run(capsys, "verify", suite, "--n-max", str(n_max)) == (
            3, "", f"error: {vertices} vertices exceeds the brute-force cap of 12 "
                   "(pass a higher cap explicitly to proceed)\n")
    assert walks == []
    code, out, _ = run(capsys, "verify", "rowsum", "--n-max", "13")
    assert code == 0 and out.endswith("rowsum: 14/14 identities hold\n")


def _record_walks(monkeypatch):
    """Wrap the brute-force walker in every module that binds it; the list it
    returns collects the number of positions of every walk."""
    walks = []
    real = walker._block_stream

    def counting(n):
        walks.append(n)
        return real(n)

    # Every binding of the walker, in whichever module imported it by name:
    # each submodule is loaded first, so that none binds it later.
    for module in [getattr(compolab, name) for name in compolab._EXPORTS]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    return walks


@pytest.mark.parametrize("argv", [
    ("verify", "k1", "--n-max", "6"),
    ("verify", "reflection", "--n-max", "6"),
    ("table", "k1", "--max-n", "6", "--method", "brute"),
])
def test_brute_statistics_walk_each_row_once(monkeypatch, capsys, argv):
    # The cells of one row (n, j) share one walk over the partitions of
    # {1..n-2}: rows 2..6, five walks (row 1 needs none).
    from compolab import stats

    walks = _record_walks(monkeypatch)
    stats._statistic_row.cache_clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "FAIL" not in out
    assert sorted(walks) == [0, 1, 2, 3, 4]


def test_brute_comp_walks_all_but_the_last_three_positions(monkeypatch, capsys):
    # One count places the third-last of its 9 positions in each block and
    # alone, and the last two in aggregate, so it walks the partitions of the
    # first 6, once.
    walks = _record_walks(monkeypatch)
    code, out, _ = run(capsys, "value", "comp", "-n", "9", "-m", "4", "--method", "brute")
    assert (code, out) == (0, "15177\n")
    assert walks == [6]


def test_composition_streams_walk_all_but_the_last_position(monkeypatch, capsys, tmp_path):
    # Listing the compositions of 9 vertices places the last one per walked
    # partition, so `enumerate` and `compositions()` each walk the partitions
    # of the first 8 positions, once.
    rng = random.Random(16)
    edges = [(u, v) for u in range(1, 10) for v in range(u + 1, 10) if rng.random() < 0.4]
    f = tmp_path / "g9.graph"
    f.write_text("n 9\n" + "".join(f"{u} {v}\n" for u, v in edges))
    walks = _record_walks(monkeypatch)
    code, out, _ = run(capsys, "enumerate", str(f))
    assert code == 0 and out
    assert walks == [8]
    walks.clear()
    g = from_vertices_and_edges(range(1, 10), edges)
    assert sum(1 for _ in compositions(g)) == out.count("\n")
    assert walks == [8]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_path_graph(tmp_path, capsys):
    f = tmp_path / "p3.graph"
    # A file saved with a UTF-8 byte-order mark reads as the same graph.
    for mark in ("", "\ufeff"):
        f.write_text(f"{mark}# path on three vertices\nn 3\n1 2\n2 3\n", encoding="utf-8")
        code, out, _ = run(capsys, "enumerate", str(f))
        assert code == 0
        assert out.strip().splitlines() == [
            "{1,2,3}",
            "{1,2}|{3}",
            "{1}|{2,3}",
            "{1}|{2}|{3}",
        ]


def test_enumerate_lines_read_as_the_compositions_print(tmp_path, monkeypatch):
    # The command renders its lines from the walker's block bitsets.
    rng = random.Random(9)
    graphs = [from_vertices_and_edges([], []), from_vertices_and_edges([7], [])]
    for _ in range(40):
        labels = sorted(rng.sample(range(1, 21), rng.randint(2, 9)))
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        graphs.append(from_vertices_and_edges(labels, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for g in graphs:
        assert list(listing._composition_lines(g)) == [str(c) for c in compositions(g)], g
    # Bell(8) = 4140 compositions, about 80 KB of text: several writes.
    f = tmp_path / "k8.graph"
    f.write_text("n 8\n" + "".join(f"{u} {v}\n" for u in range(1, 9) for v in range(u + 1, 9)))
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["enumerate", str(f)]) == 0
    assert sys.stdout.getvalue() == "".join(f"{c}\n" for c in compositions(complete(8)))
    # Each write but the last holds the byte budget and less than one line (at
    # most 32 bytes here) more.
    budget = listing._WRITE_BYTES
    assert len(writes) > 4 and all(budget <= size < budget + 40 for size in writes[:-1])


def test_enumerate_complete_graph(tmp_path, capsys):
    f = tmp_path / "k3.graph"
    f.write_text("n 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "enumerate", str(f))
    assert code == 0 and len(out.strip().splitlines()) == 5


def test_enumerate_single_vertex(tmp_path, capsys):
    f = tmp_path / "k1.graph"
    f.write_text("n 1\n")
    code, out, _ = run(capsys, "enumerate", str(f))
    assert code == 0 and out.strip() == "{1}"


def test_enumerate_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("n 2\n1 1\n")
    assert run(capsys, "enumerate", str(f))[0] == 2
    assert run(capsys, "enumerate", str(tmp_path / "missing.graph"))[0] == 2


def test_non_utf8_input_files_exit_2(tmp_path, capsys):
    f = tmp_path / "binary"
    f.write_bytes(b"\xff\xfe\x00n 3\n")
    for argv in (["enumerate", str(f)],
                 ["bfile", "rowsum", "--range", "0..3", "--compare", str(f)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_enumerate_takes_no_workers(tmp_path):
    f = tmp_path / "k2.graph"
    f.write_text("n 2\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", str(f), "--workers", "1"])
    assert exc.value.code == 2


def test_enumerate_cap(tmp_path, capsys):
    f = tmp_path / "big.graph"
    f.write_text("n 13\n")
    assert run(capsys, "enumerate", str(f))[0] == 3
    # Above 20 vertices a walk is refused whatever the cap.
    f = tmp_path / "path21.graph"
    f.write_text("n 21\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 21)))
    code, out, err = run(capsys, "enumerate", str(f), "--max-brute-n", "30")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "brute-force limit of 20" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# bfile
# ---------------------------------------------------------------------------

def test_bfile_rowsum(capsys):
    code, out, _ = run(capsys, "bfile", "rowsum", "--range", "0..5")
    assert code == 0
    assert out.strip().splitlines() == ["0 1", "1 2", "2 5", "3 15", "4 52", "5 203"]


def test_bfile_k1zero(capsys):
    code, out, _ = run(capsys, "bfile", "k1zero", "--range", "1..8")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [0, 1, 1, 4, 11, 41, 162, 715]


def test_bfile_empty_range(capsys):
    code, out, _ = run(capsys, "bfile", "rowsum", "--range", "5..4")
    assert code == 0 and out == ""


def test_bfile_compare(tmp_path, capsys):
    good = tmp_path / "good.b"
    for mark in ("", "\ufeff"):  # with and without a UTF-8 byte-order mark
        good.write_text(f"{mark}# reference\n0 1\n1 2\n2 5\n3 15\n", encoding="utf-8")
        assert run(capsys, "bfile", "rowsum", "--range", "0..3", "--compare", str(good))[0] == 0
    good.write_text("\ufeff0 1\n1 2\n2 5\n3 15\n", encoding="utf-8")
    assert run(capsys, "bfile", "rowsum", "--range", "0..3", "--compare", str(good))[0] == 0

    bad = tmp_path / "bad.b"
    bad.write_text("0 1\n1 2\n2 99\n3 15\n")
    code, _, err = run(capsys, "bfile", "rowsum", "--range", "0..3", "--compare", str(bad))
    assert code == 1 and "MISMATCH" in err

    short = tmp_path / "short.b"
    short.write_text("0 1\n")
    assert run(capsys, "bfile", "rowsum", "--range", "0..3", "--compare", str(short))[0] == 1

    malformed = tmp_path / "malformed.b"
    malformed.write_text("0 1 extra\n")
    code, out, _ = run(capsys, "bfile", "rowsum", "--range", "0..3", "--compare", str(malformed))
    assert code == 2 and out == ""

    code, out, _ = run(capsys, "bfile", "rowsum", "--range", "0..3",
                       "--compare", str(tmp_path / "missing.b"))
    assert code == 2 and out == ""


def test_bfile_bad_range(capsys):
    assert run(capsys, "bfile", "rowsum", "--range", "abc")[0] == 2


def test_bfile_negative_range_reaches_the_range_check(capsys):
    for argv in (["--range", "-3..2"], ["--range=-3..2"]):
        code, out, err = run(capsys, "bfile", "rowsum", *argv)
        assert code == 2 and out == ""
        assert err == "error: range must start at 0 or above, got '-3..2'\n"


def test_bfile_writes_each_term_as_it_computes_it(monkeypatch):
    # When a term is computed, the lines of every term before it are out.
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    printed = []
    real = closedform.row_sum

    def counting(n, memo=None):
        printed.append(out.getvalue().count("\n"))
        return real(n, memo=memo)

    monkeypatch.setattr(closedform, "row_sum", counting)
    assert main(["bfile", "rowsum", "--range", "3..7"]) == 0
    assert printed == [0, 1, 2, 3, 4]
    assert out.getvalue() == "3 15\n4 52\n5 203\n6 877\n7 4140\n"


def test_bfile_k1zero_from_zero(capsys):
    code, out, _ = run(capsys, "bfile", "k1zero", "--range", "0..2")
    assert code == 0 and out == "0 1\n1 0\n2 1\n"


def test_parse_bfile_comments_and_values(tmp_path, capsys):
    reference = tmp_path / "rowsum.b"
    reference.write_text("# c\n\n0 1\n5 203\n")
    assert dict(tables._bfile_lines(read_lines(str(reference)))) == {"0": "1", "5": "203"}
    assert run(capsys, "bfile", "rowsum", "--range", "5..5", "--compare",
               str(reference)) == (0, "5 203\n", "")


def test_read_lines_cuts_and_bounds_lines(tmp_path):
    # Lines end at "\n", "\r" or "\r\n" (one split across the text layer's
    # decode blocks of io.DEFAULT_BUFFER_SIZE bytes too), and a byte-order mark
    # is dropped.  The "\r" is byte 13 + width of the file.
    path = tmp_path / "lines.txt"
    for width in range(io.DEFAULT_BUFFER_SIZE - 17, io.DEFAULT_BUFFER_SIZE - 11):
        path.write_bytes("\ufeffa\r\nb\rc\n\n\x0cd".encode() + b"x" * width + b"\r\ny")
        assert list(read_lines(str(path))) == ["a", "b", "c", "", "\x0cd" + "x" * width, "y"]
    # A line may hold MAX_LINE characters; a longer one is refused by number.
    path.write_text("x\n" + "7" * MAX_LINE + "\n")
    assert [len(line) for line in read_lines(str(path))] == [1, MAX_LINE]
    path.write_text("x\n" + "7" * (MAX_LINE + 1))
    with pytest.raises(MalformedInputError, match=f"line 2 is longer than {MAX_LINE} "):
        list(read_lines(str(path)))
    # Each fault is found as the reading reaches it.
    path.write_bytes(b"n 3\n" + b"1 2\n" * io.DEFAULT_BUFFER_SIZE + b"\xff\n")
    lines = read_lines(str(path))
    assert next(lines) == "n 3"
    with pytest.raises(MalformedInputError, match="cannot read .*can't decode byte 0xff"):
        list(lines)
    # The position it names is the byte's offset in the file, a byte-order
    # mark included, past the first decode block (5,000 lines of "0 1" are
    # 20,000 bytes) and inside it.
    for mark in (b"", b"\xef\xbb\xbf"):
        for lines in (5000, 10):
            path.write_bytes(mark + b"0 1\n" * lines + b"\xff\n")
            with pytest.raises(MalformedInputError, match=f"byte 0xff in position "
                                                          f"{len(mark) + 4 * lines}: invalid"):
                list(read_lines(str(path)))


def test_bfile_tokens_are_checked_as_int_reads_them(tmp_path, capsys):
    # The reference check runs in time linear in a token, without int(): it
    # must accept exactly what int() reads, signs, underscores and the digits
    # of other scripts included.  bell(1) = 1, so a token int() reads as 1
    # passes, any other it reads mismatches, shown as int() reads it, and the
    # rest are malformed.
    rng = random.Random(23)
    reference = tmp_path / "one.b"
    fixed = ["+10", "1_0", "010", "\u0661\u0660", "-0_1", "+\u0660\u06601"]
    for token in fixed + ["".join(rng.choice("01_+-\u0660\u0665\u00b2a")
                                  for _ in range(rng.randint(1, 5))) for _ in range(2000)]:
        try:
            code = 0 if int(token) == 1 else 1
            err = "" if code == 0 else f"MISMATCH index 0: computed 1, reference {int(token)}\n"
        except ValueError:
            code, err = 2, None
        reference.write_text(f"0 {token}\n")
        got = run(capsys, "bfile", "rowsum", "--range", "0..0", "--compare", str(reference))
        assert got[0] == code and (err is None or got[2] == err), (token, got)
