"""The benchmark's workloads: lists of compolab jobs with their expected output.

Every expected stdout is computed here without compolab (see ``oracle``).
A job passes when it exits 0, prints no ``Traceback`` on stderr and its
stdout equals the expected bytes exactly.  Jobs are never dropped or resized because they fail.

Why these three:

* ``brute-count`` - counting by enumeration with no objects built: the RGS
  leaf walk and the ``--workers`` split do nearly all the work, numtheory
  and closedform nearly none.  The ``--workers 1`` and ``--workers N`` runs
  of the same count sit next to each other so that their ratio compares
  like with like.
* ``materialize`` - the same enumeration layer, but building Partition and
  Composition objects, testing connectivity through
  ``graphs.is_connected_induced`` and running the bijection; it includes one
  long-lived library process whose connectivity cache keeps growing.
* ``exact`` - closed forms and the recursion at large n, plus the rendering
  of big integers; enumeration does nothing here.  ``value binomial`` with a
  result above Python's default int-to-str digit limit is part of it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracle

# Sizes keep a round of each workload to a few seconds, so that a run of
# 40 s holds ten rounds or more and the per-job medians are steady.


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]  # arguments of job.py
    expected: bytes  # exact stdout
    pair: Optional[int] = None  # worker count, for the paired --workers jobs


def _cli(label: str, args: str, expected: str, pair: Optional[int] = None) -> Job:
    return Job(label, ("cli", *args.split()), expected.encode(), pair)


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _random_graph(rng: random.Random, n: int, edges: int) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return sorted(rng.sample(pairs, edges))


def _write_graph(path: Path, n: int, edges) -> None:
    path.write_text(_lines([f"n {n}"] + [f"{u} {v}" for u, v in edges]))


def _verify(suite: str, n_max: int) -> Job:
    """A ``verify`` job; every count on its lines comes from the Stirling sum."""
    comp = oracle.comp_table(n_max)
    cells = [(n, m, comp[(n, m)]) for n in range(n_max + 1) for m in range(n + 1)]
    if suite == "threeway":
        lines = [f"comp({n},{m}): recursive={c} explicit={c} brute={c}" for n, m, c in cells]
    elif suite == "bijection":
        lines = [f"bijection({n},{m}): lhs={c} rhs={c} expected={c} "
                 f"round_trip=True injective=True" for n, m, c in cells]
    else:  # reflection, with minimax(n + 1, m + 1) = comp(n, m)
        lines = [f"minimax({n + 1},{m + 1}): reflected-maximin={c} formula={c} brute={c}"
                 for n, m, c in cells if n < n_max]
    out = [f"ok   {line}" for line in lines]
    out.append(f"{suite}: {len(lines)}/{len(lines)} identities hold")
    return _cli(f"verify-{suite}-{n_max}", f"verify {suite} --n-max {n_max}", _lines(out))


def _cross_checks() -> list[Job]:
    """Small verify runs that every workload ends with, so that each traced
    run reaches every layer (the layer times are never a constant zero),
    at a few percent of a round's work."""
    return [_verify("threeway", 5), _verify("bijection", 4), _verify("reflection", 6)]


def brute_count(seed: int, work: Path, workers: int) -> list[Job]:
    rng = random.Random(seed)
    comp = oracle.comp_table(11)
    # The brute statistics visit all Bell(10) partitions whatever m is, so
    # the seed moves the answer, not the amount of work.
    mm = rng.randint(1, 10)
    km = rng.randint(0, 10)
    brute = "value comp -n 11 -m 5 --method brute"
    return [
        _cli("comp-brute-w1", brute, f"{comp[(11, 5)]}\n", pair=1),
        _cli(f"comp-brute-w{workers}", f"{brute} --workers {workers}",
             f"{comp[(11, 5)]}\n", pair=workers),
        # minimax(n, m) = comp(n-1, m-1), the identity the paper proves.
        _cli("minimax-brute", f"value minimax -n 10 -m {mm} --method brute",
             f"{comp[(9, mm - 1)]}\n"),
        _cli("kj-brute", f"value kj -n 10 -m {km} -j 2", f"{oracle.kj_counts(10, 2)[km]}\n"),
        _verify("threeway", 9),
    ] + _cross_checks()


def materialize(seed: int, work: Path, workers: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [_verify("bijection", 6)]
    # Two densities (30% and 60% of all pairs) at 9 vertices, and the sparse
    # one at 10; a fixed edge count keeps the cost of a seed's graphs close
    # to the mean.
    for density, n in ((0.3, 9), (0.6, 9), (0.3, 10)):
        edges = _random_graph(rng, n, round(density * n * (n - 1) / 2))
        path = work / f"graph-{n}-{int(density * 100)}.txt"
        _write_graph(path, n, edges)
        expected = _lines(oracle.compositions(n, edges)).encode()
        jobs.append(Job(f"enumerate-{path.stem}", ("cli", "enumerate", str(path)), expected))
    specs = []
    for _ in range(16):
        edges = _random_graph(rng, 8, rng.randint(7, 21))
        specs.append([8, edges])
    path = work / "stream-graphs.json"
    path.write_text(json.dumps(specs))
    counts = [len(oracle.compositions(n, edges)) for n, edges in specs]
    jobs.append(Job("library-stream", ("stream", str(path)), _lines(counts).encode()))
    return jobs + _cross_checks()


def exact(seed: int, work: Path, workers: int) -> list[Job]:
    rng = random.Random(seed)
    # The seed moves sizes only where the work barely depends on them.
    bell_n = rng.randint(996, 1004)
    binom_n = rng.randint(19000, 21000)
    comp = oracle.comp_table(150)

    def csv(max_n: int) -> str:
        rows = ["n," + ",".join(f"m{m}" for m in range(max_n + 1))]
        rows += [
            ",".join([str(n)] + [str(comp[(n, m)]) for m in range(n + 1)])
            for n in range(max_n + 1)
        ]
        return _lines(rows)

    no_singleton = oracle.no_singleton_counts(150)
    return [
        _cli("table-comp-60", "table comp --max-n 60 --format csv", csv(60)),
        _cli("value-comp-80", "value comp -n 80 -m 40", f"{comp[(80, 40)]}\n"),
        _cli("table-comp-150-explicit",
             "table comp --max-n 150 --method explicit --format csv", csv(150)),
        _cli("bfile-k1zero", "bfile k1zero --range 1..150",
             _lines(f"{i} {no_singleton[i]}" for i in range(1, 151))),
        _cli("value-bell", f"value bell -n {bell_n}",
             f"{oracle.bell_numbers(bell_n)[bell_n]}\n"),
        # More than 4300 digits: fails at the commit that defined the
        # benchmark, and stays in the workload so that the failure shows.
        _cli("value-binomial", f"value binomial -n {binom_n} -m {binom_n // 2}",
             f"{math.comb(binom_n, binom_n // 2)}\n"),
    ] + _cross_checks()


WORKLOADS = {"brute-count": brute_count, "materialize": materialize, "exact": exact}
