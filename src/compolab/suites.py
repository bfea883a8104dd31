"""The ``verify`` command: one record per suite in ``_SUITES``.

``cli`` imports this module when ``verify`` runs, so no other command
compiles it, and ``verify`` loads neither ``tables`` nor a module its suite
does not call: ``numtheory`` loads only for the Bell numbers of ``rowsum``
and through the closed forms, and ``bijection`` only for its own suite.  A
record holds a suite's checks and its brute offset, by which
``errors._check_walks`` refuses, before any cell, what ``errors.check_cap``
would refuse mid-run.  The agreement suites are records built by
``_agreement``, and take their kind's routes from ``cli.ROUTES`` as they
run; every call goes through its module, so a tracer that rebinds a
module's functions sees every call.
"""

from __future__ import annotations

from collections.abc import Callable

import compolab

from . import closedform
from .cli import EXIT_OK, EXIT_VERIFY_FAILED, ROUTES, Args
from .closedform import MemoStore
from .errors import _check_walks


def _verify_rowsum(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    bells = compolab.numtheory.bell_numbers(max(n_max + 1, 0))
    checks = []
    for n in range(n_max + 1):
        lhs = closedform.row_sum(n, memo=store)
        checks.append((f"row_sum({n}) = {lhs} = bell({n + 1})", lhs == bells[n + 1]))
    return checks


def _verify_bijection(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
    from . import bijection

    checks = []
    for n in range(n_max + 1):
        for report in bijection.verify_row(n, cap=args.max_brute_n):
            m = report.m
            expected = closedform.comp_count_recursive(n, m, memo=store)
            checks.append(
                (
                    f"bijection({n},{m}): lhs={report.lhs_count} rhs={report.rhs_count} "
                    f"expected={expected} round_trip={report.round_trip_ok} "
                    f"injective={report.injective_ok}",
                    report.ok and report.lhs_count == expected,
                )
            )
    return checks


def _agreement(kind: str, first_n: int, first_m: int, extra=lambda store, n, m: ()):
    """An agreement suite's checks: one per cell first_n <= n <= n_max,
    first_m <= m <= n, whose terms are ``extra(store, n, m)``'s and then every
    route of ``ROUTES[kind]`` but the documented erratum, in table order, read
    as the suite runs.  A check passes when all its terms agree."""
    def checks(n_max: int, args, store: MemoStore) -> list[tuple[str, bool]]:
        routes = [(method, route) for method, route in ROUTES[kind][1].items()
                  if method != "paper-literal"]
        out = []
        for n in range(first_n, n_max + 1):
            for m in range(first_m, n + 1):
                terms = [*extra(store, n, m)]
                terms += [(method, route(args, store, n, m)) for method, route in routes]
                out.append((
                    f"{kind}({n},{m}): " + " ".join(f"{method}={value}" for method, value in terms),
                    len({value for _, value in terms}) == 1,
                ))
        return out
    return checks


# suite -> (checks, brute offset or None).  checks(n_max, args, store) returns
# the (line, passed) pairs; the offset is how many vertices past n_max the
# suite's brute terms enumerate (None: it has none).
_SUITES: dict[str, tuple[Callable, int | None]] = {
    "rowsum": (_verify_rowsum, None),
    "threeway": (_agreement("comp", 0, 0), 0),
    "bijection": (_verify_bijection, 1),
    "k1": (_agreement("k1", 1, 0), 0),
    "reflection": (_agreement("minimax", 1, 1, lambda store, n, m: [
        ("reflected-maximin", closedform.maximin_count_formula(n, n + 1 - m, memo=store)),
    ]), 0),
}


def cmd_verify(args: Args) -> int:
    suite, offset = _SUITES[args.suite]
    if offset is not None:
        _check_walks(args.n_max + offset, args.max_brute_n)
    checks = suite(args.n_max, args, MemoStore())
    failures = 0
    for description, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {description}")
        failures += 0 if passed else 1
    print(
        f"{args.suite}: {len(checks) - failures}/{len(checks)} identities hold"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED
