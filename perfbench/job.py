"""One benchmark job, run in a fresh interpreter.

    python3 job.py REPORT [--trace] cli ARGS...   # the compolab command line
    python3 job.py REPORT [--trace] stream FILE   # library process, see below

``cli`` does what the installed ``compolab`` script does.  ``stream`` is a
long-lived library user: it reads a JSON list of ``[n, edges]`` graphs and,
for each, streams ``compositions()`` and prints how many there were.

When the job ends, whether or not it succeeded, it writes REPORT: a JSON
object with the process's own peak RSS and, with ``--trace``, the tracer's
record.  The peak is read here because the kernel carries the parent's peak
across fork and exec into the child's rusage, so the harness's own size
would otherwise set a floor under every job's figure.
"""

from __future__ import annotations

import json
import resource
import sys


def stream(path: str) -> int:
    from compolab import enumeration, graphs

    with open(path) as fh:
        specs = json.load(fh)
    for n, edges in specs:
        g = graphs.from_edge_list(n, [tuple(e) for e in edges])
        print(sum(1 for _ in enumeration.compositions(g)))
    return 0


def peak_rss_kib() -> int:
    """High-water RSS of this process since exec (VmHWM), in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    report_path, argv = argv[0], argv[1:]
    tracer = None
    if argv[:1] == ["--trace"]:
        from tracer import Tracer

        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            from compolab import cli

            return cli.main(argv[1:])
        return stream(argv[1])
    finally:
        report = tracer.record() if tracer is not None else {}
        report["peak_rss_kib"] = peak_rss_kib()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
