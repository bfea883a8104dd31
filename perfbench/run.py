"""compolab benchmark: whole compolab processes, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is brute-count, materialize or exact (see workloads.py), or ``all`` to
run the three in turn.  The load is a closed loop with one client: the
workload's jobs run one after another, each in a fresh interpreter started
from the checkout's ``src``, and the job list is repeated in rounds until S
seconds have passed (at least one round).  The seed makes the inputs.

The last line of stdout is one JSON object with ``correct`` (no job printed
a false answer, or exited 0 with a wrong or incomplete one), ``attempted``
and ``failed`` (jobs run, and jobs that did not pass: wrong stdout, an exit
code other than 0, a Traceback on stderr, or a timeout) and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` and
``cpu_s`` add up each job's median over the rounds, the others are medians
over rounds, and ``setup_s`` is the median of timed ``import compolab.cli``
spawns, a few at the start of each round.  Times are calibrated to a
reference speed of the core they ran on (see calibrated()).  With
``--trace 1`` untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds (see tracer.py) plus the tracing
overhead.  The line before it records the run: seed, nproc, Python
version, int-to-str digit limit, commit and a digest of the sources, and
each job's outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"

# Every job ends by this many seconds into a run, so a run always exits
# within three minutes; jobs left over count as failed.
HARD_LIMIT_S = 150
SETUP_SPAWNS_PER_ROUND = 3
# How long the reference work takes at the speed the calibrated times are
# given in: about its time on an idle core of the 2-core host the benchmark
# was written on.
REFERENCE_S = 0.025
REFERENCE_GRAPH = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 5), (2, 6)]
CPUS = sorted(os.sched_getaffinity(0))
MB = 1024 * 1024

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "1",
}
PER_LAYER = {
    "numtheory.calls": "count",
    "numtheory.self_s": "s",
    "numtheory.triangle_mb": "MB",
    "closedform.recursive_s": "s",
    "closedform.memo_cells": "count",
    "closedform.explicit_s": "s",
    "closedform.formula_s": "s",
    "enumeration.count_s": "s",
    "enumeration.stat_s": "s",
    "enumeration.leaves": "count",
    "enumeration.leaves_per_s": "1/s",
    "enumeration.workers_speedup": "x",
    "enumeration.workers_cpu_ratio": "x",
    "enumeration.partitions_built": "count",
    "enumeration.stream_s": "s",
    "graphs.connected_calls": "count",
    "graphs.connected_s": "s",
    "graphs.connected_cache_entries": "count",
    "bijection.verify_s": "s",
    "bijection.maps": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    wall: float
    cpu: float
    scale: float  # to the reference speed; see calibrated()
    rss_mb: float
    stdout_bytes: int
    problems: list[str]
    wrong: bool  # printed a false answer, or an incomplete one with exit 0

    @property
    def passed(self) -> bool:
        return not self.problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pid: int) -> None:
    """Wait (up to 10 s) until no process of the job's group is left."""
    for _ in range(1000):
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _reference_work() -> None:
    """Fixed pure-Python work of the same kind as compolab's (partition
    walks, small containers, integer arithmetic), run in this process."""
    for _ in range(2):
        oracle.kj_counts(8, 2)
        oracle.compositions(8, REFERENCE_GRAPH)


def reference_s(cpus: list[int]) -> float:
    """Mean time of the reference work on each of cpus, run there in turn."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return sum(times) / len(times)


def calibrated(cpus: list[int], spawn):
    """Run spawn() with this process and its children pinned to cpus, and
    return its result with the factor that turns its times into times at
    the reference speed.

    The cores of a shared host slow down by a third or more for seconds at
    a time when their neighbours get busy, and each core on its own.  The
    reference work, timed on the same cores just before and just after,
    measures that slowdown where and when the job runs: the factor is
    REFERENCE_S over its mean time.
    """
    try:
        before = reference_s(cpus)
        os.sched_setaffinity(0, cpus)
        result = spawn()
        after = reference_s(cpus)
    finally:
        os.sched_setaffinity(0, CPUS)
    return result, 2 * REFERENCE_S / (before + after)


def run_job(job, env: dict, work: Path, hard_stop: float, traced: bool,
            cpus: list[int]) -> tuple[Result, dict]:
    """Run one job in a fresh process group pinned to cpus, check its
    output, and return the result with the job's report (see job.py)."""
    timeout = hard_stop - time.monotonic()
    if timeout <= 0:
        return Result(0.0, 0.0, 1.0, 0.0, 0, ["not run: time budget spent"], False), {}
    out_path, err_path, report_path = work / "stdout", work / "stderr", work / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(JOB), str(report_path)] + ["--trace"] * traced + list(job.argv)
    timed_out = threading.Event()

    def expire(pid: int) -> None:
        timed_out.set()
        _kill_group(pid)

    def spawn():
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(timeout, expire, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            return proc, status, usage, time.perf_counter() - start

    (proc, status, usage, wall), scale = calibrated(cpus, spawn)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        _wait_group_gone(proc.pid)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    problems = []
    if timed_out.is_set():
        problems.append(f"timed out after {timeout:.1f} s")
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}")
    if b"Traceback" in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        problems.append(f"Traceback on stderr ({last[:120]})")
    if stdout != job.expected:
        problems.append("wrong stdout" if stdout else "no stdout")
    return Result(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        scale=scale,
        # KiB; rusage is the fallback for a job killed before its report.
        rss_mb=report.get("peak_rss_kib", usage.ru_maxrss) * 1024 / MB,
        stdout_bytes=len(stdout),
        problems=problems,
        wrong=stdout != job.expected
        and (proc.returncode == 0 or not job.expected.startswith(stdout)),
    ), report


def setup_time(env: dict, cpus: list[int]) -> float:
    """Wall time, at the reference speed, of a fresh interpreter pinned to
    cpus that only imports compolab.cli."""

    def spawn():
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import compolab.cli"], env=env,
                              cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        return done, time.perf_counter() - start

    (done, elapsed), scale = calibrated(cpus, spawn)
    if done.returncode != 0:
        raise RuntimeError(f"import compolab.cli failed: {done.stderr.decode()[-500:]}")
    return elapsed * scale


def layer_metrics(results: list[Result], traces: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced round, summed over its jobs."""

    def total(field: str, key: str):
        return sum((t.get(field, {}).get(key, 0) for t in traces), 0.0 if field == "time" else 0)

    cli_self = sum(
        end - start - child
        for t in traces
        for name, start, end, _parent, child in t.get("spans", [])
        if name == "compolab.cli.main"
    )
    brute_s = total("time", "enumeration.count") + total("time", "enumeration.stat")
    leaves = total("counts", "enumeration.leaves")
    return {
        "numtheory.calls": total("calls", "numtheory"),
        "numtheory.self_s": total("time", "numtheory"),
        "numtheory.triangle_mb": max(t.get("triangle_bytes", 0) for t in traces) / MB,
        "closedform.recursive_s": total("time", "closedform.recursive"),
        "closedform.memo_cells": total("counts", "closedform.memo_cells"),
        "closedform.explicit_s": total("time", "closedform.explicit"),
        "closedform.formula_s": total("time", "closedform.formula"),
        "enumeration.count_s": total("time", "enumeration.count"),
        "enumeration.stat_s": total("time", "enumeration.stat"),
        "enumeration.leaves": leaves,
        "enumeration.leaves_per_s": leaves / brute_s if brute_s else 0.0,
        "enumeration.partitions_built": total("counts", "enumeration.partitions_built"),
        "enumeration.stream_s": total("time", "enumeration.stream"),
        "graphs.connected_calls": total("calls", "graphs.connected"),
        "graphs.connected_s": total("time", "graphs.connected"),
        "graphs.connected_cache_entries": max(
            t.get("connected_cache_entries", 0) for t in traces
        ),
        "bijection.verify_s": total("time", "bijection.verify"),
        "bijection.maps": total("counts", "bijection.maps"),
        "cli.self_s": cli_self,
        "cli.stdout_bytes": sum(r.stdout_bytes for r in results),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "compolab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: int, trace: bool, digits: int) -> dict:
    nproc = len(CPUS)
    workers = min(2, nproc)

    def cpus_for(job, slot: int) -> list[int]:
        """A job that asks for workers gets every core; any other runs on
        one core, a different one each round."""
        return CPUS if (job.pair or 1) > 1 else [CPUS[slot % nproc]]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        jobs = WORKLOADS[workload](seed, work, workers)
        setup_time(env, CPUS[:1])  # unmeasured: compiles the bytecode, which users pay once
        setup: list[float] = []
        start = time.monotonic()
        hard_stop = start + HARD_LIMIT_S
        untraced: list[list[Result]] = []
        traced: list[tuple[list[Result], list[dict]]] = []
        while True:
            if not trace:
                # Spread over the run, so set-up sees the same machine as
                # the jobs do.
                setup += [setup_time(env, [CPUS[(len(setup) + k) % nproc]])
                          for k in range(SETUP_SPAWNS_PER_ROUND)]
            slot = len(untraced) + len(traced)
            untraced.append([run_job(job, env, work, hard_stop, False, cpus_for(job, slot + i))[0]
                             for i, job in enumerate(jobs)])
            if trace:
                runs = [run_job(job, env, work, hard_stop, True, cpus_for(job, slot + 1 + i))
                        for i, job in enumerate(jobs)]
                traced.append(([r for r, _ in runs], [report for _, report in runs]))
            # Stop at the round boundary nearest to the requested length.
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(untraced) / 2 >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = untraced + [results for results, _ in traced]
    flat = [r for results in every for r in results]

    def per_job_median(rounds: list[list[Result]], value) -> float:
        """A typical round: each job's median value over the rounds, added
        up.  Steadier than the median of round totals when rounds are few."""
        return sum(_median([value(results[i]) for results in rounds])
                   for i in range(len(jobs)))

    def wall(r: Result) -> float:
        return r.wall * r.scale

    def cpu(r: Result) -> float:
        return r.cpu * r.scale

    if trace:
        per_round = [layer_metrics(results, traces) for results, traces in traced]
        values = {name: _median([v[name] for v in per_round]) for name in PER_LAYER
                  if name in per_round[0]}
        values["trace.overhead_s"] = (
            per_job_median([results for results, _ in traced], wall)
            - per_job_median(untraced, wall)
        )
        speedups, cpu_ratios = [], []
        for results in untraced:
            paired = {job.pair: r for job, r in zip(jobs, results) if job.pair}
            if len(paired) == 2 and all(r.passed for r in paired.values()):
                one, many = paired[1], paired[workers]
                speedups.append(one.wall / many.wall)
                cpu_ratios.append(many.cpu / one.cpu)
        values["enumeration.workers_speedup"] = _median(speedups)
        values["enumeration.workers_cpu_ratio"] = _median(cpu_ratios)
        metrics = _metric(values, PER_LAYER)
    else:
        metrics = _metric(
            {
                "wall_s": per_job_median(untraced, wall),
                "cpu_s": per_job_median(untraced, cpu),
                "peak_rss_mb": _median([max(r.rss_mb for r in rs) for rs in untraced]),
                "setup_s": _median(setup),
                "pass_ratio": _median([sum(r.passed for r in rs) / len(rs) for rs in untraced]),
            },
            END_TO_END,
        )

    job_report = []
    for i, job in enumerate(jobs):
        runs = [results[i] for results in every]
        job_report.append({
            "job": job.label,
            "argv": list(job.argv[1:]) if job.argv[0] == "cli" else list(job.argv),
            "passed": f"{sum(r.passed for r in runs)}/{len(runs)}",
            "problems": sorted({p for r in runs for p in r.problems}),
            "untraced_wall_s": [round(results[i].wall, 3) for results in untraced],
            "speed_scale": [round(results[i].scale, 3) for results in untraced],
            "peak_rss_mb": _median([results[i].rss_mb for results in untraced]),
        })
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(every),
        "setup_spawns": len(setup),
        # wall_s and cpu_s before calibration to the reference speed
        "measured_wall_s": per_job_median(untraced, lambda r: r.wall),
        "measured_cpu_s": per_job_median(untraced, lambda r: r.cpu),
        "nproc": nproc,
        "workers": workers,
        "python": sys.version.split()[0],
        "int_max_str_digits": digits,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "jobs": job_report,
    }
    print(json.dumps({"run": info}), flush=True)
    return {
        "correct": not any(r.wrong for r in flat),
        "attempted": len(flat),
        "failed": sum(not r.passed for r in flat),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "compolab" / "cli.py").is_file():
        print(f"error: no compolab sources under {SRC}", file=sys.stderr)
        return 2
    # The jobs run with the interpreter's default limit; the expected
    # answers need more digits than that.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = {
            name: measure(name, args.seed, args.seconds, bool(args.trace), digits)
            for name in names
        }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(outcomes) == 1:
        print(json.dumps(outcomes[args.workload]))
        return 0
    for name, outcome in outcomes.items():
        print(json.dumps({"workload": name, **outcome}))
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, o in outcomes.items() for metric, value in o["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
