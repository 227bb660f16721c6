"""powerwalk benchmark: real CLI workloads, timed end to end and traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search-sweep --seed 1 --seconds 10 --trace 0

Each round starts a fresh worker process (perfbench/worker.py) that imports
``powerwalk.cli`` from the checkout's ``src/`` and calls ``cli.main(argv)``
in-process for each of the workload's invocations, one after another (a closed
loop with one caller). A round is those invocations followed by the output
checks in checks.py; rounds repeat until ``--seconds`` have passed, and at
least one round always runs. Extra workers that only import are started until
at least five set-up times are measured. Every invocation and every check is one
operation. The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

  --trace 0  end-to-end metrics of the untraced rounds: setup_s, wall_s, cpu_s,
             peak_rss_mb.
  --trace 1  per-layer metrics from one extra round with the layer wrappers of
             tracer.py installed, and the tracing overhead against the
             untraced rounds.

The run manifest (thread count, CPU, versions, source identity) and any check
failures go to stderr. See perfbench/README.md for the workloads and figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# One BLAS/OpenMP thread count for every process of a run, capped by the CPUs
# this process may use. Two is what OpenBLAS picks by default on the 2-core
# machines the reference figures come from.
THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_ENV = {
    name: str(THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_ENV)  # inherited by the workers; set before numpy loads

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

SEARCH_SWEEP_SIZES = (129, 257)
TULSI_SIDE = 193
ANALYTIC_SIZES = (513, 1001)
VERIFY_SIZES, VERIFY_TS = (5, 7), (1, 3)
SZEGEDY_SIZES, SZEGEDY_KS, SZEGEDY_CHAINS = (2, 3, 4, 5, 6, 7, 8), (1, 2, 3), 40


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one round. Only szegedy draws random inputs."""
    if name == "search-sweep":
        return [["search", "--sizes", _csv(SEARCH_SWEEP_SIZES), "--t-schedule", "sweep"]]
    if name == "tulsi-sweep":
        return [
            ["tulsi", "--sizes", str(TULSI_SIDE), "--t-schedule", "sweep",
             "--delta-policy", "balanced"]
        ]
    if name == "analytic-large-n":
        return [
            ["search", "--no-trajectory", "--sizes", _csv(ANALYTIC_SIZES),
             "--t-schedule", "sweep"]
        ]
    if name == "verify-dense":
        return [
            ["verify-spectrum", "--sizes", _csv(VERIFY_SIZES), "--t", _csv(VERIFY_TS)],
            ["szegedy", "--sizes", _csv(SZEGEDY_SIZES), "--k", _csv(SZEGEDY_KS),
             "--chains", str(SZEGEDY_CHAINS), "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search-sweep", "tulsi-sweep", "analytic-large-n", "verify-dense")


def check_round(checks, name: str, results: list[dict], tally) -> None:
    if name == "search-sweep":
        checks.check_search(tally, results[0], SEARCH_SWEEP_SIZES, trajectory=True)
    elif name == "tulsi-sweep":
        checks.check_tulsi_balanced(tally, results[0], TULSI_SIDE)
    elif name == "analytic-large-n":
        checks.check_search(tally, results[0], ANALYTIC_SIZES, trajectory=False)
    elif name == "verify-dense":
        checks.check_verify_spectrum(tally, results[0], VERIFY_SIZES, VERIFY_TS)
        checks.check_szegedy(tally, results[1], SZEGEDY_SIZES, SZEGEDY_KS, SZEGEDY_CHAINS)


class Worker:
    """One worker process; ``started`` is when its interpreter was launched."""

    def __init__(self, root: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), os.path.join(root, "src")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self.proc.stdout.readline()
        self.ready = time.perf_counter()
        if ready != "ready\n":
            self.close()
            raise RuntimeError("worker failed to import powerwalk.cli")

    def round(self, argvs: list[list[str]], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argvs": argvs, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited during a round")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class DigestStore:
    """sha256 of every invocation's stdout, per source tree, thread count and
    argv, kept across the runs made in one checkout to check byte-determinism.
    Keying on the source digest compares only runs of the same code: another
    commit in the same checkout starts its own entries."""

    def __init__(self, root: str, src_sha256: str):
        self.path = os.path.join(root, ".bench_build", "perfbench", "stdout-digests.json")
        self.prefix = f"src={src_sha256} threads={THREADS} "
        try:
            with open(self.path) as fp:
                self.digests = json.load(fp)
        except FileNotFoundError:
            self.digests = {}

    def matches(self, argv: list[str], stdout: str) -> bool:
        key = self.prefix + " ".join(argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return self.digests.setdefault(key, digest) == digest

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}"
        with open(tmp, "w") as fp:
            json.dump(self.digests, fp, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def source_identity(src: str) -> tuple[str, int]:
    """sha256 and line count of the ``.py`` files under ``src``."""
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs if f.endswith(".py")
    )
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fp:
            data = fp.read()
        digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def manifest(root: str, src_sha256: str, src_lines: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_commit": commit,
        "src_sha256": src_sha256,
        "src_lines": src_lines,
    }


def count_rows(results: list[dict], command: str) -> int:
    return sum(
        max(0, len(r["stdout"].splitlines()) - 2) for r in results if r["argv"][0] == command
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "powerwalk", "cli.py")):
        print(f"no powerwalk sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import checks
    import tracer

    argvs = workload_argvs(args.workload, args.seed)
    src_sha256, src_lines = source_identity(src)
    digests = DigestStore(root, src_sha256)
    tally = checks.Tally()
    setup: list[float] = []
    verdicts: dict[str, checks.Tally] = {}
    start = time.perf_counter()

    def timed_round(trace: bool) -> dict:
        # A fresh worker per round: each round pays what one CLI process pays,
        # and no round inherits the heap an earlier round grew.
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker = Worker(root)
        setup.append(worker.ready - worker.started)
        remaining = RUN_DEADLINE_S - (time.perf_counter() - start)
        deadline = threading.Timer(max(0.0, remaining), worker.proc.kill)
        deadline.start()
        try:
            reply = worker.round(argvs, trace)
            reply["measured_s"] = time.perf_counter() - worker.started
        except (OSError, RuntimeError, ValueError):  # killed at the deadline, or crashed
            reply = None
        finally:
            deadline.cancel()
            died_after_s = time.perf_counter() - worker.ready
            worker.close()
        if reply is None:
            # No result from this round: every invocation of it fails. Its
            # figures are what the dead worker used up to its end (the CPU
            # includes its import), and no further round runs.
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            tally.attempted += len(argvs)
            tally.failed += len(argvs)
            tally.failures.append(
                f"worker died {died_after_s:.1f} s into a round (exit {worker.proc.returncode});"
                f" its {len(argvs)} invocations count as failed"
            )
            return {
                "died": True,
                "wall_s": died_after_s,
                "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
                "peak_rss_kb": after.ru_maxrss,
                "results": [],
                "trace": {"functions": {}, "root_s": 0.0, "spans": 0},
            }
        for result in reply["results"]:
            tally.attempted += 1
            if result["code"] != 0:
                tally.failed += 1
                tally.failures.append(
                    f"{' '.join(result['argv'])}: exit {result['code']}\n{result['error'] or ''}"
                )
            tally.check(
                f"{' '.join(result['argv'])}: stdout identical to earlier runs of this source",
                lambda: digests.matches(result["argv"], result["stdout"]),
            )
        # The output checks depend on the output bytes alone, so a round that
        # repeats an earlier round's outputs byte for byte reuses its verdicts.
        outputs = [[r["argv"], r["code"], r["stdout"], r["stderr"]] for r in reply["results"]]
        key = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        if key not in verdicts:
            verdicts[key] = checks.Tally()
            check_round(checks, args.workload, reply["results"], verdicts[key])
        tally.add(verdicts[key])
        reply["wall_s"] = sum(r["wall_s"] for r in reply["results"])
        reply["cpu_s"] = sum(r["cpu_s"] for r in reply["results"])
        return reply

    rounds = [timed_round(trace=False)]
    while not rounds[-1].get("died") and sum(r["measured_s"] for r in rounds) < args.seconds:
        rounds.append(timed_round(trace=False))
    traced = None
    if args.trace:
        # After a dead round no further round runs; its figures stand in.
        traced = rounds[-1] if rounds[-1].get("died") else timed_round(trace=True)
    while len(setup) < SETUP_SAMPLES:
        probe = Worker(root)
        setup.append(probe.ready - probe.started)
        probe.close()
    digests.save()

    wall_s = statistics.median(r["wall_s"] for r in rounds)
    info = manifest(root, src_sha256, src_lines)
    info.update(
        workload=args.workload,
        seed=args.seed,
        argvs=argvs,
        setup_s=setup,
        round_wall_s=[r["wall_s"] for r in rounds],
        round_cpu_s=[r["cpu_s"] for r in rounds],
    )
    print("manifest " + json.dumps(info), file=sys.stderr)
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    if traced is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (max(r["peak_rss_kb"] for r in rounds) / 1024.0, "MB"),
        }
    else:
        results = traced["results"]
        records = {
            "search": count_rows(results, "search") + count_rows(results, "tulsi"),
            "tulsi": count_rows(results, "tulsi"),
        }
        metrics = tracer.layer_metrics(traced["trace"], traced["wall_s"], wall_s, records)
        table = sorted(traced["trace"]["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for fn, slot in table:
            print(
                f"trace {fn:<45} calls {slot['calls']:>7}  self {slot['self_s']:9.4f} s"
                f"  incl {slot['incl_s']:9.4f} s",
                file=sys.stderr,
            )

    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
