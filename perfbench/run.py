"""toruskein benchmark: one seeded workload per process, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload torus --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics, from a pass with spans recorded around the
program's public functions plus the layer microbenchmarks.  Pass times are
CPU times: each op's least time over the run's passes, summed; set-up time
is the median of several set-ups spread over the run.  Every op is checked
against an independent reference; the exit code is 1 when any op failed or
an exact count did not repeat, and 2 when the program cannot be imported
from ``src/`` (no result line is printed then).  A fuller record (machine
note, every sample, per-op sha256 of the text and JSON results) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
from tracing import Spans  # noqa: E402
from workloads import WORKLOADS, Raised, digest  # noqa: E402

MODULES = (
    "laurent", "torus_curves", "chebyshev", "skein", "oriented",
    "smoothing_oracle", "bracket_planar", "verify", "cli",
)
SETUP_REPEATS = 15
MIN_PASSES = 2
EXACT_COUNTS = (
    "laurent.mul_calls", "laurent.add_calls", "skein.mul_calls", "skein.terms_out",
    "smoothing_oracle.build_calls", "smoothing_oracle.states", "smoothing_oracle.oriented_calls",
    "bracket_planar.states", "verify.fg_cases", "verify.oriented_cases", "verify.psi_cases",
    "verify.swap_cases",
)


class ProgramMissing(RuntimeError):
    pass


def import_program() -> types.SimpleNamespace:
    """Import toruskein afresh from ``src/`` of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "toruskein" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {src / 'toruskein'}; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "toruskein" or m.startswith("toruskein.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("toruskein")
    if Path(package.__file__).resolve().parent != (src / "toruskein").resolve():
        raise ProgramMissing(f"toruskein imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"toruskein.{m}") for m in MODULES})


def tree_sha256() -> str:
    """Identity of the measured code when there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_note() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": load,
        "commit": git_commit(),
        "tree_sha256": tree_sha256(),
    }


def cpu_clock() -> float:
    """CPU seconds used by this process and its reaped children.

    Unlike wall time, this is not charged while the host runs other guests
    (steal) or while the process waits for a core.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(case, spans: Spans | None = None) -> tuple[float, list[float], list]:
    """One pass over the case's ops: its wall time, each op's CPU time, and the
    results; an op that raises yields ``Raised``."""
    results, cpu = [], []
    scratch: dict = {}
    gc.collect()
    start = time.perf_counter()
    for i, op in enumerate(case.ops):
        if spans is not None:
            spans.op_id = i
        begin = cpu_clock()
        if spans is not None:
            op = spans.wrap("op", op)
        try:
            results.append(op(scratch))
        except Exception as exc:  # the op failed; the check counts it
            results.append(Raised(exc))
        cpu.append(cpu_clock() - begin)
    return time.perf_counter() - start, cpu, results


class Checker:
    """Counts failed ops and collects the outputs' sha256 across passes."""

    def __init__(self, case, expected: list):
        self.case = case
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] | None = None
        self.problems: list[str] = []

    def check(self, results: list) -> None:
        case = self.case
        self.attempted += case.op_count
        for i, (result, want) in enumerate(zip(results, self.expected)):
            bad = case.failures(i, result, want)
            if bad:
                self.failed += bad
                if len(self.problems) < 8:
                    self.problems.append(f"{case.labels[i]}: {str(result)[:200]}")
        digests = [digest(r) for r in results]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("outputs differ between passes of one run")
            self.failed += 1


def timed_passes(case, checker: Checker, budget: float, min_passes: int,
                 between=None, between_count: int = 0) -> tuple[list[float], list[list[float]]]:
    """Repeat passes while the next one is expected to end within ``budget``
    seconds; returns each pass's wall time and each op's CPU time per pass.

    ``between`` is called ``between_count`` times, spread evenly over the
    budget between passes (and any left over after the last pass).
    """
    walls: list[float] = []
    cpus: list[list[float]] = []
    done = 0
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + statistics.median(walls) <= budget:
        wall, cpu, results = run_pass(case)
        walls.append(wall)
        cpus.append(cpu)
        checker.check(results)
        if done < between_count and time.perf_counter() - start >= budget * (done + 1) / (between_count + 1):
            between()
            done += 1
    for _ in range(done, between_count):
        between()
    return walls, cpus


def pass_cpu(cpus: list[list[float]]) -> float:
    """CPU time of one pass: each op's least CPU time over the passes, summed.

    The host's speed swings by up to a factor of two for seconds to minutes at
    a time; the least time of an op is the one least slowed by that, as in
    ``timeit``, so it repeats between runs where a mean or median does not.
    """
    return sum(min(op) for op in zip(*cpus))


def layer_metrics(spans: Spans, case, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    s = spans.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    build_s, build_calls = get("smoothing_oracle.build", "total_s"), get("smoothing_oracle.build", "calls")
    state_sum_s, states = get("smoothing_oracle.unoriented", "self_s"), get("smoothing_oracle.unoriented", "count")
    bracket_s, bracket_states = get("bracket_planar.bracket", "total_s"), get("bracket_planar.bracket", "count")
    sweeps = {k: get(f"verify.{k}", "total_s") for k in ("fg", "oriented", "psi", "swap")}
    ops = spans.by_op("op")
    builds = spans.by_op("smoothing_oracle.build")

    def build_share(group):
        ids = [i for i, g in enumerate(case.groups) if g == group]
        return per(sum(builds.get(i, 0.0) for i in ids), sum(ops.get(i, 0.0) for i in ids))

    out = {
        "tracing.overhead_s": traced_wall - untraced_wall,
        "tracing.spans": len(spans),
        "states_per_s": per(case.states, untraced_wall),
        "laurent.mul_calls": get("laurent.mul", "calls"),
        "laurent.add_calls": get("laurent.add", "calls"),
        "laurent.self_s": get("laurent.mul", "self_s") + get("laurent.add", "self_s"),
        "skein.mul_calls": get("skein.mul", "calls"),
        "skein.mul_self_s": get("skein.mul", "self_s"),
        "skein.basis_change_s": get("skein.basis_change", "total_s"),
        "skein.terms_out": get("skein.mul", "count"),
        "oriented.mul_self_s": get("oriented.mul", "self_s"),
        "oriented.psi_s": get("oriented.psi", "total_s"),
        "oriented.psi_inverse_s": get("oriented.psi_inverse", "total_s"),
        "smoothing_oracle.build_calls": build_calls,
        "smoothing_oracle.build_s": build_s,
        "smoothing_oracle.build_ms_per_call": per(build_s, build_calls, 1e3),
        "smoothing_oracle.build_share": per(build_s, traced_wall),
        "smoothing_oracle.build_share_verify": build_share("certify"),
        "smoothing_oracle.build_share_products": build_share("oracle_deep"),
        "smoothing_oracle.state_sum_s": state_sum_s,
        "smoothing_oracle.states": states,
        "smoothing_oracle.us_per_state": per(state_sum_s, states, 1e6),
        "smoothing_oracle.oriented_calls": get("smoothing_oracle.oriented", "calls"),
        "smoothing_oracle.oriented_s": get("smoothing_oracle.oriented", "total_s"),
        "bracket_planar.bracket_s": bracket_s,
        "bracket_planar.states": bracket_states,
        "bracket_planar.us_per_state": per(bracket_s, bracket_states, 1e6),
        "cli.overhead_s": get("cli.run", "total_s") - sum(sweeps.values()) if get("cli.run", "calls") else 0.0,
    }
    for k, seconds in sweeps.items():
        out[f"verify.{k}_s"] = seconds
        out[f"verify.{k}_cases"] = get(f"verify.{k}", "count")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            corrupt: bool = False) -> dict:
    """Set up, run and check one workload; returns the full record of the run."""
    make = WORKLOADS[workload]
    setups = []

    def set_up():
        start = cpu_clock()
        prog = import_program()
        case = make(prog, seed, scale)
        case.warm_up()
        setups.append(cpu_clock() - start)
        return prog, case

    # The first set-up is the one measured; the others repeat it between the
    # timed passes, so that their median spans the run.
    prog, case = set_up()

    expected = case.references()
    if corrupt:  # flip one coefficient of one reference: the gate must catch it
        expected = list(expected)
        expected[-1] = _corrupted(expected[-1])
    checker = Checker(case, expected)
    record = {"workload": workload, "seed": seed, "scale": scale, "trace": int(trace),
              "ops_per_pass": case.op_count, "states_per_pass": case.states,
              "setup_samples_s": setups, "inputs": case.labels[:64]}

    if not trace:
        walls, cpus = timed_passes(case, checker, seconds, MIN_PASSES, set_up, SETUP_REPEATS - 1)
        cpu = pass_cpu(cpus)
        metrics = {
            "setup_s": statistics.median(setups),
            "cpu_s": cpu,
            "ops_per_cpu_s": case.op_count / cpu,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(wall_samples_s=walls, op_cpu_samples_s=cpus)
    else:
        walls, _cpus = timed_passes(case, checker, seconds / 2, 1)
        spans = Spans()
        with spans.installed(prog):
            traced_wall, _cpu, results = run_pass(case, spans)
        checker.check(results)
        metrics = layer_metrics(spans, case, traced_wall, statistics.median(walls))
        micro_metrics, problems = micro.run(prog, scale)
        metrics.update(micro_metrics)
        checker.problems += problems
        for name, want in case.expected_counts.items():
            if metrics[name] != want:
                checker.problems.append(f"{name} = {metrics[name]}, the inputs fix it at {want}")
        record.update(wall_samples_s=walls, traced_wall_s=traced_wall, untraced_targets_missing=spans.missing)

    record.update(
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate=checker.failed / checker.attempted,
        problems=checker.problems,
        outputs_sha256=hashlib.sha256("".join(checker.digests).encode()).hexdigest(),
        op_sha256=[list(pair) for pair in zip(case.labels, checker.digests)],
        metrics=metrics,
    )
    record["correct"] = checker.failed == 0 and not checker.problems
    return record


def _corrupted(value):
    if isinstance(value, tuple):  # a CLI result: change one case count
        code, out, err = value
        return code, out.replace('"cases": ', '"cases": 1', 1), err
    if isinstance(value, dict) and value:
        key = sorted(value, key=repr)[0]
        inner = value[key]
        if isinstance(inner, dict):
            return {**value, key: _corrupted(inner)}
        return {**value, key: -inner}
    return not value if isinstance(value, bool) else value + "x"


def check_repeat(record: dict, path: Path) -> None:
    """Exact counts must repeat between traced runs of the same code and seed."""
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if previous.get("tree_sha256") != record["tree_sha256"] or previous.get("scale") != record["scale"]:
        return
    for name in EXACT_COUNTS:
        old, new = previous["metrics"].get(name), record["metrics"].get(name)
        if old != new:
            record["problems"].append(f"{name} = {new}, an earlier run of the same seed counted {old}")
            record["correct"] = False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one expected value, to show that the gate catches it")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)

    note = machine_note()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                         args.corrupt_reference)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record.update(note)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        check_repeat(record, path)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"machine: python {note['python']}, nproc {note['nproc']}, cpu {note['cpu_model']}, "
          f"load {note['loadavg_at_start']}, commit {note['commit']}", file=sys.stderr)
    print(f"{args.workload}: {record['attempted']} ops attempted, {record['failed']} failed, "
          f"error_rate {record['error_rate']}, outputs sha256 {record['outputs_sha256'][:16]}, "
          f"cpu_s over {len(record['wall_samples_s'])} untraced passes", file=sys.stderr)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
