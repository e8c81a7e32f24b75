"""gridquake benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload feeder13-study --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout; gridquake is imported from ./src, never
from an installed copy. With ``--trace 0`` the run repeats the workload's
unit for about ``--seconds`` seconds, each time paired with a unit of the
pinned baseline in perfbench/baseline, and reports the end-to-end metrics
(BENCHMARK.json ``end_to_end``). With ``--trace 1`` it runs one untraced
unit, then wraps the public functions of every gridquake layer and repeats
the unit traced, and reports the per-layer metrics (``per_layer``).

Every unit's outputs are checked (see workloads.py); the traced run also
re-solves a seeded sample of its LPs with scipy's HiGHS. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (machine, unit times, self-time ranking) go to
.perfbench/results/, and the spans of a traced run to .perfbench/spans/.
Both are under the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a pinned copy of gridquake that every timing is paired with; see README.md
BASELINE = HERE / "baseline"
WORK = ROOT / ".perfbench"

# set-up is timed in pairs of fresh interpreters (program, baseline), one
# pair after each of the first units, so the pairs are spread over the run
SETUP_PAIRS = 6
END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LP_TOLERANCE = 1e-6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh interpreter; the baseline's worker;
    # import the pinned baseline instead of ./src
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--baseline-worker", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import gridquake and build the workload's inputs; return the state
    and the seconds it took."""
    t0 = time.perf_counter()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed)
    return workload, state, time.perf_counter() - t0


def _self_command(name: str, seed: int, *flags) -> list:
    return [sys.executable, str(HERE / "run.py"), *flags,
            "--workload", name, "--seed", str(seed)]


def setup_probe(name: str, seed: int, baseline: bool) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    flags = ("--setup-probe",) + (("--baseline",) if baseline else ())
    proc = subprocess.run(_self_command(name, seed, *flags), cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_pair(name: str, seed: int, baseline_first: bool) -> tuple:
    """Set-up seconds of the program and of the baseline, back to back."""
    first = setup_probe(name, seed, baseline_first)
    second = setup_probe(name, seed, not baseline_first)
    return (second, first) if baseline_first else (first, second)


class BaselineWorker:
    """The same workload and seed on the pinned baseline, in a child
    process that runs one unit per request and idles in between."""

    def __init__(self, name: str, seed: int):
        self.proc = subprocess.Popen(
            _self_command(name, seed, "--baseline-worker", "--baseline"),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self._reply()  # set-up done

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the baseline worker exited")
        return line

    def unit(self) -> float:
        """Wall seconds of one baseline unit."""
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def baseline_worker(name: str, seed: int):
    """Serve BaselineWorker: one timed unit per line read from stdin."""
    workload, state, _ = timed_setup(name, seed)
    out_dir = WORK / "out" / f"{name}-{os.getpid()}-baseline"
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        workload.run(state, str(out_dir))
        wall = time.perf_counter() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        print(repr(wall), flush=True)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else None."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


class Units:
    """Runs a workload's unit repeatedly and keeps what each one did."""

    def __init__(self, workload, state, out_root: Path):
        self.workload = workload
        self.state = state
        self.out_root = out_root
        self.walls = []  # seconds of each unit that completed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcomes = []
        self.fingerprint = None

    def run(self, seconds: float, after_run=None):
        """Repeat the unit while another one still fits in `seconds`; at
        least one unit runs."""
        start = time.perf_counter()
        while True:
            self.one(after_run)
            elapsed = time.perf_counter() - start
            if not self.walls or elapsed + statistics.median(self.walls) > seconds:
                return

    def one(self, after_run=None):
        index = len(self.outcomes)
        self.attempted += 1
        out_dir = self.out_root / f"u{index}"
        try:
            t0 = time.perf_counter()
            try:
                raw = self.workload.run(self.state, str(out_dir))
            finally:
                wall = time.perf_counter() - t0
                if after_run is not None:
                    after_run()
            outcome = self.workload.inspect(self.state, str(out_dir), raw)
        except Exception:  # a unit that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"raised in unit {index}")
            self.outcomes.append(None)
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.walls.append(wall)
        if self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            outcome.problems.append(f"unit {index} output differs from the "
                                    "first unit's")
        if outcome.problems:
            self.failed += 1
            self.problems.extend(f"unit {index}: {p}" for p in outcome.problems)
        self.outcomes.append(outcome)

    def quality(self) -> dict:
        done = [o for o in self.outcomes if o is not None]
        return done[0].quality if done else {}


def resolve_lp_sample(samples) -> list:
    """Re-solve sampled LPs with HiGHS; return one problem string per
    disagreement."""
    import numpy as np
    from scipy.optimize import linprog

    problems = []
    for k, (c, A, b, lo, hi, status, objective) in enumerate(samples):
        bounds = [(None if np.isinf(l) else l, None if np.isinf(h) else h)
                  for l, h in zip(lo, hi)]
        ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
        if ref.status == 2:
            if status != "infeasible":
                problems.append(f"LP sample {k}: HiGHS infeasible, ours {status}")
        elif ref.status != 0:
            problems.append(f"LP sample {k}: HiGHS status {ref.status}")
        elif status != "optimal":
            problems.append(f"LP sample {k}: HiGHS optimal, ours {status}")
        elif abs(ref.fun - objective) > LP_TOLERANCE * max(1.0, abs(ref.fun)):
            problems.append(f"LP sample {k}: objective {objective} vs "
                            f"HiGHS {ref.fun}")
    return problems


def traced_run(args, workload, state, out_root: Path, record: dict) -> dict:
    import layers
    from tracer import Tracer, write_spans

    spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"

    started = time.perf_counter()
    units = Units(workload, state, out_root)
    units.one()  # the untraced reference for trace.overhead_s
    untraced = units.walls[-1] if units.walls else None

    tracer = Tracer()
    sampler = layers.LpSampler(seed=args.seed)
    per_unit, rankings, unit_spans = [], [], []

    def after_run():
        # take this unit's spans before inspect() can add any
        spans = tracer.spans
        tracer.reset()
        timings = _read_timings(out_root / f"u{len(units.outcomes)}")
        per_unit.append(layers.unit_metrics(spans, timings))
        rankings.append(layers.self_time_ranking(spans))
        unit_spans.append(spans)

    with tracer:
        tracer.install(layers.targets(sampler), package="gridquake")
        remaining = args.seconds - (time.perf_counter() - started)
        first_traced = len(units.walls)
        units.run(max(remaining, 0.0), after_run=after_run)
    traced = units.walls[first_traced:]

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    write_spans(str(spans_path), unit_spans)
    lp_problems = resolve_lp_sample(sampler.samples)
    metrics = layers.median_metrics(per_unit) if per_unit else {}
    attempted = units.attempted + len(sampler.samples)
    failed = units.failed + len(lp_problems)
    quality = units.quality()
    for key, value in quality.items():
        metrics[f"quality.{key}"] = value
    metrics["quality.failed_ratio"] = failed / attempted
    if traced and untraced is not None:
        metrics["trace.overhead_s"] = statistics.median(traced) - untraced

    record.update(units=_units_record(units), lp_samples=len(sampler.samples),
                  lp_problems=lp_problems, untraced_s=untraced,
                  traced_s=traced, self_time_ranking=rankings[-1] if rankings
                  else {}, spans_file=str(spans_path.relative_to(ROOT)))
    # metrics are missing only when every traced unit failed
    record["missing_metrics"] = [n for n, _, _ in layers.PER_LAYER
                                 if n not in metrics]
    return _result(failed, attempted, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit, _ in layers.PER_LAYER if name in metrics})


def _read_timings(out_dir: Path) -> dict:
    path = out_dir / "timings.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _units_record(units: Units) -> dict:
    walls = units.walls
    return {"walls_s": walls, "count": len(walls),
            "min_s": min(walls, default=None),
            "median_s": statistics.median(walls) if walls else None,
            "failed": units.failed, "problems": units.problems}


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def untraced_run(args, workload, state, out_root: Path,
                 record: dict) -> dict:
    """Alternate units of the program and of the pinned baseline until the
    window ends, and report the program's times as its median ratio to the
    baseline's, in the baseline's reference seconds (README.md,
    "Steadiness")."""
    # One core for this process and its children: the host slows each core
    # by its own amount, changing over seconds, so a pair compares like
    # with like only on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    units = Units(workload, state, out_root)
    worker = BaselineWorker(args.workload, args.seed)
    try:
        units.one()  # warm-up: checked, not timed
        worker.unit()
        units.walls.clear()
        base_walls, ratios, setup_pairs, pair_walls = [], [], [], []
        start = time.perf_counter()
        while True:
            # alternate which side of a pair runs first
            base_first = len(pair_walls) % 2 == 0
            done = len(units.walls)
            if base_first:
                base = worker.unit()
            units.one()
            if not base_first:
                base = worker.unit()
            base_walls.append(base)
            if len(units.walls) > done:
                ratios.append(units.walls[-1] / base)
                pair_walls.append(units.walls[-1] + base)
            if len(setup_pairs) < SETUP_PAIRS:
                setup_pairs.append(setup_pair(args.workload, args.seed,
                                              len(setup_pairs) % 2 == 0))
            elapsed = time.perf_counter() - start
            if not pair_walls or \
                    elapsed + statistics.median(pair_walls) > args.seconds:
                break
    finally:
        worker.close()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_ratio = statistics.median(p / b for p, b in setup_pairs)
    metrics = {"setup_s": workload.setup_ref_s * setup_ratio,
               "peak_rss_mb": peak_kb / 1024.0}
    if ratios:
        metrics["study_s"] = workload.study_ref_s * statistics.median(ratios)
    record.update(units=_units_record(units), baseline_walls_s=base_walls,
                  study_ratios=ratios, setup_pairs_s=setup_pairs,
                  quality=units.quality())
    return _result(units.failed, units.attempted, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items() if name in metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridquake" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'gridquake'} not found; run from the root "
              "of a gridquake checkout", file=sys.stderr)
        return 2
    # one process, one thread: keep BLAS from spreading over the cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(BASELINE if args.baseline else SRC))

    if args.setup_probe:
        _, _, seconds = timed_setup(args.workload, args.seed)
        print(repr(seconds))
        return 0
    if args.baseline_worker:
        baseline_worker(args.workload, args.seed)
        return 0

    workload, state, first_setup = timed_setup(args.workload, args.seed)

    out_root = WORK / "out" / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "first_setup_s": first_setup,
              "machine": machine_info()}
    try:
        if args.trace:
            result = traced_run(args, workload, state, out_root, record)
        else:
            result = untraced_run(args, workload, state, out_root, record)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    record["result"] = result
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for problem in record["units"]["problems"] + record.get("lp_problems", []):
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
