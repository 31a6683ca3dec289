"""polysed benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, and all scratch output goes to ``.bench_run/`` there.

A run makes the workload's inputs from ``--seed``, samples set-up time
(importing polysed and parsing the config in fresh processes), then passes
over the workload's stage chain until ``--seconds`` are used, at least
twice.  Every pass writes to its own directory and is checked: every
artifact parses, every ER is finite, and every pass reproduces the first
pass byte for byte (the seeded-rerun contract).  Times are medians over
passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, at least three, and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead: traced
minus untraced total time, leaving out the first pass, which also pays
for warm-up.  Spans stay in memory and go to ``.bench_run/<run>/spans.jsonl``
at the end.

The last line of stdout is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and the environment stamp.  A full record of the run
is written to ``.bench_run/<run>/result.json``.  Without a polysed source
tree next to this directory the run exits with status 2 and prints no
result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_SAMPLES = 5

# Metrics on the result line with --trace 0, with units: the ones every
# workload has, that are never 0 and that repeat across seeds.
END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the table and stored in result.json only.  Not every workload
# runs every stage; fuse-fit work depends on the seed (the sweep runs until
# no move helps); fuse-apply + eval takes milliseconds on the pipeline
# workloads; an ER or a failure share can be 0.
REPORTED_UNITS = {
    "synth_s": "s", "extract_s": "s", "train_s": "s", "predict_s": "s",
    "fuse_fit_s": "s", "apply_eval_s": "s",
    "eval_er_best_single": "ER", "eval_er_fused": "ER", "fit_er_fused": "ER",
    "failed_frac": "ratio",
}

SETUP_CODE = ("import sys\n"
              "import polysed.cli\n"
              "from polysed.config import load_config\n"
              "load_config(sys.argv[1])\n")


def _import_package():
    """Import polysed from this checkout's src/, never from elsewhere."""
    if not (SRC / "polysed" / "__init__.py").is_file():
        raise ImportError(f"no polysed source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import polysed
    if Path(polysed.__file__).resolve().parent != SRC / "polysed":
        raise ImportError(f"polysed imported from {polysed.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _blas() -> tuple[str, str]:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads = str(fn())
                    break
    except OSError:
        pass
    return name, threads or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np
    source = hashlib.sha256()
    for path in sorted((SRC / "polysed").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas, threads = _blas()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "numpy": np.__version__, "blas": blas,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": _commit(),
            "source_sha256": source.hexdigest()}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup_samples(config: Path, n: int) -> list[float]:
    """Wall time of fresh interpreters that import polysed and parse the
    config; the first, which may compile bytecode, is not kept.

    The wait blocks in waitpid: a wait with a timeout polls in steps of up
    to 50 ms and would round every sample up to the next poll.  A timer
    kills a child that hangs instead.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n + 1):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(config)],
                                 env=env, cwd=ROOT)
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return times[1:]


class Pass:
    """One closed-loop pass over a workload's stages."""

    def __init__(self, index: int, recorder=None):
        self.index = index
        self.traced = recorder is not None
        self.recorder = recorder
        self.stage_s: dict[str, float] = {}
        self.calls = 0
        self.failures: list[str] = []
        self.total_s = 0.0

    @contextlib.contextmanager
    def stage(self, name: str):
        self.calls += 1
        rec = self.recorder
        sid = rec.begin(f"pipeline.{name}") if rec else None
        if rec:
            rec.stage_id = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = self.stage_s.get(name, 0.0) + time.perf_counter() - start
            if rec:
                rec.end(sid)
                rec.stage_id = None


def run_pass(workload, inputs, out: Path, index: int, traced: bool):
    import spans
    rec = spans.Recorder() if traced else None
    p = Pass(index, rec)
    if rec:
        rec.run_id = index
    undo = spans.install(rec) if rec else []
    start = time.perf_counter()
    try:
        workload.run(inputs, out, p.stage)
    except Exception:  # a failed stage call is counted, the run reports it
        p.failures.append(f"pass {index}: stage call failed:\n{traceback.format_exc()}")
    finally:
        p.total_s = time.perf_counter() - start
        spans.uninstall(undo)
    return p


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"bench: cannot import polysed: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment(args)
    inputs = workload.prepare(args.seed, work)
    config = work / "setup.cfg"
    config.write_text(workload.config_text(args.seed))

    begin = time.perf_counter()
    deadline = begin + args.seconds
    setup = setup_samples(config, SETUP_SAMPLES)

    passes: list[Pass] = []
    attempted = failed = 0
    failures: list[str] = []
    first_digest = None
    ers: dict = {}
    pass_walls: list[float] = []
    per_layer_passes: list[dict] = []
    # A traced run needs an untraced pass after the traced one: the first
    # pass of a process pays for page faults and warm-up and is no baseline.
    min_passes = MIN_PASSES + args.trace
    while len(passes) < min_passes or time.perf_counter() + median(pass_walls) <= deadline:
        index = len(passes)
        wall = time.perf_counter()
        traced = bool(args.trace) and index % 2 == 1
        out = work / f"pass{index}"
        p = run_pass(workload, inputs, out, index, traced)
        passes.append(p)
        attempted += p.calls
        failed += len(p.failures)
        failures += p.failures
        if p.failures:
            break
        results, pass_ers = workload.check(inputs, out)
        digest = checks.digest(out)
        if first_digest is None:
            first_digest, ers = digest, pass_ers
        else:
            results.append(("rerun identity",
                            "; ".join(checks.rerun_failures(first_digest, digest)) or None))
        attempted += len(results)
        bad = [f"pass {index}: {name}: {why}" for name, why in results if why]
        failed += len(bad)
        failures += bad
        if p.recorder:
            per_layer_passes.append(spans.per_layer_metrics(p.recorder.spans))
        shutil.rmtree(out, ignore_errors=True)
        pass_walls.append(time.perf_counter() - wall)
        if bad:
            break

    untraced = [p for p in passes if not p.traced]
    ran = [name for name in ("synth", "extract", "train", "predict", "fuse_fit")
           if any(name in p.stage_s for p in untraced)]
    reported = {
        "total_s": median([p.total_s for p in untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{f"{name}_s": median([p.stage_s.get(name, 0.0) for p in untraced]) for name in ran},
        "apply_eval_s": median([p.stage_s.get("fuse_apply", 0.0) + p.stage_s.get("eval", 0.0)
                                for p in untraced]),
        **{name: ers[name] for name in ("eval_er_best_single", "eval_er_fused", "fit_er_fused")
           if name in ers},
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        traced_totals = [p.total_s for p in passes if p.traced]
        metrics = {name: median([m[name] for m in per_layer_passes])
                   for name in spans.PER_LAYER_UNITS}
        baseline = [p.total_s for p in untraced[1:]] or [p.total_s for p in untraced]
        metrics["trace.overhead_s"] = median(traced_totals) - median(baseline)
        units = spans.PER_LAYER_UNITS
    else:
        metrics = {name: reported[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    correct = failed == 0 and len(passes) >= min_passes

    print(f"polysed bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setup samples={len(setup)}")
    for name, unit in {**END_TO_END_UNITS, **REPORTED_UNITS}.items():
        value = reported.get(name)
        print(f"  {name:<22} {'absent' if value is None else f'{value:.6g}':>12} {unit}")
    if args.workload == "desk" and ers:
        print(f"  acceptance desk gate (singles <= 0.6, fused fit <= best single fit): "
              f"{'held' if checks.desk_gate(ers) else 'missed'} (reported only: the gate is "
              f"calibrated for the full 60/20-clip desk run)")
    for line in failures:
        print(f"  FAILED {line}", file=sys.stderr)
    record = {"environment": env, "reported": reported, "ers": ers, "failures": failures,
              "passes": [{"index": p.index, "traced": p.traced,
                          "total_s": p.total_s, "stage_s": p.stage_s} for p in passes],
              "setup_samples": setup, "per_layer": metrics if args.trace else None}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans.write_spans([p.recorder for p in passes if p.recorder], work / "spans.jsonl")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
