"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study_small --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off
and scaled to the host's reference speed (see ``calibrate.py``);
``--trace 1`` prints the per-layer metrics of a traced unit.  Every run
checks the program's outputs.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a record of the run (environment, checks, every figure)
goes to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, at_reference, calibration_s  # noqa: E402
from metrics import END_TO_END, per_layer_names  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402

#: Extra set-up-only processes per run, half before and half after the
#: measuring one, so the samples span the run; set-up time is the median
#: of these and the measuring process's own set-up.
SETUP_SAMPLES = 6
#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 170.0


def _environment(seed: int, data_seed: int) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": _commit(),
        "seed": seed,
        "data_seed": data_seed,
    }


def _commit() -> str:
    """The git commit of this checkout, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def _calibrate(samples: list) -> None:
    """Time the calibration on the CPU the children pin themselves to."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        samples.append(calibration_s())
    finally:
        os.sched_setaffinity(0, allowed)


def _child(workload: str, seed: int, data_seed: int, mode: str,
           seconds: float, tag: str) -> dict:
    """Start one fresh interpreter for the workload; return its result."""
    work = OUT / "work" / f"{workload}-{seed}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    out = OUT / f"{workload}-seed{seed}-data{data_seed}-{tag}.json"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        TMPDIR=str(work / "tmp"),
        PYTHONHASHSEED="0",
        # Bytecode is cached in one place for every child whatever the
        # environment says, so set-up time is that of a warm install, not
        # of whether __pycache__ directories happen to exist.
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "child.py"),
                "--workload", workload, "--seed", str(seed),
                "--data-seed", str(data_seed), "--mode", mode,
                "--seconds", str(seconds), "--t0", repr(t0),
                "--workdir", str(work), "--out", str(out),
            ],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(
            f"{workload} {mode} process failed ({proc.returncode}):\n"
            f"{proc.stderr[-4000:]}"
        )
    result = json.loads(out.read_text())
    if "error" in result:
        sys.stderr.write(proc.stderr[-4000:])
    return result


def run(workload: str, seed: int, data_seed: int, seconds: float,
        trace: bool) -> dict:
    errors, calibrations = [], []

    def start(mode: str, tag: str) -> dict:
        # Untraced runs calibrate before every child and after the last,
        # so the samples bracket every timed process.
        if not trace:
            _calibrate(calibrations)
        return _child(workload, seed, data_seed, mode, seconds, tag)

    def set_up_only(tags: list) -> list:
        samples = []
        for tag in tags:
            child = start("setup", tag)
            if "error" in child:
                errors.append(child["error"])
            else:
                samples.append(child["setup_s"])
        return samples

    # Set-up time is an end-to-end metric, so only untraced runs sample it.
    tags = [] if trace else [f"setup{i}" for i in range(SETUP_SAMPLES)]
    half = len(tags) // 2
    setups = set_up_only(tags[:half])
    mode = "traced" if trace else "measure"
    child = start(mode, mode)
    if "setup_s" in child:
        setups.append(child["setup_s"])
    setups += set_up_only(tags[half:])
    if not trace:
        _calibrate(calibrations)
    if "error" in child:
        errors.insert(0, child["error"])
        child.update(attempted=1, failed=1, checks=[])
    child["checks"] += [
        {"name": "every set-up and unit ran to completion", "ok": False,
         "detail": error}
        for error in errors
    ]
    attempted, failed = child["attempted"], child["failed"]
    failed += sum(not check["ok"] for check in child["checks"])
    failed = min(failed, attempted)
    if trace:
        values = dict(child.get("per_layer", {}))
        values.update(child.get("figures", {}))
        if "plain_wall_s" in child:
            values["tracing.overhead_frac"] = (
                child["traced_wall_s"] / child["plain_wall_s"] - 1.0
            )
        values["failed_frac"] = failed / attempted
        names = per_layer_names(_experiment_ids())
    else:
        values = {"peak_rss_mib": child.get("peak_rss_mib", 0.0)}
        if child.get("unit_walls_s"):
            values["wall_s"] = at_reference(
                statistics.median(child["unit_walls_s"]), calibrations
            )
        if setups:
            values["setup_s"] = at_reference(
                statistics.median(setups), calibrations
            )
        names = END_TO_END
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in names
    }
    return {
        "workload": workload,
        "environment": _environment(seed, data_seed),
        "setup_samples_s": setups,
        "calibrations_s": calibrations,
        "child": child,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _experiment_ids() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.experiments import experiment_ids

    return list(experiment_ids())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seed", type=int, default=PINNED_SEED,
        help="program seed the datasets are generated from (default: the "
        "seed the pinned digests hold at)",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.data_seed, args.seconds,
                     bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    path = OUT / (f"{args.workload}-seed{args.seed}-data{args.data_seed}"
                  f"-trace{args.trace}.run.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in env.items()))
    for check in record["child"]["checks"]:
        print(f"# check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              + ("" if check["ok"] else f": {check['detail']}"))
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if record["calibrations_s"]:
        walls = record["child"].get("unit_walls_s")
        print(f"# as measured: unit walls {walls} s, set-ups "
              f"{record['setup_samples_s']} s, calibrations "
              f"{record['calibrations_s']} s (reference {REFERENCE_S} s)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
