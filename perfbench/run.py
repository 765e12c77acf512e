"""Benchmark of the retiming-and-recycling reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2_sweep --seed 1 --seconds 10 --trace 0

Workloads: ``table2_sweep``, ``search_large`` and ``service_mix`` (see
``perfbench/README.md``).  The script runs the workload from fresh
processes: several of them only set up (their median start-to-ready time is
``setup_s``), the last one also runs the timed rounds.  It prints every
metric by name with its unit and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer table of a
traced run.  ``--quick`` runs tiny inputs, to check the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_p50_ms": "ms",
    "cold_p95_ms": "ms",
    "warm_p50_ms": "ms",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("table2_sweep", "search_large", "service_mix")
#: Processes started per run; each start is one ``setup_s`` sample.
SETUPS = 5
QUICK_SETUPS = 2
#: Wall-clock limits in seconds: to become ready, and for the whole run.
READY_TIMEOUT = 120
RUN_TIMEOUT = 170


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: checks the harness end to end in seconds")
    return parser.parse_args(argv)


def child_env(build: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # A kernel cache of the benchmark's own, built once per checkout.
    env["REPRO_SIM_KERNEL_CACHE"] = str(build / "kernels")
    # Fixed string hashing, so every run of a seed iterates sets the same way.
    env["PYTHONHASHSEED"] = "0"
    return env


def build_kernel(env: dict) -> dict:
    """Compile (or load) the simulation kernel before anything is timed."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.sim.kernels import kernel_info; "
         "print(json.dumps(kernel_info()))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if probe.returncode != 0:
        raise HarnessError(f"kernel probe failed:\n{probe.stderr}")
    return json.loads(probe.stdout.strip().splitlines()[-1])


def start_workload(args, env: dict, tmp: Path):
    """Start one workload process; returns it and its start-to-ready seconds."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp),
    ] + (["--quick"] if args.quick else [])
    started = time.perf_counter()
    process = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(READY_TIMEOUT, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        process.kill()
        process.wait()
        raise HarnessError(f"{args.workload} did not become ready: {line!r}")
    return process, ready


def finish(process, command: str, timeout: float) -> str:
    """Send ``command`` to a ready workload process and wait for it to end."""
    try:
        output, _ = process.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise HarnessError(f"workload process ran past {timeout} s") from None
    return output


def run_workload(args, env: dict, tmp: Path):
    """All set-up samples, then the timed rounds in the last process."""
    setups = []
    count = QUICK_SETUPS if args.quick else SETUPS
    for _ in range(count - 1):
        process, ready = start_workload(args, env, tmp)
        setups.append(ready)
        finish(process, "exit", 60)
    process, ready = start_workload(args, env, tmp)
    setups.append(ready)
    output = finish(process, "go", RUN_TIMEOUT)
    lines = [line for line in output.splitlines() if line.startswith("{")]
    if not lines:
        raise HarnessError(f"{args.workload} printed no result "
                           f"(exit code {process.returncode})")
    return json.loads(lines[-1]), setups


def report(args, result: dict, setups) -> dict:
    if args.trace:
        from layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
        if result["correct"]:
            result["metrics"]["setup_s"] = statistics.median(setups)
    metrics = {}
    if result["correct"]:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{args.workload:>13}  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{args.workload:>13}  operations attempted {result['attempted']}, "
          f"failed {result['failed']}, rounds {result.get('rounds', 0)}")
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build" / "perfbench"
    tmp = build / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(build)
    try:
        info = build_kernel(env)
        print(f"perfbench: kernel backend {info['backend']}", file=sys.stderr)
        result, setups = run_workload(args, env, tmp)
        summary = report(args, result, setups)
        if args.trace and summary["correct"]:
            table = build / f"per_layer-{args.workload}.json"
            table.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
