#!/usr/bin/env python3
"""surdcf benchmark: one workload (or all four) for one seed.

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each workload is a closed loop with a single
client calling ``surdcf.cli.main(argv)`` in a fresh interpreter for
``--seconds`` seconds.  Every call's exit code and stdout sha256 are checked
against an exact reference (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
fresh interpreters importing the CLI and, on verify-registry, loading the
registry), ``items_per_s`` (median over the calls) and ``peak_rss_mb``
(benchmark process and its workers).  Both timings are in reference-host
seconds: each measured time is divided by the host factor taken over the
same seconds (see ``hostspeed.py``), because the speed of a shared vCPU
drifts by up to 2x over minutes.  The raw times and the factors are in the
details line.  ``--trace 1`` runs one call at
``--jobs 1`` with spans around each layer's entry points and reports the
per-layer metrics; see ``METRICS.md``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (machine block, backends, samples, exact counts).  ``--workload all``
runs the four workloads in turn and prints a table to stderr.  Caches and
span files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "surdcf"
STATE = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
# Set-up probes per run: half before the timed calls and half after, so
# that they sample the host at two times.
SETUP_PROBES = 12
# Host probes run just before and just after each set-up probe.
SETUP_HOST_PROBES = 5
# Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 175


class BenchError(Exception):
    """The benchmark could not produce a result."""


def code_digest() -> str:
    """sha256 over the package sources, keying the reference cache."""
    h = hashlib.sha256()
    for path in sorted(p for p in PKG.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(PKG)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run child.py to completion and return its stdout; kill its whole
    process group if the run's deadline passes."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} passed the {RUN_DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    return out.decode()


def setup_seconds(workload: str, probes: int, deadline: float) -> list[tuple[float, float]]:
    """(wall time from spawning a fresh interpreter until it reports ready,
    host factor around it), once per probe."""
    times = []
    for _ in range(probes):
        host = hostspeed.burst(SETUP_HOST_PROBES)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "setup", "--workload", workload],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, start_new_session=True,
        )
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("setup probe passed the deadline") from None
        if line.strip() != b"ready" or rc != 0:
            raise BenchError(f"setup probe failed (exit {rc})")
        host += hostspeed.burst(SETUP_HOST_PROBES)
        # Start-up loads numpy and runs the import machinery: both parts.
        times.append((wall, hostspeed.factor(host, numpy=True)))
    return times


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name to unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _argv_key(argv: list[str]) -> str:
    return "_".join(argv).replace("-", "")


def reference(w: workloads.Workload, seed: int, digest: str, deadline: float) -> dict:
    """The exact output this (workload, seed) must produce; for the analyze
    workloads it is cached per program digest and command line."""
    if w.pinned:
        return {"sha256": w.pinned["sha256"], "bytes": w.pinned["bytes"],
                "counts": w.pinned["counts"], "source": "seed-commit digest"}
    path = STATE / "ref" / digest / f"{_argv_key(w.argv(seed))}.json"
    if path.exists():
        ref = json.loads(path.read_text())
    else:
        ref = json.loads(run_child(["reference", "--workload", w.name, "--seed", str(seed)], deadline))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(ref))
    return {**ref, "source": "--kernel python"}


def check_counts(w: workloads.Workload, seed: int, digest: str, counts: dict) -> list[str]:
    """Store this run's exact counts; return the keys whose value differs
    from an earlier run of the same command line and program."""
    path = STATE / "counts" / digest / f"{_argv_key(w.argv(seed))}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in counts if k in seen and seen[k] != counts[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**seen, **counts}, sort_keys=True))
    return differ


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, details)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    w = workloads.WORKLOADS[name]
    digest = code_digest()
    ref = reference(w, seed, digest, deadline)
    problems = []
    if ref.get("rc", 0) != 0:
        problems.append(f"reference exited with {ref['rc']}")
    if "jobs1_sha256" in ref and ref["jobs1_sha256"] != ref["sha256"]:
        problems.append("--jobs 1 output differs from the reference")

    setup = [] if trace else setup_seconds(name, SETUP_PROBES // 2, deadline)
    m = json.loads(run_child(["measure", "--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(int(trace))], deadline))
    if not trace:
        setup += setup_seconds(name, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    calls = m["calls"]
    failed = sum(c["rc"] != 0 or c["sha256"] != ref["sha256"] for c in calls)

    counts = dict(ref["counts"])
    if trace:
        counts.update(m["trace_counts"])
        if abs(m["self_sum_s"] - m["trace_wall_s"]) > 1e-6:
            problems.append("span self times do not sum to the traced wall")
    differ = check_counts(w, seed, digest, counts)
    if differ:
        problems.append(f"counts differ from an earlier run of this seed: {differ}")

    if trace:
        metrics = dict(m["layer"])
        metrics["analyzer.counterexamples"] = sum(counts.get("counterexamples", {}).values())
    else:
        items = w.items(ref["counts"])
        metrics = {
            "items_per_s": statistics.median(items * c["host_factor"] / c["wall_s"] for c in calls),
            "setup_s": statistics.median(wall / f for wall, f in setup),
            "peak_rss_mb": m["peak_rss_mb"],
        }
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    line = {
        "correct": failed == 0 and not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    details = {
        "workload": name, "seed": seed, "argv": m["argv"], "trace": trace,
        "machine": m["machine"], "program_digest": digest,
        "reference": {k: ref[k] for k in ("source", "sha256", "bytes") if k in ref},
        "failed_frac": failed / len(calls), "problems": problems,
        "samples_wall_s": [c["wall_s"] for c in calls],
        "samples_host_factor": [c["host_factor"] for c in calls if "host_factor" in c],
        "setup_samples_s": [wall for wall, _ in setup],
        "setup_host_factor": [f for _, f in setup],
        "counts": counts,
    }
    if not trace:
        details["raw"] = {
            "items_per_s": statistics.median(items / c["wall_s"] for c in calls),
            "setup_s": statistics.median(wall for wall, _ in setup),
        }
    if trace:
        details.update({k: m[k] for k in ("unbound", "trace_wall_s", "self_sum_s", "slowest_family")})
    return line, details


def _summary(line: dict, details: dict) -> str:
    rows = [f"{details['workload']} seed={details['seed']} correct={line['correct']}"
            f" attempted={line['attempted']} failed_frac={details['failed_frac']:.4f} (ratio)"]
    for k, v in line["metrics"].items():
        rows.append(f"  {k:<40} {v['value']:>16.6g} {v['unit']}")
    rows.extend(f"  problem: {p}" for p in details["problems"])
    return "\n".join(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PKG / "cli.py").is_file():
        print(f"perfbench: no surdcf sources under {PKG}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            line, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(_summary(line, details), file=sys.stderr)
            results[name] = (line, details)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        print(json.dumps({n: d for n, (_, d) in results.items()}))
        print(json.dumps({n: line for n, (line, _) in results.items()}))
    else:
        line, details = results[args.workload]
        print(json.dumps(details))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
