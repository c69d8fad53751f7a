"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup     --workload W
    python3 perfbench/child.py reference --workload W --seed N
    python3 perfbench/child.py measure   --workload W --seed N --seconds S --trace 0|1

``setup`` prints ``ready`` once the first timed call could start.
``reference`` and ``measure`` print one JSON object on stdout.  Each call of
``surdcf.cli.main`` writes into a sink that hashes its stdout, so the
benchmark holds no copy of the output unless it has to parse it.  The
untraced timed calls run under ``hostspeed.Sampler``, which records the host
factor over each call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (sibling modules; perfbench/ is sys.path[0])
import workloads  # noqa: E402


class HashSink(io.TextIOBase):
    """Text stream that keeps only the sha256 and length of what is written."""

    def __init__(self, keep: bool = False):
        self._hash = hashlib.sha256()
        self.nbytes = 0
        self._kept = [] if keep else None

    def write(self, s: str) -> int:
        b = s.encode("utf-8")
        self._hash.update(b)
        self.nbytes += len(b)
        if self._kept is not None:
            self._kept.append(b)
        return len(s)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def getvalue(self) -> bytes:
        return b"".join(self._kept)


def _import_cli():
    from surdcf import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"surdcf imported from {cli.__file__}, not from this checkout's src/")
    return cli


def _prepare(workload):
    """The lazy set-up a user pays before the first call: the registry load
    (which also fills the expression parse cache) on verify-registry."""
    if workload.name == "verify-registry":
        from surdcf import families

        families.registry()


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_once(cli, argv: list[str], keep: bool = False,
             host_numpy: bool | None = None) -> dict:
    """One call.  Unless ``host_numpy`` is None, the host is probed during
    the call: ``wall_s`` leaves out the time the probes took, and
    ``host_factor`` is taken over the call (with the numpy part if
    ``host_numpy``)."""
    sample_host = host_numpy is not None
    sink = HashSink(keep)
    host = hostspeed.Sampler() if sample_host else contextlib.nullcontext()
    cpu0 = _cpu_s()
    with host:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
    out = {"rc": rc, "wall_s": wall, "cpu_s": _cpu_s() - cpu0,
           "sha256": sink.hexdigest(), "bytes": sink.nbytes}
    if sample_host:
        out.update(wall_s=wall - host.probe_wall_s,
                   host_factor=hostspeed.factor(host.samples, host_numpy),
                   probes=len(host.samples))
    if keep:
        out["stdout"] = sink.getvalue()
    return out


def cmd_setup(args) -> None:
    _import_cli()
    _prepare(workloads.WORKLOADS[args.workload])
    print("ready", flush=True)


def cmd_reference(args) -> None:
    """Exact-engine output of an analyze workload, plus the --jobs 1 check."""
    w = workloads.WORKLOADS[args.workload]
    cli = _import_cli()
    argv = w.argv(args.seed) + ["--kernel", "python"]
    ref = run_once(cli, argv, keep=True)
    result = {"argv": argv, "rc": ref["rc"], "sha256": ref["sha256"], "bytes": ref["bytes"],
              "counts": workloads.output_counts(w, ref["stdout"]), "seconds": ref["wall_s"]}
    if w.jobs != 1:
        one = run_once(cli, w.argv(args.seed, jobs=1))
        result["jobs1_sha256"] = one["sha256"]
    print(json.dumps(result))


def _machine() -> dict:
    import numpy

    from surdcf import _kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    backend_name = getattr(_kernels, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "backend_requested": os.environ.get("SURDCF_KERNEL") or "default",
        "backend_ran": backend_name() if backend_name else "unknown",
    }


def _closed_loop(cli, argv, seconds: float, host_numpy: bool | None = None) -> list[dict]:
    """One client: each call starts when the previous one returned; at
    least one call, then more until ``seconds`` have passed."""
    calls = []
    t_end = time.perf_counter() + seconds
    while not calls or time.perf_counter() < t_end:
        calls.append(run_once(cli, argv, host_numpy=host_numpy))
    return calls


def cmd_measure(args) -> None:
    w = workloads.WORKLOADS[args.workload]
    cli = _import_cli()
    _prepare(w)
    argv = w.argv(args.seed)
    result = {"machine": _machine(), "argv": argv}
    if not args.trace:
        calls = _closed_loop(cli, argv, args.seconds, host_numpy=w.uses_numpy)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(calls=calls, peak_rss_mb=rss_kb / 1024)
        print(json.dumps(result))
        return

    import tracer

    # Untraced calls of the workload's own command give the fan-out busy
    # ratio; the traced call and its untraced baseline run at --jobs 1,
    # because worker processes cannot hand spans back.
    fan = _closed_loop(cli, argv, args.seconds / 2)
    argv1 = w.argv(args.seed, jobs=1)
    base = fan if argv1 == argv else [run_once(cli, argv1) for _ in range(2)]
    tr = tracer.Tracer(w.name)
    with tracer.patched(tr) as missing:
        root = tr.open(tr.name_id(tracer.ROOT))
        traced = run_once(cli, argv1)
        tr.close(root)
    traced_s = (tr.end[root] - tr.start[root]) / 1e9

    layer = tracer.layer_metrics(tr)
    layer.update({
        "analyzer.fanout.busy_ratio": statistics.median(c["cpu_s"] / c["wall_s"] for c in fan),
        # Computed, not observed: the pickled size of the report that the
        # workers of a --jobs run send back in parts.
        "analyzer.fanout.result_bytes": len(pickle.dumps(tr.report)) if w.jobs > 1 else 0,
        "cli.stdout_bytes": traced["bytes"],
        # The first call of a process runs cold; leave it out of the
        # baseline when there is another.
        "trace.overhead": traced_s / statistics.median(c["wall_s"] for c in base[len(base) > 1:]),
    })
    out_dir = ROOT / ".perfbench" / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.save(out_dir / f"{w.name}.npz")
    trace_counts = {f"{k}.calls": v["calls"] for k, v in tr.totals().items()}
    trace_counts.update(tr.counters)
    result.update(
        calls=fan + ([] if base is fan else base) + [traced],
        layer=layer,
        trace_counts=trace_counts,
        trace_wall_s=traced_s,
        self_sum_s=tr.self_ns_sum() / 1e9,
        slowest_family=tr.slowest[1],
        unbound=missing,
    )
    print(json.dumps(result))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "reference", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    {"setup": cmd_setup, "reference": cmd_reference, "measure": cmd_measure}[args.mode](args)


if __name__ == "__main__":
    main()
