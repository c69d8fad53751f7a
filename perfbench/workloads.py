"""The four benchmark workloads: their CLI argv, item counts and references.

Each workload is one ``surdcf`` command run in-process through
``surdcf.cli.main(argv)``.  The seed only moves the two ``analyze`` windows;
``verify-registry`` and ``mine-sweep`` are fixed commands and ignore it.

References:

* ``analyze-*``: the same command with ``--kernel python`` (the exact engine,
  no sweep kernel), produced once per (workload, seed, program digest) and
  cached.  The ``analyze-dense`` reference must also equal the default
  kernel's ``--jobs 1`` output.
* ``verify-registry`` and ``mine-sweep``: the stdout digests of the seed
  commit, pinned below together with the counts parsed from that output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Period lengths above the seed commit's sweep-kernel word buffer overflow a
# kernel lane and are redone by the exact engine.
WORD_BUFFER = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (lo, width, seed span): analyze over [lo + s, lo + s + width - 1], s drawn
    # from [0, seed span); None for the fixed commands.
    window: tuple[int, int, int] | None = None
    base_argv: tuple[str, ...] = ()
    jobs: int = 1
    pinned: dict = field(default_factory=dict)

    @property
    def uses_numpy(self) -> bool:
        """Whether the command runs numpy kernels; it picks the host probe's
        parts (see ``hostspeed.py``).  Only ``analyze`` does."""
        return self.window is not None

    def offset(self, seed: int) -> int:
        if self.window is None:
            return 0
        return random.Random(seed).randrange(self.window[2])

    def argv(self, seed: int, jobs: int | None = None) -> list[str]:
        jobs = self.jobs if jobs is None else jobs
        if self.window is None:
            argv = list(self.base_argv)
            if jobs != 1:
                argv += ["--jobs", str(jobs)]
            return argv
        lo, width, _ = self.window
        d_from = lo + self.offset(seed)
        return ["analyze", "--from", str(d_from), "--to", str(d_from + width - 1),
                "--jobs", str(jobs)]

    def items(self, counts: dict) -> int:
        """Work items of one call: radicands, members tested or skipped, or
        palindromes tried."""
        if self.window is not None:
            return self.window[1]
        if self.name == "verify-registry":
            return counts["members_tested"] + counts["members_skipped"]
        return counts["palindromes_tried"]


ANALYZE_DENSE = Workload(
    name="analyze-dense",
    why=("analyze --from 2+s --to 50001+s --jobs 2, s seeded in [0,1000): many short periods;"
         " sweep kernel dominates, plus claim fold, 1.6 MB report and the only process fan-out"),
    window=(2, 50_000, 1_000),
    jobs=2,
)

ANALYZE_DEEP = Workload(
    name="analyze-deep",
    why=("analyze --from 5e7+s --to 5e7+s+999 --jobs 1, s seeded in [0,1e6): long periods, some"
         " past the 8192 word buffer; two-squares mask dominates; only workload redoing lanes exactly"),
    window=(5 * 10**7, 1_000, 10**6),
    jobs=1,
)

VERIFY_REGISTRY = Workload(
    name="verify-registry",
    why=("verify-families over the whole registry, seed unused: bypasses analyzer and kernels;"
         " expand_sqrt on big radicands and families.instantiate; 25.8 MB of output"),
    base_argv=("verify-families",),
    pinned={
        "sha256": "67ffc41c95a56dc12ced7194ec3e259a23d9dcafc42b6e7c2b914e4b797fb8b9",
        "bytes": 25789730,
        "counts": {"families": 121, "families_erratum": 5, "members_tested": 21508,
                   "members_skipped": 5, "members_failed": 908},
    },
)

MINE_SWEEP = Workload(
    name="mine-sweep",
    why=("mine --sweep --max-len 10 --max-entry 8, seed unused: the only workload calling miner,"
         " convergents.word_matrix with its mat2 products, and the linear congruence solver"),
    base_argv=("mine", "--sweep", "--max-len", "10", "--max-entry", "8"),
    pinned={
        "sha256": "7abb8b49fb0f4633054b43587c8e5b6c7715ca41095a181ba5ddd94b43ff3b55",
        "bytes": 8481992,
        "counts": {"palindromes_tried": 74897, "families_found": 56173},
    },
)

WORKLOADS = {w.name: w for w in (ANALYZE_DENSE, ANALYZE_DEEP, VERIFY_REGISTRY, MINE_SWEEP)}


def output_counts(workload: Workload, out: bytes) -> dict:
    """Exact counts parsed from one call's stdout."""
    if workload.window is not None:
        report = json.loads(out)
        hist = {int(k): v for k, v in report["histogram"].items()}
        return {
            "radicands_tested": report["tested"],
            "squares_skipped": report["skipped"],
            "quotient_steps": sum(k * v for k, v in hist.items()),
            "overflow_lanes": sum(v for k, v in hist.items() if k > WORD_BUFFER),
            "counterexamples": {c["id"]: len(c["counterexamples"]) for c in report["claims"]},
        }
    lines = out.splitlines()
    if workload.name == "verify-registry":
        recs = [json.loads(line) for line in lines]
        return {
            "families": len(recs),
            "families_erratum": sum(r["status"] == "erratum" for r in recs),
            "members_tested": sum(r["tested"] for r in recs),
            "members_skipped": sum(r["skipped"] for r in recs),
            "members_failed": sum(len(r["failures"]) for r in recs),
        }
    max_len, max_entry = int(workload.base_argv[3]), int(workload.base_argv[5])
    return {
        "palindromes_tried": 1 + sum(max_entry ** ((n + 1) // 2) for n in range(1, max_len + 1)),
        "families_found": len(lines),
    }
