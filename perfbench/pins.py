"""Output-correctness pins: per-point result digests and failure accounting.

``pins/<workload>.json`` holds, for each pinned workload seed, one entry
per pinned outcome of a pass (in pass order): the first 8 hex digits of
the sha256 of the operation's JSON result, or ``failed-<class>`` for an
operation that fails at the pinned commit with a known defect.  A run compares
every outcome to its pin; a seed without pins is checked by the
workloads' own invariants and by agreement between its passes.

Regenerate the pins only when simulated results are meant to change::

    python3 perfbench/pins.py --seeds 0-31 [--workload NAME]
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

PIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")

#: Defects present at the pinned commit, counted as failed operations
#: (never hidden).  Each is matched on the failure text.
KNOWN_FAILURES: Dict[str, Tuple[str, str]] = {
    "a": (
        r"AttributeError: '\w+' object has no attribute 'block'",
        "traced run with a software lock or barrier raises AttributeError "
        "(sync span asks for .block)",
    ),
    "b": (
        r"FuzzFailure\[faults writeupdate.*structural invariant: .* != memory .* at quiescence",
        "fault-injected fuzz on writeupdate: node copy != memory at quiescence",
    ),
    "c": (
        r"FuzzFailure\[faults wbi.*structural invariant: .*holds SHARED but is not registered",
        "fault-injected fuzz on wbi: node holds SHARED but is not registered",
    ),
    "d": (
        r"FuzzFailure\[faults primitives.*rmw linearizability",
        "fault-injected fuzz on primitives: rmw history not linearizable",
    ),
    "e": (
        r"^InvariantViolation: block \d+: node \d+ copy .* != memory .* at quiescence",
        "fault-free writeupdate run (conformance syncmodel/workqueue): node copy != "
        "memory at quiescence, writeupdate's known update-reordering hazard under "
        "hot unlocked same-word writes",
    ),
}


def digest(result: Any) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def classify(error: str) -> Optional[str]:
    """The known-failure class ``error`` belongs to, or ``None``."""
    for cls, (pattern, _) in KNOWN_FAILURES.items():
        if re.search(pattern, error):
            return cls
    return None


def entry(result: Any, error: Optional[str]) -> str:
    """The pin entry an outcome would produce."""
    if error is None:
        return digest(result)
    return f"failed-{classify(error) or '?'}"


def pin_path(workload: str) -> str:
    return os.path.join(PIN_DIR, f"{workload}.json")


def load(workload: str) -> Dict[str, Any]:
    """``{"keys": [...], "seeds": {seed: [entry, ...]}}`` (empty if none)."""
    try:
        with open(pin_path(workload)) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return {"keys": [], "seeds": {}}
    doc["seeds"] = {int(s): v.split() for s, v in doc["seeds"].items()}
    return doc


def pins_for(workload: str, seed: int, keys: Sequence[str]) -> Optional[Dict[str, str]]:
    """Pinned entries by outcome key for ``seed``, or ``None`` if unpinned.

    Raises when pins exist but were made for another plan (another list
    of outcome keys): they would check nothing, and the benchmark must be
    re-pinned with its plan.
    """
    doc = load(workload)
    if seed not in doc["seeds"]:
        return None
    if list(keys) != doc["keys"]:
        raise ValueError(
            f"{pin_path(workload)} was made for another plan; regenerate it "
            "with python3 perfbench/pins.py"
        )
    return dict(zip(doc["keys"], doc["seeds"][seed]))


@dataclass
class Tally:
    """Failure accounting over the operations of a run.

    Every pass repeats the plan's operations, so each operation is
    accounted once however many passes the run makes: it is attempted
    once, and it failed if it failed or missed its pin in any pass.  The
    counts then depend on the seed alone, not on how many passes fit in
    the run's time.
    """

    attempted: int = 0
    failed: int = 0
    by_class: Counter = field(default_factory=Counter)
    #: Failures no known defect explains, and pin mismatches.
    unexpected: List[str] = field(default_factory=list)
    #: Operations pinned as known failures that now succeed.
    fixed: int = 0
    pinned: bool = False
    _seen: Set[str] = field(default_factory=set)
    _failed: Set[str] = field(default_factory=set)
    _fixed: Set[str] = field(default_factory=set)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def add(self, key: str, result: Any, error: Optional[str],
            expected: Optional[str], check: Optional[str] = None) -> None:
        """Account one outcome of operation ``key`` against its expected
        entry (if any)."""
        if key not in self._seen:
            self._seen.add(key)
            self.attempted += 1
        if error is None and check is not None:
            error = check
        if error is not None:
            cls = classify(error)
            if cls is None:
                self._fail(key, "unexpected", f"{key}: {error}")
            elif expected is not None and expected != f"failed-{cls}":
                self._fail(key, cls, f"{key}: failed ({cls}), pinned {expected}")
            else:
                self._fail(key, cls, None)
            return
        got = digest(result)
        if expected is None or got == expected:
            return
        if expected.startswith("failed-"):
            if key not in self._fixed:
                self._fixed.add(key)
                self.fixed += 1
            return
        self._fail(key, "digest", f"{key}: digest {got} != pinned {expected}")

    def _fail(self, key: str, cls: str, unexpected: Optional[str]) -> None:
        if unexpected is not None and unexpected not in self.unexpected:
            self.unexpected.append(unexpected)
        if key not in self._failed:
            self._failed.add(key)
            self.failed += 1
            self.by_class[cls] += 1


def _parse_seeds(spec: str) -> List[int]:
    out: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.run import default_jobs
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="Write digest pins for seeds.")
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,9")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args(argv)
    workdir = os.path.join(root, ".perfbench")
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        doc = load(name)
        keys: Optional[List[str]] = None
        seeds = {s: " ".join(v) for s, v in doc["seeds"].items()}
        for seed in _parse_seeds(args.seeds):
            res = wl.run_pass(wl.plan(seed), default_jobs(), workdir)
            pinned = [o for o in res.outcomes if o.pinned]
            if keys is None:
                keys = [o.key for o in pinned]
                if doc["keys"] != keys:
                    seeds = {}
            if [o.key for o in pinned] != keys:
                raise RuntimeError(f"{name}: seed {seed} gave another outcome list")
            entries = [entry(o.result, o.error) for o in pinned]
            seeds[seed] = " ".join(entries)
            print(f"{name} seed {seed}: {Counter(e for e in entries if e.startswith('failed'))}",
                  flush=True)
        os.makedirs(PIN_DIR, exist_ok=True)
        with open(pin_path(name), "w") as f:
            json.dump({"keys": keys, "seeds": {str(s): seeds[s] for s in sorted(seeds)}},
                      f, indent=0)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
