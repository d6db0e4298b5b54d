"""Summary statistics and the environment record for benchmark results."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
from fractions import Fraction
from pathlib import Path

# Percentiles a summary may report beyond the median, lowest first.
PERCENTILES = ("50", "90", "95", "99", "99.9")
MIN_TAIL_SAMPLES = 10

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _rank(p: str, n: int) -> int:
    """1-based nearest-rank index of percentile `p` among `n` samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def percentile(values, p: str) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> str | None:
    """The highest of PERCENTILES with at least ten of `n` samples above it
    (under the nearest-rank rule), or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def summarize(values) -> dict:
    """Median, quartiles and sample count, plus the tail percentile the
    sample count allows."""
    values = list(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    tail = tail_percentile(n)
    if tail is not None:
        out[f"p{tail}"] = percentile(values, tail)
    return out


def _blas() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, naming the code under test even in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, blas_pinned: bool) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_pinned": blas_pinned,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "src_sha256": source_digest(root),
    }
