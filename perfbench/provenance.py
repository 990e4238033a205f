"""What produced a benchmark result: versions, source tree, machine, inputs."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def caches() -> dict:
    """Per-core cache sizes in bytes, from sysfs (empty where not exposed)."""
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = _size_bytes((d / "size").read_text())
        except (OSError, ValueError):
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[name] = size
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, or None outside one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_sha256(root: Path) -> str:
    """Hash of every source file of the package, so a non-git copy is identified."""
    h = hashlib.sha256()
    for p in sorted((root / "src" / "bqfield").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env_child": {k: "1" for k in THREAD_ENV},
        "cache_bytes": caches(),
    }


def workload_block(workload: str, seed: int, scenario_text: str, n: int, fields: int,
                   cache_bytes: dict) -> dict:
    """Inputs of one run and the computed (not measured) size of its state."""
    state = fields * 7 * n**3 * 16  # complex128 channels
    return {
        "workload": workload,
        "seed": seed,
        "scenario_sha256": hashlib.sha256(scenario_text.encode()).hexdigest(),
        "grid": [n] * 3,
        "fields": fields,
        "state_bytes_computed": state,
        "state_over_L2_computed": state / cache_bytes["L2"] if "L2" in cache_bytes else None,
        "state_over_L3_computed": state / cache_bytes["L3"] if "L3" in cache_bytes else None,
    }
