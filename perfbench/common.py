"""Process launch and measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: A unit that outlives this is killed and counted as failed, so one run
#: stays inside its 180 s budget.
UNIT_TIMEOUT_S = 150.0

PYTHON = sys.executable or "python3"


@dataclass
class Context:
    """Everything a workload needs, fixed for one benchmark run."""

    root: Path  # the checkout
    work: Path  # scratch space inside the checkout, removed afterwards
    expected: Path  # reference outputs the run is checked against
    seed: int
    seconds: float
    cap: int
    traced: bool

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_METRICS", None)
        env.pop("REPRO_FAULTS", None)
        return env

    def script(self, name: str) -> str:
        return str(Path(__file__).resolve().parent / name)


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    started: float  # monotonic launch time
    finished: float  # monotonic exit time


def launch(argv: Sequence[str], ctx: Context, cwd: Path, log: Path,
           env: Optional[Dict[str, str]] = None) -> Launch:
    """Run one process to completion. CPU and peak RSS come from
    ``wait4``, so they cover the process and every child it reaped
    (the engine's pool workers)."""
    with open(log, "wb") as handle:
        started = time.monotonic()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env or ctx.env, stdout=handle,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(UNIT_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        finished = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        wall_s=finished - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        started=started,
        finished=finished,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process and its reaped children."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def compare_outputs(out_dir: Path, expected: Path, names: Sequence[str]) -> List[str]:
    """Names among ``names`` whose file in ``out_dir`` is missing or not
    byte-identical to the reference copy."""
    bad = []
    for name in names:
        produced = out_dir / name
        if not produced.is_file() or produced.read_bytes() != (expected / name).read_bytes():
            bad.append(name)
    return bad


def source_digest(root: Path) -> str:
    """sha256 over every file under ``src/`` (path + content): identifies
    the code measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp(ctx: Context, workload: str, caches: dict, source: str) -> dict:
    """What a reader needs to compare this result with another."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.traced,
        "commit": git_commit(ctx.root),
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cap": ctx.cap,
        "caches_at_start": caches,
    }

