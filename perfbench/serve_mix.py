"""The ``serve-mixed`` workload: one closed-loop client against ``repro serve``.

The request mix is drawn from the 10 suite workloads x the distinct
analysis configs of Table 3, Table 4 and Figure 8 (13 configs once the
ones shared between the tables are merged). Per config it holds

- two *misses* (specs the server has never seen: analyzed, then written
  to the result cache),
- one *hit* for each non-generic config (a spec prefilled into the result
  cache during set-up, so the server reads the result back), and
- two *dups* (each miss resubmitted once, later in the session, answered
  by the server's job registry).

Which workload fills each slot is a fixed, balanced design: the size of
a result (its parallelism profile) varies a hundredfold between
workloads and dominates serialization, so letting the seed choose the
pairs would change the amount of work from seed to seed. The seed orders
the requests. Hits are drawn from the non-generic configs because the
cache read does not depend on the kernel, and prefilling generic results
would add ~0.6 s of set-up per workload for tuple materialization.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import PYTHON, Context, percentile, proc_cpu_s, proc_peak_rss_mb

#: 26 misses, 10 hits, 26 dups. The closed loop then takes ~25 s at the
#: default cap, which keeps a whole run inside the time the benchmark may
#: spend per run.
MISSES_PER_CONFIG = 2
#: Highest percentile of miss latency with at least ten samples beyond it
#: (26 misses: 10.4 lie past p60).
MISS_TAIL = 60
#: Slowest request the client waits for before counting it as timed out.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    kind: str  # "miss" | "hit" | "dup"
    spec: dict
    expected: float  # available parallelism from the committed tables


@dataclass
class Plan:
    requests: List[Request]
    prefill: List[dict]
    warmup: List[dict]


def _spec_universe(ctx: Context) -> Tuple[List[Tuple[str, dict, bool]], Dict[Tuple[str, str], float]]:
    """Distinct configs as ``(key, canonical config, generic?)`` plus the
    expected available parallelism per ``(workload, key)``, read from the
    reference CSVs. Configs that several tables share must agree."""
    from repro.core import kernels
    from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig

    columns = [
        ("table3.csv", "Cons AP", AnalysisConfig.dataflow_limit(CONSERVATIVE)),
        ("table3.csv", "Opt AP", AnalysisConfig.dataflow_limit(OPTIMISTIC)),
        ("table4.csv", "No renaming", AnalysisConfig.no_renaming()),
        ("table4.csv", "Regs renamed", AnalysisConfig.registers_renamed()),
        ("table4.csv", "Regs/stack renamed", AnalysisConfig.registers_and_stack_renamed()),
        ("table4.csv", "Reg/mem renamed", AnalysisConfig()),
    ]
    for window in (1, 4, 16, 64, 256, 1024, 4096, 16384, None):
        header = "inf" if window is None else str(window)
        columns.append(("fig8.1.csv", header, AnalysisConfig(window_size=window)))

    configs: Dict[str, Tuple[dict, bool]] = {}
    expected: Dict[Tuple[str, str], float] = {}
    for filename, header, config in columns:
        canonical = config.canonical()
        key = json.dumps(canonical, sort_keys=True)
        generic = kernels.select_kernel(config) == kernels.KERNEL_GENERIC
        configs.setdefault(key, (canonical, generic))
        lines = (ctx.expected / filename).read_text().splitlines()
        headers = lines[0].split(",")
        column = headers.index(header)
        for line in lines[1:]:
            cells = line.split(",")
            value = float(cells[column])
            previous = expected.setdefault((cells[0], key), value)
            if previous != value:
                raise ValueError(
                    f"reference tables disagree for {cells[0]} {header}: {previous} vs {value}"
                )
    universe = [(key, canonical, generic) for key, (canonical, generic) in configs.items()]
    return universe, expected


def build_plan(ctx: Context) -> Plan:
    from repro.core.config import OPTIMISTIC, AnalysisConfig
    from repro.workloads.suite import SUITE_NAMES

    universe, expected = _spec_universe(ctx)
    names = list(SUITE_NAMES)

    def request(kind: str, key: str, canonical: dict, workload: str) -> Request:
        spec = {"workload": workload, "cap": ctx.cap, "config": canonical}
        return Request(kind, spec, expected[(workload, key)])

    # Config i takes its misses from workloads i and i+5 and its hit from
    # workload i+3 (mod 10): a fixed design, so result sizes, which
    # dominate serialization, are the same for every seed.
    misses, hits = [], []
    for index, (key, canonical, generic) in enumerate(universe):
        for slot in range(MISSES_PER_CONFIG):
            workload = names[(index + 5 * slot) % len(names)]
            misses.append(request("miss", key, canonical, workload))
        if not generic:
            hits.append(request("hit", key, canonical, names[(index + 3) % len(names)]))
    rng = random.Random(ctx.seed)
    requests = misses + hits
    rng.shuffle(requests)
    # Each miss is resubmitted once, at a seeded point after the original.
    for original in rng.sample(misses, len(misses)):
        after = requests.index(original) + 1
        requests.insert(rng.randint(after, len(requests)), Request("dup", original.spec, original.expected))
    # One generic job per workload, with a config outside the mix, loads
    # every form of every trace (decoded columns, tuple records) into the
    # server before timing starts. Without a profile its result stays
    # small, so warm-up time is the trace loading, not serialization.
    warm = AnalysisConfig(
        rename_registers=False, rename_stack=False, rename_data=False,
        syscall_policy=OPTIMISTIC, collect_profile=False,
    )
    warmup = [
        {"workload": name, "cap": ctx.cap, "config": warm.canonical()} for name in SUITE_NAMES
    ]
    return Plan(requests, [hit.spec for hit in hits], warmup)


@dataclass
class Session:
    """What one closed-loop pass over the plan observed."""

    latencies: Dict[str, List[float]] = field(default_factory=lambda: {"miss": [], "hit": [], "dup": []})
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    exec_s: float = 0.0
    result_bytes: int = 0
    errors: List[str] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    fetch_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class Server:
    """A ``repro serve --jobs 1`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, trace_dir: Path, cache_dir: Path, home: Path,
                 spans: Optional[Path] = None):
        home.mkdir(parents=True)
        self.port_file = home / "port.json"
        env = ctx.env
        if spans is None:
            entry = [PYTHON, "-m", "repro"]
        else:
            entry = [PYTHON, ctx.script("traced_main.py")]
            env["PERFBENCH_SPANS"] = str(spans)
        argv = entry + [
            "serve", "--port", "0", "--port-file", str(self.port_file), "--jobs", "1",
            "--trace-dir", str(trace_dir), "--result-cache", str(cache_dir),
        ]
        self.log = open(home / "server.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=home, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not write its port file")
            if self.port_file.exists():
                try:
                    self.port = json.loads(self.port_file.read_text())["port"]
                except (ValueError, KeyError):
                    pass  # written but not yet complete
            if self.port is None:
                time.sleep(0.01)
        with ServeClient("127.0.0.1", self.port) as client:
            while client.healthz().get("status") != "ok":
                if time.monotonic() > deadline:
                    raise RuntimeError("server never reported healthy")
                time.sleep(0.01)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then a kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class _Connection:
    """One keep-alive HTTP connection for submits and fetches; the SSE
    streams open their own (the server closes them at the terminal event)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, data: Optional[dict] = None) -> Tuple[int, bytes]:
        headers = {"X-Client-Id": "perfbench", "Accept": "application/json"}
        body = None
        if data is not None:
            body = json.dumps(data).encode()
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def run_requests(server: Server, requests: List[Request], recorder=None) -> Session:
    """The closed loop: submit one job, wait for its terminal event on the
    job's SSE stream, read the result back, check it, then send the next."""
    from repro.serve.client import ServeClient, ServeClientError

    def span(name: str):
        return recorder.span(name, wait=True) if recorder is not None else contextlib.nullcontext()

    session = Session()
    session.cpu_s = -proc_cpu_s(server.proc.pid)
    events = ServeClient("127.0.0.1", server.port, client_id="perfbench", timeout=REQUEST_TIMEOUT_S)
    http_conn = _Connection(server.port)
    session.start = time.monotonic()
    last_terminal = session.start
    try:
        for number, item in enumerate(requests):
            session.attempted += 1
            label = f"#{number} {item.kind} {item.spec['workload']}"
            sent = time.monotonic()
            try:
                with span("serve.submit"):
                    status, body = http_conn.call("POST", "/v1/jobs", item.spec)
                if status >= 400:
                    session.rejected += status == 429
                    session.fail(f"{label}: submit answered {status}")
                    continue
                (row,) = json.loads(body)["jobs"]
                terminal = None
                with span("serve.stream"):
                    for event in events.events(row["id"]):
                        if event["event"] in ("done", "failed", "cancelled"):
                            terminal = event
                latency = time.monotonic() - sent
                last_terminal = time.monotonic()
                with span("serve.fetch"):
                    status, body = http_conn.call("GET", f"/v1/jobs/{row['id']}")
                    record = json.loads(body) if status == 200 else {}
                session.fetch_s += time.monotonic() - last_terminal
                session.result_bytes += len(body)
            except (OSError, ValueError, http.client.HTTPException, ServeClientError) as error:
                session.fail(f"{label}: {type(error).__name__}: {error}")
                continue
            observed = "dup" if row.get("deduped") else (
                "hit" if terminal and terminal.get("status") == "cached" else "miss"
            )
            summary = (terminal or {}).get("summary") or {}
            result = record.get("result") or {}
            if terminal is None or terminal["event"] != "done":
                session.fail(f"{label}: ended {terminal}")
            elif observed != item.kind:
                session.fail(f"{label}: served as {observed}")
            elif summary.get("available_parallelism") != item.expected:
                session.fail(f"{label}: available parallelism "
                             f"{summary.get('available_parallelism')} != {item.expected}")
            elif record.get("summary") != summary or any(
                result.get(key) != summary[key]
                for key in ("critical_path_length", "placed_operations")
            ):
                session.fail(f"{label}: fetched result does not match its terminal event")
            else:
                session.latencies[item.kind].append(latency)
                if item.kind == "miss":
                    session.exec_s += terminal.get("seconds") or 0.0
    finally:
        events.close()
        http_conn.close()
    session.end = last_terminal
    session.cpu_s += proc_cpu_s(server.proc.pid)
    session.peak_rss_mb = proc_peak_rss_mb(server.proc.pid)
    return session


def warm_up(server: Server, specs: List[dict]) -> None:
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S) as client:
        for spec in specs:
            (row,) = client.submit(spec)
            states = [event["event"] for event in client.events(row["id"])]
            if states[-1:] != ["done"]:
                raise RuntimeError(f"warm-up job {spec['workload']} ended {states}")


def class_latencies(session: Session) -> Dict[str, float]:
    lat = session.latencies
    out = {f"serve.{kind}_samples": float(len(values)) for kind, values in lat.items()}
    out["serve.miss_p50_s"] = median(lat["miss"]) if lat["miss"] else 0.0
    out[f"serve.miss_p{MISS_TAIL}_s"] = percentile(lat["miss"], MISS_TAIL) if lat["miss"] else 0.0
    out["serve.hit_p50_s"] = median(lat["hit"]) if lat["hit"] else 0.0
    out["serve.dup_p50_s"] = median(lat["dup"]) if lat["dup"] else 0.0
    return out


def run(ctx: Context):
    """Set up, then one closed-loop session over the plan; the server runs
    under the layer shims when ``ctx.traced``. Returns ``(session, set-up
    seconds by step, span directory or None, plan)``.

    Set-up fills the trace directory, then prefills the hit specs into the
    result cache in that same process while the server starts and warms
    up beside it (two cores; the two write disjoint cache entries)."""
    plan = build_plan(ctx)
    trace_dir = ctx.work / "traces"
    cache_dir = ctx.work / "results"
    prefill_file = ctx.work / "prefill.json"
    prefill_file.write_text(json.dumps(plan.prefill))
    spans = None
    if ctx.traced:
        spans = ctx.work / "spans"
        spans.mkdir()

    setup_start = time.monotonic()
    with open(ctx.work / "prepare.log", "wb") as log:
        prepare = subprocess.Popen(
            [PYTHON, ctx.script("prepare.py"), "--trace-dir", str(trace_dir),
             "--cap", str(ctx.cap), "--result-cache", str(cache_dir),
             "--prefill", str(prefill_file)],
            cwd=ctx.work, env=ctx.env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
    server = None
    try:
        setup = json.loads(prepare.stdout.readline() or "{}")  # the fill is done
        if "fill_s" not in setup:
            raise RuntimeError(f"trace fill failed (see {ctx.work / 'prepare.log'})")
        launch_start = time.monotonic()
        server = Server(ctx, trace_dir, cache_dir, ctx.work / "server", spans)
        server.wait_ready()
        setup["launch_s"] = time.monotonic() - launch_start
        warm_start = time.monotonic()
        warm_up(server, plan.warmup)
        setup["warmup_s"] = time.monotonic() - warm_start
        rest, _ = prepare.communicate(timeout=150)
        if prepare.returncode != 0:
            raise RuntimeError(f"cache prefill failed (exit {prepare.returncode})")
        setup.update(json.loads(rest.splitlines()[-1]))
        setup["setup_s"] = time.monotonic() - setup_start

        recorder = None
        if spans is not None:
            from tracer import Recorder

            recorder = Recorder(str(spans))
        session = run_requests(server, plan.requests, recorder)
    finally:
        if prepare.poll() is None:
            prepare.kill()
        prepare.wait()
        prepare.stdout.close()
        if server is not None:
            server.stop()
    return session, setup, spans, plan
