"""Golden pin over analysis results on real workload traces.

A fixed mini-grid at cap 2000 covers all three kernel families: Table 4's
partial-renaming configurations (the generic loop), two Figure 8 windows
(the windowed loop) and the Table 3 dataflow limit under both syscall
policies (the dataflow loop), on three suite workloads. Critical path
length and placed operations are compared with **zero tolerance**, once
for whole-trace analysis and once for chunked streaming, so any change to
the placement rule or to frontier resumption fails here.

If a deliberate semantic change lands, regenerate the literals with::

    PYTHONPATH=src python - <<'EOF'
    from tests.core.test_golden_results import CAP, CONFIGS, WORKLOADS
    from repro.core.analyzer import analyze
    from repro.harness.runner import TraceStore
    store = TraceStore()
    for workload in WORKLOADS:
        trace = store.columnar(workload, CAP)
        for name, config in CONFIGS.items():
            result = analyze(trace, config)
            print(f'    ("{workload}", "{name}"): '
                  f'({result.critical_path_length}, {result.placed_operations}),')
    EOF
"""

import pytest

from repro.core.analyzer import analyze
from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.core.kernels import (
    KERNEL_DATAFLOW,
    KERNEL_GENERIC,
    KERNEL_WINDOWED,
    select_kernel,
)
from repro.core.stream import stream_analyze_trace
from repro.harness.runner import TraceStore

CAP = 2000

WORKLOADS = ("cc1x", "matrix300x", "xlispx")

CONFIGS = {
    "table4-none": AnalysisConfig.no_renaming(),
    "table4-regs": AnalysisConfig.registers_renamed(),
    "table4-regs-stack": AnalysisConfig.registers_and_stack_renamed(),
    "fig8-4": AnalysisConfig.windowed(4),
    "fig8-64": AnalysisConfig.windowed(64),
    "dataflow-conservative": AnalysisConfig.dataflow_limit(CONSERVATIVE),
    "dataflow-optimistic": AnalysisConfig.dataflow_limit(OPTIMISTIC),
}

#: The kernel family each configuration runs; the grid must keep all three.
FAMILIES = {
    "table4-none": KERNEL_GENERIC,
    "table4-regs": KERNEL_GENERIC,
    "table4-regs-stack": KERNEL_GENERIC,
    "fig8-4": KERNEL_WINDOWED,
    "fig8-64": KERNEL_WINDOWED,
    "dataflow-conservative": KERNEL_DATAFLOW,
    "dataflow-optimistic": KERNEL_DATAFLOW,
}

#: (workload, config) -> (critical_path_length, placed_operations) at cap 2000.
GOLDEN = {
    ("cc1x", "table4-none"): (545, 1637),
    ("cc1x", "table4-regs"): (363, 1637),
    ("cc1x", "table4-regs-stack"): (363, 1637),
    ("cc1x", "fig8-4"): (727, 1637),
    ("cc1x", "fig8-64"): (363, 1637),
    ("cc1x", "dataflow-conservative"): (363, 1637),
    ("cc1x", "dataflow-optimistic"): (363, 1637),
    ("matrix300x", "table4-none"): (2597, 1907),
    ("matrix300x", "table4-regs"): (93, 1907),
    ("matrix300x", "table4-regs-stack"): (93, 1907),
    ("matrix300x", "fig8-4"): (4407, 1907),
    ("matrix300x", "fig8-64"): (1062, 1907),
    ("matrix300x", "dataflow-conservative"): (93, 1907),
    ("matrix300x", "dataflow-optimistic"): (93, 1907),
    ("xlispx", "table4-none"): (887, 1719),
    ("xlispx", "table4-regs"): (89, 1719),
    ("xlispx", "table4-regs-stack"): (89, 1719),
    ("xlispx", "fig8-4"): (1489, 1719),
    ("xlispx", "fig8-64"): (349, 1719),
    ("xlispx", "dataflow-conservative"): (89, 1719),
    ("xlispx", "dataflow-optimistic"): (89, 1719),
}

#: Chunk size of the streamed leg: small and prime, so cuts land at every
#: window-ring position.
STREAM_CHUNK = 97


@pytest.fixture(scope="module")
def traces():
    store = TraceStore()
    return {workload: store.columnar(workload, CAP) for workload in WORKLOADS}


def _pinned(result):
    return result.critical_path_length, result.placed_operations


class TestGoldenResults:
    def test_grid_is_complete(self):
        assert set(GOLDEN) == {(w, c) for w in WORKLOADS for c in CONFIGS}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_config_runs_its_kernel_family(self, name):
        assert select_kernel(CONFIGS[name]) == FAMILIES[name]

    @pytest.mark.parametrize("workload,name", sorted(GOLDEN))
    def test_whole_trace_exact(self, traces, workload, name):
        result = analyze(traces[workload], CONFIGS[name])
        assert _pinned(result) == GOLDEN[workload, name]

    @pytest.mark.parametrize("workload,name", sorted(GOLDEN))
    def test_streamed_exact(self, traces, workload, name):
        result = stream_analyze_trace(
            traces[workload], CONFIGS[name], chunk_records=STREAM_CHUNK
        )
        assert _pinned(result) == GOLDEN[workload, name]
