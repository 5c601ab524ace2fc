"""Golden PGT2 trace identities.

The literals below are the PGT2 header digests of every suite workload's
first 2000 dynamic instructions. The digest covers the segment map, the
record count and every encoded record byte, so it pins three things at
once: what the simulator emits, the PGT2 encoding, and the digest seed.
Trace digests key the result cache and the run journals; a change that
moves one of them orphans every stored entry and must update these values
on purpose.

Each digest is checked through every path that produces one: the tuple
buffer, the bytes written to disk, a columnar decode of those bytes, the
columnar form of the buffer, and the trace store with and without a
directory.
"""

import os

import pytest

from repro.harness.runner import TraceStore
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_digest, write_trace_file
from repro.workloads.suite import load_workload

CAP = 2000

GOLDEN = {
    "cc1x": "9326abf03b1bbb2670e8682c66940fd7b0e20467c6448791090dd21a4c780643",
    "doducx": "417229eb65dbbee5df87c5a228183c46b3276a4048c3a122f2ac655014d8db10",
    "eqntottx": "a8998f0ebe47c1b1838a08e53ff87e1bc97048ec63dcbf66060c2761fc5fe4d8",
    "espressox": "e43d19bb0de9bd97cacc8d358636e20b6df1e00754e897d57b4c6bdc8ab7d24d",
    "fppppx": "92d0ea3831ec862e1ef19b151f10922a53eaf30d51641bda23ece73b385c2beb",
    "matrix300x": "9a3e20c644af06195c6e0c16d847aea36caac960f6e15fdfec28b3c31aa5eb80",
    "naskerx": "2fe8b9abca207bff00594bb80aeb8251c92410910bdeb96129dd2834f1965e5b",
    "spice2g6x": "d4d315503d96a563b363f2cfe1e85791ea14182010683aaa3755f834c206adda",
    "tomcatvx": "248f46058ba80770639d61570fc6281caa28fce0ed18c99d3738bfc518347034",
    "xlispx": "4a24d4879a5f5399bf87d84e4995a1b58eb306a6b9b881d9f3b4df55bafffd6f",
}


def test_golden_covers_the_suite():
    from repro.workloads.suite import all_workloads

    assert sorted(GOLDEN) == sorted(workload.name for workload in all_workloads())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_pinned(name, tmp_path):
    golden = GOLDEN[name]
    buffer = load_workload(name).trace(max_instructions=CAP)
    assert len(buffer) == CAP
    assert buffer.digest() == golden

    path = os.path.join(str(tmp_path), f"{name}.pgt")
    assert write_trace_file(path, buffer) == golden
    assert read_trace_digest(path) == golden
    assert ColumnarTrace.from_file(path).digest() == golden
    assert ColumnarTrace.from_buffer(buffer).digest() == golden

    assert TraceStore().columnar(name, CAP).digest() == golden
    stored = TraceStore(str(tmp_path / "store")).columnar(name, CAP)
    assert stored.digest() == golden
