"""Golden job and cache-key identities.

The literals below are the ``AnalysisJob.digest()`` and ``cache_key`` values
of the paper's experiment configurations. They key the persistent result
cache, the serve journal and ``--resume``, so any change to a job's
canonical form silently orphans every stored entry. A change that must move
them has to bump the schema version on purpose and update these values in
the same change.

The byte pin at the end ties the encoded result layout to that schema
version: a change to ``result_to_bytes`` fails it until the schema is
bumped and both pins move together.
"""

import hashlib

import pytest

from repro.core.analyzer import analyze
from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.engine.cache import SCHEMA_VERSION, cache_key
from repro.engine.jobs import AnalysisJob
from repro.engine.resilience import JOURNAL_SCHEMA
from repro.engine.serialize import result_to_bytes
from repro.harness.experiments import FIG8_WINDOWS
from repro.harness.runner import TraceStore

#: A fixed stand-in trace digest; the cache key mixes it with the job digest.
TRACE_DIGEST = "ab" * 32

CAP = 250_000


def _jobs():
    yield "table3-conservative", AnalysisJob(
        "xlispx", CAP, AnalysisConfig.dataflow_limit(CONSERVATIVE)
    )
    yield "table3-optimistic", AnalysisJob(
        "xlispx", CAP, AnalysisConfig.dataflow_limit(OPTIMISTIC)
    )
    yield "table4-none", AnalysisJob("matrix300x", CAP, AnalysisConfig.no_renaming())
    yield "table4-regs", AnalysisJob(
        "matrix300x", CAP, AnalysisConfig.registers_renamed()
    )
    yield "table4-regs-stack", AnalysisJob(
        "matrix300x", CAP, AnalysisConfig.registers_and_stack_renamed()
    )
    yield "table4-full", AnalysisJob("matrix300x", CAP, AnalysisConfig())
    for window in FIG8_WINDOWS:
        yield f"fig8-{window}", AnalysisJob(
            "espressox", CAP, AnalysisConfig(window_size=window)
        )
    yield "twopass", AnalysisJob("doducx", CAP, AnalysisConfig(), method="twopass")
    yield "optimize", AnalysisJob("tomcatvx", CAP, AnalysisConfig(), optimize=True)


JOBS = dict(_jobs())

GOLDEN = {
    "table3-conservative": (
        "bf67a4a9fcd729390f6ded1ecf390a57aac363b33b366c450ffc4474c1c7549c",
        "a4951641638388811298edfb1ce8d0f9fc51396fdb223d968fc34c8915bb76c3",
    ),
    "table3-optimistic": (
        "f5541abe210c750b5e93274279bf18da16e31bdb30909457ec6eaf8a9a930d12",
        "aafde64778cf01976540ba08be086db011f3d695e7db586ef00a6cbb7be3c30f",
    ),
    "table4-none": (
        "a533b6c10ae16f11a29ed0ee25d80fc330caba309f7d52d4b79dbfa10a0dff2b",
        "370f7fe682c317345dd0d1dd9356c6ae64c843e9fab431576fb8a25dd55a13aa",
    ),
    "table4-regs": (
        "1576aea18654064e0722c57cc2a2b4094a0b67a7b2c958dd9c8433e9e2824b23",
        "2f98149dd8d60b846d6fa4e67d3483f317d86bd203102be2b29d8297c5c926dc",
    ),
    "table4-regs-stack": (
        "0a80e7c7e3a6372f25b627886acfb534ea361abeaf188d22d59289e93b5a7924",
        "b316c032536bbe7475cb94230e3a355408470b6d1d222cdf666020544feccd15",
    ),
    "table4-full": (
        "bf1d076c548a67844f2d3fae159c608aef8ba3bcfa77f1043888732b368272fe",
        "dd2c270642ceba9666b49ddf40a94170019bda3fd9da3f25b879578786b64880",
    ),
    "fig8-1": (
        "c9672978dcdc5f4527165ab5a8db8624b78003486ecbe280e190c9c486b33550",
        "6cabe0cc2ee50ef168b3b6836b9a76b62ae73a0710d3c7d7e8408179c4de4f01",
    ),
    "fig8-4": (
        "798d0afe18feeb49e134856c7f25437fb14e942c693afcbb2134f83b494c332c",
        "64996073412162dc84315906061e772db493408eed37e719320794ed24ea4c30",
    ),
    "fig8-16": (
        "19c660d3d4664a8b5af376e30fb409c6c77eba8fea2a895a608491f61bd015a4",
        "7de14d84850e125b2deaaa799d400d0a7e950a0a08ada959cb5c9447c2edfde4",
    ),
    "fig8-64": (
        "c37ff3901fd185cc4f69d5da35451d9b529a14988d007a709741a911a9bf8102",
        "c4ddf2a74647b3469eead5d165ad0eea4a54831371446e46ba87d38e9f01c758",
    ),
    "fig8-256": (
        "77f62214e7920300f01a129f8f6dd7a4bbde8903283c6f265600c53a0f6b1b2c",
        "8e86da0683037723a0ddc8c7ffd8b8432b6075fe6c95249b1c17059642b1528d",
    ),
    "fig8-1024": (
        "b48282fa37698bef0a3af905bde108fbef74c045a6846487f1808174b9fd849a",
        "bce0b18dedfba05eabc1d37c68b33e93b8e9a0ab1d66cc15f728101151e57ff0",
    ),
    "fig8-4096": (
        "a868fd3f6818c73c508984def188e6628eb5520f5961ca685dff720c019ebd7f",
        "1d6b2b8cd087e31508dcb9a8794f2ecec6833cf67d42c68f56ec8f71a0d5f459",
    ),
    "fig8-16384": (
        "d72d5fe273245abc56d01cc7d8eef0275c32ba9ca591d57d2965cc9295e6ee2f",
        "0cc02c10e35bc17f3218260e73fe785988a2f3d0d1476fa7f4d477412f30b151",
    ),
    "fig8-None": (
        "6951b06c39910cfb2ff7b1d1e5908a2475f8b60d36bb9b5addca54f24696529c",
        "eabc6af08a484730ee9504741a9972e0a1f4c52c032f1846cbf5ff6033b3ac95",
    ),
    "twopass": (
        "51c9f91a3d9e067cf95077456988c3ebec0fe942773eadf7528ca8745774c8f8",
        "54d652cd9781a227e5b63e0975bde6a2bf0df63c96b96a99651669337421c4d5",
    ),
    "optimize": (
        "b011576196b9e2219a1bc5bc8310c7691dc4d3448e3fe82b71340fb7589bd394",
        "0352f19cc1108afae9ac4d368f4dd879176553f001751171f2d4bb541e95a618",
    ),
}


def test_golden_covers_every_job():
    assert set(GOLDEN) == set(JOBS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_job_digest_is_pinned(name):
    assert JOBS[name].digest() == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cache_key_is_pinned(name):
    assert cache_key(TRACE_DIGEST, JOBS[name]) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_round_trip_keeps_digest(name):
    job = JOBS[name]
    assert AnalysisJob.from_canonical(job.canonical()).digest() == GOLDEN[name][0]


def test_wire_form_with_backend_key_decodes_to_same_job():
    # Journals written while jobs carried an execution-backend preference
    # spell it as an extra ``backend`` key; it never entered the digest.
    data = JOBS["table4-full"].canonical()
    data["backend"] = "numpy"
    assert AnalysisJob.from_canonical(data).digest() == GOLDEN["table4-full"][0]


#: sha256 of ``result_to_bytes`` for cc1x at cap 2000, window 4 (a profiled
#: result), in the layout of result-cache and journal schema 2.
RESULT_BYTES_SHA256 = "fc1439ccd88e18de953595534ce06fe3b45094fc1134952b8f6a692a83fada3f"


def test_result_bytes_are_pinned_to_the_schema():
    assert (SCHEMA_VERSION, JOURNAL_SCHEMA) == (2, 2)
    result = analyze(TraceStore().columnar("cc1x", 2000), AnalysisConfig(window_size=4))
    assert result.profile is not None
    assert hashlib.sha256(result_to_bytes(result)).hexdigest() == RESULT_BYTES_SHA256
