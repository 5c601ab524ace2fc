"""Golden job and cache-key identities.

The literals below are the ``AnalysisJob.digest()`` and ``cache_key`` values
of the paper's experiment configurations. They key the persistent result
cache, the serve journal and ``--resume``, so any change to a job's
canonical form silently orphans every stored entry. A change that must move
them has to bump the schema version on purpose and update these values in
the same change.
"""

import pytest

from repro.core.config import CONSERVATIVE, OPTIMISTIC, AnalysisConfig
from repro.engine.cache import cache_key
from repro.engine.jobs import AnalysisJob
from repro.harness.experiments import FIG8_WINDOWS

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
        "f024a12d69fbda9031c70832aa900bdaa47af229a722aba59941e211a318a8fd",
    ),
    "table3-optimistic": (
        "f5541abe210c750b5e93274279bf18da16e31bdb30909457ec6eaf8a9a930d12",
        "e8bc3a99459e809452930ffff0e0f28ac559007f09d544a5e6cba653d0c4be9e",
    ),
    "table4-none": (
        "a533b6c10ae16f11a29ed0ee25d80fc330caba309f7d52d4b79dbfa10a0dff2b",
        "64dbef49336bf98dc064d55231c74781ebfb84b61b075499ac63a524a18254fc",
    ),
    "table4-regs": (
        "1576aea18654064e0722c57cc2a2b4094a0b67a7b2c958dd9c8433e9e2824b23",
        "8d067d83636d86a505ea40b307791a537fe993e31f1b895b2715516c59dda74a",
    ),
    "table4-regs-stack": (
        "0a80e7c7e3a6372f25b627886acfb534ea361abeaf188d22d59289e93b5a7924",
        "6edaae702a36d4fe89a46e8cb3bec2a8dde7889337005bdcf4e8480be1399922",
    ),
    "table4-full": (
        "bf1d076c548a67844f2d3fae159c608aef8ba3bcfa77f1043888732b368272fe",
        "eabf3e183ea995c9087eb431f8e5cb4e41406e93bfc82ec7f38e68284e5ee37a",
    ),
    "fig8-1": (
        "c9672978dcdc5f4527165ab5a8db8624b78003486ecbe280e190c9c486b33550",
        "a1406efd6d170af4a01babfcfe5858418d54f4e4693177b803984049d9891b13",
    ),
    "fig8-4": (
        "798d0afe18feeb49e134856c7f25437fb14e942c693afcbb2134f83b494c332c",
        "191ae865e2701fb26b0035964e9222b12ff6635ed84988371ebf39d99d501378",
    ),
    "fig8-16": (
        "19c660d3d4664a8b5af376e30fb409c6c77eba8fea2a895a608491f61bd015a4",
        "6b907f2c752b5115e13fcf2e49814804c7fae6c3842ba4a168c43696a55f0368",
    ),
    "fig8-64": (
        "c37ff3901fd185cc4f69d5da35451d9b529a14988d007a709741a911a9bf8102",
        "2d845fe5b7f5c9e66238892b224e16583addc492e8d6ca684db42c2fd41a3259",
    ),
    "fig8-256": (
        "77f62214e7920300f01a129f8f6dd7a4bbde8903283c6f265600c53a0f6b1b2c",
        "d2987613d84c2922c09bd007d2814f8378bbcb6df838de569c4f7e02dd465bf7",
    ),
    "fig8-1024": (
        "b48282fa37698bef0a3af905bde108fbef74c045a6846487f1808174b9fd849a",
        "ac0384a3eb0c550c8aa0945041b17e40028563ca32fe57851e7b9f175d9ae12d",
    ),
    "fig8-4096": (
        "a868fd3f6818c73c508984def188e6628eb5520f5961ca685dff720c019ebd7f",
        "248d3ad6a4e941045333037df4463d7a7c550b75aa1afdfeb7c7d68b39c8d1f6",
    ),
    "fig8-16384": (
        "d72d5fe273245abc56d01cc7d8eef0275c32ba9ca591d57d2965cc9295e6ee2f",
        "e6cb11a8f33936cf3ce8dd6020a94444710675eefee135e7bc6a2c2311463127",
    ),
    "fig8-None": (
        "6951b06c39910cfb2ff7b1d1e5908a2475f8b60d36bb9b5addca54f24696529c",
        "438c5da3daf063c43b33f62b53651be6fb3f431d111bee6e16a375ccf21591f2",
    ),
    "twopass": (
        "51c9f91a3d9e067cf95077456988c3ebec0fe942773eadf7528ca8745774c8f8",
        "f130ced36045faa985c4d860deff6dc4ebb3c4041d2dc350eb21dbd7cfdc781e",
    ),
    "optimize": (
        "b011576196b9e2219a1bc5bc8310c7691dc4d3448e3fe82b71340fb7589bd394",
        "8fb0bed8fc65446fa84613330c2f752d89cc9009eabed8bcf7fdec88fd5b3ed1",
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
