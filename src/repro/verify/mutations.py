"""Deliberately buggy analyzer variants — the harness's own smoke test.

A verification harness that has never caught a bug is unverified itself.
These context managers monkeypatch a *known* off-by-one into one
implementation and restore the original on exit; tests (and ``paragraph
verify --mutate <name>``) assert the harness catches the mutant with a
shrunk, persisted counterexample. Because the patches live in this
process, mutation runs must use ``--jobs 1`` (the in-process engine
path); worker processes would import the unmutated modules.

Mutations:

- ``kernel-load-skew`` — every kernel family's loop
  (``stream._advance_{dataflow,windowed,generic}``) places loads one
  level too deep (the canonical off-by-one: the loop runs with the LOAD
  latency raised by one, which perturbs exactly the load placement term
  of the rule). ``forward`` and ``stream`` both run these
  loops, so the bug is caught by the ``reference``/``twopass``/``oracle``
  differentials whenever a load is at or feeds the critical path.
- ``legacy-war-loss`` — the generic loop (``stream._advance_generic``,
  the only one with WAR terms) forgets write-after-read constraints: it
  runs as if every storage class were renamed. Caught on any case with
  renaming off and a binding WAR hazard.
- ``stream-cut-amnesia`` — a frontier resumed mid-trace forgets its live
  well (``stream.advance`` clears it whenever it starts past record 0).
  ``forward`` imports ``advance`` by name and runs each trace in one call,
  so only chunked streaming is hit. Caught by the ``stream:chunks``
  exactness check on any case where a value crosses a chunk cut.

Every patch goes through a module attribute that its call site
late-binds (``stream.advance`` resolves ``_advance_*`` as globals per
call, and ``stream.stream_analyze_trace`` looks up ``stream.advance``),
so no reload tricks are needed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

from repro.isa.opclasses import OpClass

_LOOPS = ("_advance_dataflow", "_advance_windowed", "_advance_generic")


@contextmanager
def _patched(module, names, wrap):
    """Replace each ``module.<name>`` by ``wrap(original)`` for the block."""
    originals = {name: getattr(module, name) for name in names}
    for name, original in originals.items():
        setattr(module, name, wrap(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


@contextmanager
def mutate_kernel_load_skew():
    """Every kernel family's loop places every load one level too deep."""
    from repro.core import stream

    def wrap(original):
        def mutant(fr, trace, start, end):
            latency = fr.latency
            fr.latency = list(latency)
            fr.latency[OpClass.LOAD] += 1
            try:
                original(fr, trace, start, end)
            finally:
                fr.latency = latency

        return mutant

    with _patched(stream, _LOOPS, wrap):
        yield


@contextmanager
def mutate_legacy_war_loss():
    """The generic loop drops all write-after-read constraints."""
    from repro.core import stream

    def wrap(original):
        def mutant(fr, trace, start, end):
            config = fr.config
            fr.config = replace(
                config, rename_registers=True, rename_stack=True, rename_data=True
            )
            try:
                original(fr, trace, start, end)
            finally:
                fr.config = config

        return mutant

    with _patched(stream, ("_advance_generic",), wrap):
        yield


@contextmanager
def mutate_stream_cut_amnesia():
    """A frontier resumed past record 0 starts with an empty live well."""
    from repro.core import stream

    def wrap(original):
        def mutant(fr, trace, start=0, end=None):
            if start > 0:
                fr.well.clear()
            return original(fr, trace, start, end)

        return mutant

    with _patched(stream, ("advance",), wrap):
        yield


MUTATIONS = {
    "kernel-load-skew": mutate_kernel_load_skew,
    "legacy-war-loss": mutate_legacy_war_loss,
    "stream-cut-amnesia": mutate_stream_cut_amnesia,
}


@contextmanager
def apply_mutation(name: str):
    """Apply a named mutation for the duration of a ``with`` block."""
    try:
        factory = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {sorted(MUTATIONS)}"
        ) from None
    with factory():
        yield
