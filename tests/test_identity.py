"""The identity lattice (``repro.verify.identity``), sampled.

Hypothesis draws cells of the lattice, direct and served, and each must
hold against the one oracle, ``check_cell``; the draw covers every value
of every axis and every workload under every backend.  ``repro verify
--suite identity`` runs every cell.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import NextDoorEngine
from repro.verify import identity, run_suites

CELLS = identity.cells()
VALID = set(CELLS)
#: A direct cell draws each axis on its own (so every pair of values can
#: meet) and keeps the valid ones; a served cell is one of the few.
DIRECT = st.builds(identity.Cell, *(
    st.just("direct") if axis == "path" else st.sampled_from(values)
    for axis, values in identity.axes().items())).filter(VALID.__contains__)
SERVED = st.sampled_from([c for c in CELLS if c.path == "served"])


def test_sampled_cells_hold_and_cover_every_axis():
    drawn = []

    @settings(max_examples=80, derandomize=True, deadline=None,
              database=None)
    @given(st.one_of(DIRECT, SERVED))
    def holds(cell):
        drawn.append(cell)
        assert identity.check_cell(cell) == [], cell

    holds()
    axes = identity.axes()
    for axis, values in axes.items():
        assert {getattr(c, axis) for c in drawn} == set(values), axis
    # A kernel hook serves some workloads only: each meets each backend.
    assert {(c.workload, c.backend) for c in drawn} == set(
        itertools.product(axes["workload"], axes["backend"]))


def test_only_valid_cells():
    gpu = {name for name, make in identity.ENGINES.items()
           if isinstance(make(workers=0), NextDoorEngine)}
    assert len(CELLS) == len(set(CELLS))
    for cell in CELLS:
        assert cell.devices == 1 or cell.engine in gpu, cell
    for cell in (c for c in CELLS if c.path == "served"):
        assert identity.WORKLOADS[cell.workload].served, cell
        assert (cell.engine, cell.devices, cell.priced) == \
            ("NextDoorEngine", 1, False), cell


def test_no_compiled_backend_is_one_failed_check(monkeypatch):
    monkeypatch.setattr(identity, "available_backends",
                        lambda: ("numpy",))
    results, ok = run_suites(["identity"])
    assert not ok
    assert [(r.name, r.passed) for r in results] == [("backends", False)]
