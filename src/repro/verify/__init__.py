"""Statistical & differential verification of the sampling system.

Five suites, each runnable from ``repro verify`` (``--list`` counts
their checks) and from pytest:

``stat``
    Chi-square / KS checks of empirical transition frequencies against
    the analytic distributions the paper's ``next``/``samplingType``
    abstraction defines, per app family.
``diff``
    Structural invariants (walk hops are edges, k-hop vertices come
    from their transit's adjacency, unique steps hold) and the
    reference ``next`` path against NextDoor in distribution.
``golden``
    Committed fixtures pinning sample hashes and modeled charges
    (``repro verify --suite golden --regen`` after an intended change).
``fuzz``
    Randomized and degenerate apps and graphs through the API.
``identity``
    The identity lattice (:mod:`repro.verify.identity`): every backend,
    thread count, engine, device count and the served path give one
    reference run's bits and price, also after a failed run.

Every check is deterministic (fixed seeds, sizes and thresholds), so
it always passes or always fails; see ``docs/TESTING.md``.
"""

from repro.verify.runner import (
    CheckResult,
    SUITE_NAMES,
    check_count,
    format_report,
    format_suite_list,
    run_suites,
)

__all__ = ["CheckResult", "SUITE_NAMES", "check_count", "format_report",
           "format_suite_list", "run_suites"]
