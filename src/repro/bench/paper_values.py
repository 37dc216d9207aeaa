"""The paper's reported numbers, machine-readable.

Everything Section 8 states quantitatively, so that comparisons against
the reproduction are code rather than prose.  ``python -m repro report``
joins these targets with the archived results
(``benchmarks/results/*.json``) into a paper-vs-measured table; the
same data backs EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["TABLE3", "TABLE5", "FIG7A_BAND", "FIG7_SP_BAND",
           "TABLE1_MAX_FRACTION", "compare_results"]

#: Table 3: name -> (nodes, edges, avg degree).
TABLE3 = {
    "PPI": (50_000, 1_400_000, 28.0),
    "Orkut": (3_000_000, 117_000_000, 39.0),
    "Patents": (3_770_000, 16_500_000, 4.37),
    "LiveJ": (4_800_000, 68_900_000, 14.3),
    "FriendS": (65_600_000, 1_800_000_000, 27.4),
}

#: Table 5: GNN -> dataset -> end-to-end speedup (None = OOM).
TABLE5: Dict[str, Dict[str, Optional[float]]] = {
    "FastGCN": {"ppi": 1.25, "reddit": 1.52, "orkut": 4.75,
                "patents": 2.3, "livej": 4.31},
    "LADIES": {"ppi": 1.07, "reddit": 1.37, "orkut": 2.27,
               "patents": 2.1, "livej": 2.34},
    "ClusterGCN": {"ppi": 1.03, "reddit": 1.20, "orkut": None,
                   "patents": 1.4, "livej": 1.51},
}

#: Figure 7a: "speedups ranging from 26.1x to 50x" over KnightKing.
FIG7A_BAND = (26.1, 50.0)

#: Figure 7 SP panel: "speedups ranging from 1.09x to 6x" over SP.
FIG7_SP_BAND = (1.09, 6.0)

#: Table 1 headline: "graph sampling can take up to 62% of an epoch".
TABLE1_MAX_FRACTION = 0.62


def _band_check(value: float, lo: float, hi: float,
                slack: float = 2.5) -> str:
    """Grade a measured ratio against a paper band with model slack."""
    if lo <= value <= hi:
        return "in band"
    if lo / slack <= value <= hi * slack:
        return "near band"
    return "off band"


def compare_results(results: Dict[str, Dict]) -> Dict[str, Dict]:
    """Join archived benchmark results with the paper targets.

    ``results`` maps experiment name (the ``benchmarks/results/*.json``
    stem) to its stored rows.  Returns, per comparable experiment, the
    paper target, the measured aggregate, and a band grade.
    """
    report: Dict[str, Dict] = {}

    fig7a = results.get("fig7a_vs_knightking")
    if fig7a:
        values = [v for per in fig7a.values() for v in per.values()]
        report["fig7a"] = {
            "paper": f"{FIG7A_BAND[0]}x-{FIG7A_BAND[1]}x",
            "measured": f"{min(values):.1f}x-{max(values):.1f}x",
            "grade": _band_check(max(values), *FIG7A_BAND),
        }

    fig7c = results.get("fig7c_vs_sp_tp")
    if fig7c:
        values = [cell["SP"] for per in fig7c.values()
                  for cell in per.values()]
        report["fig7_sp"] = {
            "paper": f"{FIG7_SP_BAND[0]}x-{FIG7_SP_BAND[1]}x",
            "measured": f"{min(values):.2f}x-{max(values):.2f}x",
            "grade": _band_check(max(values), *FIG7_SP_BAND),
        }

    table5 = results.get("table5_end_to_end")
    if table5:
        cells = []
        for gnn, paper_row in TABLE5.items():
            for dataset, paper_value in paper_row.items():
                measured = table5.get(gnn, {}).get(dataset)
                if paper_value is None:
                    cells.append(("OOM", measured is None))
                elif measured is not None:
                    cells.append((f"{measured:.2f}/{paper_value}",
                                  paper_value / 2.5 <= measured
                                  <= paper_value * 2.5))
        agree = sum(1 for _, ok in cells if ok)
        report["table5"] = {
            "paper": f"{len(cells)} cells",
            "measured": f"{agree}/{len(cells)} within 2.5x of paper",
            "grade": "in band" if agree == len(cells) else "near band",
        }

    sec84 = results.get("sec84_large_graphs")
    if sec84:
        dw = sec84.get("DeepWalk", {}).get("nd_vs_kk")
        n2v = sec84.get("node2vec", {}).get("nd_vs_kk")
        crossover = (dw is not None and dw < 1.0
                     and n2v is not None and n2v > 1.0)
        report["sec84"] = {
            "paper": "KK wins DeepWalk/PPR, ND wins node2vec",
            "measured": f"DeepWalk {dw:.2f}x, node2vec {n2v:.2f}x",
            "grade": "in band" if crossover else "off band",
        }

    table1 = results.get("table1_sampling_fraction")
    if table1:
        top = max(v for per in table1.values() for v in per.values())
        report["table1"] = {
            "paper": f"up to {TABLE1_MAX_FRACTION:.0%}",
            "measured": f"up to {top:.0%}",
            "grade": "in band" if 0.4 <= top <= 0.9 else "off band",
        }

    return report
