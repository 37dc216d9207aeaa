"""OpenMetrics text exporter and validator.

:func:`openmetrics_text` renders the metrics registry in the
OpenMetrics text format (the Prometheus exposition format's standardised
successor): one ``# TYPE`` line per family, ``_total``-suffixed counter
samples, cumulative ``_bucket{le="..."}`` series plus ``_sum`` /
``_count`` for histograms, escaped label values, and a final ``# EOF``.
The output scrapes directly into Prometheus / VictoriaMetrics / any
OpenMetrics consumer.

Metric names keep the registry's dotted names with dots mapped to
underscores (``pool.chunk_seconds`` -> ``pool_chunk_seconds``) since
OpenMetrics names admit only ``[a-zA-Z0-9_:]``.

:func:`validate_openmetrics` is the shape check the CI obs-smoke job and
the unit tests share, in the style of
:func:`repro.obs.export.validate_chrome_trace`: it parses the text back
into ``{name: {labelstring: value}}`` and raises ``ValueError`` on
malformed lines, so tests can also round-trip values against
``registry.snapshot()``.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               get_metrics, label_string)

__all__ = ["openmetrics_text", "write_openmetrics",
           "validate_openmetrics", "parse_openmetrics",
           "metric_name"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>[0-9.]+))?$")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def metric_name(name: str) -> str:
    """Registry name -> OpenMetrics name (dots become underscores)."""
    out = name.replace(".", "_").replace("-", "_")
    if not _NAME_RE.match(out):
        raise ValueError(f"cannot express metric name {name!r} "
                         f"in OpenMetrics")
    return out


def _escape(value: str) -> str:
    """Escape a label value per the OpenMetrics ABNF."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _fmt(v: float) -> str:
    """Render a sample value: integers without a trailing ``.0`` (bucket
    counts), floats via repr (full precision round trip).  Non-finite
    values use the OpenMetrics spellings (``+Inf``/``-Inf``/``NaN``)."""
    f = float(v)
    if f != f:
        return "NaN"
    if f == float("inf"):
        return "+Inf"
    if f == float("-inf"):
        return "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labelset(key, extra: Optional[List[str]] = None) -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if extra:
        parts.extend(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def openmetrics_text(registry: Optional[MetricsRegistry] = None,
                     prefix: str = "") -> str:
    """The registry rendered as OpenMetrics text (ends with ``# EOF``)."""
    registry = registry if registry is not None else get_metrics()
    lines: List[str] = []
    for fam in registry.collect(prefix):
        name = metric_name(fam.name)
        kind = fam.kind
        lines.append(f"# TYPE {name} {kind}")
        for key, inst in fam.children():
            if isinstance(inst, Counter):
                lines.append(
                    f"{name}_total{_labelset(key)} {_fmt(inst.value)}")
            elif isinstance(inst, Gauge):
                lines.append(
                    f"{name}{_labelset(key)} {_fmt(inst.value)}")
            elif isinstance(inst, Histogram):
                for bound, count in inst.bucket_counts():
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    le_label = 'le="' + le + '"'
                    lines.append(
                        f"{name}_bucket"
                        f"{_labelset(key, [le_label])} {count}")
                lines.append(
                    f"{name}_sum{_labelset(key)} {_fmt(inst.total)}")
                lines.append(
                    f"{name}_count{_labelset(key)} {inst.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str,
                      registry: Optional[MetricsRegistry] = None) -> str:
    """Write the OpenMetrics text to ``path``; returns ``path``."""
    text = openmetrics_text(registry)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)  # atomic: scrapers never see a torn file
    return path


# ----------------------------------------------------------------------


def parse_openmetrics(text: str) -> Dict[str, Dict[str, float]]:
    """Parse OpenMetrics text into ``{sample_name: {labelstring:
    value}}`` (the inverse of :func:`openmetrics_text`, modulo bucket
    expansion).  Raises ``ValueError`` on malformed input."""
    problems: List[str] = []
    out: Dict[str, Dict[str, float]] = {}
    typed: Dict[str, str] = {}
    saw_eof = False
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if saw_eof:
            problems.append(f"line {i}: content after # EOF")
            break
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "unknown", "info", "stateset"):
                problems.append(f"line {i}: bad TYPE line {line!r}")
                continue
            if parts[2] in typed:
                problems.append(
                    f"line {i}: duplicate TYPE for {parts[2]!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT lines are legal, we emit none
        m = _LINE_RE.match(line)
        if not m:
            problems.append(f"line {i}: unparsable sample {line!r}")
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(f"line {i}: non-numeric value "
                            f"{m.group('value')!r}")
            continue
        raw = m.group("labels")
        labels: List[str] = []
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                labels.append(
                    f'{lm.group("key")}="{_unescape(lm.group("value"))}"')
                consumed = lm.end()
                if consumed < len(raw) and raw[consumed] == ",":
                    consumed += 1
            if consumed != len(raw):
                problems.append(f"line {i}: bad labelset {{{raw}}}")
                continue
        out.setdefault(m.group("name"), {})[",".join(labels)] = value
    if not saw_eof:
        problems.append("missing # EOF terminator")
    if problems:
        raise ValueError("invalid OpenMetrics text: "
                         + "; ".join(problems[:10]))
    return out


def validate_openmetrics(text: str) -> Dict[str, Dict[str, float]]:
    """Raise ``ValueError`` unless ``text`` is well-formed OpenMetrics;
    additionally checks family-level consistency (every sample belongs
    to a ``# TYPE``-declared family, histograms carry ``_sum`` /
    ``_count`` / a ``+Inf`` bucket, bucket counts are cumulative).
    Returns the parsed samples."""
    samples = parse_openmetrics(text)
    problems: List[str] = []
    # Re-scan TYPE declarations (parse_openmetrics validated syntax).
    typed: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _h, _t, name, kind = line.split(" ")
            typed[name] = kind
    suffixes = {"counter": ("_total",),
                "histogram": ("_bucket", "_sum", "_count")}
    for sample_name in samples:
        base = None
        for fam_name, kind in typed.items():
            if sample_name == fam_name and kind == "gauge":
                base = fam_name
                break
            for suffix in suffixes.get(kind, ()):
                if sample_name == fam_name + suffix:
                    base = fam_name
                    break
        if base is None:
            problems.append(
                f"sample {sample_name!r} matches no declared family")
    for fam_name, kind in typed.items():
        if kind != "histogram":
            continue
        for part in ("_sum", "_count"):
            if fam_name + part not in samples:
                problems.append(f"histogram {fam_name!r} missing "
                                f"{fam_name + part!r}")
        buckets = samples.get(fam_name + "_bucket", {})
        series: Dict[str, List[tuple]] = {}
        for labelstr, value in buckets.items():
            lm = re.search(r'le="((?:[^"\\]|\\.)*)"', labelstr)
            if lm is None:
                problems.append(f"bucket of {fam_name!r} missing le=")
                continue
            le = lm.group(1)
            rest = re.sub(r'(^|,)le="(?:[^"\\]|\\.)*"', "", labelstr)
            bound = float("inf") if le == "+Inf" else float(le)
            series.setdefault(rest, []).append((bound, value))
        for rest, pairs in series.items():
            pairs.sort()
            if pairs and pairs[-1][0] != float("inf"):
                problems.append(
                    f"histogram {fam_name!r} lacks a +Inf bucket")
            counts = [c for _b, c in pairs]
            if counts != sorted(counts):
                problems.append(
                    f"histogram {fam_name!r} buckets not cumulative")
    if problems:
        raise ValueError("invalid OpenMetrics text: "
                         + "; ".join(problems[:10]))
    return samples


# ----------------------------------------------------------------------
