"""OpenMetrics exporter: rendering, escaping, validation, round-trip,
and the snapshot writer."""

import math
import os

import pytest

from repro.obs.metrics import MetricsRegistry, scalar_of
from repro.obs.openmetrics import (
    metric_name,
    openmetrics_text,
    parse_openmetrics,
    validate_openmetrics,
    write_openmetrics,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestRendering:
    def test_empty_registry_is_just_eof(self, registry):
        text = openmetrics_text(registry)
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == {}

    def test_counter_gets_total_suffix(self, registry):
        registry.counter("pool.chunk_errors").inc(3)
        text = openmetrics_text(registry)
        assert "# TYPE pool_chunk_errors counter" in text
        assert "pool_chunk_errors_total 3" in text
        samples = validate_openmetrics(text)
        assert samples["pool_chunk_errors_total"][""] == 3.0

    def test_gauge_plain_sample(self, registry):
        registry.gauge("runtime.backend_active").set(2)
        samples = validate_openmetrics(openmetrics_text(registry))
        assert samples["runtime_backend_active"][""] == 2.0

    def test_histogram_has_cumulative_buckets_sum_count(self, registry):
        h = registry.histogram("pool.chunk_seconds")
        for v in (0.001, 0.01, 0.01, 0.1):
            h.observe(v)
        text = openmetrics_text(registry)
        samples = validate_openmetrics(text)  # checks cumulativity
        assert samples["pool_chunk_seconds_count"][""] == 4.0
        assert samples["pool_chunk_seconds_sum"][""] == \
            pytest.approx(0.121)
        buckets = samples["pool_chunk_seconds_bucket"]
        assert buckets['le="+Inf"'] == 4.0

    def test_labeled_family_renders_every_series(self, registry):
        registry.counter("pool.chunk_errors",
                         labels={"app": "DeepWalk",
                                 "backend": "numpy"}).inc()
        registry.counter("pool.chunk_errors",
                         labels={"app": "LADIES",
                                 "backend": "cnative"}).inc(2)
        samples = validate_openmetrics(openmetrics_text(registry))
        series = samples["pool_chunk_errors_total"]
        assert series['app="DeepWalk",backend="numpy"'] == 1.0
        assert series['app="LADIES",backend="cnative"'] == 2.0

    def test_dotted_and_hyphenated_names_map_to_underscores(self):
        assert metric_name("pool.chunk_seconds") == "pool_chunk_seconds"
        assert metric_name("pool.chunk-seconds") == "pool_chunk_seconds"
        with pytest.raises(ValueError, match="cannot express"):
            metric_name("so wrong")


class TestEscaping:
    def test_label_values_with_quotes_backslashes_newlines(
            self, registry):
        nasty = 'path\\to "file"\nnext'
        registry.counter("io.errors", labels={"file": nasty}).inc()
        text = openmetrics_text(registry)
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        samples = validate_openmetrics(text)
        (labelstr, value), = samples["io_errors_total"].items()
        # parse_openmetrics unescapes, so the value round-trips.
        assert labelstr == f'file="{nasty}"'
        assert value == 1.0

    def test_label_values_with_spaces_and_commas(self, registry):
        registry.gauge("g", labels={"why": "a, b and c"}).set(1)
        samples = validate_openmetrics(openmetrics_text(registry))
        assert samples["g"]['why="a, b and c"'] == 1.0


class TestNonFinite:
    def test_nan_inf_observations_are_dropped_not_exported(
            self, registry):
        h = registry.histogram("pool.chunk_seconds")
        h.observe(0.01)
        h.observe(float("nan"))
        h.observe(float("inf"))
        assert h.count == 1 and h.dropped == 2
        samples = validate_openmetrics(openmetrics_text(registry))
        assert samples["pool_chunk_seconds_count"][""] == 1.0
        assert math.isfinite(samples["pool_chunk_seconds_sum"][""])

    def test_inf_gauge_still_parses(self, registry):
        registry.gauge("serve.queue_wait").set(float("inf"))
        samples = validate_openmetrics(openmetrics_text(registry))
        assert samples["serve_queue_wait"][""] == float("inf")


class TestPrefixFilter:
    def test_prefix_limits_output_to_matching_families(self, registry):
        registry.counter("pool.chunk_errors",
                         labels={"app": "DeepWalk"}).inc()
        registry.counter("engine.runs").inc()
        registry.histogram("pool.chunk_seconds").observe(0.01)
        text = openmetrics_text(registry, prefix="pool.")
        samples = validate_openmetrics(text)
        assert "engine_runs_total" not in samples
        assert samples["pool_chunk_errors_total"][
            'app="DeepWalk"'] == 1.0
        assert "pool_chunk_seconds_count" in samples


class TestRoundTrip:
    def test_values_match_registry_snapshot(self, registry):
        registry.counter("a.count").inc(7)
        registry.gauge("b.level").set(0.25)
        registry.histogram("c.seconds",
                           labels={"stage": "step"}).observe(0.02)
        samples = validate_openmetrics(openmetrics_text(registry))
        snap = registry.snapshot()
        assert samples["a_count_total"][""] == snap["a.count"]
        assert samples["b_level"][""] == snap["b.level"]
        assert samples["c_seconds_count"]['stage="step"'] == \
            scalar_of(snap["c.seconds"])


class TestValidator:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(ValueError, match="after # EOF"):
            parse_openmetrics("# EOF\na 1\n")

    def test_undeclared_sample_rejected(self):
        with pytest.raises(ValueError, match="no declared family"):
            validate_openmetrics("stray_sample 1\n# EOF\n")

    def test_non_cumulative_buckets_rejected(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 3\n# EOF\n")
        with pytest.raises(ValueError, match="not cumulative"):
            validate_openmetrics(text)

    def test_histogram_without_inf_bucket_rejected(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 1\n'
                "h_sum 1\nh_count 1\n# EOF\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_openmetrics(text)

    def test_bad_labelset_rejected(self):
        with pytest.raises(ValueError, match="bad labelset"):
            parse_openmetrics('# TYPE g gauge\ng{oops} 1\n# EOF\n')


class TestWriters:
    def test_write_openmetrics_is_atomic_and_validates(
            self, registry, tmp_path):
        registry.counter("n").inc()
        path = str(tmp_path / "metrics.prom")
        assert write_openmetrics(path, registry) == path
        validate_openmetrics(open(path).read())
        assert not [p for p in os.listdir(tmp_path)
                    if ".tmp." in p], "tmp file left behind"
