"""Tests of the ledger itself.  Run explicitly (tier-1 stays ``tests/``):

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import names  # noqa: E402
import quant  # noqa: E402
import reap  # noqa: E402
import spans as sp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- declaration ---------------------------------------------------------

def test_declaration_is_within_the_contract():
    doc = names.benchmark_json()
    declared = ([w["name"] for w in doc["workloads"]]
                + [m["name"] for m in doc["end_to_end"]]
                + [m["name"] for m in doc["per_layer"]])
    assert all(NAME.match(n) for n in declared)
    assert len(set(declared)) == len(declared)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(m["better"] in ("lower", "higher")
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024


def test_benchmark_json_is_the_declaration():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        assert json.load(fh) == names.benchmark_json()


# -- percentile rule, schedule, latency accounting -------------------------

@pytest.mark.parametrize("n, expected", [
    (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (147, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_needs_ten_samples_beyond(n, expected):
    assert quant.supported_tail(n) == expected


def test_tail_reports_the_percentile_it_used():
    values = [float(v) for v in range(200)]
    assert quant.tail(values) == {"p": 95.0, "value": 189.05, "n": 200,
                                  "supported": True}
    few = quant.tail(values[:12])
    assert (few["p"], few["supported"]) == (75.0, False)


def test_percentile_interpolates_linearly():
    assert quant.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert quant.percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.25
    assert quant.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        quant.percentile([], 50)


def test_a_run_reports_the_quartile_on_the_fast_side():
    through_a_slow_spell = [0.65, 0.65, 0.74, 0.84, 0.91, 0.85, 0.88, 0.88]
    assert quant.quiet_time(through_a_slow_spell) == pytest.approx(0.7175)
    assert quant.median(through_a_slow_spell) == pytest.approx(0.845)
    assert quant.quiet_rate([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0


def test_poisson_schedule_follows_the_seed():
    a = quant.poisson_schedule(7, 20.0, 5000)
    assert a == quant.poisson_schedule(7, 20.0, 5000)
    assert a != quant.poisson_schedule(8, 20.0, 5000)
    assert all(later > earlier for earlier, later in zip(a, a[1:]))
    assert a[-1] / len(a) == pytest.approx(1 / 20.0, rel=0.05)


def test_latency_runs_from_the_due_time():
    late = quant.account(due=1.0, sent=1.25, done=1.5)
    assert late == {"latency_ms": 500.0, "sender_late_ms": 250.0}
    on_time = quant.account(due=1.0, sent=1.0, done=1.1)
    assert on_time["sender_late_ms"] == 0.0
    assert on_time["latency_ms"] == pytest.approx(100.0)


# -- spans -----------------------------------------------------------------

def test_self_time_is_duration_minus_direct_children():
    rec = sp.Recorder()
    top = rec.add("top", 0.0, 10.0, None, "r")
    first = rec.add("child", 1.0, 4.0, top, "r")
    rec.add("child", 5.0, 7.0, top, "r")
    rec.add("leaf", 2.0, 3.0, first, "r")
    rec.add("top", 0.0, 1.0, None, "other")
    assert sp.self_times(rec.spans) == [5.0, 2.0, 2.0, 1.0, 1.0]
    assert sp.totals(rec.spans, "r") == {
        "top": {"total": 10.0, "self": 5.0, "count": 1},
        "child": {"total": 5.0, "self": 4.0, "count": 2},
        "leaf": {"total": 1.0, "self": 1.0, "count": 1}}


def test_nested_spans_record_parent_and_run():
    rec = sp.Recorder()
    with rec.span("outer", run="r1") as outer:
        with rec.span("inner") as inner:
            pass
    with rec.span("alone"):
        pass
    assert rec.spans[inner][sp.PARENT] == outer
    assert rec.spans[inner][sp.RUN] == "r1"
    assert rec.spans[2][sp.PARENT] is None
    assert all(s[sp.END] >= s[sp.START] for s in rec.spans)
    own = sp.self_times(rec.spans)
    assert own[outer] == pytest.approx(
        rec.spans[outer][sp.END] - rec.spans[outer][sp.START]
        - (rec.spans[inner][sp.END] - rec.spans[inner][sp.START]))


# -- canary ------------------------------------------------------------------

def test_slowdown_is_the_median_reading_near_the_interval():
    import canary
    host = canary.Canary()
    q = canary.QUIET_MS
    host.readings = [(0.0, 5 * q), (9.0, q), (10.5, 2 * q), (11.5, 4 * q),
                     (12.4, 3 * q), (20.0, 5 * q)]
    # 1.5 s either side of [10, 11]: the readings at 9.0 .. 12.4
    assert host.slowdown(10.0, 11.0) == pytest.approx(2.5)
    assert host.overall() == pytest.approx(3.5)
    with pytest.raises(ValueError):
        host.slowdown(15.0, 16.0)


def test_a_reading_times_one_sort():
    import canary
    host = canary.Canary()
    before = time.perf_counter()
    host.read(3)
    after = time.perf_counter()
    assert len(host.readings) == 3
    assert all(before < at < after and 0 < ms < (after - before) * 1e3
               for at, ms in host.readings)
    assert host.slowdown(before, after) == pytest.approx(
        sorted(ms for _, ms in host.readings)[1] / canary.QUIET_MS)


# -- the command -------------------------------------------------------------

def _session_members(sid):
    """Live processes of session ``sid``, with their command lines."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                session = int(fh.read().rsplit(")", 1)[1].split()[3])
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ")
        except OSError:
            continue
        if session == sid:
            found.append((int(entry), cmdline))
    return found


def _run(*args, cwd=REPO, script=RUN):
    """The command in a session of its own; nothing of that session may
    be alive at the moment the command has exited."""
    proc = subprocess.Popen([sys.executable, script, *args], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        left = _session_members(proc.pid)
        for pid, _ in left:
            os.kill(pid, 9)
    assert not left, f"outlived the command: {left}"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in names.WORKLOADS])
def test_quick_smoke_emits_every_declared_name(workload, trace):
    done = _run("--workload", workload, "--trace", str(trace), "--quick",
                "--seed", "11")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = names.LAYER_UNITS if trace else names.E2E_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(HERE, "out",
                                           f"trace-{workload}.json"))


def test_exits_non_zero_without_a_program_to_measure(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "walk",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


_ORPHAN = """
import subprocess, sys
sys.path.insert(0, {here!r})
import reap
reap.GRACE_S = 0.5
reap.supervise()
# A grandchild whose parent exits at once: an orphan below the run.
subprocess.Popen([sys.executable, "-c",
                  "import subprocess, sys; "
                  "subprocess.Popen(['sleep', sys.argv[1]])", "{seconds}"])
print("done", flush=True)
"""


@pytest.mark.parametrize("seconds, code", [("0.2", 0), ("60", 1)])
def test_the_command_waits_for_orphans_and_kills_stragglers(
        tmp_path, seconds, code):
    script = tmp_path / "orphan.py"
    script.write_text(_ORPHAN.format(here=HERE, seconds=seconds))
    done = _run(script=str(script))
    assert done.returncode == code, done.stderr
    assert done.stdout == "done\n"
    assert ("outlived the run" in done.stderr) == bool(code)


def test_descendants_lists_children_of_children():
    proc = subprocess.Popen(["sh", "-c", "sleep 30 & wait"])
    try:
        deadline = time.monotonic() + 5
        while len(reap.descendants(os.getpid())) < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        below = reap.descendants(os.getpid())
        assert proc.pid in below and len(below) >= 2
        assert reap.descendants(proc.pid) == [p for p in below
                                              if p != proc.pid]
    finally:
        for pid in reap.descendants(proc.pid):
            os.kill(pid, 9)
        proc.kill()
        proc.wait()


def _result(workload, trace, **values):
    return {"workload": workload, "trace": trace,
            "metrics": {n: {"value": v, "unit": "x"}
                        for n, v in values.items()}}


def test_agree_judges_each_metric_against_its_bound(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([
        _result("walk", 0, samples_per_s=100.0, setup_s=4.0),
        _result("walk", 1, **{"core.steps": 100.0})]))
    b.write_text(json.dumps([
        _result("walk", 0, samples_per_s=104.0, setup_s=5.5),
        _result("walk", 1, **{"core.steps": 101.0})]))
    done = _run("agree", str(a), str(b))
    lines = {tuple(line.split()[:3]) for line in done.stdout.splitlines()}
    assert ("ok", "walk", "samples_per_s") in lines
    assert ("out-of-bound", "walk", "setup_s") in lines
    assert ("out-of-bound", "walk", "core.steps") in lines
    assert done.returncode == 1
    assert _run("agree", str(a), str(a)).returncode == 0


def test_agree_calls_a_wide_spread_unresolved(tmp_path):
    noisy = [_result("khop", 0, samples_per_s=v)
             for v in (60.0, 80.0, 100.0, 120.0, 140.0)]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(noisy))
    b.write_text(json.dumps(noisy))
    done = _run("agree", str(a), str(b))
    assert done.stdout.split()[0] == "unresolved"
    assert done.returncode == 0
