"""Distributed observability: context, spools, merge, and attribution.

The contract under test (``repro.obs.dist``): a traced sharded run
spools per-process telemetry that merges into *one* timeline — worker
command spans parented under the coordinator spans that issued them —
while the untraced path stays byte-identical (3-tuple command frames,
unchanged ``result_signature``).  Edge cases ride along: truncated and
empty spools, clock skew, and spans from replayed command logs after a
crash.
"""

import json
import os
import signal

import pytest

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.dist import DistConfig, ShardedEngine, component_candidate_assign
from repro.dist.backend import ProcessBackend
from repro.obs import MemorySink
from repro.obs.dist import (
    CMD_SPAN_PREFIX,
    JOB_SPAN,
    ROUND_SPAN,
    SOLVE_SPAN,
    DistObsConfig,
    align_spool,
    attribute_rounds,
    clock_offset,
    current_context,
    list_spools,
    merge_spools,
    render_distributed_report,
    replay_seconds,
)
from repro.obs.metrics import labelled, split_labels
from repro.obs.openmetrics import render_openmetrics
from repro.obs.report import aggregate
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)


def scenario(seed, n_workers=30, n_tasks=60, t_end=60.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


def run_reference(tasks, workers, seed):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign("ppi"),
    )
    return engine.run(tasks, 0.0, 60.0)


def run_sharded(tasks, workers, seed, shards=2, obs_cfg=None, provider=None,
                backend="shard_server", record=False, t_end=60.0):
    engine = ShardedEngine(
        workers,
        provider if provider is not None else DeadReckoningProvider(seed=seed),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign("ppi"),
        dist=DistConfig(backend=backend, shards=shards, workers=2, obs=obs_cfg),
    )
    if provider is not None and hasattr(provider, "engine"):
        provider.engine = engine
    sink = MemorySink()
    try:
        if record:
            with obs.recording(sink):
                result = engine.run(tasks, 0.0, t_end)
        else:
            result = engine.run(tasks, 0.0, t_end)
    finally:
        engine.close()
    return result, engine, sink.records


# ----------------------------------------------------------------------
# label-style metric names
# ----------------------------------------------------------------------
class TestLabelledNames:
    def test_roundtrip(self):
        name = labelled("dist.shard.events", shard=3)
        assert name == "dist.shard.events{shard=3}"
        assert split_labels(name) == ("dist.shard.events", {"shard": "3"})

    def test_labels_sorted(self):
        assert labelled("m", b=1, a=2) == "m{a=2,b=1}"

    def test_unlabelled_passthrough(self):
        assert split_labels("serve.queue.pending") == ("serve.queue.pending", {})

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            labelled("m", shard="a,b")
        with pytest.raises(ValueError):
            labelled("m{x}", shard=1)

    def test_openmetrics_groups_label_families(self):
        snapshot = {
            "counters": {
                labelled("dist.shard.events", shard=0): 5.0,
                labelled("dist.shard.events", shard=1): 7.0,
            },
            "gauges": {labelled("dist.shard.busy_s", shard=1): 0.25},
            "histograms": {},
        }
        text = render_openmetrics(snapshot)
        # One family declaration, one labelled series per shard.
        assert text.count("# TYPE repro_dist_shard_events counter") == 1
        assert 'repro_dist_shard_events_total{shard="0"} 5' in text
        assert 'repro_dist_shard_events_total{shard="1"} 7' in text
        assert 'repro_dist_shard_busy_s{shard="1"} 0.25' in text


# ----------------------------------------------------------------------
# context propagation
# ----------------------------------------------------------------------
class TestCurrentContext:
    def test_none_without_recorder(self):
        assert current_context() is None

    def test_carries_trace_and_innermost_span(self):
        with obs.recording(MemorySink()) as rec:
            assert current_context()["parent"] is None
            with obs.span("outer"), obs.span("inner") as inner:
                ctx = current_context()
                assert ctx["trace"] == rec.trace_id
                assert ctx["parent"] == inner.span_id
                assert "replay" not in ctx
                assert current_context(replay=True)["replay"] is True


# ----------------------------------------------------------------------
# end-to-end: sharded run -> spools -> one merged timeline
# ----------------------------------------------------------------------
class TestMergedTimeline:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        spool_dir = tmp_path_factory.mktemp("spools")
        # A square dense extent so the sticky stripe layout gives every
        # shard members (and thus candidate builds) from round one.
        stream = StreamConfig(n_workers=40, n_tasks=80, t_end=30.0,
                              width_km=20.0, height_km=20.0, seed=1)
        tasks, workers = make_task_stream(stream), make_worker_fleet(stream)
        cfg = DistObsConfig(spool_dir=str(spool_dir), profile=True,
                            profile_every=2, profile_top_n=5)
        result, engine, records = run_sharded(
            tasks, workers, 1, shards=2, obs_cfg=cfg, record=True, t_end=30.0
        )
        merged = merge_spools(records, spool_dir)
        return result, engine, records, merged, spool_dir

    def test_one_spool_per_shard(self, traced_run):
        *_, spool_dir = traced_run
        spools = list_spools(spool_dir)
        assert len(spools) == 2
        assert {p.name.split("-")[1] for p in spools} == {"shard0", "shard1"}

    def test_worker_spans_parent_under_coordinator_spans(self, traced_run):
        _, _, records, merged, _ = traced_run
        coordinator_ids = {r["span_id"] for r in records if r.get("type") == "span"}
        solve_ids = {r["span_id"] for r in records
                     if r.get("type") == "span" and r["name"] == SOLVE_SPAN}
        worker = [r for r in merged if r.get("type") == "span" and "process" in r]
        assert worker, "no worker spans made it into the merge"
        # Every shard process contributed spans to the timeline.
        assert {r["process"].split("-")[0] for r in worker} == {"shard0", "shard1"}
        top = [r for r in worker if str(r["name"]).startswith(CMD_SPAN_PREFIX)]
        assert top and all(r["parent_id"] in coordinator_ids for r in top)
        # Candidate builds specifically land inside the solve window.
        builds = [r for r in top if r["name"] == CMD_SPAN_PREFIX + "build"]
        assert builds and all(r["parent_id"] in solve_ids for r in builds)

    def test_aggregate_consumes_merged_timeline(self, traced_run):
        _, _, _, merged, _ = traced_run
        report = aggregate(merged)
        paths = set(report.stats)
        assert any(p[-1].startswith(CMD_SPAN_PREFIX) and ROUND_SPAN in p for p in paths)

    def test_rounds_attributed_with_stragglers(self, traced_run):
        result, _, _, merged, _ = traced_run
        rounds = attribute_rounds(merged)
        assert len(rounds) == result.n_batches
        busy_rounds = [a for a in rounds if a.shard_busy_s]
        assert busy_rounds, "no round collected worker busy time"
        for att in busy_rounds:
            assert att.straggler in (0, 1)
            assert att.critical_busy_s <= att.solve_s + 0.05
            assert att.ipc_wait_s(att.straggler) >= 0.0

    def test_report_renders_rounds_and_critical_path(self, traced_run):
        _, _, _, merged, _ = traced_run
        text = render_distributed_report(merged)
        assert "per-shard totals" in text
        assert "critical path" in text
        assert "straggler" in text

    def test_profile_hotspots_on_cadence(self, traced_run):
        result, engine, *_ = traced_run
        hotspots = engine.profile_hotspots
        assert hotspots
        profiled_rounds = {h["round"] for h in hotspots}
        # Every other round (profile_every=2), both shards each time.
        assert all(r % 2 == 0 for r in profiled_rounds)
        assert {h["shard"] for h in hotspots} == {0, 1}
        for entry in hotspots:
            assert len(entry["top"]) <= 5
            assert all({"function", "ncalls", "cumtime_s"} <= set(row) for row in entry["top"])

    def test_labelled_shard_metrics(self, traced_run):
        _, _, records, *_ = traced_run
        metrics = next(r for r in records if r.get("type") == "metrics")
        counters, gauges = metrics["counters"], metrics["gauges"]
        assert counters[labelled("dist.shard.events", shard=0)] > 0
        # One labelled family per base name; no dotted per-shard names.
        assert not any(name.startswith(("dist.shard.0.", "dist.shard.1.")) for name in counters)
        assert labelled("dist.shard.busy_s", shard=0) in gauges
        assert "dist.shard.straggler" in gauges

    def test_spools_are_valid_jsonl_with_header(self, traced_run):
        *_, spool_dir = traced_run
        for path in list_spools(spool_dir):
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            assert lines[0]["type"] == "spool_start"
            assert lines[0]["role"] == "shard"
            assert any(r.get("type") == "span" for r in lines)


class TestProcessBackendJobs:
    def test_pool_jobs_spool_job_spans(self, tmp_path):
        cfg = DistObsConfig(spool_dir=str(tmp_path))
        backend = ProcessBackend(workers=2, obs=cfg)
        sink = MemorySink()
        try:
            with obs.recording(sink):
                with obs.span("driver") as driver:
                    out = backend.map_ordered(_square, [1, 2, 3])
                    parent = driver.span_id
        finally:
            backend.close()
        assert out == [1, 4, 9]
        merged = merge_spools(sink.records, tmp_path)
        jobs = [r for r in merged if r.get("type") == "span" and r["name"] == JOB_SPAN]
        assert len(jobs) == 3
        assert all(r["parent_id"] == parent for r in jobs)

    def test_untraced_pool_leaves_no_spools(self, tmp_path):
        cfg = DistObsConfig(spool_dir=str(tmp_path))
        backend = ProcessBackend(workers=2, obs=cfg)
        try:
            assert backend.map_ordered(_square, [2, 3]) == [4, 9]
        finally:
            backend.close()
        assert list_spools(tmp_path) == []


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# disabled-path parity
# ----------------------------------------------------------------------
class TestDisabledPathParity:
    def test_signature_identical_with_and_without_obs(self, tmp_path):
        tasks, workers = scenario(6)
        ref = result_signature(run_reference(tasks, workers, 6))
        plain, *_ = run_sharded(tasks, workers, 6)
        cfg = DistObsConfig(spool_dir=str(tmp_path))
        traced, *_ = run_sharded(tasks, workers, 6, obs_cfg=cfg, record=True)
        assert result_signature(plain) == ref
        assert result_signature(traced) == ref

    def test_untraced_frames_stay_three_tuples(self):
        """Without a recorder no context is appended — the wire format
        (and thus replay logs and signatures) is bit-identical."""
        from repro.dist.server import ShardServerHandle

        class _Tap:
            def __init__(self, conn):
                self.conn, self.sent = conn, []

            def send(self, frame):
                self.sent.append(frame)
                self.conn.send(frame)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        handle = ShardServerHandle(0)
        try:
            assert handle.request("ping") == "pong"  # spawn the server
            tap = handle._conn = _Tap(handle._conn)
            assert handle.request("ping") == "pong"
            handle.request("apply", {"tasks_add": [], "snaps_add": []})
            handle._conn = tap.conn
        finally:
            handle.close()
        assert tap.sent and all(len(frame) == 3 for frame in tap.sent)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistObsConfig(profile=True)  # profiling needs a spool dir
        with pytest.raises(ValueError):
            DistObsConfig(spool_dir="x", profile_every=0)
        assert not DistObsConfig().enabled
        assert DistObsConfig(spool_dir="x").enabled


# ----------------------------------------------------------------------
# merge edge cases
# ----------------------------------------------------------------------
def spool_span(span_id, name="dist.cmd.build", parent=None, remote_parent=None,
               start=100.0, dur=0.5, sent=None, recv=None, **attrs):
    record_attrs = dict(attrs)
    if remote_parent is not None:
        record_attrs["remote_parent"] = remote_parent
    if sent is not None:
        record_attrs["sent_unix"] = sent
    if recv is not None:
        record_attrs["recv_unix"] = recv
    return {
        "type": "span", "name": name, "span_id": span_id, "parent_id": parent,
        "depth": 0 if parent is None else 1, "start_unix": start,
        "duration_s": dur, "attrs": record_attrs, "error": None,
    }


class TestMergeEdgeCases:
    def test_truncated_spool_tail_is_skipped(self, tmp_path):
        path = tmp_path / "spool-shard0-1.jsonl"
        good = spool_span(1, remote_parent=9, shard=0)
        path.write_text(
            json.dumps({"type": "spool_start", "pid": 1, "role": "shard",
                        "ident": 0, "trace_id": "t", "start_unix": 100.0})
            + "\n" + json.dumps(good) + "\n"
            + json.dumps(spool_span(2))[:25]  # killed mid-write
        )
        with pytest.warns(UserWarning):
            merged = merge_spools([], tmp_path)
        spans = [r for r in merged if r.get("type") == "span"]
        assert len(spans) == 1
        assert spans[0]["span_id"] == "shard0-1:1"
        assert spans[0]["parent_id"] == 9

    def test_empty_spool_merges_to_nothing(self, tmp_path):
        (tmp_path / "spool-shard1-2.jsonl").write_text("")
        assert merge_spools([], tmp_path) == []

    def test_clock_skew_aligned_by_min_one_way_delta(self):
        # Worker clock runs 10s ahead; pipe latencies 0.01s and 0.3s.
        records = [
            spool_span(1, start=110.01, sent=100.0, recv=110.01, shard=0),
            spool_span(2, start=135.30, sent=125.0, recv=135.30, shard=0),
        ]
        assert clock_offset(records) == pytest.approx(10.01)
        aligned = align_spool(records, source="shard0-1")
        starts = [r["start_unix"] for r in aligned]
        assert starts[0] == pytest.approx(100.0)  # lands on coordinator clock
        assert starts[1] == pytest.approx(125.29)

    def test_local_hierarchy_survives_namespacing(self):
        records = [
            spool_span(1, remote_parent=42),
            spool_span(2, name="inner.work", parent=1),
        ]
        aligned = align_spool(records, source="p9")
        by_id = {r["span_id"]: r for r in aligned}
        assert by_id["p9:1"]["parent_id"] == 42
        assert by_id["p9:2"]["parent_id"] == "p9:1"
        assert "remote_parent" not in by_id["p9:1"]["attrs"]

    def test_worker_metrics_do_not_shadow_coordinator_snapshot(self, tmp_path):
        path = tmp_path / "spool-proc-3.jsonl"
        path.write_text(json.dumps({"type": "metrics", "counters": {"x": 1.0}}) + "\n")
        coordinator = [{"type": "metrics", "counters": {"serve.assigned": 5.0}}]
        merged = merge_spools(coordinator, tmp_path)
        report = aggregate(merged)
        assert report.metrics["counters"] == {"serve.assigned": 5.0}


# ----------------------------------------------------------------------
# crash recovery: replayed commands are visible in the timeline
# ----------------------------------------------------------------------
class _CrashingProvider:
    """Wraps a snapshot provider; SIGKILLs one shard server mid-run."""

    def __init__(self, inner, kill_at_call):
        self.inner = inner
        self.kill_at_call = kill_at_call
        self.calls = 0
        self.engine = None
        self.killed = False

    def __call__(self, worker, t):
        self.calls += 1
        if not self.killed and self.calls >= self.kill_at_call and self.engine is not None:
            handle = self.engine.backend.handles[0]
            if handle._proc is not None and handle._proc.is_alive():
                os.kill(handle._proc.pid, signal.SIGKILL)
                self.killed = True
        return self.inner(worker, t)


class TestCrashReplayTelemetry:
    def test_replayed_commands_marked_and_counted(self, tmp_path):
        tasks, workers = scenario(5)
        ref = result_signature(run_reference(tasks, workers, 5))
        provider = _CrashingProvider(DeadReckoningProvider(seed=5), kill_at_call=200)
        cfg = DistObsConfig(spool_dir=str(tmp_path))
        result, engine, records = run_sharded(
            tasks, workers, 5, shards=3, obs_cfg=cfg, provider=provider, record=True
        )
        assert provider.killed, "crash was never injected; raise kill_at_call"
        assert engine.backend.total_restarts >= 1
        assert result_signature(result) == ref
        # The respawned pid opened a fresh spool next to the old one.
        assert len(list_spools(tmp_path)) >= 4
        merged = merge_spools(records, tmp_path)
        replayed = [r for r in merged if r.get("type") == "span"
                    and (r.get("attrs") or {}).get("replay")]
        assert replayed, "replayed commands left no marked spans"
        total_replay = replay_seconds(merged)
        assert total_replay > 0.0
        # Replay cost attributed inside rounds (the crash delays that
        # round's solve) never exceeds the total replay time.
        attributed = sum(
            sum(att.shard_replay_s.values()) for att in attribute_rounds(merged)
        )
        assert attributed <= total_replay + 1e-9
