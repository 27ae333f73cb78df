"""Run manifests and the content hashes behind their ids."""

import pytest

from repro.obs.export import TelemetrySession
from repro.obs.observatory.manifest import (
    RunManifest,
    build_manifest,
    canonical_json,
    config_hash,
    content_hash,
    git_sha,
    manifest_from_records,
)


class TestContentHash:
    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_content_hash_stable_and_sized(self):
        key = content_hash({"x": [1, 2, 3]})
        assert key == content_hash({"x": [1, 2, 3]})
        assert len(key) == 16
        assert len(content_hash({"x": 1}, length=8)) == 8

    def test_different_payloads_differ(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_config_hash_ignores_volatile_keys(self):
        base = {"graph": "LJ", "threads": 4}
        assert config_hash(base) == config_hash(
            {**base, "type": "meta", "telemetry_version": 99}
        )
        assert config_hash(base) != config_hash({**base, "threads": 8})

    def test_git_sha_returns_nonempty(self):
        sha = git_sha()
        assert isinstance(sha, str) and sha


class TestRunManifest:
    def _manifest(self, **overrides):
        fields = dict(
            git_sha="abc123",
            config_hash="cfg",
            command="embed",
            dataset="LJ",
            seed=7,
            sim_seconds_total=1.5,
            wall_seconds_total=0.25,
            n_spans=3,
            n_metrics=2,
            n_events=1,
        )
        fields.update(overrides)
        return RunManifest(**fields)

    def test_run_id_deterministic(self):
        assert self._manifest().run_id == self._manifest().run_id

    def test_run_id_excludes_wall_seconds(self):
        a = self._manifest(wall_seconds_total=0.25)
        b = self._manifest(wall_seconds_total=99.0)
        assert a.run_id == b.run_id

    def test_run_id_tracks_sim_seconds(self):
        assert (
            self._manifest(sim_seconds_total=1.5).run_id
            != self._manifest(sim_seconds_total=2.5).run_id
        )

    def test_record_roundtrip(self):
        manifest = self._manifest()
        record = manifest.to_record()
        assert record["type"] == "manifest"
        assert record["run_id"] == manifest.run_id
        rebuilt = RunManifest.from_record(record)
        assert rebuilt == manifest
        assert rebuilt.run_id == manifest.run_id

    def test_extra_fields_survive_roundtrip(self):
        manifest = self._manifest(extra={"note": "x"})
        rebuilt = RunManifest.from_record(manifest.to_record())
        assert rebuilt.extra == {"note": "x"}

    def test_build_manifest_wall_total_roots_only(self):
        spans = [
            {"type": "span", "parent_id": None, "wall_seconds": 1.0},
            {"type": "span", "parent_id": 0, "wall_seconds": 0.4},
            {"type": "span", "parent_id": None, "wall_seconds": 2.0},
        ]
        manifest = build_manifest(
            {"graph": "PK", "seed": 3}, spans, [], [], sim_seconds_total=5.0
        )
        assert manifest.wall_seconds_total == pytest.approx(3.0)
        assert manifest.dataset == "PK"
        assert manifest.seed == 3
        assert manifest.n_spans == 3

    def test_manifest_from_records(self):
        assert manifest_from_records([]) is None
        assert manifest_from_records([{"type": "span"}]) is None
        record = self._manifest().to_record()
        found = manifest_from_records([{"type": "meta"}, record])
        assert found is not None and found.run_id == record["run_id"]


class TestSessionManifest:
    def test_records_include_manifest_after_meta(self):
        session = TelemetrySession(meta={"command": "t", "graph": "PK"})
        with session.tracer.span("op"):
            session.tracer.advance_sim(1.0)
        records = session.records()
        assert [r["type"] for r in records[:2]] == ["meta", "manifest"]
        manifest = manifest_from_records(records)
        assert manifest.sim_seconds_total == pytest.approx(1.0)
        assert manifest.dataset == "PK"
        assert manifest.n_spans == 1

    def test_identical_sessions_same_run_id(self):
        def make():
            session = TelemetrySession(meta={"command": "t", "seed": 0})
            with session.tracer.span("op"):
                session.tracer.advance_sim(2.0)
            return session.manifest().run_id

        assert make() == make()
