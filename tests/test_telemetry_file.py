"""One telemetry file: one writer, one loader, one flag, every view.

Four properties that only hold because there is no second dialect:
every view works on a file ``--telemetry-out`` alone produced; a file
read back is the session that wrote it; the loader is strict about
terminated lines and tolerant of exactly one torn tail; ``--follow``
prints every progress record from the writer, in file order.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import OMeGaConfig, OMeGaEmbedder
from repro.graphs import chung_lu_edges, save_edge_list
from repro.memsim.clock import VirtualClock
from repro.obs import TelemetrySession, load_records, read_stream, render_report
from repro.obs.live import progress_line
from repro.obs.observatory import build_profile
from repro.obs.observatory.profile import self_sim_sum
from repro.obs.report import render_report_file
from repro.serve import (
    EmbeddingBackend,
    EmbeddingServer,
    RequestTrace,
    ServePolicy,
)

N_NODES = 120
CANONICAL = ("meta", "manifest", "span", "metric", "cost_trace", "event")


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    save_edge_list(path, chung_lu_edges(N_NODES, 700, seed=5))
    return str(path)


class TestEveryViewOnOneFile:
    """(1) ``serve-sim --telemetry-out`` alone feeds all six views."""

    @pytest.fixture(scope="class")
    def serve_file(self, graph_file, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve") / "serve.jsonl"
        code = main(
            [
                "serve-sim", graph_file, "--requests", "60", "--threads", "2",
                "--dim", "8", "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        return str(out)

    def test_report_profile_diff(self, serve_file, capsys):
        assert main(["report", serve_file]) == 0
        assert "Pipeline spans" in capsys.readouterr().out
        assert main(["profile", serve_file]) == 0
        assert "Profile of" in capsys.readouterr().out
        assert main(["diff", serve_file, serve_file]) == 0

    def test_top_sees_a_closed_run_with_sim_time(self, serve_file, capsys):
        assert main(["top", serve_file, "--once"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "closed" in header
        assert "sim t=0.000s" not in header

    def test_why_and_attribute_find_the_forensic_trees(
        self, serve_file, capsys
    ):
        assert main(["why", serve_file, "--worst", "1"]) == 0
        out = capsys.readouterr().out
        assert "no completed requests" not in out
        assert "exemplar trees retained" in out
        assert main(["attribute", serve_file, "--check"]) == 0
        assert "tail-latency blame over" in capsys.readouterr().out


def _embed_session(path):
    session = TelemetrySession(meta={"command": "embed", "seed": 3})
    session.stream_to(path)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=8, seed=3),
        tracer=session.tracer,
        metrics=session.metrics,
    )
    result = embedder.embed_edges(chung_lu_edges(N_NODES, 700, seed=5), N_NODES)
    session.add_cost_trace("embed", result.trace)
    session.event("done", n_spmm=result.n_spmm)
    return session


def _serve_session(path):
    session = TelemetrySession(meta={"command": "serve-sim", "seed": 3})
    session.stream_to(path)
    edges = chung_lu_edges(N_NODES, 700, seed=5)
    embedder = OMeGaEmbedder(
        OMeGaConfig(n_threads=2, dim=8, seed=3),
        tracer=session.tracer,
        metrics=session.metrics,
    )
    backend = EmbeddingBackend(
        embedder, edges, N_NODES, metrics=session.metrics
    )
    backend.warm_up()
    per_node = backend.compute_cost(1)
    server = EmbeddingServer(
        backend,
        ServePolicy.calibrated(per_node * 8.5),
        clock=VirtualClock(),
        metrics=session.metrics,
        tracer=session.tracer,
        stream=session.stream,
    )
    report = server.run_trace(
        RequestTrace.synthesize(
            seed=3, n_requests=40, per_node_cost_s=per_node
        )
    )
    session.event("serve_summary", **report.summary())
    return session


class TestRoundTrip:
    """(2) A file read back is the session that wrote it."""

    @pytest.mark.parametrize("run", [_embed_session, _serve_session])
    def test_file_equals_session_records(self, run, tmp_path):
        path = tmp_path / "run.jsonl"
        session = run(path)
        at_close = json.loads(json.dumps(session.records()))
        assert session.close_stream() == path

        loaded = load_records(path)
        canonical = [r for r in loaded if r["type"] in CANONICAL]
        assert canonical == at_close
        assert render_report(canonical) == render_report(at_close)
        assert loaded[-1]["type"] == "stream_closed"

        manifest = loaded[1]
        assert "synthesized" not in manifest
        spans = [r for r in loaded if r["type"] == "span"]
        assert self_sim_sum(build_profile(spans)) == pytest.approx(
            manifest["sim_seconds_total"], rel=1e-9
        )

    def test_save_writes_the_same_stream_at_the_end(self, tmp_path):
        streamed = _embed_session(tmp_path / "streamed.jsonl")
        streamed.close_stream()
        saved = streamed.save(tmp_path / "saved.jsonl")

        def comparable(path):
            return [
                {k: v for k, v in r.items() if k != "pid"}
                for r in load_records(path)
            ]

        assert comparable(saved) == comparable(tmp_path / "streamed.jsonl")


class TestReaderRule:
    """(3) Terminated lines must decode; one torn tail is skipped."""

    GOOD = [
        {"type": "meta", "graph": "PK"},
        {"type": "span", "name": "op", "span_id": 0, "sim_seconds": 1.0},
    ]

    def _write(self, path, *chunks):
        path.write_text("".join(chunks), encoding="utf-8")
        return path

    def _lines(self):
        return [json.dumps(r) + "\n" for r in self.GOOD]

    def test_terminated_garbage_in_the_middle_raises(self, tmp_path):
        first, second = self._lines()
        path = self._write(tmp_path / "mid.jsonl", first, "{torn\n", second)
        with pytest.raises(ValueError, match=r"mid\.jsonl:2: invalid telemetry"):
            load_records(path)

    def test_terminated_garbage_as_last_line_raises(self, tmp_path):
        path = self._write(tmp_path / "last.jsonl", *self._lines(), "[1, 2]\n")
        with pytest.raises(ValueError, match=r"last\.jsonl:3: invalid telemetry"):
            load_records(path)

    def test_unterminated_tail_is_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path / "cut.jsonl", *self._lines(), '{"type": "span", "na'
        )
        records, skipped = read_stream(path)
        assert records == self.GOOD and skipped == 1
        loaded = load_records(path)
        assert [r["type"] for r in loaded] == ["meta", "manifest", "span"]
        assert loaded[1]["synthesized"] is True
        assert "1 unterminated trailing fragment skipped" in render_report_file(path)

    def test_headerless_list_without_final_newline_loads_whole(self, tmp_path):
        path = self._write(
            tmp_path / "hand.jsonl", "".join(self._lines()).rstrip("\n")
        )
        records, skipped = read_stream(path)
        assert records == self.GOOD and skipped == 0
        assert "skipped" not in render_report_file(path)


class TestFollow:
    """(4) ``--follow`` prints from the writer: every record, in order."""

    def test_prints_every_progress_record_through_stream_closed(
        self, graph_file, tmp_path, capsys
    ):
        out = tmp_path / "f.jsonl"
        code = main(
            [
                "embed", graph_file, "--threads", "4", "--dim", "8",
                "--telemetry-out", str(out), "--follow",
            ]
        )
        assert code == 0
        records, skipped = read_stream(out)
        assert skipped == 0
        expected = [
            line for line in map(progress_line, records) if line is not None
        ]
        assert expected[-1] == "  stream closed"
        assert len(expected) > 5
        printed = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line in set(expected)
        ]
        assert printed == expected

    def test_follow_without_a_file_is_refused(self, graph_file):
        with pytest.raises(SystemExit, match="--follow requires --telemetry-out"):
            main(["embed", graph_file, "--dim", "8", "--follow"])
