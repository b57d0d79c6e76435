"""The live watch view: row rendering and the ``watch`` CLI command."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import (
    RecordingTracer,
    WindowedAggregator,
    WindowSpec,
    format_watch_table,
    write_jsonl,
)
from repro.obs.stream import format_frame_row, format_watch_header
from scenarios import overload_replay, tiny_replay

POLICY = {"objective": 0.9,
          "rules": [{"short_s": 0.005, "long_s": 0.02, "threshold": 2.0,
                     "severity": "page"}]}


def tiny_frames():
    agg = WindowedAggregator((WindowSpec(0.002),))
    tiny_replay(tracer=agg)
    agg.finish()
    return agg.frames()


class TestRendering:
    def test_header_and_rows_align(self):
        frames = tiny_frames()
        assert frames
        header = format_watch_header().splitlines()[0]
        for frame in frames:
            row = format_frame_row(frame)
            assert "nan" not in row
            # Fixed-width table: rows stay close to the header width.
            assert abs(len(row) - len(header)) <= 8

    def test_empty_window_renders_dashes(self):
        agg = WindowedAggregator((WindowSpec(0.002),))
        tiny_replay(tracer=agg)
        agg.finish()
        # A window with arrivals but no completions has no e2e stage
        # data; the row must show "-" cells, never "nan".
        quiet = [f for f in agg.frames() if f.served == 0]
        for frame in quiet:
            row = format_frame_row(frame)
            assert "nan" not in row

    def test_table_last_n(self):
        frames = tiny_frames()
        text = format_watch_table(frames, last=2)
        lines = text.splitlines()
        assert len(lines) == 2 + min(2, len(frames))

    def test_alerts_at_callback(self):
        frames = tiny_frames()
        text = format_watch_table(frames, alerts_at=lambda t: 7)
        for line in text.splitlines()[2:]:
            assert line.rstrip().endswith("7")


class TestWatchCli:
    @pytest.fixture
    def overload_jsonl(self, tmp_path):
        inner = RecordingTracer()
        overload_replay(tracer=inner)
        path = tmp_path / "overload.jsonl"
        write_jsonl(inner.events, path)
        return path

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["watch", "--from-jsonl", "t.jsonl", "--window-ms", "5",
             "--rows", "10", "--no-refresh", "--slo-policy", "p.json"])
        assert args.command == "watch"
        assert args.from_jsonl == "t.jsonl"
        assert args.window_ms == 5.0
        assert args.rows == 10
        assert args.no_refresh

    def test_live_replay_prints_rows(self, capsys):
        main(["watch", "--scenario", "mixed-slo", "--rate", "3000",
              "--duration", "0.02", "--seed", "5", "--window-ms", "4",
              "--no-refresh"])
        out = capsys.readouterr().out
        assert "window(ms)" in out
        assert "completed window(s) of 4 ms" in out
        # 20 ms of traffic in 4 ms windows: at least 5 rows.
        body = [line for line in out.splitlines()
                if line.strip()[:1].isdigit() and "-" in line[:16]]
        assert len(body) >= 5

    def test_from_jsonl_replays_recorded_trace(self, capsys, overload_jsonl):
        main(["watch", "--from-jsonl", str(overload_jsonl),
              "--window-ms", "5"])
        out = capsys.readouterr().out
        assert "completed window(s) of 5 ms" in out

    def test_from_jsonl_with_policy_reports_alerts(self, capsys, tmp_path,
                                                   overload_jsonl):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(POLICY))
        main(["watch", "--from-jsonl", str(overload_jsonl),
              "--window-ms", "5", "--slo-policy", str(policy_path)])
        out = capsys.readouterr().out
        # The recorded overload must re-fire the same three alerts the
        # golden pins — alert evaluation is a pure function of the
        # event stream.
        assert "Severity" in out
        for tenant in ("analytics", "handshake", "signing"):
            assert tenant in out

    def test_missing_jsonl_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["watch", "--from-jsonl", str(tmp_path / "nope.jsonl")])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_window_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["watch", "--window-ms", "0", "--duration", "0.001"])
        assert exc.value.code == 2
        assert "--window-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--window-ms", "nan"), ("--window-ms", "inf"),
        ("--rows", "0"), ("--rows", "-3"),
    ])
    def test_bad_view_flag_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["watch", flag, value, "--duration", "0.001"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_live_view_matches_the_recorded_one(self, capsys, tmp_path):
        """``watch`` live prints what ``serve --trace-out`` and then
        ``watch --from-jsonl`` print for the same replay flags."""
        replay = ["--scenario", "mixed-slo", "--arrivals", "bursty",
                  "--scheduler", "slo", "--rate", "3000", "--duration",
                  "0.02", "--seed", "5", "--chips", "2",
                  "--router", "round-robin"]
        main(["watch", "--no-refresh", *replay])
        live = capsys.readouterr().out
        trace = tmp_path / "t.jsonl"
        main(["serve", *replay, "--trace-out", str(trace)])
        capsys.readouterr()
        main(["watch", "--no-refresh", "--from-jsonl", str(trace)])
        assert capsys.readouterr().out == live
        assert "completed window(s) of 2 ms" in live

    @pytest.mark.parametrize("flags", [
        ["--chips", "0"], ["--rate", "100"],
        ["--scheduler", "fifo", "--seed", "3", "--max-wait-ms", "1"],
    ])
    def test_from_jsonl_rejects_replay_flags(self, capsys, overload_jsonl,
                                             flags):
        """A recorded trace is streamed as it was: a replay flag would be
        silently ignored, so naming one is an error, even one that is
        invalid on its own (``--chips 0``)."""
        with pytest.raises(SystemExit) as exc:
            main(["watch", "--from-jsonl", str(overload_jsonl), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert flag in err

    def test_bad_policy_exits_2(self, capsys, tmp_path, overload_jsonl):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SystemExit) as exc:
            main(["watch", "--from-jsonl", str(overload_jsonl),
                  "--slo-policy", str(bad)])
        assert exc.value.code == 2
