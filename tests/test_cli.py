"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestParser:
    def test_no_command_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "does-not-exist"])

    def test_dataset_and_network_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "build",
                    "--dataset",
                    "oldenburg",
                    "--network",
                    str(tmp_path / "net.txt"),
                ]
            )


class TestDatasetsCommand:
    def test_lists_all_registry_entries(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for label in ("Old.", "Ger.", "Arg.", "Den.", "Ind.", "Nor."):
            assert label in output


class TestGenerateCommand:
    def test_writes_network_file(self, tmp_path, capsys):
        output = tmp_path / "net.txt"
        assert main(["generate", "--nodes", "60", "--seed", "3", "--output", str(output)]) == 0
        assert output.exists()
        assert "60 nodes" in capsys.readouterr().out

    def test_generated_file_can_back_a_build(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "80", "--seed", "5", "--output", str(network_file)])
        code = main(
            [
                "build",
                "--network",
                str(network_file),
                "--scheme",
                "CI",
                "--page-size",
                "256",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scheme        : CI" in output
        assert "query plan" in output


class TestBuildCommand:
    def test_build_and_save(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "9", "--output", str(network_file)])
        save_dir = tmp_path / "db"
        code = main(
            [
                "build",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--save",
                str(save_dir),
            ]
        )
        assert code == 0
        assert (save_dir / "manifest.json").exists()
        assert "database saved" in capsys.readouterr().out


class TestQueryCommand:
    def test_query_with_random_endpoints(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "query",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--show-view",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "path cost" in output
        assert "response time" in output
        assert "round 1" in output

    def test_query_with_explicit_endpoints(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "query",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--source",
                "0",
                "--target",
                "33",
            ]
        )
        assert code == 0
        assert "0 -> 33" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_runs_workload_through_engine(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--queries",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "queries         : 5" in output
        assert "costs correct   : True" in output
        assert "indistinguishable: True" in output
        assert "page cache" in output

    def test_batch_with_workers_and_cache_knobs(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--queries",
                "6",
                "--workers",
                "2",
                "--cache-entries",
                "64",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workers         : 2 (pipelined)" in output
        assert "costs correct   : True" in output

    def test_batch_rejects_invalid_workers(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--queries",
                "3",
                "--workers",
                "0",
            ]
        )
        assert code == 2
        assert "--workers must be positive" in capsys.readouterr().err

    def test_batch_with_shards_and_process_workers(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--queries",
                "5",
                "--shards",
                "4",
                "--workers",
                "2",
                "--worker-mode",
                "process",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "worker mode     : process" in output
        assert "pir shards      : 4" in output
        assert "costs correct   : True" in output
        assert "indistinguishable: True" in output

    def test_batch_cache_entries_zero_disables_caching(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--queries",
                "4",
                "--cache-entries",
                "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "page cache      : 0 hits" in output
        assert "costs correct   : True" in output

    def test_batch_rejects_negative_cache_entries(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--queries",
                "3",
                "--cache-entries",
                "-1",
            ]
        )
        assert code == 2
        assert "--cache-entries must be non-negative" in capsys.readouterr().err

    def test_batch_rejects_invalid_shards(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--queries",
                "3",
                "--shards",
                "0",
            ]
        )
        assert code == 2
        assert "--shards must be positive" in capsys.readouterr().err

    def test_batch_no_verify_skips_costs(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "batch",
                "--network",
                str(network_file),
                "--page-size",
                "256",
                "--queries",
                "3",
                "--no-verify",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "costs correct" not in output
        assert "queries         : 3" in output


class TestExperimentCommand:
    def test_table2_runs_quickly(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "experiment: table2" in capsys.readouterr().out

    def test_ablation_oram(self, capsys):
        assert main(["experiment", "ablation-oram"]) == 0
        output = capsys.readouterr().out
        assert "trivial_scan_per_access" in output


class TestServeCommand:
    def test_serve_boots_and_drains(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "serve",
                "--network", str(network_file),
                "--page-size", "256",
                "--shards", "2",
                "--run-seconds", "0.1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2 shard server(s)" in output
        assert "shard 0: 127.0.0.1:" in output
        assert "shard 1: 127.0.0.1:" in output
        assert "draining and shutting down" in output

    def test_serve_rejects_invalid_shards(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            ["serve", "--network", str(network_file), "--shards", "0"]
        )
        assert code == 2
        assert "--shards must be positive" in capsys.readouterr().err


class TestLoadgenCommand:
    def test_loadgen_reports_throughput_and_checks_engine(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "loadgen",
                "--network", str(network_file),
                "--page-size", "256",
                "--shards", "2",
                "--rate", "200",
                "--duration", "0.6",
                "--warmup", "0.1",
                "--check-engine",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "open-loop load" in output
        assert "mismatches=0" in output
        assert "retrievals/s" in output
        assert "remote results bit-identical to in-process" in output

    def test_loadgen_with_client_procs_aggregates(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "loadgen",
                "--network", str(network_file),
                "--page-size", "256",
                "--shards", "2",
                "--rate", "200",
                "--duration", "0.6",
                "--warmup", "0.1",
                "--client-procs", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mismatches=0" in output
        assert "2 client process(es)" in output

    def test_loadgen_rejects_invalid_client_procs(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            ["loadgen", "--network", str(network_file), "--client-procs", "0"]
        )
        assert code == 2
        assert "--client-procs must be positive" in capsys.readouterr().err

    def test_loadgen_rejects_warmup_longer_than_duration(self, tmp_path, capsys):
        network_file = tmp_path / "net.txt"
        main(["generate", "--nodes", "70", "--seed", "2", "--output", str(network_file)])
        code = main(
            [
                "loadgen",
                "--network", str(network_file),
                "--duration", "0.5",
                "--warmup", "1.0",
            ]
        )
        assert code == 2
        assert "--warmup must be shorter" in capsys.readouterr().err
