"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(*argv):
    lines = []
    status = main(list(argv), out=lines.append)
    return status, "\n".join(str(line) for line in lines)


class TestListingCommands:
    def test_datasets(self):
        status, output = run_cli("datasets")
        assert status == 0
        for name in ("web-BS", "twitter", "bipartite-2B-6B"):
            assert name in output

    def test_premade(self):
        status, output = run_cli("premade")
        assert status == 0
        assert "petersen" in output
        assert "triangle" in output


class TestRunCommand:
    def test_pagerank_run(self):
        status, output = run_cli(
            "run", "--algorithm", "pagerank", "--dataset", "web-BS",
            "--vertices", "100", "--iterations", "3",
        )
        assert status == 0
        assert "running pagerank" in output
        assert "halt=converged" in output

    def test_show_values(self):
        status, output = run_cli(
            "run", "--algorithm", "components", "--dataset", "bipartite-1M-3M",
            "--vertices", "40", "--show-values", "3",
        )
        assert status == 0
        assert output.count(":") >= 3

    def test_mwm_gets_weighted_graph(self):
        status, output = run_cli(
            "run", "--algorithm", "mwm", "--dataset", "soc-Epinions",
            "--vertices", "60", "--max-supersteps", "200",
        )
        assert status == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--algorithm", "quicksort")

    def test_removed_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--algorithm", "pagerank", "--executor", "threads")
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "argument --executor: invalid choice: 'threads'" in error
        assert "serial" in error and "processes" in error


class TestDebugCommand:
    def test_capture_random_tabular(self):
        status, output = run_cli(
            "debug", "--algorithm", "components", "--dataset", "bipartite-1M-3M",
            "--vertices", "60", "--capture-random", "4", "--view", "tabular",
        )
        assert status == 0
        assert "Tabular View" in output
        assert "captures" in output

    def test_nothing_captured_notice(self):
        status, output = run_cli(
            "debug", "--algorithm", "components", "--dataset", "bipartite-1M-3M",
            "--vertices", "40",
        )
        assert status == 0
        assert "nothing captured" in output

    def test_nonneg_messages_catches_rw_bug(self):
        # Each vertex has degree 3, so 110000 walkers mean per-edge counts
        # around 36000 > Short16.max_value() from the very first superstep.
        status, output = run_cli(
            "debug", "--algorithm", "rw-buggy", "--dataset", "bipartite-1M-3M",
            "--vertices", "12", "--walkers", "110000", "--steps", "2",
            "--nonneg-messages", "--view", "violations",
        )
        # Captured violations gate CI pipelines: documented exit code 2.
        assert status == 2
        assert "violations" in output
        assert "Short16" in output
        # The violations view cross-links to the static rule that predicted
        # the negative messages (GL007: fixed-width wrap-around).
        assert "predicted by static analysis (GL007)" in output

    def test_capture_ids_nodelink_last(self):
        status, output = run_cli(
            "debug", "--algorithm", "components", "--dataset", "bipartite-1M-3M",
            "--vertices", "40", "--capture-ids", "0", "1", "--view", "nodelink",
            "--superstep", "last",
        )
        assert status == 0
        assert "Node-link View" in output

    def test_reproduce_prints_generated_test(self):
        status, output = run_cli(
            "debug", "--algorithm", "components", "--dataset", "bipartite-1M-3M",
            "--vertices", "40", "--capture-ids", "0", "--reproduce", "0", "0",
        )
        assert status == 0
        assert "ReplayHarness" in output
        assert "faithful" in output

    def test_capture_all_active_from_superstep(self):
        status, output = run_cli(
            "debug", "--algorithm", "gc", "--dataset", "bipartite-1M-3M",
            "--vertices", "40", "--capture-all-active", "--from-superstep", "2",
            "--max-supersteps", "200", "--view", "tabular",
        )
        assert status == 0
        assert "superstep 2" in output


class TestInputFileOption:
    def test_run_from_local_adjacency_file(self, tmp_path):
        from repro.datasets import premade_graph
        from repro.graph import write_adjacency_file

        path = tmp_path / "graph.adj"
        write_adjacency_file(premade_graph("two-triangles"), str(path))
        status, output = run_cli(
            "run", "--algorithm", "components", "--input", str(path),
            "--undirected", "--show-values", "6",
        )
        assert status == 0
        assert "6 vertices" in output

    def test_debug_from_local_file(self, tmp_path):
        from repro.datasets import premade_graph
        from repro.graph import write_adjacency_file

        path = tmp_path / "graph.adj"
        write_adjacency_file(premade_graph("triangle"), str(path))
        status, output = run_cli(
            "debug", "--algorithm", "components", "--input", str(path),
            "--undirected", "--capture-ids", "0", "--view", "tabular",
        )
        assert status == 0
        assert "Tabular View" in output


class TestValidateCommand:
    def test_clean_dataset_ok(self):
        status, output = run_cli(
            "validate", "--dataset", "bipartite-1M-3M", "--vertices", "40",
            "--weighted",
        )
        assert status == 0
        assert "graph OK" in output

    def test_directed_dataset_reports_missing_reverse(self):
        # The trust network is directed; validating it as undirected
        # surfaces the one-way edges.
        status, output = run_cli(
            "validate", "--dataset", "soc-Epinions", "--vertices", "60",
        )
        assert status == 0  # directed graphs skip symmetry checks


class TestTraceCommand:
    def test_export_then_stats(self, tmp_path):
        export_dir = str(tmp_path / "traces")
        status, output = run_cli(
            "debug", "--algorithm", "pagerank", "--dataset", "web-BS",
            "--vertices", "50", "--iterations", "2", "--capture-all-active",
            "--export-traces", export_dir,
        )
        assert status == 0
        assert "exported traces" in output
        # The job id is printed in the hint; recover it.
        job_id = output.split("repro trace stats ")[1].split()[0]
        status, output = run_cli(
            "trace", "stats", job_id, "--dir", export_dir,
        )
        assert status == 0
        assert "worker-0.trace" in output
        assert "master.trace" in output
        assert "TOTAL" in output
        assert "100.0%" in output  # fully indexed
        assert "v3" in output

    def test_stats_missing_directory(self):
        status, output = run_cli(
            "trace", "stats", "job-0", "--dir", "/nonexistent/definitely",
        )
        assert status == 1
        assert "cannot load" in output

    def test_stats_unknown_job(self, tmp_path):
        (tmp_path / "stray.txt").write_text("not a trace tree")
        status, output = run_cli(
            "trace", "stats", "ghost", "--dir", str(tmp_path),
        )
        assert status == 1
        assert "no trace directory" in output
