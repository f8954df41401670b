"""CLI tests (in-process through ``repro.cli.main``)."""

import os

import pytest

from repro.cli import main
from repro.datasets import dblp_tree
from repro.edits import Rename, apply_script
from repro.xmlio import xml_from_tree


@pytest.fixture
def xml_files(tmp_path):
    tree = dblp_tree(10, seed=1)
    edited, _ = apply_script(
        tree, [Rename(tree.children(tree.children(tree.root_id)[0])[0], "editor")]
    )
    old_path = str(tmp_path / "old.xml")
    new_path = str(tmp_path / "new.xml")
    xml_from_tree(tree, old_path)
    xml_from_tree(edited, new_path)
    return old_path, new_path


class TestIndexCommand:
    def test_prints_stats(self, xml_files, capsys):
        old_path, _ = xml_files
        assert main(["index", old_path, "--p", "2", "--q", "3"]) == 0
        output = capsys.readouterr().out
        assert "2,3-grams" in output
        assert "pq-grams:" in output

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["index", str(tmp_path / "nope.xml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_streaming_mode(self, xml_files, capsys):
        old_path, _ = xml_files
        assert main(["index", old_path, "--stream"]) == 0
        streamed = capsys.readouterr().out
        assert "streaming (no DOM)" in streamed
        # Same counts as the DOM path.
        assert main(["index", old_path]) == 0
        dom = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines() if "pq-grams:" in line
        ]
        assert pick(streamed) == pick(dom)

    def test_dump_decodes_labels(self, xml_files, capsys):
        old_path, _ = xml_files
        assert main(["index", old_path, "--dump", "3"]) == 0
        output = capsys.readouterr().out
        assert "dblp" in output  # decoded label appears in the dump
        assert "|" in output     # p-part / q-part split marker


class TestDistanceCommand:
    def test_identical_files_zero(self, xml_files, capsys):
        old_path, _ = xml_files
        assert main(["distance", old_path, old_path]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_edited_files_positive(self, xml_files, capsys):
        old_path, new_path = xml_files
        assert main(["distance", old_path, new_path]) == 0
        assert float(capsys.readouterr().out.strip()) > 0.0


class TestDiffCommand:
    def test_diff_emits_parseable_log(self, xml_files, capsys):
        from repro.edits import parse_operations

        old_path, new_path = xml_files
        assert main(["diff", old_path, new_path]) == 0
        captured = capsys.readouterr()
        operations = parse_operations(captured.out)
        assert len(operations) >= 1
        assert "operation(s)" in captured.err


class TestStoreCommands:
    def test_full_workflow(self, xml_files, tmp_path, capsys):
        old_path, new_path = xml_files
        store_dir = str(tmp_path / "store")

        assert main(["store", "--dir", store_dir, "add", "1", old_path]) == 0
        capsys.readouterr()

        # Produce an edit log with diff, apply it through the store.
        assert main(["diff", old_path, new_path]) == 0
        log_text = capsys.readouterr().out
        log_path = str(tmp_path / "edits.log")
        with open(log_path, "w") as handle:
            handle.write(log_text)
        assert main(["store", "--dir", store_dir, "edit", "1", log_path]) == 0
        capsys.readouterr()

        # The maintained index is exact, and the edited document now
        # matches the new version at distance zero.
        assert main(["store", "--dir", store_dir, "verify"]) == 0
        capsys.readouterr()
        assert main(["store", "--dir", store_dir, "lookup", new_path]) == 0
        output = capsys.readouterr().out
        assert "doc 1" in output and "0.0000" in output

        assert main(["store", "--dir", store_dir, "list"]) == 0
        assert "doc 1" in capsys.readouterr().out

        assert main(["store", "--dir", store_dir, "show", "1"]) == 0
        assert "pq-grams" in capsys.readouterr().out

    def test_bulk_takes_no_jobs_flag(self, xml_files, tmp_path, capsys):
        """``store bulk`` adds its files in one batch; the worker-count
        flag is gone, so passing it is argparse's usage error and
        stores nothing."""
        store_dir = str(tmp_path / "store")
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "--dir", store_dir, "bulk", *xml_files,
                  "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert main(["store", "--dir", store_dir, "bulk", *xml_files]) == 0
        assert "added 2 document(s) (ids 0..1)" in capsys.readouterr().out
        assert main(["store", "--dir", store_dir, "verify"]) == 0

    def test_verify_reports_ok(self, xml_files, tmp_path, capsys):
        old_path, _ = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        capsys.readouterr()
        assert main(["store", "--dir", store_dir, "verify"]) == 0
        output = capsys.readouterr().out
        assert "doc 1\tok" in output
        assert "0 mismatch" in output

    def test_verify_reports_mismatched_ids_and_fails(
        self, xml_files, tmp_path, capsys, monkeypatch
    ):
        """Satellite regression: a corrupted index must fail verify
        with the offending document ids named, not just a count."""
        from repro.lookup.forest import ForestIndex

        old_path, new_path = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        main(["store", "--dir", store_dir, "add", "2", new_path])
        capsys.readouterr()
        # The index is built from the documents on open, so no drift
        # survives a reopen: plant it in the build that verify's open
        # runs — one extra count in document 2's bag, a legal relation
        # that keeps backend-internal consistency, which only the
        # rebuild comparison can catch.
        add_bags = ForestIndex.add_bags

        def drifting_add_bags(self, items, *args, **kwargs):
            add_bags(self, items, *args, **kwargs)
            if 2 in self.backend:
                key = next(iter(self.backend.tree_bag(2)))
                self.backend.apply_tree_delta(2, {}, {key: 1})

        monkeypatch.setattr(ForestIndex, "add_bags", drifting_add_bags)
        assert main(["store", "--dir", store_dir, "verify"]) == 1
        output = capsys.readouterr().out
        assert "doc 1\tok" in output
        assert "doc 2\tMISMATCH" in output
        assert "1 mismatch(es)" in output
        assert "mismatched ids: 2" in output
        assert "backend consistency\tok" in output

    def test_verify_reports_backend_inconsistency(
        self, xml_files, tmp_path, capsys, monkeypatch
    ):
        """verify exercises the backend's own invariant check and
        turns a failure into a named report + non-zero exit.  (True
        on-disk corruption cannot survive recovery's rebuild, so the
        check is forced to fail here.)"""
        from repro.backend.compact import CompactBackend
        from repro.errors import IndexConsistencyError

        old_path, _ = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        capsys.readouterr()

        def broken(self):
            raise IndexConsistencyError("planted drift")

        # Plant the failure on the class that holds the relation.
        monkeypatch.setattr(CompactBackend, "check_consistency", broken)
        assert main(["store", "--dir", store_dir, "verify"]) == 1
        output = capsys.readouterr().out
        assert "doc 1\tok" in output
        assert "backend consistency\tFAILED: planted drift" in output
        assert "0 mismatch(es)" in output

    def test_soak_then_verify(self, tmp_path, capsys):
        """The CI gate in miniature: a short concurrent soak must finish
        with zero errors and leave a store that verifies bit-identical
        against a from-scratch rebuild."""
        store_dir = str(tmp_path / "store")
        assert (
            main(
                [
                    "store", "--dir", store_dir, "soak",
                    "--threads", "2", "--readers", "2",
                    "--duration", "1.0", "--docs-per-writer", "2",
                    "--tree-size", "15", "--seed", "5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "soak: 2 writer(s) x 2 reader(s)" in output
        assert "errors:               0" in output
        assert main(["store", "--dir", store_dir, "verify"]) == 0
        assert "0 mismatch" in capsys.readouterr().out

    def test_serve_threads_edit_path(self, xml_files, tmp_path, capsys):
        """--serve-threads routes edits through the coalescer without
        changing any observable CLI behavior."""
        old_path, new_path = xml_files
        store_dir = str(tmp_path / "store")
        base = ["store", "--dir", store_dir, "--serve-threads", "2"]
        assert main([*base, "add", "1", old_path]) == 0
        capsys.readouterr()
        assert main(["diff", old_path, new_path]) == 0
        log_path = str(tmp_path / "edits.log")
        with open(log_path, "w") as handle:
            handle.write(capsys.readouterr().out)
        assert main([*base, "edit", "1", log_path]) == 0
        capsys.readouterr()
        assert main([*base, "lookup", new_path]) == 0
        output = capsys.readouterr().out
        assert "doc 1" in output and "0.0000" in output
        assert main(["store", "--dir", store_dir, "verify"]) == 0

    def test_duplicates_finds_planted_pair(self, xml_files, tmp_path, capsys):
        old_path, new_path = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        main(["store", "--dir", store_dir, "add", "2", new_path])
        capsys.readouterr()
        assert main(
            ["store", "--dir", store_dir, "duplicates", "--tau", "0.5"]
        ) == 0
        captured = capsys.readouterr()
        assert "doc 1\tdoc 2" in captured.out
        assert "1 pair(s)" in captured.err

    def test_lookup_no_match_message(self, xml_files, tmp_path, capsys):
        old_path, _ = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        capsys.readouterr()
        assert main(
            ["store", "--dir", store_dir, "lookup", old_path, "--tau", "0.5"]
        ) == 0
        # Identical document: found.  Now an empty store case:
        other_dir = str(tmp_path / "empty")
        assert main(
            ["store", "--dir", other_dir, "lookup", old_path, "--tau", "0.5"]
        ) == 0
        assert "no documents" in capsys.readouterr().out


class TestApplylogAndStats:
    def test_stats_reports_store_counters(self, xml_files, tmp_path, capsys):
        old_path, _ = xml_files
        store_dir = str(tmp_path / "store")
        main(["store", "--dir", store_dir, "add", "1", old_path])
        capsys.readouterr()
        assert main(["store", "--dir", store_dir, "stats"]) == 0
        output = capsys.readouterr().out
        assert "documents: 1" in output
        assert "hasher_labels:" in output
        assert "hasher_hits:" in output
        assert "hasher_misses:" in output


class TestMetricsCommands:
    @pytest.fixture
    def store_dir(self, xml_files, tmp_path, capsys):
        old_path, _ = xml_files
        directory = str(tmp_path / "store")
        main(["store", "--dir", directory, "add", "1", old_path])
        capsys.readouterr()
        return directory

    def test_metrics_json_covers_recovery(self, store_dir, capsys):
        import json

        assert main(["metrics", "--dir", store_dir]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["gauges"]["store_documents"] == 1
        assert snapshot["histograms"]["recovery_seconds"]["count"] == 1
        assert any(
            span["name"] == "store.recover" for span in snapshot["spans"]
        )

    def test_metrics_prometheus_with_query(
        self, store_dir, xml_files, capsys
    ):
        old_path, _ = xml_files
        assert main(
            ["metrics", "--dir", store_dir, "--format", "prometheus",
             "--query", old_path, "--tau", "0.5"]
        ) == 0
        text = capsys.readouterr().out
        assert "# TYPE lookup_distance_scans_total counter" in text
        assert "lookup_distance_scans_total 1" in text
        assert "lookup_matches_total 1" in text  # the document itself
        assert "recovery_seconds_count 1" in text

    def test_stats_metrics_appends_registry(self, store_dir, capsys):
        import json

        assert main(
            ["store", "--dir", store_dir, "stats", "--metrics"]
        ) == 0
        output = capsys.readouterr().out
        assert "documents: 1" in output
        snapshot = json.loads(output.split("\n\n", 1)[1])
        assert snapshot["gauges"]["forest_trees"] == 1

    def test_stats_metrics_prometheus_format(self, store_dir, capsys):
        assert main(
            ["store", "--dir", store_dir, "stats", "--metrics",
             "--format", "prometheus"]
        ) == 0
        output = capsys.readouterr().out
        assert "# TYPE store_documents gauge" in output
        assert "store_documents 1" in output

    def test_plain_stats_has_no_registry_tail(self, store_dir, capsys):
        assert main(["store", "--dir", store_dir, "stats"]) == 0
        assert "counters" not in capsys.readouterr().out


class TestQueryCommand:
    def seeded_store(self, tmp_path):
        directory = str(tmp_path / "store")
        assert main(["store", "--dir", directory, "create"]) == 0
        for index in range(1, 5):
            tree = dblp_tree(4, seed=index)
            path = str(tmp_path / f"doc{index}.xml")
            xml_from_tree(tree, path)
            assert main(["store", "--dir", directory, "add",
                         str(index), path]) == 0
        return directory

    def query_file(self, tmp_path):
        path = str(tmp_path / "query.xml")
        xml_from_tree(dblp_tree(4, seed=1), path)
        return path

    def test_threshold_query_with_predicates(self, tmp_path, capsys):
        directory = self.seeded_store(tmp_path)
        query = self.query_file(tmp_path)
        capsys.readouterr()
        assert main(["store", "--dir", directory, "query", query,
                     "--tau", "1.5", "--has-label", "author",
                     "--explain"]) == 0
        captured = capsys.readouterr()
        assert "doc 1\tdistance 0.0000" in captured.out
        assert "# plan: approx_lookup(tau=1.5) and has_label(author)" in (
            captured.err
        )
        assert "structural predicates" not in captured.err

    def test_post_filter_backend_reports_mode(self, tmp_path, capsys):
        """``create`` takes no backend (a usage error, exit 2, that
        creates nothing), and every query post-filters, so ``--explain``
        names no strategy: the normalized plan is all it prints."""
        refused = str(tmp_path / "refused")
        for backend in ("memory", "compact"):
            with pytest.raises(SystemExit) as excinfo:
                main(["store", "--dir", refused, "create", "--backend", backend])
            assert excinfo.value.code == 2
        assert not os.path.exists(refused)
        directory = self.seeded_store(tmp_path)
        query = self.query_file(tmp_path)
        capsys.readouterr()
        assert main(["store", "--dir", directory, "query", query,
                     "--tau", "1.5", "--has-label", "author",
                     "--explain"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "# plan: approx_lookup(tau=1.5) and has_label(author)"
        ]
        assert "doc 1\tdistance 0.0000" in captured.out

    def test_top_k_and_negated_predicates(self, tmp_path, capsys):
        directory = self.seeded_store(tmp_path)
        query = self.query_file(tmp_path)
        capsys.readouterr()
        assert main(["store", "--dir", directory, "query", query,
                     "--top-k", "2"]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("doc ")
        ]
        assert len(lines) == 2
        assert main(["store", "--dir", directory, "query", query,
                     "--tau", "2.0", "--without-label", "author"]) == 0
        assert "no documents matched" in capsys.readouterr().out
        assert main(["store", "--dir", directory, "query", query,
                     "--tau", "2.0", "--has-path", "dblp/author"]) == 0
        matched = capsys.readouterr().out
        assert matched.count("doc ") == 4

    def test_tau_and_top_k_are_exclusive(self, tmp_path, capsys):
        directory = self.seeded_store(tmp_path)
        query = self.query_file(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["store", "--dir", directory, "query", query,
                  "--tau", "0.5", "--top-k", "2"])
