"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_ask(self, capsys):
        rc = main(["--fast", "ask", "What does KSPBurb do?"])
        assert rc == 0
        out = capsys.readouterr()
        assert "no PETSc function" in out.out
        assert "rag+rerank" in out.err

    def test_ask_show_contexts(self, capsys):
        rc = main(["--fast", "ask", "--show-contexts", "What is the default KSP type?"])
        assert rc == 0
        assert "contexts" in capsys.readouterr().err

    def test_ask_baseline_mode(self, capsys):
        rc = main(["--fast", "--mode", "baseline", "ask", "What is KSP?"])
        assert rc == 0
        assert "baseline" in capsys.readouterr().err

    def test_corpus_dump(self, tmp_path, capsys):
        rc = main(["corpus", "--out", str(tmp_path / "docs")])
        assert rc == 0
        assert "Markdown files" in capsys.readouterr().out
        assert (tmp_path / "docs" / "faq.md").exists()

    def test_casestudy(self, capsys):
        rc = main(["--fast", "casestudy", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Case Study 2" in out
        assert "-info" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["--model", "gpt-99", "ask", "hi"])


class TestHistoryFeedback:
    def test_feed_history_into_rag(self, bundle, fast_config):
        from repro.history import ScoreRecord
        from repro.api import open_workflow

        wf = open_workflow(fast_config, bundle=bundle, mode="rag+rerank")
        ans = wf.ask("How do I change the relative tolerance for a KSP solve?")
        wf.store.add_score(ans.interaction_id, ScoreRecord(scorer="dev", score=4))

        before = len(wf.service.pipeline_for(wf.mode).retriever.store)
        added = wf.feed_history_into_rag(min_mean_score=3.0)
        assert added == 1
        # The feed swapped the engine onto a new index: re-read the store.
        store = wf.service.pipeline_for(wf.mode).retriever.store
        assert len(store) >= before + 1
        # Idempotent: re-feeding the same interaction adds nothing.
        assert wf.feed_history_into_rag(min_mean_score=3.0) == 0
        assert wf.service.pipeline_for(wf.mode).retriever.store is store

        # The vetted Q/A is now retrievable.
        hits = store.similarity_search(
            "change the relative tolerance for a KSP solve",
            k=5, where={"doc_type": "history"},
        )
        assert hits

    def test_feedback_noop_for_baseline(self, bundle, fast_config):
        from repro.api import open_workflow

        wf = open_workflow(fast_config, bundle=bundle, mode="baseline")
        wf.ask("anything")
        assert wf.feed_history_into_rag() == 0


class TestShardedCli:
    def test_ask_answers_match_monolithic(self, capsys):
        q = "What is the default KSP type?"
        assert main(["--fast", "ask", q]) == 0
        mono = capsys.readouterr().out
        assert main(["--fast", "--shards", "2", "ask", q]) == 0
        assert capsys.readouterr().out == mono

    def test_metrics_json_reports_shards(self, capsys):
        import json

        rc = main(["--fast", "--shards", "2", "metrics", "--questions", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"]["num_shards"] == 2
        assert len(payload["shards"]["shards"]) == 2
        assert {r["shard"] for r in payload["shards"]["shards"]} == {0, 1}

    def test_metrics_text_prints_shard_table_by_default(self, capsys):
        rc = main(["--fast", "metrics", "--questions", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards (1, composite " in out
        assert "shard 0:" in out


class TestRecoverCli:
    def test_dry_run_reports_torn_tail_offset(self, tmp_path, capsys):
        from repro.durability import Journal

        path = tmp_path / "j.log"
        with Journal(path) as journal:
            journal.append({"op": "push", "letter": {"n": 1}})
        intact = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"J1 torn")
        rc = main(["recover", str(path), "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"would drop 7 bytes at offset {intact}" in out
        # Dry run: the torn tail is still on disk.
        assert len(path.read_bytes()) == intact + 7

    def test_recover_truncates_at_reported_offset(self, tmp_path, capsys):
        from repro.durability import Journal

        path = tmp_path / "j.log"
        with Journal(path) as journal:
            journal.append({"op": "push", "letter": {"n": 1}})
        intact = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"J1 torn")
        rc = main(["recover", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"dropped 7 bytes at offset {intact}" in out
        assert len(path.read_bytes()) == intact
