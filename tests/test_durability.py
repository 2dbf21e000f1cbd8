"""Durability layer: atomic writes, journal recovery, torn-write sweeps."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config import EngineConfig, ReproConfig
from repro.durability import (
    Journal,
    atomic_write,
    atomic_write_json,
    encode_record,
    recover_journal,
    reopen_journal,
    scan_journal,
)
from repro.durability.journal import encode_json_record
from repro.errors import HistoryError, IndexBuildError, ReproError, SimulatedCrashError
from repro.history import Interaction, InteractionStore, ScoreRecord
from repro.history.store import _interaction_to_dict
from repro.mail import AppsScriptPoller, GmailAccount
from repro.mail.appsscript import replay_dead_letters
from repro.observability import MetricsRegistry, Tracer, use_registry
from repro.resilience import CrashPointInjector, TornWriteInjector


# ------------------------------------------------------------------ atomic
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, "v1")
        atomic_write(target, "v2")
        assert target.read_text() == "v2"
        assert not list(tmp_path.glob(".*.tmp"))

    def test_crash_before_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "state.json"
        fault = CrashPointInjector([("atomic:pre-write", 0)])
        with pytest.raises(SimulatedCrashError):
            atomic_write(target, "new", fault=fault)
        assert not target.exists()

    def test_crash_before_rename_keeps_old_content(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, "old")
        fault = CrashPointInjector([("atomic:pre-rename", 0)])
        with pytest.raises(SimulatedCrashError):
            atomic_write(target, "new", fault=fault)
        # The temp file exists but the target is byte-for-byte the old one.
        assert target.read_text() == "old"

    def test_later_call_index_survives_earlier_writes(self, tmp_path):
        target = tmp_path / "state.json"
        fault = CrashPointInjector([("atomic:pre-rename", 1)])
        atomic_write(target, "first", fault=fault)
        with pytest.raises(SimulatedCrashError):
            atomic_write(target, "second", fault=fault)
        assert target.read_text() == "first"

    def test_json_helper_roundtrip(self, tmp_path):
        target = tmp_path / "obj.json"
        atomic_write_json(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}

    def test_counts_writes(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            atomic_write(tmp_path / "x", "data")
        assert registry.counter("repro.durability.atomic_writes").value == 1


# ------------------------------------------------------------------ journal
RECORDS = [
    {"seq": 0, "kind": "greeting", "text": "hello"},
    {"seq": 1, "kind": "data", "text": "x" * 37},
    {"seq": 2, "kind": "unicode", "text": "café ∑ ≈"},
    {"seq": 3, "kind": "empty", "text": ""},
]


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            for rec in RECORDS:
                journal.append(rec)
        report = scan_journal(path)
        assert report.records == RECORDS
        assert not report.truncated
        assert report.reason == ""

    def test_missing_file_scans_clean(self, tmp_path):
        report = scan_journal(tmp_path / "absent.log")
        assert report.records == []
        assert not report.truncated

    def test_appends_after_reopen(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            journal.append(RECORDS[0])
        with Journal(path) as journal:
            journal.append(RECORDS[1])
        assert scan_journal(path).records == RECORDS[:2]

    def test_checksum_detects_flipped_byte(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            for rec in RECORDS:
                journal.append(rec)
        data = bytearray(path.read_bytes())
        # Flip one payload byte inside the second record.
        second_start = len(encode_json_record(RECORDS[0]))
        header_end = data.index(b"\n", second_start) + 1
        data[header_end + 3] ^= 0xFF
        path.write_bytes(bytes(data))
        report = scan_journal(path)
        assert report.records == RECORDS[:1]
        assert "checksum mismatch" in report.reason

    def test_garbage_prefix_recovers_nothing(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(b"not a journal at all\n" + encode_record(b"{}"))
        report = recover_journal(path)
        assert report.records == []
        assert path.read_bytes() == b""

    def test_recover_truncates_and_counts(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            for rec in RECORDS:
                journal.append(rec)
        intact = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"J1 999")  # torn header
        registry = MetricsRegistry()
        with use_registry(registry):
            report = recover_journal(path)
        assert report.records == RECORDS
        assert len(path.read_bytes()) == intact
        assert registry.counter("repro.durability.journal_truncations").value == 1
        assert registry.counter("repro.durability.journal_bytes_dropped").value == 6
        assert (
            registry.counter("repro.durability.journal_records_recovered").value
            == len(RECORDS)
        )

    def test_recover_dry_run_leaves_file(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            journal.append(RECORDS[0])
        torn = path.read_bytes() + b"J1 torn"
        path.write_bytes(torn)
        report = recover_journal(path, truncate=False)
        assert report.truncated
        assert path.read_bytes() == torn


def _torn_write_cases():
    """Every (record, cut) boundary for a small journal — exhaustive."""
    frames = [encode_json_record(r) for r in RECORDS]
    cases = []
    for record_index, frame in enumerate(frames):
        for cut_at in range(len(frame) + 1):
            cases.append((record_index, cut_at))
    return cases


class TestTornWriteSweep:
    @pytest.mark.parametrize("record_index,cut_at", _torn_write_cases())
    def test_recovers_exact_intact_prefix(self, tmp_path, record_index, cut_at):
        """Kill the journal at every byte boundary of every record; the
        recovered records must be exactly the acknowledged prefix."""
        path = tmp_path / "j.log"
        injector = TornWriteInjector(record_index=record_index, cut_at=cut_at)
        journal = Journal(path, fault=injector)
        wrote = 0
        try:
            for rec in RECORDS:
                journal.append(rec)
                wrote += 1
        except SimulatedCrashError:
            pass
        finally:
            journal.close()
        assert injector.fired
        assert wrote == record_index  # the torn append was never acked
        frame = encode_json_record(RECORDS[record_index])
        report = recover_journal(path)
        if cut_at == len(frame):
            # The "torn" write completed in full: the record is intact
            # on disk (just unacked), so recovery keeps it.
            assert report.records == RECORDS[: record_index + 1]
            assert not report.truncated
        else:
            assert report.records == RECORDS[:record_index]
            assert report.dropped_bytes == cut_at
            # cut_at == 0 writes nothing: a clean journal, no tail.
            assert report.truncated == (cut_at > 0)

    def test_full_frame_cut_is_recoverable_record(self, tmp_path):
        """cut_at == len(frame) writes the whole frame before the crash;
        recovery keeps it (it is intact on disk, even if unacked)."""
        path = tmp_path / "j.log"
        frame_len = len(encode_json_record(RECORDS[0]))
        injector = TornWriteInjector(record_index=0, cut_at=frame_len)
        journal = Journal(path, fault=injector)
        with pytest.raises(SimulatedCrashError):
            journal.append(RECORDS[0])
        report = recover_journal(path)
        assert report.records == [RECORDS[0]]


# ------------------------------------------------------------------ history
def _interaction(i: int) -> Interaction:
    return Interaction(
        interaction_id=f"int-{i:06d}",
        question=f"What is KSP variant {i}?",
        answer=f"Answer body {i}",
        timestamp=1000.0 + i,
        chat_model="gpt-4o-sim",
        mode="rag+rerank",
    )


class TestHistoryJournal:
    def test_journaled_adds_recover(self, tmp_path):
        path = tmp_path / "history.journal"
        store = InteractionStore()
        reopen_journal(store, path)
        for i in range(1, 4):
            store.add(_interaction(i))
        store.journal.close()
        recovered, report = InteractionStore.recover(path)
        assert len(recovered) == 3
        assert not report.truncated
        assert recovered.get("int-000002").question == "What is KSP variant 2?"
        # The id counter resumes past the recovered records.
        assert recovered.new_id() == "int-000004"

    @pytest.mark.parametrize("cut_fraction", (0.0, 0.3, 0.7, 0.999))
    def test_torn_tail_drops_only_last(self, tmp_path, cut_fraction):
        path = tmp_path / "history.journal"
        records = [_interaction(i) for i in range(1, 5)]
        frame = encode_json_record(_interaction_to_dict(records[-1]))
        injector = TornWriteInjector(
            record_index=3, cut_at=int(cut_fraction * len(frame))
        )
        store = InteractionStore()
        reopen_journal(store, path)
        store.journal.fault = injector
        with pytest.raises(SimulatedCrashError):
            for rec in records:
                store.add(rec)
        recovered, report = InteractionStore.recover(path)
        assert [r.interaction_id for r in recovered.all()] == [
            "int-000001", "int-000002", "int-000003",
        ]
        # cut_fraction 0.0 writes no bytes of the torn record at all —
        # the journal on disk is clean, just short one record.
        assert report.truncated == (cut_fraction > 0)

    def test_crashed_add_never_entered_memory(self, tmp_path):
        path = tmp_path / "history.journal"
        store = InteractionStore()
        reopen_journal(store, path)
        store.journal.fault = TornWriteInjector(record_index=0, cut_at=5)
        with pytest.raises(SimulatedCrashError):
            store.add(_interaction(1))
        assert len(store) == 0  # journal-first: memory matches disk

    def test_a_journal_attaches_once(self, tmp_path):
        """A second attach would replay the journal into itself."""
        store = InteractionStore()
        reopen_journal(store, tmp_path / "history.journal")
        with pytest.raises(ReproError, match="already has a journal"):
            reopen_journal(store, tmp_path / "history.journal")

    def test_a_live_writer_locks_its_journal(self, tmp_path):
        """A second opener of a live writer's journal is refused before it
        recovers anything: the first writer's in-flight (torn) frame is not
        truncated under it.  The lock goes with the writer's close."""
        path = tmp_path / "history.journal"
        writer = InteractionStore()
        reopen_journal(writer, path)
        writer.add(_interaction(1))
        with open(path, "ab") as fh:  # a frame the writer has in flight
            fh.write(encode_json_record(_interaction_to_dict(_interaction(2)))[:9])
        in_flight = path.read_bytes()
        second = InteractionStore()
        with pytest.raises(ReproError, match=f"journal {path} is held by another live writer"):
            reopen_journal(second, path)
        assert second.journal is None and len(second) == 0
        assert path.read_bytes() == in_flight
        writer.journal.close()
        report = reopen_journal(second, path)
        assert report.truncated and [r.interaction_id for r in second.all()] == ["int-000001"]
        second.journal.close()

    def test_a_second_live_workflow_is_refused(self, bundle, tmp_path, capsys):
        """Two ``open_workflow(cfg)`` on one ``history_journal``: the second
        open raises instead of replaying the same prefix and appending a
        diverging ``int-000001``, so the journal stays recoverable."""
        from repro.api import open_workflow
        from repro.cli import main
        from repro.config import DurabilityConfig

        path = tmp_path / "history.journal"
        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(history_journal=str(path), fsync=False),
        )
        first = open_workflow(cfg, bundle=bundle)
        with pytest.raises(ReproError, match=str(path)):
            open_workflow(cfg, bundle=bundle)
        assert first.ask("What does KSPSolve do?").interaction_id == "int-000001"
        first.store.journal.close()
        assert main(["recover", str(path)]) == 0
        assert "history journal: 1 interactions recovered" in capsys.readouterr().out

    def test_config_journal_recovers_a_workflow_ask(self, bundle, tmp_path, capsys):
        """``durability.history_journal`` is wired at the front door: an
        interaction recorded by ``open_workflow(cfg).ask`` is recovered by
        ``repro recover`` after the process dies, span tree included."""
        from repro.api import open_workflow
        from repro.cli import main
        from repro.config import DurabilityConfig

        path = tmp_path / "history.journal"
        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(history_journal=str(path), fsync=False),
        )
        workflow = open_workflow(cfg, bundle=bundle)
        asked = workflow.ask("What does KSPSolve do?")
        workflow.store.journal.close()  # the process dies here

        assert main(["recover", str(path)]) == 0
        assert "history journal: 1 interactions recovered" in capsys.readouterr().out
        recovered, report = InteractionStore.recover(path)
        assert not report.truncated
        record = recovered.get(asked.interaction_id)
        assert (record.question, record.answer) == ("What does KSPSolve do?", asked.answer)
        assert record.trace == asked.result.trace.to_dict()

    def test_blind_scores_survive_recovery(self, bundle, tmp_path):
        """A blind score is journaled like the interaction it scores: the
        recovered store has the live store's mean and feeds the same
        vetted documents back into RAG.  A rejected submit (a second
        score by one scorer, a span not in the answer) writes nothing."""
        from repro.api import open_workflow
        from repro.config import DurabilityConfig
        from repro.history import BlindScoringSession

        path = tmp_path / "history.journal"
        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(history_journal=str(path), fsync=False),
        )
        workflow = open_workflow(cfg, bundle=bundle)
        asked = workflow.ask("What does KSPSolve do?")
        session = BlindScoringSession(workflow.store, scorer="reviewer")
        session.submit(asked.interaction_id, 4, correct_spans=[asked.answer[:20]])
        written = path.read_bytes()
        with pytest.raises(HistoryError, match="already scored"):
            session.submit(asked.interaction_id, 3)
        with pytest.raises(HistoryError, match="does not occur"):
            BlindScoringSession(workflow.store, scorer="other").submit(
                asked.interaction_id, 1, incorrect_spans=["not in the answer"]
            )
        assert path.read_bytes() == written
        workflow.store.journal.close()  # the process dies here

        live = workflow.store
        recovered, report = InteractionStore.recover(path)
        assert not report.truncated and report.intact_count == 2
        assert recovered.get(asked.interaction_id).mean_score() == 4.0
        assert recovered.get(asked.interaction_id).scores == live.get(asked.interaction_id).scores
        assert recovered.as_documents() == live.as_documents()
        assert len(recovered.as_documents()) == 1


# ------------------------------------------------------------------ poller
def _poller(tmp_path, *, max_dead_letters=3, tracer=None):
    account = GmailAccount("assistant@petsc.dev")
    calls = {"fail": True}

    def webhook(payload: str) -> None:
        if calls["fail"]:
            raise ConnectionError("webhook down")

    poller = AppsScriptPoller(
        account=account,
        webhook_post=webhook,
        max_dead_letters=max_dead_letters,
        tracer=tracer,
    )
    return poller, account, calls


# Each journaled surface, as the reopen tests below drive it: both kinds
# open through ``reopen_journal`` and are checked by their own fold.
class _DeadLetters:
    @staticmethod
    def open(path):
        poller, _, _ = _poller(None, max_dead_letters=8)
        return poller, reopen_journal(poller, path, fsync=False)

    @staticmethod
    def label(n):
        return f"n{n}"

    @classmethod
    def write(cls, poller, n):
        poller._dead_letter(cls.label(n))

    @classmethod
    def frame(cls, n):
        return encode_json_record({"op": "push", "payload": cls.label(n)})

    @staticmethod
    def churn(poller):
        """Every op of the fold: pushes, overflow drops, a tick's pops."""
        poller.max_dead_letters = 2
        for n in range(4):
            poller._post(f"n{n}")  # two drops, queue = [n2, n3]
        webhook, poller.webhook_post = poller.webhook_post, lambda payload: None
        poller.tick()  # redelivers both: two pops
        poller.webhook_post = webhook
        poller._post("n4")  # queue = [n4]

    @staticmethod
    def snapshot(poller):
        return list(poller.dead_letters)

    @staticmethod
    def recovered(path):
        return list(replay_dead_letters(recover_journal(path).records))


class _History:
    @staticmethod
    def open(path):
        store = InteractionStore()
        return store, reopen_journal(store, path, fsync=False)

    @staticmethod
    def label(n):
        return (_interaction(n).question, [])

    @staticmethod
    def write(store, n):
        # A fresh id: a write after a reopen collides unless the id
        # counter resumed past the replayed records.
        store.add(replace(_interaction(n), interaction_id=store.new_id()))

    @staticmethod
    def frame(n):
        return encode_json_record(_interaction_to_dict(_interaction(n)))

    @classmethod
    def churn(cls, store):
        """Both frame kinds of the fold: interactions and a score."""
        for n in range(1, 4):
            cls.write(store, n)
        store.add_score("int-000002", ScoreRecord(scorer="reviewer", score=4))

    @staticmethod
    def snapshot(store):
        return [(r.question, r.scores) for r in store.all()]

    @classmethod
    def recovered(cls, path):
        return cls.snapshot(InteractionStore.recover(path)[0])


_SURFACES = {"dead-letters": _DeadLetters, "history": _History}
_CUTS = (0.1, 0.5, 0.9)


class TestPollerDeadLetters:
    def test_overflow_drops_oldest_with_counter(self, tmp_path):
        poller, account, _ = _poller(tmp_path, max_dead_letters=2)
        registry = MetricsRegistry()
        with use_registry(registry):
            for i in range(4):
                poller._post(f"notification {i}")
        assert list(poller.dead_letters) == ["notification 2", "notification 3"]
        assert registry.counter("repro.poller.dead_letter_dropped").value == 2

    def test_overflow_emits_span_event(self, tmp_path):
        tracer = Tracer()
        poller, _, _ = _poller(tmp_path, max_dead_letters=1, tracer=tracer)
        with tracer.trace("poller-tick") as trace:
            poller._post("first")
            poller._post("second")  # overflows, drops "first"
        assert "dead-letter:dropped" in [e.name for span in trace.spans() for e in span.events]

    @pytest.mark.parametrize("kind", sorted(_SURFACES))
    def test_journal_restores_queue_after_crash(self, tmp_path, kind):
        """A reopen replays every op of the fold: the reopened state is
        the live one, and a clean journal loses nothing."""
        surface = _SURFACES[kind]
        path = tmp_path / f"{kind}.journal"
        live, _ = surface.open(path)
        surface.churn(live)
        live.journal.close()  # the process dies here
        reopened, report = surface.open(path)
        assert surface.snapshot(reopened) == surface.snapshot(live)
        assert report.intact_count and not report.truncated

    def test_journal_restore_mid_outage(self, tmp_path):
        path = tmp_path / "dlq.journal"
        poller, _, _ = _poller(tmp_path, max_dead_letters=8)
        reopen_journal(poller, path)
        for i in range(3):
            poller._post(f"n{i}")
        survivor = AppsScriptPoller(account=GmailAccount("assistant@petsc.dev"), webhook_post=lambda p: None)
        with pytest.raises(ReproError, match="held by another live writer"):
            reopen_journal(survivor, path)  # the first poller is still live
        poller.journal.close()  # the process dies here
        reopen_journal(survivor, path)
        assert list(survivor.dead_letters) == ["n0", "n1", "n2"]

    @pytest.mark.parametrize(
        ("kind", "cut_fraction"),
        # The dead-letter cases keep the ids they had before the history
        # journal joined the sweep.
        [pytest.param("dead-letters", cut, id=str(cut)) for cut in _CUTS]
        + [pytest.param("history", cut, id=f"history-{cut}") for cut in _CUTS],
    )
    def test_torn_dead_letter_journal_recovers_prefix(self, tmp_path, kind, cut_fraction):
        """After a torn append, a reopen truncates the torn tail before
        its first append, and the next recover returns the intact prefix
        plus the new record."""
        surface = _SURFACES[kind]
        path = tmp_path / f"{kind}.journal"
        target, _ = surface.open(path)
        target.journal.fault = TornWriteInjector(
            record_index=2, cut_at=max(1, int(cut_fraction * len(surface.frame(3))))
        )
        with pytest.raises(SimulatedCrashError):
            for n in range(1, 5):
                surface.write(target, n)
        reopened, report = surface.open(path)
        assert report.truncated and path.stat().st_size == report.intact_bytes
        assert surface.snapshot(reopened) == [surface.label(1), surface.label(2)]
        surface.write(reopened, 4)
        reopened.journal.close()
        assert surface.recovered(path) == [surface.label(n) for n in (1, 2, 4)]

    def test_config_journal_survives_a_support_system_restart(
        self, bundle, tmp_path, capsys
    ):
        """``durability.dead_letter_journal`` is wired at the front door:
        a notification lost to a dead webhook is redelivered by the next
        support system opened on the same path.  ``history_journal`` is
        wired the same way: a second workflow on the same path resumes
        the first one's interactions and ids, and the journal both wrote
        stays recoverable."""
        from repro.api import open_support_system, open_workflow
        from repro.cli import main
        from repro.config import DurabilityConfig
        from repro.mail.message import EmailMessage
        from repro.resilience import FaultConfig, FaultInjector

        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(
                dead_letter_journal=str(tmp_path / "dlq.journal"), fsync=False
            ),
        )
        down = FaultInjector(seed=0, config=FaultConfig(transient_rate=1.0))
        system = open_support_system(cfg, bundle=bundle, fault_injector=down)
        # Straight into the inbox: the mailing-list hop is chaos-wrapped too.
        system.account.deliver(
            EmailMessage(sender="user@example.org", subject="GMRES stalls", body="Help?")
        )
        assert system.poll() is False
        (lost,) = system.poller.dead_letters
        system.poller.journal.close()  # the process dies here

        registry = MetricsRegistry()
        with use_registry(registry):
            reopened = open_support_system(cfg, bundle=bundle)
            assert list(reopened.poller.dead_letters) == [lost]
            assert reopened.poll() is True
        assert not reopened.poller.dead_letters
        assert registry.counter("repro.mail.redeliveries").value == 1
        # ... and the delivery is itself journaled: a third process starts empty.
        reopened.poller.journal.close()
        assert not open_support_system(cfg, bundle=bundle).poller.dead_letters

        path = tmp_path / "history.journal"
        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(history_journal=str(path), fsync=False),
        )
        first = open_workflow(cfg, bundle=bundle)
        asked = first.ask("What does KSPSolve do?")
        assert asked.interaction_id == "int-000001"
        first.store.journal.close()  # the process dies here
        second = open_workflow(cfg, bundle=bundle)
        assert second.store.get(asked.interaction_id).answer == asked.answer
        assert second.ask("What does KSPGMRES do?").interaction_id == "int-000002"
        second.store.journal.close()
        assert main(["recover", str(path)]) == 0
        assert "history journal: 2 interactions recovered" in capsys.readouterr().out

    def test_config_history_journal_keeps_support_system_drafts(self, bundle, tmp_path):
        """``durability.history_journal`` opens the support system's store
        too: a draft the chatbot recorded is found by the next support
        system opened on the same path, which resumes the ids after it."""
        from repro.api import open_support_system
        from repro.config import DurabilityConfig

        path = tmp_path / "history.journal"
        cfg = ReproConfig(
            iterations_per_token=0,
            durability=DurabilityConfig(history_journal=str(path), fsync=False),
        )
        system = open_support_system(cfg, bundle=bundle)
        system.user_sends_email("user@example.org", "GMRES stalls", "Why does GMRES stall?")
        assert system.poll() is True
        developer = next(u for u in system.server.members.values() if u.name == "barry")
        draft = system.developer_replies(developer, system.find_post("GMRES stalls"))
        (recorded,) = system.store.all()
        assert recorded.tags == [f"post:{draft.post.post_id}"]
        system.store.journal.close()  # the process dies here

        reopened = open_support_system(cfg, bundle=bundle)
        assert reopened.store.get(recorded.interaction_id).answer == draft.result.answer
        assert reopened.store.new_id() == "int-000002"
        reopened.store.journal.close()


# ------------------------------------------------------------------ index cache
class TestIndexCacheChecksums:
    @staticmethod
    def _on_disk(cfg, cache_dir):
        return replace(cfg, engine=EngineConfig(index_cache_dir=str(cache_dir)))

    @classmethod
    def _cached_shard(cls, bundle, cfg, cache_dir):
        """Build through the resolver; returns (artifact, shard cache root)."""
        from repro.index.builder import clear_index_cache, get_or_build_index

        clear_index_cache()
        try:
            artifact = get_or_build_index(bundle, cls._on_disk(cfg, cache_dir))
        finally:
            clear_index_cache()
        (shard,) = artifact.shards
        return artifact, cache_dir / shard.digest[:16]

    @staticmethod
    def _forget_checksums(root):
        """Rewrite the entry's manifest as one saved before checksums existed."""
        artifact_json = json.loads((root / "artifact.json").read_text())
        del artifact_json["payload_checksums"]
        (root / "artifact.json").write_text(json.dumps(artifact_json))

    @classmethod
    def _resolve(cls, bundle, cfg, cache_dir):
        """A cold-memory resolve; returns (artifact, registry it reported to)."""
        from repro.index.builder import clear_index_cache, get_or_build_index

        registry = MetricsRegistry()
        try:
            with use_registry(registry):
                artifact = get_or_build_index(bundle, cls._on_disk(cfg, cache_dir))
        finally:
            clear_index_cache()
        return artifact, registry

    def test_manifest_carries_payload_checksums(self, bundle, tmp_path):
        _artifact, root = self._cached_shard(
            bundle, ReproConfig(iterations_per_token=0), tmp_path
        )
        manifest = json.loads((root / "artifact.json").read_text())
        sums = manifest["payload_checksums"]
        assert set(sums) == {"vectors.npz", "documents.jsonl", "manifest.json"}
        assert all(len(v) == 64 for v in sums.values())

    def test_corrupt_payload_fails_load_then_rebuilds(self, bundle, tmp_path):
        from repro.index.builder import read_cached_payload

        cfg = ReproConfig(iterations_per_token=0)
        artifact, root = self._cached_shard(bundle, cfg, tmp_path)
        payload = root / "store" / "documents.jsonl"
        payload.write_bytes(payload.read_bytes()[:-10] + b"corruption")
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(IndexBuildError, match="checksum"):
                read_cached_payload(tmp_path, artifact.shards[0].digest)
        assert registry.counter("repro.index.checksum_failures").value == 1
        # The entry point falls back to a fresh build over the bad cache.
        rebuilt, registry = self._resolve(bundle, cfg, tmp_path)
        assert rebuilt.digest == artifact.digest
        assert registry.counter("repro.index.checksum_failures").value == 1
        assert registry.counter("repro.index.disk_hits").value == 0
        assert registry.counter("repro.index.builds").value == 1
        # ... and overwrites it: the next cold resolve is a clean disk hit.
        fresh, registry = self._resolve(bundle, cfg, tmp_path)
        assert fresh.digest == artifact.digest
        assert registry.counter("repro.index.disk_hits").value == 1
        assert registry.counter("repro.index.builds").value == 0

    def test_clean_cache_loads_with_verification(self, bundle, tmp_path):
        cfg = ReproConfig(iterations_per_token=0)
        artifact, _root = self._cached_shard(bundle, cfg, tmp_path)
        loaded, registry = self._resolve(bundle, cfg, tmp_path)
        assert loaded.digest == artifact.digest
        # A disk hit skips the embed pass.
        assert registry.counter("repro.index.disk_hits").value == 1
        assert registry.counter("repro.index.builds").value == 0

    def test_pre_checksum_manifest_loads_as_trusted(self, bundle, tmp_path):
        # Was test_verification_can_be_disabled: the check is always on;
        # only an entry written before checksums existed skips it.
        cfg = ReproConfig(iterations_per_token=0)
        artifact, root = self._cached_shard(bundle, cfg, tmp_path)
        manifest_file = root / "store" / "manifest.json"
        # A byte moved since the save: a checksum would catch it.
        manifest_file.write_text(manifest_file.read_text() + " ")
        self._forget_checksums(root)
        loaded, registry = self._resolve(bundle, cfg, tmp_path)
        assert loaded.digest == artifact.digest
        assert registry.counter("repro.index.checksum_failures").value == 0
        assert registry.counter("repro.index.disk_hits").value == 1

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("vectors.npz", lambda data: data[: len(data) // 2]),  # torn write
            ("vectors.npz", lambda data: b""),  # zero-length file
            ("documents.jsonl", lambda data: b'{"text": "row without metadata"}\n'),
            ("documents.jsonl", lambda data: b"[1, 2]\n"),  # a row that is no object
        ],
        ids=["torn-npz", "empty-npz", "row-without-metadata", "row-not-an-object"],
    )
    def test_damaged_store_behind_a_trusted_manifest_rebuilds(
        self, bundle, tmp_path, name, damage
    ):
        # No checksum stands in front of the store reader here, so what it
        # raises is what the disk lane sees: only a typed error may come out.
        from repro.index.builder import read_cached_payload

        cfg = ReproConfig(iterations_per_token=0)
        artifact, root = self._cached_shard(bundle, cfg, tmp_path)
        self._forget_checksums(root)
        payload = root / "store" / name
        payload.write_bytes(damage(payload.read_bytes()))
        with pytest.raises(IndexBuildError, match="unreadable cached store"):
            read_cached_payload(tmp_path, artifact.shards[0].digest)
        rebuilt, registry = self._resolve(bundle, cfg, tmp_path)
        assert rebuilt.digest == artifact.digest
        assert registry.counter("repro.index.disk_hits").value == 0
        assert registry.counter("repro.index.builds").value == 1
