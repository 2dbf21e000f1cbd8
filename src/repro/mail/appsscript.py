"""Apps-Script-like poller: checks Gmail, pings a Discord webhook.

The paper: "with Google Apps Script services, we use JavaScript to
periodically check whether there are new (unread) emails from
petsc-users in the Gmail account.  If there are, the script sends a
message to a webhook associated with a private channel named
petsc-users-notification."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.durability.journal import Journal
from repro.mail.gmail import GmailAccount
from repro.observability.metrics import get_registry
from repro.observability.trace import Tracer

WebhookPost = Callable[[str], None]


def replay_dead_letters(records: Iterable[dict]) -> deque[str]:
    """The dead-letter journal's one fold: a push appends its payload, a
    pop or drop takes the oldest, so the queue ends as it was at the
    last acknowledged append."""
    queue: deque[str] = deque()
    for record in records:
        op = record.get("op")
        if op == "push":
            queue.append(record.get("payload", ""))
        elif op in ("pop", "drop") and queue:
            queue.popleft()
    return queue


@dataclass
class AppsScriptPoller:
    """Periodic trigger body: notify a webhook when unread mail exists.

    The poller does **not** read the mail itself (matching the paper's
    split of responsibilities): it only posts a notification; the email
    bot on the Discord side fetches and marks read.

    A scheduled execution must never die to a flaky webhook: failures
    are caught and counted, the payload goes to a dead-letter queue,
    and — since the mail stays unread until the email bot fetches it —
    the next tick redelivers.  Dead letters drain first on each tick so
    a notification lost to a transient outage arrives as soon as the
    webhook recovers.

    With a :class:`~repro.durability.journal.Journal` attached, every
    queue mutation (push / pop / drop) is journaled, so the dead-letter
    queue survives process death: :func:`~repro.durability.reopen_journal`
    replays the intact op prefix into the next poller, dropping any torn
    tail, before it attaches the journal.
    """

    account: GmailAccount
    webhook_post: WebhookPost
    notification_text: str = "New petsc-users email available"
    #: Dead letters kept for redelivery; beyond this the oldest drops
    #: (safe: every notification carries the same "go fetch" meaning).
    max_dead_letters: int = 32
    #: Optional tracer: queue drops become span events when a trace is
    #: active, so silent data loss shows up in the span tree.
    tracer: Tracer | None = None
    #: Optional write-ahead journal for the dead-letter queue.
    journal: Journal | None = None
    runs: int = 0
    notifications_sent: int = 0
    failures: int = 0
    dead_letters: deque[str] = field(default_factory=deque)

    # ------------------------------------------------------------ journal
    def replay(self, records: list[dict]) -> None:
        """Rebuild the dead-letter queue from its journal's ops."""
        self.dead_letters = replay_dead_letters(records)
        get_registry().gauge("repro.mail.dead_letters").set(len(self.dead_letters))

    def _journal_op(self, op: str, payload: str = "") -> None:
        if self.journal is not None:
            self.journal.append({"op": op, "payload": payload})

    # ------------------------------------------------------------ queue
    def _dead_letter(self, payload: str) -> None:
        """Queue a failed payload; overflow drops the oldest, loudly."""
        registry = get_registry()
        self.dead_letters.append(payload)
        self._journal_op("push", payload)
        while len(self.dead_letters) > self.max_dead_letters:
            dropped = self.dead_letters.popleft()
            self._journal_op("drop", dropped)
            registry.counter("repro.poller.dead_letter_dropped").inc()
            if self.tracer is not None and self.tracer.active:
                self.tracer.event(
                    "dead-letter:dropped", queue_depth=self.max_dead_letters
                )
        registry.gauge("repro.mail.dead_letters").set(len(self.dead_letters))

    def _post(self, payload: str) -> bool:
        """One delivery attempt; a failure dead-letters the payload."""
        registry = get_registry()
        try:
            self.webhook_post(payload)
        except Exception:
            self.failures += 1
            registry.counter("repro.mail.webhook_failures").inc()
            self._dead_letter(payload)
            return False
        self.notifications_sent += 1
        registry.counter("repro.mail.notifications").inc()
        registry.gauge("repro.mail.dead_letters").set(len(self.dead_letters))
        return True

    def tick(self) -> bool:
        """One scheduled execution; returns whether a notification fired.

        Never raises: a webhook exception is counted in ``failures`` and
        the payload requeued, so the scheduler's next run retries.
        """
        self.runs += 1
        registry = get_registry()
        registry.counter("repro.mail.polls").inc()
        fired = False
        # Redeliver dead letters before looking at new mail.
        for _ in range(len(self.dead_letters)):
            payload = self.dead_letters.popleft()
            self._journal_op("pop", payload)
            if not self._post(payload):
                break  # _post re-queued it; don't spin on a dead hop
            registry.counter("repro.mail.redeliveries").inc()
            fired = True
        if self.account.has_unread():
            fired = self._post(
                f"{self.notification_text} ({self.account.unread_count()} unread)"
            ) or fired
        return fired
