"""Mailing lists with subscribers and (optionally) public archives.

PETSc's three lists are modeled: ``petsc-users`` (public, archived),
``petsc-maint`` (private, no archives), ``petsc-dev``.  Subscribers are
callables — the Gmail simulation subscribes its inbox-append method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MailError
from repro.mail.message import EmailMessage

Subscriber = Callable[[EmailMessage], None]


@dataclass
class MailArchive:
    """Public archive of a list: threads keyed by normalized subject."""

    threads: dict[str, list[EmailMessage]] = field(default_factory=dict)

    def add(self, message: EmailMessage) -> None:
        self.threads.setdefault(message.thread_subject, []).append(message)

    def thread(self, subject: str) -> list[EmailMessage]:
        try:
            return list(self.threads[subject])
        except KeyError:
            raise MailError(f"no archived thread with subject {subject!r}") from None

    def __len__(self) -> int:
        return sum(len(t) for t in self.threads.values())


class MailingList:
    """A mailing list that fans messages out to subscribers."""

    def __init__(self, name: str, *, public_archive: bool = True) -> None:
        if not name:
            raise MailError("mailing list needs a name")
        self.name = name
        self.address = f"{name}@lists.petsc.sim"
        self.archive: MailArchive | None = MailArchive() if public_archive else None
        self._subscribers: dict[str, Subscriber] = {}

    def subscribe(self, address: str, deliver: Subscriber) -> None:
        if address in self._subscribers:
            raise MailError(f"{address} is already subscribed to {self.name}")
        self._subscribers[address] = deliver

    def post(self, message: EmailMessage) -> None:
        """Deliver a message to every subscriber and the archive."""
        if self.archive is not None:
            self.archive.add(message)
        for deliver in self._subscribers.values():
            deliver(message)


