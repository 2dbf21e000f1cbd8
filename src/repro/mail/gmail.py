"""Gmail-like account simulation: inbox, labels, unread tracking.

The paper creates ``petscbot@gmail.com``, subscribes it to petsc-users,
and has scripts poll for unread messages.  The account here offers the
minimal API those scripts need: deliver, query unread, fetch-and-mark-
read, and sender filtering (the real workflow ignores the chatbot's own
posts so it never reposts them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import MailError
from repro.mail.message import EmailMessage


class GmailLabel(enum.Enum):
    UNREAD = "UNREAD"
    INBOX = "INBOX"
    PROCESSED = "PROCESSED"


@dataclass
class _Stored:
    message: EmailMessage
    labels: set[GmailLabel] = field(default_factory=lambda: {GmailLabel.INBOX, GmailLabel.UNREAD})


class GmailAccount:
    """An email account with unread labels, deliverable to a mailing list."""

    def __init__(self, address: str, *, ignore_senders: set[str] | None = None) -> None:
        if "@" not in address:
            raise MailError(f"invalid account address {address!r}")
        self.address = address
        self.ignore_senders = set(ignore_senders or ())
        self._messages: dict[str, _Stored] = {}
        self._order: list[str] = []

    # ------------------------------------------------------------ delivery
    def deliver(self, message: EmailMessage) -> None:
        """Subscriber callback for :class:`~repro.mail.mailinglist.MailingList`.

        Messages from ignored senders are stored already marked read so
        the poller never reprocesses them (the chatbot-loop guard).
        """
        if message.message_id in self._messages:
            return  # duplicate delivery
        stored = _Stored(message=message)
        if message.sender in self.ignore_senders:
            stored.labels.discard(GmailLabel.UNREAD)
        self._messages[message.message_id] = stored
        self._order.append(message.message_id)

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._order)

    def unread_count(self) -> int:
        return sum(
            1 for mid in self._order if GmailLabel.UNREAD in self._messages[mid].labels
        )

    def has_unread(self) -> bool:
        return self.unread_count() > 0

    def fetch_unread(self, *, mark_read: bool = True) -> list[EmailMessage]:
        """Unread messages in delivery order; optionally mark them read."""
        out: list[EmailMessage] = []
        for mid in self._order:
            stored = self._messages[mid]
            if GmailLabel.UNREAD in stored.labels:
                out.append(stored.message)
                if mark_read:
                    stored.labels.discard(GmailLabel.UNREAD)
        return out

    def mark_read(self, message_id: str) -> None:
        try:
            self._messages[message_id].labels.discard(GmailLabel.UNREAD)
        except KeyError:
            raise MailError(f"unknown message id {message_id!r}") from None
