"""The assembled Fig. 5 support topology.

:func:`repro.api.open_support_system` wires the pieces; the
:class:`SupportSystem` it returns exposes them plus high-level drivers
for the typical event sequence (arcs 1–8 in the paper's figure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bots.chatbot import DraftState, PetscChatbot
from repro.bots.email_bot import EmailBot
from repro.corpus.builder import CorpusBundle
from repro.discordsim.channels import ForumPost
from repro.discordsim.gateway import Gateway
from repro.discordsim.models import User
from repro.discordsim.server import Server
from repro.discordsim.webhook import Webhook
from repro.history import InteractionStore
from repro.mail.appsscript import AppsScriptPoller
from repro.mail.gmail import GmailAccount
from repro.mail.mailinglist import MailingList
from repro.mail.message import EmailMessage
from repro.resilience import FaultInjector


@dataclass
class SupportSystem:
    """All the moving parts of the paper's Fig. 5, assembled."""

    bundle: CorpusBundle
    mailing_list: MailingList
    account: GmailAccount
    poller: AppsScriptPoller
    server: Server
    gateway: Gateway
    webhook: Webhook
    email_bot: EmailBot
    chatbot: PetscChatbot
    store: InteractionStore
    #: The chaos source wired through the hops, when this is a chaos build.
    fault_injector: FaultInjector | None = None

    # ------------------------------------------------------------ drivers
    def user_sends_email(self, sender: str, subject: str, body: str) -> EmailMessage:
        """Arc 1: a user mails petsc-users."""
        email = EmailMessage(sender=sender, subject=subject, body=body)
        self.mailing_list.post(email)
        return email

    def poll(self) -> bool:
        """Arcs 2–4: poller notices unread mail → webhook → email bot."""
        return self.poller.tick()

    def developer_replies(self, developer: User, post: ForumPost) -> DraftState:
        """Arc 5: a developer invokes /reply on a mirrored post."""
        return self.chatbot.invoke("reply", developer, post=post)

    def find_post(self, subject: str) -> ForumPost | None:
        return self.server.forum_channel("petsc-users-emails").find_post_by_title(subject)
