"""The PETSc chatbot: /reply with send / discard / revise vetting.

Implements the paper's two usage modes:

1. **Vetted replies** — a developer invokes ``/reply`` on a forum post
   mirrored from the mailing list.  The bot builds a conversation
   context from the post (title, messages, attachments), runs the
   augmented LLM workflow, and adds the draft answer to the post with
   three buttons.  *send* mails the answer to petsc-users with the
   clicking developer's signature and stamps the Discord message;
   *discard* deletes the draft; *revise* takes developer guidance and
   produces a new draft with fresh buttons.  No LLM text reaches users
   without a developer's click.
2. **Direct messages** — any user can chat with the bot privately
   (``dm``), with the explicit caveat that those answers are unvetted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.discordsim.app import App
from repro.discordsim.channels import ForumPost
from repro.discordsim.gateway import Gateway
from repro.discordsim.models import Button, ButtonStyle, Message, User
from repro.discordsim.server import Permission, Server
from repro.errors import BotError
from repro.history import InteractionStore
from repro.observability.metrics import get_registry
from repro.mail.mailinglist import MailingList
from repro.mail.message import EmailMessage
from repro.pipeline.rag import PipelineResult
from repro.pipeline.types import PipelineMode
from repro.prompts import REVISE_PROMPT
from repro.service import ReproService


@dataclass
class DraftState:
    """Tracks one draft answer through the vetting workflow."""

    post: ForumPost
    question: str
    result: PipelineResult
    message: Message
    decided: str = ""  # "", "sent", "discarded", "revised"
    revision_of: int | None = None


@dataclass
class DirectConversation:
    user: User
    turns: list[tuple[str, str]] = field(default_factory=list)  # (role, text)


class PetscChatbot(App):
    """LLM-backed support bot under developer control."""

    def __init__(
        self,
        server: Server,
        gateway: Gateway,
        *,
        service: ReproService,
        mode: str | PipelineMode | None = None,
        mailing_list: MailingList,
        bot_email: str = "petscbot@gmail.com",
        store: InteractionStore | None = None,
    ) -> None:
        super().__init__(name="petsc-chatbot", server=server, gateway=gateway)
        #: The request front door every question goes through.
        self.service = service
        self.mode = service.resolve_mode(mode)
        self.mailing_list = mailing_list
        self.bot_email = bot_email
        self.store = store if store is not None else InteractionStore()
        self.drafts: dict[int, DraftState] = {}
        self.sent_emails: list[EmailMessage] = []
        self._dms: dict[int, DirectConversation] = {}
        self.command("reply", "Draft an LLM answer for a petsc-users post", self._cmd_reply)

    def _answer(self, question: str) -> PipelineResult:
        return self.service.answer(question, mode=self.mode)

    # ------------------------------------------------------------ /reply flow
    def _require_developer(self, user: User) -> None:
        if not (self.server.role_of(user).permissions & Permission.MANAGE):
            raise BotError(f"{user.name} is not a PETSc developer; /reply is developer-only")

    def build_context(self, post: ForumPost) -> str:
        """Conversation context: title, messages, and attachment names."""
        lines = [f"Subject: {post.title}", ""]
        for msg in post.history():
            lines.append(msg.content)
            for att in msg.attachments:
                lines.append(f"[attachment: {att.filename}, {len(att.content)} bytes]")
            lines.append("")
        return "\n".join(lines).strip()

    def _cmd_reply(self, invoker: User, *, post: ForumPost) -> DraftState:
        self._require_developer(invoker)
        question = self.build_context(post)
        result = self._answer(question)
        return self._add_draft(post, question, result)

    def _add_draft(
        self,
        post: ForumPost,
        question: str,
        result: PipelineResult,
        *,
        revision_of: int | None = None,
    ) -> DraftState:
        message = Message(
            author=self.user,
            content=result.answer,
            buttons=[
                Button(label="send", style=ButtonStyle.SUCCESS, callback=self._on_send),
                Button(label="discard", style=ButtonStyle.DANGER, callback=self._on_discard),
                Button(label="revise", style=ButtonStyle.PRIMARY, callback=self._on_revise),
            ],
        )
        post.add(message)
        state = DraftState(
            post=post, question=question, result=result, message=message,
            revision_of=revision_of,
        )
        self.drafts[message.message_id] = state
        self.store.record_pipeline_result(result, tags=[f"post:{post.post_id}"])
        get_registry().counter("repro.bots.drafts").inc()
        return state

    def _state_of(self, message: Message) -> DraftState:
        state = self.drafts.get(message.message_id)
        if state is None:
            raise BotError(f"message {message.message_id} is not a chatbot draft")
        if state.decided:
            raise BotError(f"draft already {state.decided}")
        return state

    # ------------------------------------------------------------ buttons
    def _on_send(self, message: Message, user: User) -> None:
        self._require_developer(user)
        state = self._state_of(message)
        email = EmailMessage(
            sender=self.bot_email,
            subject=f"Re: {state.post.title}",
            body=f"{state.result.answer}\n\n-- \nAnswer reviewed and sent by {user.name} (PETSc)",
        )
        self.mailing_list.post(email)
        self.sent_emails.append(email)
        state.decided = "sent"
        get_registry().counter("repro.bots.sent").inc()
        message.tags["sent-by"] = user.name
        message.tags["sent-at"] = f"{time.time():.0f}"
        message.disable_buttons()

    def _on_discard(self, message: Message, user: User) -> None:
        self._require_developer(user)
        state = self._state_of(message)
        state.decided = "discarded"
        get_registry().counter("repro.bots.discarded").inc()
        message.deleted = True
        message.disable_buttons()

    def _on_revise(self, message: Message, user: User) -> None:
        """Mark the draft as awaiting guidance; the developer then calls
        :meth:`submit_revision` with the guidance text."""
        self._require_developer(user)
        state = self._state_of(message)
        state.decided = "revised"
        message.disable_buttons()

    def submit_revision(self, message: Message, user: User, guidance: str) -> DraftState:
        """Produce a new draft guided by developer feedback."""
        self._require_developer(user)
        state = self.drafts.get(message.message_id)
        if state is None or state.decided != "revised":
            raise BotError("revision requires clicking the revise button first")
        if not guidance.strip():
            raise BotError("revision guidance must be non-empty")
        prompt = REVISE_PROMPT.format(guidance=guidance, question=state.question)
        # Re-run through the pipeline with the guidance folded in; the
        # retrieval sees the combined text, matching llmcord's behavior of
        # extending the conversation.
        get_registry().counter("repro.bots.revisions").inc()
        result = self._answer(f"{state.question}\n\n{guidance}")
        result = replace(result, prompt=prompt)
        return self._add_draft(state.post, state.question, result, revision_of=message.message_id)

    # ------------------------------------------------------------ direct messages
    def direct_message(self, user: User, text: str) -> str:
        """Private chat: unvetted answers, with a standing caveat."""
        conv = self._dms.setdefault(user.user_id, DirectConversation(user=user))
        get_registry().counter("repro.bots.dms").inc()
        conv.turns.append(("user", text))
        result = self._answer(text)
        self.store.record_pipeline_result(result, tags=[f"dm:{user.name}", "unvetted"])
        reply = (
            f"{result.answer}\n\n"
            "*Note: this is an automated answer that has not been reviewed by a "
            "PETSc developer.*"
        )
        conv.turns.append(("assistant", reply))
        return reply

    def dm_history(self, user: User) -> list[tuple[str, str]]:
        conv = self._dms.get(user.user_id)
        return list(conv.turns) if conv else []
