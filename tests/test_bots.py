"""Tests for the email bot and chatbot (the Fig. 5 workflow)."""

from __future__ import annotations

import pytest

from repro.api import open_support_system
from repro.config import ReproConfig
from repro.discordsim.models import User
from repro.errors import BotError
from repro.mail.message import Attachment


@pytest.fixture(scope="module")
def system(bundle):
    return open_support_system(ReproConfig(iterations_per_token=0), bundle=bundle)


@pytest.fixture(scope="module")
def developer(system):
    return next(u for u in system.server.members.values() if u.name == "barry")


@pytest.fixture(scope="module")
def outsider(system):
    user = User(name="random-user")
    system.server.add_member(user)
    return user


def _fresh_post(system, developer, subject, body="How do I set -ksp_rtol?"):
    system.user_sends_email("someone@uni.edu", subject, body)
    system.poll()
    post = system.find_post(subject)
    assert post is not None
    return post


class TestEmailBot:
    def test_mirror_creates_post(self, system):
        system.user_sends_email("a@b.edu", "Unique subject one", "body text")
        assert system.poll()
        post = system.find_post("Unique subject one")
        assert post is not None
        assert "body text" in post.starter().content
        assert "a@b.edu" in post.starter().content

    def test_replies_append_to_thread(self, system):
        system.user_sends_email("a@b.edu", "Thread subject", "first")
        system.poll()
        system.user_sends_email("c@d.edu", "Re: Thread subject", "second message")
        system.poll()
        post = system.find_post("Thread subject")
        assert len(post.history()) == 2

    def test_quotes_stripped_in_mirror(self, system):
        system.user_sends_email(
            "a@b.edu", "Quoted subject",
            "new part\n\nOn Jan 1, Barry wrote:\n> old part",
        )
        system.poll()
        post = system.find_post("Quoted subject")
        assert "old part" not in post.starter().content

    def test_attachments_carried(self, system):
        from repro.mail.message import EmailMessage

        email = EmailMessage(
            sender="a@b.edu", subject="With attachment", body="see attached",
            attachments=[Attachment(filename="log.txt", content=b"data")],
        )
        system.mailing_list.post(email)
        system.poll()
        post = system.find_post("With attachment")
        assert post.starter().attachments[0].filename == "log.txt"

    def test_no_unread_no_mirror(self, system):
        before = system.email_bot.emails_mirrored
        assert not system.poll()
        assert system.email_bot.emails_mirrored == before


class TestChatbotReply:
    def test_reply_drafts_with_buttons(self, system, developer):
        post = _fresh_post(system, developer, "Tolerance question",
                           "How do I change the relative tolerance for KSP?")
        draft = system.developer_replies(developer, post)
        assert [b.label for b in draft.message.buttons] == ["send", "discard", "revise"]
        assert draft.result.mode == "rag+rerank"
        assert "Subject: Tolerance question" in draft.question

    def test_reply_requires_developer(self, system, outsider):
        post = _fresh_post(system, outsider, "Unauthorized question")
        with pytest.raises(BotError):
            system.chatbot.invoke("reply", outsider, post=post)

    def test_send_mails_with_signature(self, system, developer):
        post = _fresh_post(system, developer, "Send-flow question")
        draft = system.developer_replies(developer, post)
        n_before = len(system.chatbot.sent_emails)
        draft.message.button("send").click(draft.message, developer)
        assert len(system.chatbot.sent_emails) == n_before + 1
        sent = system.chatbot.sent_emails[-1]
        assert sent.subject == "Re: Send-flow question"
        assert "barry" in sent.body
        assert draft.message.tags["sent-by"] == "barry"
        assert draft.decided == "sent"

    def test_bot_email_does_not_loop(self, system, developer):
        post = _fresh_post(system, developer, "Loop-guard question")
        draft = system.developer_replies(developer, post)
        draft.message.button("send").click(draft.message, developer)
        # The bot's own email must arrive pre-read, so polling won't fire.
        assert system.account.unread_count() == 0
        assert not system.poll()

    def test_discard_deletes(self, system, developer):
        post = _fresh_post(system, developer, "Discard question")
        draft = system.developer_replies(developer, post)
        n = len(post.history())
        draft.message.button("discard").click(draft.message, developer)
        assert draft.decided == "discarded"
        assert len(post.history()) == n - 1

    def test_double_decision_rejected(self, system, developer):
        post = _fresh_post(system, developer, "Double-click question")
        draft = system.developer_replies(developer, post)
        draft.message.button("send").click(draft.message, developer)
        with pytest.raises(Exception):
            draft.message.button("discard").click(draft.message, developer)

    def test_revise_flow(self, system, developer):
        post = _fresh_post(system, developer, "Revise question",
                           "Why does GMRES use so much memory?")
        draft = system.developer_replies(developer, post)
        draft.message.button("revise").click(draft.message, developer)
        new = system.chatbot.submit_revision(
            draft.message, developer, "Mention the restart option."
        )
        assert new.revision_of == draft.message.message_id
        assert new.message.message_id != draft.message.message_id
        assert not new.decided

    def test_revision_requires_button_first(self, system, developer):
        post = _fresh_post(system, developer, "Premature revision")
        draft = system.developer_replies(developer, post)
        with pytest.raises(BotError):
            system.chatbot.submit_revision(draft.message, developer, "guidance")

    def test_empty_guidance_rejected(self, system, developer):
        post = _fresh_post(system, developer, "Empty guidance")
        draft = system.developer_replies(developer, post)
        draft.message.button("revise").click(draft.message, developer)
        with pytest.raises(BotError):
            system.chatbot.submit_revision(draft.message, developer, "   ")

    def test_interactions_recorded(self, system, developer):
        before = len(system.store)
        post = _fresh_post(system, developer, "History question")
        system.developer_replies(developer, post)
        assert len(system.store) == before + 1


class TestDirectMessages:
    def test_dm_answers_with_caveat(self, system, outsider):
        reply = system.chatbot.direct_message(outsider, "What is the default KSP type?")
        assert "not been reviewed" in reply

    def test_dm_history_kept(self, system, outsider):
        system.chatbot.direct_message(outsider, "another question")
        hist = system.chatbot.dm_history(outsider)
        assert len(hist) >= 2
        assert hist[-2][0] == "user"
        assert hist[-1][0] == "assistant"

    def test_dm_refuses_fictitious_api(self, system, outsider):
        reply = system.chatbot.direct_message(outsider, "What does KSPBurb do?")
        assert "no PETSc function" in reply
