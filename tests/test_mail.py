"""Tests for the mailing-list / Gmail / Apps-Script simulation."""

from __future__ import annotations

import pytest

from repro.errors import MailError
from repro.mail import (
    AppsScriptPoller,
    EmailMessage,
    GmailAccount,
    MailingList,
    strip_quoted_reply,
    undefense_urls,
)


def email(sender="user@host.edu", subject="Help", body="question text", **kw):
    return EmailMessage(sender=sender, subject=subject, body=body, **kw)


class TestEmailMessage:
    def test_message_id_generated(self):
        assert email().message_id.startswith("<")

    def test_invalid_sender(self):
        with pytest.raises(MailError):
            EmailMessage(sender="nodomain", subject="s", body="b")

    def test_thread_subject_strips_re(self):
        assert email(subject="Re: RE: Fwd: Help").thread_subject == "Help"

    def test_thread_subject_plain(self):
        assert email(subject="Help").thread_subject == "Help"


class TestQuoteStripping:
    def test_on_wrote_removed(self):
        body = "new content\n\nOn Mon, Jan 1, 2025, Barry Smith wrote:\n> old stuff\n> more old"
        assert strip_quoted_reply(body) == "new content"

    def test_angle_quotes_removed(self):
        body = "reply here\n> quoted line\nmore reply"
        out = strip_quoted_reply(body)
        assert "quoted line" not in out
        assert "more reply" in out

    def test_signature_removed(self):
        body = "content\n--\nBarry Smith\nFlatiron"
        assert strip_quoted_reply(body) == "content"

    def test_plain_body_untouched(self):
        assert strip_quoted_reply("just text") == "just text"


class TestUrlDefense:
    def test_v3_decoded(self):
        wrapped = "see https://urldefense.com/v3/__https://petsc.org/release/__;!!ABC123$ for docs"
        out = undefense_urls(wrapped)
        assert "https://petsc.org/release/" in out
        assert "urldefense" not in out

    def test_v2_decoded(self):
        wrapped = "https://urldefense.proofpoint.com/v2/url?u=https-3A__petsc.org_release&d=x"
        out = undefense_urls(wrapped)
        assert "https://petsc.org/release" in out

    def test_plain_urls_untouched(self):
        assert undefense_urls("https://petsc.org") == "https://petsc.org"

    def test_clean_body_combines(self):
        msg = email(body="see https://urldefense.com/v3/__https://petsc.org__;!!X$\n> quoted")
        out = msg.clean_body()
        assert "petsc.org" in out and "quoted" not in out


class TestMailingList:
    def test_post_reaches_subscribers_and_archive(self):
        ml = MailingList("petsc-users")
        got = []
        ml.subscribe("a@b.c", got.append)
        msg = email()
        ml.post(msg)
        assert got == [msg]
        assert len(ml.archive) == 1

    def test_private_list_has_no_archive(self):
        assert MailingList("petsc-maint", public_archive=False).archive is None
        assert MailingList("petsc-users", public_archive=True).archive is not None

    def test_threading_in_archive(self):
        ml = MailingList("petsc-users")
        ml.post(email(subject="Topic"))
        ml.post(email(subject="Re: Topic", body="reply"))
        assert len(ml.archive.thread("Topic")) == 2

    def test_unknown_thread(self):
        ml = MailingList("petsc-users")
        with pytest.raises(MailError):
            ml.archive.thread("nope")

    def test_duplicate_subscribe_rejected(self):
        ml = MailingList("x")
        ml.subscribe("a@b.c", lambda m: None)
        with pytest.raises(MailError):
            ml.subscribe("a@b.c", lambda m: None)


class TestGmailAccount:
    def test_deliver_and_unread(self):
        acct = GmailAccount("bot@gmail.com")
        acct.deliver(email())
        assert acct.unread_count() == 1
        assert acct.has_unread()

    def test_fetch_marks_read(self):
        acct = GmailAccount("bot@gmail.com")
        acct.deliver(email())
        fetched = acct.fetch_unread()
        assert len(fetched) == 1
        assert acct.unread_count() == 0

    def test_fetch_without_marking(self):
        acct = GmailAccount("bot@gmail.com")
        acct.deliver(email())
        acct.fetch_unread(mark_read=False)
        assert acct.unread_count() == 1

    def test_ignored_sender_arrives_read(self):
        acct = GmailAccount("bot@gmail.com", ignore_senders={"bot@gmail.com"})
        acct.deliver(email(sender="bot@gmail.com"))
        assert acct.unread_count() == 0
        assert len(acct) == 1

    def test_duplicate_delivery_ignored(self):
        acct = GmailAccount("bot@gmail.com")
        msg = email()
        acct.deliver(msg)
        acct.deliver(msg)
        assert len(acct) == 1

    def test_labels(self):
        acct = GmailAccount("bot@gmail.com")
        msg = email()
        acct.deliver(msg)
        assert acct.unread_count() == 1
        acct.mark_read(msg.message_id)
        assert acct.unread_count() == 0 and not acct.has_unread()

    def test_unknown_message(self):
        with pytest.raises(MailError):
            GmailAccount("a@b.c").mark_read("<nope>")


class TestPoller:
    def test_fires_only_with_unread(self):
        acct = GmailAccount("bot@gmail.com")
        posts = []
        poller = AppsScriptPoller(account=acct, webhook_post=posts.append)
        assert not poller.tick()
        acct.deliver(email())
        assert poller.tick()
        assert poller.notifications_sent == 1
        assert poller.runs == 2
        assert "unread" in posts[0]
