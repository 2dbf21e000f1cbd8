"""Mailing-list / Gmail simulation (paper Section IV substrate).

Models the transport the paper's Fig. 5 workflow runs over: public
mailing lists with archives, a Gmail-like account subscribed to
``petsc-users`` with unread tracking, an Apps-Script-like poller that
fires a webhook when unread mail arrives, and email-body hygiene
(reply-quote stripping, url-defense reversal).
"""

from repro.mail.message import Attachment, EmailMessage, strip_quoted_reply, undefense_urls
from repro.mail.mailinglist import MailArchive, MailingList
from repro.mail.gmail import GmailAccount, GmailLabel
from repro.mail.appsscript import AppsScriptPoller

__all__ = [
    "Attachment",
    "EmailMessage",
    "strip_quoted_reply",
    "undefense_urls",
    "MailingList",
    "MailArchive",
    "GmailAccount",
    "GmailLabel",
    "AppsScriptPoller",
]
