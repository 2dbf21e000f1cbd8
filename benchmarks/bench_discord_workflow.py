"""E10 — the Fig. 5 Discord/mailing-list workflow, end to end.

Drives the full arc sequence (user email → poller → webhook → email bot
→ forum post → /reply → vetting buttons → reply mailed) and measures the
cycle throughput.  The paper cites >300 messages/month across the PETSc
support channels; a support cycle measured in tens of milliseconds shows
the bot layer itself is never the bottleneck (the LLM call dominates).
"""

from __future__ import annotations

import itertools

from repro.api import open_support_system
from repro.config import ReproConfig

_counter = itertools.count(1)

QUESTIONS = [
    "Our pressure solve stalls; the operator has the constant vector in its null space.",
    "How do I change the relative tolerance and the maximum number of iterations?",
    "Why does GMRES keep allocating memory as the iteration proceeds?",
    "What preconditioner is used if I never choose one?",
]


def test_support_cycle(benchmark, bundle):
    system = open_support_system(ReproConfig(iterations_per_token=0), bundle=bundle)
    developer = next(u for u in system.server.members.values() if u.name == "barry")

    def cycle():
        i = next(_counter)
        subject = f"support question {i}"
        body = QUESTIONS[i % len(QUESTIONS)]
        system.user_sends_email(f"user{i}@site.edu", subject, body)
        assert system.poll()
        post = system.find_post(subject)
        draft = system.developer_replies(developer, post)
        draft.message.button("send").click(draft.message, developer)
        return draft

    draft = benchmark(cycle)

    assert draft.decided == "sent"
    assert system.chatbot.sent_emails
    assert system.account.unread_count() == 0  # bot's own mail never loops
    print(f"\nsupport cycles completed: {len(system.chatbot.sent_emails)}")
    print(f"interactions recorded: {len(system.store)}")
