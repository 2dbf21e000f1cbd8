#!/usr/bin/env python
"""The paper's Fig. 5 workflow, end to end.

A user emails petsc-users; the Apps-Script poller notices unread mail
and fires the Discord webhook; the email bot mirrors the thread into the
private ``petsc-users-emails`` forum; a developer invokes ``/reply``;
the chatbot drafts an answer with send / discard / revise buttons; the
developer revises once and then sends — the reply goes back to the
mailing list with the developer's signature.

Run:  python examples/discord_support_workflow.py
"""

from __future__ import annotations

from repro import ReproConfig, open_support_system

USER_EMAIL = """\
Hi PETSc team,

Our pressure solve for incompressible flow stalls around a relative
accuracy of 1e-3 no matter how many iterations we allow. The operator is
singular - the constant vector is in its null space. What are we missing?

Thanks,
A struggling user

On Mon, Jun 1, 2026, someone wrote:
> (an old quoted conversation that should not be mirrored)
"""


def main() -> None:
    print("assembling the support system (Fig. 5 topology) ...")
    system = open_support_system(ReproConfig())
    barry = next(u for u in system.server.members.values() if u.name == "barry")

    print("\n[arc 1] user emails petsc-users")
    system.user_sends_email("user@university.edu", "Singular Poisson stalls", USER_EMAIL)
    print(f"        unread in {system.account.address}: {system.account.unread_count()}")

    print("[arc 2-3] Apps-Script poller fires the Discord webhook")
    assert system.poll()
    notif = system.server.text_channel("petsc-users-notification")
    print(f"        #petsc-users-notification: {notif.history()[-1].content!r}")

    print("[arc 4] email bot mirrors the thread into the forum")
    post = system.find_post("Singular Poisson stalls")
    assert post is not None
    starter = post.starter().content
    print(f"        post {post.title!r}; quoted reply stripped: "
          f"{'(an old quoted conversation' not in starter}")

    print("[arc 5] developer invokes /reply")
    draft = system.developer_replies(barry, post)
    print("-" * 78)
    print(draft.result.answer)
    print("-" * 78)

    print("[arc 6] developer asks for a revision")
    draft.message.button("revise").click(draft.message, barry)
    revised = system.chatbot.submit_revision(
        draft.message, barry, "Mention MatNullSpaceCreate explicitly."
    )
    print(f"        revision drafted (message {revised.message.message_id})")

    print("[arc 7] developer clicks send")
    revised.message.button("send").click(revised.message, barry)
    sent = system.chatbot.sent_emails[-1]
    print(f"        mailed to {system.mailing_list.address}: {sent.subject!r}")
    print(f"        signature: {sent.body.splitlines()[-1]!r}")
    print(f"        Discord message tagged: sent-by={revised.message.tags['sent-by']}")

    print("[arc 8] loop guard: the bot's own email arrives pre-read")
    print(f"        unread now: {system.account.unread_count()} "
          f"(poller fires again: {system.poll()})")

    print(f"\ninteraction history holds {len(system.store)} records")


if __name__ == "__main__":
    main()
