"""Discord channels: plain text channels and forum channels.

The paper's workflow uses both: ``petsc-users-notification`` is a
private text channel fed by a webhook; ``petsc-users-emails`` is a
forum channel where each email thread becomes a post.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.discordsim.models import Message, next_snowflake
from repro.errors import DiscordSimError


@dataclass
class _BaseChannel:
    name: str
    private: bool = False
    channel_id: int = field(default_factory=next_snowflake)

    def __post_init__(self) -> None:
        if not self.name:
            raise DiscordSimError("channel needs a name")


@dataclass
class TextChannel(_BaseChannel):
    """A linear message channel."""

    messages: list[Message] = field(default_factory=list)

    def send(self, message: Message) -> Message:
        self.messages.append(message)
        return message

    def history(self, *, limit: int | None = None) -> list[Message]:
        msgs = [m for m in self.messages if not m.deleted]
        return msgs[-limit:] if limit else msgs


@dataclass
class ForumPost:
    """One post (thread) in a forum channel."""

    title: str
    post_id: int = field(default_factory=next_snowflake)
    messages: list[Message] = field(default_factory=list)

    def add(self, message: Message) -> Message:
        self.messages.append(message)
        return message

    def history(self) -> list[Message]:
        return [m for m in self.messages if not m.deleted]

    def starter(self) -> Message:
        live = self.history()
        if not live:
            raise DiscordSimError(f"post {self.title!r} has no messages")
        return live[0]


@dataclass
class ForumChannel(_BaseChannel):
    """A channel made of titled posts (Discord Forum channel)."""

    posts: dict[int, ForumPost] = field(default_factory=dict)

    def create_post(self, title: str, first: Message) -> ForumPost:
        if not title:
            raise DiscordSimError("forum post needs a title")
        post = ForumPost(title=title)
        post.add(first)
        self.posts[post.post_id] = post
        return post

    def find_post_by_title(self, title: str) -> ForumPost | None:
        for post in self.posts.values():
            if post.title == title:
                return post
        return None

    def post(self, post_id: int) -> ForumPost:
        try:
            return self.posts[post_id]
        except KeyError:
            raise DiscordSimError(f"no post {post_id} in forum #{self.name}") from None
