"""The Discord server (guild): members, roles, channels, permissions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.discordsim.channels import ForumChannel, TextChannel
from repro.discordsim.models import User
from repro.errors import DiscordSimError


class Permission(enum.Flag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    MANAGE = enum.auto()


@dataclass(frozen=True)
class Role:
    name: str
    permissions: Permission = Permission.READ | Permission.WRITE


DEVELOPER_ROLE = Role("developer", Permission.READ | Permission.WRITE | Permission.MANAGE)
MEMBER_ROLE = Role("member", Permission.READ | Permission.WRITE)


@dataclass
class Server:
    """A Discord server with named channels and role-gated privacy.

    Private channels are visible only to members holding a role with
    MANAGE permission (the paper's developer-only channels).
    """

    name: str
    members: dict[int, User] = field(default_factory=dict)
    roles: dict[int, Role] = field(default_factory=dict)
    text_channels: dict[str, TextChannel] = field(default_factory=dict)
    forum_channels: dict[str, ForumChannel] = field(default_factory=dict)

    # ------------------------------------------------------------ membership
    def add_member(self, user: User, role: Role = MEMBER_ROLE) -> User:
        if user.user_id in self.members:
            raise DiscordSimError(f"{user.name} is already a member of {self.name}")
        self.members[user.user_id] = user
        self.roles[user.user_id] = role
        return user

    def role_of(self, user: User) -> Role:
        try:
            return self.roles[user.user_id]
        except KeyError:
            raise DiscordSimError(f"{user.name} is not a member of {self.name}") from None

    # ------------------------------------------------------------ channels
    def create_text_channel(self, name: str, *, private: bool = False) -> TextChannel:
        if name in self.text_channels or name in self.forum_channels:
            raise DiscordSimError(f"channel #{name} already exists")
        ch = TextChannel(name=name, private=private)
        self.text_channels[name] = ch
        return ch

    def create_forum_channel(self, name: str, *, private: bool = False) -> ForumChannel:
        if name in self.text_channels or name in self.forum_channels:
            raise DiscordSimError(f"channel #{name} already exists")
        ch = ForumChannel(name=name, private=private)
        self.forum_channels[name] = ch
        return ch

    def text_channel(self, name: str) -> TextChannel:
        try:
            return self.text_channels[name]
        except KeyError:
            raise DiscordSimError(f"no text channel #{name}") from None

    def forum_channel(self, name: str) -> ForumChannel:
        try:
            return self.forum_channels[name]
        except KeyError:
            raise DiscordSimError(f"no forum channel #{name}") from None

