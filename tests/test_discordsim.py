"""Tests for the Discord simulation."""

from __future__ import annotations

import pytest

from repro.discordsim import (
    Button,
    ButtonStyle,
    ForumChannel,
    Gateway,
    Message,
    Server,
    TextChannel,
    User,
    Webhook,
)
from repro.discordsim.app import App
from repro.discordsim.server import DEVELOPER_ROLE, MEMBER_ROLE, Permission
from repro.errors import DiscordSimError


def msg(content="hello", author=None):
    return Message(author=author or User(name="u"), content=content)


class TestModels:
    def test_user_needs_name(self):
        with pytest.raises(DiscordSimError):
            User(name="")

    def test_snowflakes_monotonic(self):
        a, b = User(name="a"), User(name="b")
        assert b.user_id > a.user_id

    def test_button_click_and_disable(self):
        clicked = []
        b = Button(label="send", callback=lambda m, u: clicked.append(u.name))
        m = msg()
        m.buttons.append(b)
        user = User(name="dev")
        m.button("send").click(m, user)
        assert clicked == ["dev"]
        m.disable_buttons()
        with pytest.raises(DiscordSimError):
            b.click(m, user)

    def test_unknown_button(self):
        with pytest.raises(DiscordSimError):
            msg().button("nope")


class TestChannels:
    def test_text_send_and_history(self):
        ch = TextChannel(name="general")
        ch.send(msg("one"))
        ch.send(msg("two"))
        assert [m.content for m in ch.history()] == ["one", "two"]
        assert [m.content for m in ch.history(limit=1)] == ["two"]

    def test_delete_message(self):
        ch = TextChannel(name="general")
        m = ch.send(msg())
        m.deleted = True  # what the chatbot's Discard button does
        assert ch.history() == []

    def test_forum_posts(self):
        forum = ForumChannel(name="emails")
        post = forum.create_post("Subject", msg("first"))
        post.add(msg("second"))
        assert forum.find_post_by_title("Subject") is post
        assert post.starter().content == "first"
        assert len(post.history()) == 2

    def test_forum_unknown_post(self):
        forum = ForumChannel(name="emails")
        with pytest.raises(DiscordSimError):
            forum.post(12345)

    def test_empty_title_rejected(self):
        forum = ForumChannel(name="emails")
        with pytest.raises(DiscordSimError):
            forum.create_post("", msg())


class TestServer:
    def test_membership_and_roles(self):
        srv = Server(name="PETSc")
        dev = srv.add_member(User(name="barry"), DEVELOPER_ROLE)
        assert srv.role_of(dev).permissions & Permission.MANAGE
        with pytest.raises(DiscordSimError):
            srv.add_member(dev)

    def test_privacy(self):
        srv = Server(name="PETSc")
        dev = srv.add_member(User(name="barry"), DEVELOPER_ROLE)
        member = srv.add_member(User(name="alice"), MEMBER_ROLE)
        srv.create_text_channel("private-devs", private=True)
        srv.create_text_channel("public")
        assert srv.text_channel("private-devs").private
        assert not srv.text_channel("public").private
        assert srv.role_of(dev).permissions & Permission.MANAGE
        assert not srv.role_of(member).permissions & Permission.MANAGE

    def test_duplicate_channel(self):
        srv = Server(name="PETSc")
        srv.create_text_channel("x")
        with pytest.raises(DiscordSimError):
            srv.create_forum_channel("x")

    def test_unknown_channel(self):
        srv = Server(name="PETSc")
        with pytest.raises(DiscordSimError):
            srv.text_channel("missing")


class TestWebhookGateway:
    def test_webhook_posts_and_dispatches(self):
        srv = Server(name="PETSc")
        ch = srv.create_text_channel("notify")
        gw = Gateway()
        events = []
        gw.on_message("notify", events.append)
        hook = Webhook(channel=ch, name="hook", gateway=gw)
        m = hook.execute("payload")
        assert ch.history() == [m]
        assert events and events[0].message.content == "payload"
        assert "discord.sim/api/webhooks" in hook.url

    def test_empty_payload_rejected(self):
        hook = Webhook(channel=TextChannel(name="x"))
        with pytest.raises(DiscordSimError):
            hook.execute("")

    def test_catch_all_listener(self):
        gw = Gateway()
        seen = []
        gw.on_message(None, seen.append)
        ch = TextChannel(name="any")
        gw.publish_message(ch, msg())
        assert len(seen) == 1
        assert gw.events_dispatched == 1


class TestApp:
    def _app(self):
        srv = Server(name="PETSc")
        return App(name="bot", server=srv, gateway=Gateway()), srv

    def test_app_joins_server(self):
        app, srv = self._app()
        assert app.user.user_id in srv.members
        assert app.user.bot

    def test_commands(self):
        app, _ = self._app()
        app.command("ping", "test", lambda invoker: f"pong {invoker.name}")
        out = app.invoke("ping", User(name="alice"))
        assert out == "pong alice"
        assert app.commands["ping"].invocations == 1

    def test_duplicate_command(self):
        app, _ = self._app()
        app.command("x", "d", lambda i: None)
        with pytest.raises(DiscordSimError):
            app.command("x", "d", lambda i: None)

    def test_unknown_command(self):
        app, _ = self._app()
        with pytest.raises(DiscordSimError):
            app.invoke("nope", User(name="a"))
