"""The public API: one front door for every assembly.

* :func:`open_engine` — config in, :class:`~repro.engine.QueryEngine`
  out, over the shared index artifact (memory → disk → build) for
  ``config.sharding.num_shards`` shards × ``config.replication.replicas``
  replicas — one of each by default.  An engine holds cache generations
  and builds pipelines; it answers nothing.
* :func:`open_service` — config in,
  :class:`~repro.service.ReproService` out: the one way to ask, over an
  :func:`open_engine` engine.  Serving code (CLI, bots, evaluation,
  chaos sweeps) holds a service, not a raw engine or pipeline.
* :func:`open_pipeline` / :func:`open_workflow` /
  :func:`open_support_system` — the higher assemblies, all built on the
  same artifact/engine resolution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ReproConfig
from repro.corpus.builder import CorpusBundle, build_default_corpus
from repro.durability import reopen_journal
from repro.index import get_or_build_index
from repro.pipeline.types import PipelineMode

if TYPE_CHECKING:
    from repro.bots.system import SupportSystem
    from repro.engine import QueryEngine
    from repro.history import InteractionStore
    from repro.observability import MetricsRegistry
    from repro.pipeline.rag import RAGPipeline
    from repro.pipeline.workflow import AugmentedWorkflow
    from repro.resilience.faults import FaultInjector
    from repro.service import ReproService


def open_engine(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    fault_injector: "FaultInjector | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> "QueryEngine":
    """Open a query engine over the shared index artifact.

    This is the single engine factory: every consumer — CLI, workflow,
    bots, benchmarks — gets its engine here, so one process serves every
    caller from one artifact build.  Answer/metric/span digests are
    byte-identical across shard counts for the same workload.
    """
    from repro.engine import QueryEngine

    config = config or ReproConfig()
    config.validate()
    return QueryEngine(
        get_or_build_index(bundle or build_default_corpus(), config),
        config,
        fault_injector=fault_injector,
        registry=registry,
    )


def open_service(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    fault_injector: "FaultInjector | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> "ReproService":
    """Open the serving front door: a :class:`~repro.service.ReproService`
    over an :func:`open_engine` engine.

    The service is the only thing that answers: every request — single
    or batch, from any consumer — is admitted, looked up in the answer
    cache, executed and committed by its one deterministic scheduler.
    """
    from repro.service import ReproService

    return ReproService(
        open_engine(config, bundle=bundle, fault_injector=fault_injector, registry=registry)
    )


def open_pipeline(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    mode: str | PipelineMode = PipelineMode.RAG_RERANK,
    fault_injector: "FaultInjector | None" = None,
) -> "RAGPipeline":
    """A bare pipeline (no engine caches) over the shared artifact: the
    reference a service's answers are compared against, not a serving
    path."""
    from repro.pipeline.rag import pipeline_from_artifact

    config = config or ReproConfig()
    config.validate()
    mode = PipelineMode.coerce(mode)
    artifact = get_or_build_index(bundle or build_default_corpus(), config)
    return pipeline_from_artifact(artifact, config, mode=mode, fault_injector=fault_injector)


def open_workflow(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    mode: str | PipelineMode = PipelineMode.RAG_RERANK,
    store: "InteractionStore | None" = None,
) -> "AugmentedWorkflow":
    """The complete workflow: engine-served pipeline + postprocessing +
    interaction history.  With ``durability.history_journal`` set, the
    store opens on that journal: it replays what an earlier process
    recorded there, then journals every new record."""
    from repro.pipeline.workflow import AugmentedWorkflow

    config = config or ReproConfig()
    config.validate()
    bundle = bundle or build_default_corpus()
    mode = PipelineMode.coerce(mode)
    workflow = AugmentedWorkflow(
        bundle,
        open_service(config, bundle=bundle),
        mode=mode,
        store=store,
        embedding_model=(
            config.retrieval.embedding_model if mode is not PipelineMode.BASELINE else ""
        ),
    )
    if config.durability.history_journal and workflow.store.journal is None:
        reopen_journal(
            workflow.store, config.durability.history_journal, fsync=config.durability.fsync
        )
    return workflow


def open_support_system(
    config: ReproConfig | None = None,
    *,
    bundle: CorpusBundle | None = None,
    developers: tuple[str, ...] = ("barry", "junchao", "hong"),
    mode: str = "rag+rerank",
    fault_injector: "FaultInjector | None" = None,
) -> "SupportSystem":
    """The full Fig. 5 support topology over the (default) corpus: the
    petsc-users mailing list, the bot Gmail account subscribed to it,
    the Apps-Script poller, the Discord server with its private
    channels, the webhook, the email bot, and the chatbot served by
    :func:`open_engine`.

    With a ``fault_injector``, every unreliable hop — mail delivery,
    webhook post, retriever, reranker, LLM — is chaos-wrapped, and the
    resilience layer keeps the chain up: delivery faults retry under the
    policy, webhook faults land in the poller's dead-letter queue, and
    pipeline faults walk the degradation ladder.
    """
    from repro.bots.chatbot import PetscChatbot
    from repro.bots.email_bot import EmailBot
    from repro.bots.system import SupportSystem
    from repro.discordsim.gateway import Gateway
    from repro.discordsim.models import User
    from repro.discordsim.server import DEVELOPER_ROLE, Server
    from repro.discordsim.webhook import Webhook
    from repro.history import InteractionStore
    from repro.mail.appsscript import AppsScriptPoller
    from repro.mail.gmail import GmailAccount
    from repro.mail.mailinglist import MailingList
    from repro.resilience import RetryPolicy

    bundle = bundle or build_default_corpus()
    config = config or ReproConfig()

    bot_email = "petscbot@gmail.com"
    mailing_list = MailingList("petsc-users", public_archive=True)
    account = GmailAccount(bot_email, ignore_senders={bot_email})
    deliver = account.deliver
    if fault_injector is not None:
        chaos_deliver = fault_injector.wrap_callable("mail", account.deliver)
        policy = RetryPolicy()

        def deliver(message) -> None:
            policy.execute(
                lambda: chaos_deliver(message), key=("mail", message.message_id)
            )

    mailing_list.subscribe(account.address, deliver)

    gateway = Gateway()
    server = Server(name="PETSc")
    for dev in developers:
        server.add_member(User(name=dev), DEVELOPER_ROLE)
    notif = server.create_text_channel("petsc-users-notification", private=True)
    server.create_forum_channel("petsc-users-emails", private=True)

    webhook = Webhook(channel=notif, name="petsc-users-hook", gateway=gateway)
    webhook_post = webhook.execute
    if fault_injector is not None:
        # Failed posts land in the poller's dead-letter queue and are
        # redelivered on the next tick, so no wrapper retry here.
        webhook_post = fault_injector.wrap_callable("webhook", webhook.execute)
    poller = AppsScriptPoller(account=account, webhook_post=webhook_post)
    if config.durability.dead_letter_journal:
        reopen_journal(
            poller, config.durability.dead_letter_journal, fsync=config.durability.fsync
        )

    email_bot = EmailBot(server, gateway, account=account)
    store = InteractionStore()
    # Chaos builds keep determinism because a fault injector disables
    # the engine's answer cache.
    chatbot = PetscChatbot(
        server,
        gateway,
        service=open_service(config, bundle=bundle, fault_injector=fault_injector),
        mode=mode,
        mailing_list=mailing_list,
        bot_email=bot_email,
        store=store,
    )

    return SupportSystem(
        bundle=bundle,
        mailing_list=mailing_list,
        account=account,
        poller=poller,
        server=server,
        gateway=gateway,
        webhook=webhook,
        email_bot=email_bot,
        chatbot=chatbot,
        store=store,
        fault_injector=fault_injector,
    )
