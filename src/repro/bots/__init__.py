"""The PETSc Discord bots (paper Section IV, Fig. 5).

:class:`EmailBot` bridges the mailing list into a private forum channel;
:class:`PetscChatbot` answers forum posts via the augmented LLM workflow
under developer control (send / discard / revise buttons) and supports
private direct messages.  :func:`repro.api.open_support_system` wires
the whole Fig. 5 topology together.
"""

from repro.bots.email_bot import EmailBot
from repro.bots.chatbot import PetscChatbot
from repro.bots.system import SupportSystem

__all__ = [
    "EmailBot",
    "PetscChatbot",
    "SupportSystem",
]
