"""The one observation seam of the protocol core.

A :class:`Probe` watches a :class:`~repro.core.participant.Participant`
(and, for the lifecycle tracer, the sim/UDP driver around it).  Every
hook does nothing by default; a subclass overrides the ones it needs.
Each observed object holds at most one probe, ``None`` by default, so
an unobserved run pays one ``is not None`` test per hook site.

Hooks are synchronous and exception-transparent: a broken probe fails
the run loudly rather than corrupting measurements silently.  A probe
only observes — the arguments are the protocol's own objects and must
not be mutated.

Participant hooks take the observing ``pid`` first, so one probe can
watch a whole ring.  Driver hooks (``multicast``, ``coalesced``,
``delivered``) are per node and carry no pid.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

__all__ = ["Probe", "ProbeSlot"]


class Probe:
    """Base class for protocol observers; every hook is a no-op."""

    __slots__ = ()

    # -- participant hooks -------------------------------------------------

    def token_handled(self, pid: int, received: Any, sent: Any,
                      allowed_new: int, retransmissions: int) -> None:
        """A regular token was handled: ``received`` in, ``sent`` out.

        ``allowed_new`` is the flow-control budget granted this
        handling; ``retransmissions`` the requests answered.
        """

    def message_sent(self, pid: int, message: Any) -> None:
        """``pid`` initiated ``message`` (pre- or post-token)."""

    def data_received(self, pid: int, message: Any) -> None:
        """A NEW data message entered ``pid``'s buffer (duplicates skip)."""

    def retransmission_sent(self, pid: int, message: Any) -> None:
        """``pid`` answered a retransmission request with ``message``."""

    def retransmission_requested(self, pid: int,
                                 seqs: Tuple[int, ...]) -> None:
        """``pid`` added ``seqs`` to the token's request list."""

    # -- driver hooks --------------------------------------------------------

    def multicast(self, message: Any, retransmission: bool,
                  coalesced: bool) -> None:
        """The NIC/socket accepted the datagram carrying ``message``."""

    def coalesced(self, messages: Sequence[Any]) -> None:
        """``messages`` were batched into one jumbo datagram."""

    def delivered(self, message: Any, t_ordered: float,
                  t_delivered: float) -> None:
        """The driver executed the delivery of ``message``.

        ``t_ordered`` is the driver-clock instant the participant
        returned the Deliver action, ``t_delivered`` the instant the
        delivery completed; both are raw driver-clock readings.
        """


class ProbeSlot:
    """The ``probe`` attribute, stored in the owner's ``_probe`` slot.

    Installing a probe where one is already set raises; assign ``None``
    first to detach.  Hot paths read ``_probe`` directly.
    """

    __slots__ = ()

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        return obj._probe

    def __set__(self, obj: Any, probe: Optional[Probe]) -> None:
        if probe is not None and obj._probe is not None:
            raise RuntimeError("%r already has a probe installed" % (obj,))
        obj._probe = probe
