"""The three TFlux platform implementations (paper §4).

Each platform pairs a machine configuration with a TSU protocol adapter
behind the same :class:`~repro.platforms.base.Platform` interface — the
virtualization claim made concrete: identical DDM programs execute on all
three.

* :class:`~repro.platforms.hard.TFluxHard` — 27-kernel Bagle CMP,
  hardware TSU behind the MMI (configurable processing latency);
* :class:`~repro.platforms.soft.TFluxSoft` — 8-core Xeon, software TSU
  emulator on a dedicated core (6 compute kernels after the OS core);
* :class:`~repro.platforms.cellbe.TFluxCell` — PS3 Cell/BE, TSU emulator
  on the PPE, kernels on up to 6 SPEs with Local Stores and DMA.

Beyond the paper, :class:`~repro.platforms.dist.TFluxDist` composes N
TFluxSoft-style nodes over a simulated message-passing network
(:mod:`repro.net`) — the §4.1 "multiple TSU Groups" scaling axis taken
off-chip.

:func:`platform_from_name` is the one place the short names
(``hard``/``soft``/``cell``/``dist``, ``mesh``/``fattree``/``spine``)
become platform objects; ``tflux-run`` and the ``tflux-serve`` wire both
go through it.
"""

from repro.net.topology import FatTree, OversubscribedSpine
from repro.platforms.base import Platform
from repro.platforms.hard import TFluxHard
from repro.platforms.soft import TFluxSoft
from repro.platforms.cellbe import TFluxCell
from repro.platforms.dist import TFluxDist

__all__ = [
    "Platform",
    "TFluxHard",
    "TFluxSoft",
    "TFluxCell",
    "TFluxDist",
    "PLATFORMS",
    "TOPOLOGIES",
    "platform_from_name",
]

#: The short platform names ``tflux-run --platform`` and wire jobs use.
PLATFORMS = {
    "hard": TFluxHard,
    "soft": TFluxSoft,
    "cell": TFluxCell,
    "dist": TFluxDist,
}

#: The TFluxDist fabric wirings by name (``None`` = the default full
#: mesh of dedicated pairwise links; the two pod wirings use pods of 8,
#: the spine 4:1 oversubscribed).
TOPOLOGIES = {
    "mesh": None,
    "fattree": FatTree(pod_size=8),
    "spine": OversubscribedSpine(pod_size=8),
}


def platform_from_name(
    name: str, *, nodes: int, topology: str, cluster: int
) -> Platform:
    """The default-configured platform called *name*.

    *nodes*, *topology* (a :data:`TOPOLOGIES` key) and *cluster* (relay
    cluster size, 0 = flat fan-out) shape ``"dist"`` and are ignored by
    the single-chip platforms.  Raises :class:`ValueError` on an unknown
    name or a composition :class:`TFluxDist` refuses.
    """
    if name not in PLATFORMS:
        raise ValueError(f"unknown platform {name!r}")
    if name != "dist":
        return PLATFORMS[name]()
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    return TFluxDist(
        nnodes=nodes, topology=TOPOLOGIES[topology], cluster_size=cluster or None
    )
