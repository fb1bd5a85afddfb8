"""Technology abstraction.

The paper's data-generation flow targets the NanGate 45nm open cell library
through Design Compiler and Innovus.  This module provides the small slice of
technology information the reproduction's synthetic flow needs: placement
site geometry, routing layers with per-layer track capacity, and unit
conversion between microns and placement sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class RoutingLayer:
    """A single metal routing layer.

    Attributes
    ----------
    name:
        Layer name (e.g. ``metal2``).
    direction:
        Preferred routing direction, ``"horizontal"`` or ``"vertical"``.
    pitch_um:
        Track pitch in microns; determines how many tracks cross a bin.
    """

    name: str
    direction: str
    pitch_um: float

    def __post_init__(self):
        if self.direction not in ("horizontal", "vertical"):
            raise ValueError(f"direction must be horizontal/vertical, got {self.direction!r}")
        check_positive("pitch_um", self.pitch_um)

    def tracks_in(self, span_um: float) -> float:
        """Number of routing tracks of this layer crossing a span of ``span_um``."""
        return span_um / self.pitch_um


@dataclass(frozen=True)
class Technology:
    """A simplified process technology.

    Attributes
    ----------
    name:
        Technology name.
    site_width_um / site_height_um:
        Standard-cell placement site dimensions (row height equals site height).
    routing_layers:
        Metal stack available to the global router, lowest layer first.
    """

    name: str
    site_width_um: float
    site_height_um: float
    routing_layers: Tuple[RoutingLayer, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_positive("site_width_um", self.site_width_um)
        check_positive("site_height_um", self.site_height_um)
        if not self.routing_layers:
            raise ValueError("a technology needs at least one routing layer")

    @property
    def horizontal_layers(self) -> List[RoutingLayer]:
        return [layer for layer in self.routing_layers if layer.direction == "horizontal"]

    @property
    def vertical_layers(self) -> List[RoutingLayer]:
        return [layer for layer in self.routing_layers if layer.direction == "vertical"]

    def horizontal_capacity(self, bin_height_um: float) -> float:
        """Total horizontal routing tracks available across a bin of given height."""
        return sum(layer.tracks_in(bin_height_um) for layer in self.horizontal_layers)

    def vertical_capacity(self, bin_width_um: float) -> float:
        """Total vertical routing tracks available across a bin of given width."""
        return sum(layer.tracks_in(bin_width_um) for layer in self.vertical_layers)


def nangate45() -> Technology:
    """A NanGate-45nm-like technology with a six-layer routing stack.

    Pitches follow the open-cell-library order of magnitude; exact values are
    unimportant because the reproduction only uses relative capacities.
    """
    layers = (
        RoutingLayer("metal2", "horizontal", pitch_um=0.19),
        RoutingLayer("metal3", "vertical", pitch_um=0.19),
        RoutingLayer("metal4", "horizontal", pitch_um=0.28),
        RoutingLayer("metal5", "vertical", pitch_um=0.28),
        RoutingLayer("metal6", "horizontal", pitch_um=0.56),
        RoutingLayer("metal7", "vertical", pitch_um=0.56),
    )
    return Technology(
        name="nangate45",
        site_width_um=0.19,
        site_height_um=1.4,
        routing_layers=layers,
    )
