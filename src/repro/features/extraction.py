"""Feature extraction for routability estimation.

Following the paper (Section 4.4) and the earlier works it cites (RouteNet,
PROS), the features capture cell density (including routing blockage /
macro information) and wire density (RUDY, fly lines, pin connectivity),
rasterized on the same ``w x h`` grid as the DRC hotspot labels.

The extractor returns channel-first tensors ``(C, H, W)`` ready for the
convolutional models in :mod:`repro.models`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eda import maps as map_ext
from repro.eda.placement import Placement
from repro.eda.routing import CongestionModelConfig, estimate_congestion
from repro.utils.validation import check_choice

MapBuilder = Callable[[Placement, Dict[str, np.ndarray]], np.ndarray]


def _from_analysis(key: str) -> MapBuilder:
    def build(placement: Placement, analysis: Dict[str, np.ndarray]) -> np.ndarray:
        return analysis[key]

    return build


def _congestion_feature(key: str) -> MapBuilder:
    def build(placement: Placement, analysis: Dict[str, np.ndarray]) -> np.ndarray:
        congestion = estimate_congestion(placement, CongestionModelConfig(), analysis)
        return congestion[key]

    return build


#: All feature maps the extractor knows how to build.
FEATURE_BUILDERS: Dict[str, MapBuilder] = {
    "cell_density": _from_analysis("cell_density"),
    "macro": _from_analysis("macro"),
    "pin_density": _from_analysis("pin_density"),
    "rudy": _from_analysis("rudy"),
    "rudy_horizontal": _from_analysis("rudy_horizontal"),
    "rudy_vertical": _from_analysis("rudy_vertical"),
    "flylines": _from_analysis("flylines"),
    "congestion_horizontal": _congestion_feature("congestion_horizontal"),
    "congestion_vertical": _congestion_feature("congestion_vertical"),
}

#: The default feature stack used throughout the reproduction (7 channels:
#: cell-density features + wire-density features, per Section 4.4).
DEFAULT_FEATURES: Tuple[str, ...] = (
    "cell_density",
    "macro",
    "pin_density",
    "rudy",
    "rudy_horizontal",
    "rudy_vertical",
    "flylines",
)

_NORMALIZATIONS = ("none", "per_sample", "log1p")


def available_features() -> List[str]:
    """Names of all feature maps the extractor can compute."""
    return sorted(FEATURE_BUILDERS)


class FeatureExtractor:
    """Builds stacked feature tensors from placements.

    Parameters
    ----------
    feature_names:
        Ordered channels to extract; defaults to :data:`DEFAULT_FEATURES`.
    normalization:
        ``"per_sample"`` (default) scales each channel by its own maximum so
        every channel lies in [0, 1]; ``"log1p"`` applies ``log(1+x)`` before
        per-sample scaling (useful for heavy-tailed maps such as pin density);
        ``"none"`` returns raw physical values.
    """

    def __init__(
        self,
        feature_names: Optional[Sequence[str]] = None,
        normalization: str = "per_sample",
    ):
        names = tuple(feature_names) if feature_names is not None else DEFAULT_FEATURES
        unknown = [name for name in names if name not in FEATURE_BUILDERS]
        if unknown:
            raise ValueError(f"unknown feature names {unknown}; available: {available_features()}")
        if not names:
            raise ValueError("at least one feature must be requested")
        check_choice("normalization", normalization, _NORMALIZATIONS)
        self.feature_names: Tuple[str, ...] = names
        self.normalization = normalization

    @property
    def num_channels(self) -> int:
        return len(self.feature_names)

    def extract(
        self,
        placement: Placement,
        analysis_maps: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Extract the feature tensor ``(C, H, W)`` for one placement."""
        analysis = analysis_maps if analysis_maps is not None else map_ext.all_maps(placement)
        channels = []
        for name in self.feature_names:
            raw = np.asarray(FEATURE_BUILDERS[name](placement, analysis), dtype=np.float64)
            channels.append(self._normalize(raw))
        return np.stack(channels, axis=0)

    def _normalize(self, channel: np.ndarray) -> np.ndarray:
        if self.normalization == "none":
            return channel
        values = np.log1p(np.maximum(channel, 0.0)) if self.normalization == "log1p" else channel
        peak = float(np.max(np.abs(values)))
        if peak <= 1e-12:
            return np.zeros_like(values)
        return values / peak

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureExtractor(features={list(self.feature_names)}, "
            f"normalization={self.normalization!r})"
        )
