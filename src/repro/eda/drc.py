"""Rule-based DRC hotspot labeling.

This module plays the role of the detailed router plus design-rule checker in
the paper's flow: given a placement it produces the ground-truth binary DRC
hotspot map ``Y in {0, 1}^(w x h)``.

The labeling rule combines the physical quantities that actually drive DRC
violations — routing overflow, local cell density, pin-access pressure, and
macro-boundary effects — through a smooth nonlinear scoring function with a
spatial neighbourhood (violations appear near, not only inside, congested
bins), suite-specific sensitivities (the source of client heterogeneity), and
a small amount of noise (DRC outcomes are not perfectly predictable from
placement-stage features).  The top quantile of the score becomes the hotspot
label.

The two neighbourhood operations are NumPy kernels that give the bits of the
SciPy calls they replace, so every label (and so every corpus digest) is the
one SciPy produced: :func:`_dilate_cross` is
``scipy.ndimage.binary_dilation(mask, iterations=1)`` and
:func:`_smooth_nearest` is ``scipy.ndimage.gaussian_filter(values, sigma,
mode="nearest")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.eda import maps as map_ext
from repro.eda.benchmarks import DrcSensitivity
from repro.eda.placement import Placement
from repro.eda.routing import estimate_congestion
from repro.utils.rng import new_rng


def _dilate_cross(mask: np.ndarray) -> np.ndarray:
    """A boolean map OR-ed with its four edge neighbours, outside the map False.

    ``scipy.ndimage.binary_dilation(mask, iterations=1)`` with its default
    cross structure and zero border: a boolean OR has no rounding, so the
    bits agree.
    """
    grown = mask.copy()
    grown[1:, :] |= mask[:-1, :]
    grown[:-1, :] |= mask[1:, :]
    grown[:, 1:] |= mask[:, :-1]
    grown[:, :-1] |= mask[:, 1:]
    return grown


def _smooth_nearest(values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of a 2-D map, edge values repeated outward.

    The bits of ``scipy.ndimage.gaussian_filter(values, sigma,
    mode="nearest")``: the weights come from the expression of SciPy's
    ``_gaussian_kernel1d`` with radius ``int(4.0 * sigma + 0.5)``, axis 0 is
    filtered before axis 1, and each output adds exactly what ndimage's
    symmetric ``correlate1d`` adds, in its order -- the centre times the
    middle weight, then each mirrored pair's sum times its weight, outermost
    pair first.  ``sigma <= 1e-15`` returns a copy, as SciPy does.
    """
    if sigma <= 1e-15:
        return np.array(values, dtype=np.float64)
    smoothed = np.asarray(values, dtype=np.float64)
    radius = int(4.0 * float(sigma) + 0.5)
    sigma2 = sigma * sigma
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / sigma2 * offsets ** 2)
    weights = weights / weights.sum()
    for axis in (0, 1):
        lines = np.moveaxis(smoothed, axis, 0)
        size = lines.shape[0]
        padded = np.pad(lines, ((radius, radius), (0, 0)), mode="edge")
        acc = padded[radius : radius + size] * weights[radius]
        for step in range(radius, 0, -1):
            left = padded[radius - step : radius - step + size]
            right = padded[radius + step : radius + step + size]
            acc += (left + right) * weights[radius - step]
        smoothed = np.moveaxis(acc, 0, axis)
    return smoothed


@dataclass
class DrcResult:
    """Output of the DRC labeler for one placement."""

    score: np.ndarray
    hotspots: np.ndarray
    hotspot_fraction: float
    analysis_maps: Dict[str, np.ndarray]


class DrcHotspotLabeler:
    """Generates ground-truth DRC hotspot maps from placements."""

    def __init__(self, label_seed: int = 0):
        """Create a labeler whose label noise is seeded by ``label_seed``.

        Congestion comes from the probabilistic model of
        :mod:`repro.eda.routing`, the one source the corpus is labelled with.
        """
        self.label_seed = int(label_seed)

    def label(
        self,
        placement: Placement,
        sensitivity: Optional[DrcSensitivity] = None,
        precomputed_maps: Optional[Dict[str, np.ndarray]] = None,
    ) -> DrcResult:
        """Compute the hotspot score and binary label map for ``placement``."""
        style = placement.design.style
        coeffs = sensitivity if sensitivity is not None else style.drc

        analysis = precomputed_maps if precomputed_maps is not None else map_ext.all_maps(placement)
        congestion = estimate_congestion(placement, precomputed_maps=analysis)

        overflow = congestion["overflow"]
        congestion_ratio = congestion["congestion"]
        cell_density = analysis["cell_density"]
        pin_density = analysis["pin_density"]
        macro = analysis["macro"]

        pin_norm = pin_density / (pin_density.mean() + 1e-9)

        # Macro boundary: bins adjacent to (but not inside) macros suffer from
        # blockage-related violations.
        macro_presence = macro > 0.25
        macro_boundary = (_dilate_cross(macro_presence) & ~macro_presence).astype(np.float64)

        # Nonlinear combination with interactions; squared terms make dense
        # bins disproportionately risky, and products couple congestion with
        # pin access the way real DRC violations couple them.
        score = (
            coeffs.congestion_weight * np.power(congestion_ratio, 1.5)
            + coeffs.density_weight * np.power(np.clip(cell_density, 0.0, 2.0), 2.0)
            + coeffs.pin_weight * np.tanh(0.5 * pin_norm)
            + coeffs.interaction_weight * congestion_ratio * np.tanh(0.5 * pin_norm)
            + coeffs.macro_weight * macro_boundary * (0.5 + congestion_ratio)
            + 2.0 * overflow
        )

        # Violations spill into neighbouring bins: smooth the score so the
        # label depends on a spatial neighbourhood, rewarding models with a
        # large receptive field (the paper's motivation for FLNet's 9x9 kernels).
        score = _smooth_nearest(score, coeffs.smoothing_sigma)

        rng = new_rng(
            np.random.SeedSequence(
                [self.label_seed, placement.design.seed, placement.config.seed & 0x7FFFFFFF]
            )
        )
        noisy = score + rng.normal(0.0, coeffs.noise_sigma * (score.std() + 1e-9), size=score.shape)

        threshold = np.quantile(noisy, coeffs.hotspot_quantile)
        hotspots = (noisy > threshold).astype(np.float64)
        # Guarantee at least one hotspot and at least one cold bin so ROC AUC
        # is always defined for the placement.
        if hotspots.sum() == 0:
            hotspots.flat[np.argmax(noisy)] = 1.0
        if hotspots.sum() == hotspots.size:
            hotspots.flat[np.argmin(noisy)] = 0.0

        return DrcResult(
            score=score,
            hotspots=hotspots,
            hotspot_fraction=float(hotspots.mean()),
            analysis_maps=analysis,
        )

