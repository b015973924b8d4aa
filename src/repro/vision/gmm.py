"""Stauffer-Grimson adaptive Gaussian mixture background subtraction.

This is a from-scratch, vectorised numpy implementation of the classic
per-pixel mixture-of-Gaussians background model (Stauffer & Grimson, CVPR
1999), the algorithm behind OpenCV's ``BackgroundSubtractorMOG2`` that the
paper runs on the Jetson edge device.

Every pixel maintains ``num_gaussians`` components ``(weight, mean, var)``.
For each new frame:

1. a pixel matches a component when the intensity lies within
   ``match_threshold`` standard deviations of its mean;
2. matched components are updated toward the observation with learning
   rate ``learning_rate``; unmatched component weights decay;
3. if no component matches, the weakest component is replaced by a new one
   centred on the observation with a large variance;
4. components are ranked by ``weight / sigma``; the highest-ranked
   components whose cumulative weight exceeds ``background_ratio`` form the
   background model, and a pixel is foreground when its matched component
   is not among them (or when nothing matched).

The module also provides :func:`mask_to_boxes`, which turns the binary
foreground mask into RoI bounding boxes via connected-component labelling,
the step the paper performs before Algorithm 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from scipy import ndimage

from repro.video.geometry import Box, merge_overlapping

#: 8-connected structuring element shared by dilation and labelling; built
#: once at import instead of per :func:`mask_to_boxes` call.
_STRUCTURE_8: np.ndarray = np.ones((3, 3), dtype=bool)


class GaussianMixtureBackgroundSubtractor:
    """Adaptive per-pixel mixture-of-Gaussians background model.

    Parameters
    ----------
    num_gaussians:
        Number of mixture components per pixel (the classic paper uses 3-5).
    learning_rate:
        Alpha in Stauffer-Grimson; controls how quickly the background
        adapts.  Higher values absorb stationary objects faster.
    match_threshold:
        Match distance in standard deviations (2.5 in the original paper).
    background_ratio:
        Minimum cumulative weight of components considered background.
    initial_variance:
        Variance assigned to newly created components.
    min_variance:
        Lower bound on component variance to keep matching stable.
    """

    def __init__(
        self,
        num_gaussians: int = 3,
        learning_rate: float = 0.02,
        match_threshold: float = 2.5,
        background_ratio: float = 0.8,
        initial_variance: float = 225.0,
        min_variance: float = 4.0,
    ) -> None:
        if num_gaussians < 1:
            raise ValueError("num_gaussians must be at least 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < background_ratio <= 1:
            raise ValueError("background_ratio must be in (0, 1]")
        self.num_gaussians = num_gaussians
        self.learning_rate = learning_rate
        self.match_threshold = match_threshold
        self.background_ratio = background_ratio
        self.initial_variance = initial_variance
        self.min_variance = min_variance
        self._weights: Optional[np.ndarray] = None  # (K, H, W)
        self._means: Optional[np.ndarray] = None
        self._variances: Optional[np.ndarray] = None
        #: Reusable per-frame work buffers, allocated once in
        #: :meth:`_initialise`; :meth:`apply` runs almost entirely with
        #: in-place ufuncs (``out=`` / ``where=``) instead of rebuilding
        #: ~15 ``(K, H, W)`` temporaries per frame.
        self._buffers: Dict[str, np.ndarray] = {}
        self.frames_seen = 0

    # ------------------------------------------------------------------ state
    @property
    def is_initialised(self) -> bool:
        return self._weights is not None

    def _initialise(self, frame: np.ndarray) -> None:
        height, width = frame.shape
        k = self.num_gaussians
        self._weights = np.zeros((k, height, width), dtype=np.float32)
        self._means = np.zeros((k, height, width), dtype=np.float32)
        self._variances = np.full(
            (k, height, width), self.initial_variance, dtype=np.float32
        )
        # Seed the first component with the first frame.
        self._weights[0] = 1.0
        self._means[0] = frame
        shape = (k, height, width)
        self._buffers = {
            "sigma": np.empty(shape, dtype=np.float32),
            "diff": np.empty(shape, dtype=np.float32),
            "work": np.empty(shape, dtype=np.float32),
            "rank": np.empty(shape, dtype=np.float32),
            "matches": np.empty(shape, dtype=bool),
            "bool_work": np.empty(shape, dtype=bool),
            "is_best": np.empty(shape, dtype=bool),
            "bg_sorted": np.empty(shape, dtype=bool),
            "bg_flags": np.empty(shape, dtype=bool),
            "best": np.empty((height, width), dtype=np.intp),
            "weakest": np.empty((height, width), dtype=np.intp),
            "any_match": np.empty((height, width), dtype=bool),
            "no_match": np.empty((height, width), dtype=bool),
            "weight_sum": np.empty((height, width), dtype=np.float32),
            "k_index": np.arange(k, dtype=np.intp).reshape(k, 1, 1),
        }

    # ------------------------------------------------------------------ apply
    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Update the model with ``frame`` and return the foreground mask.

        Parameters
        ----------
        frame:
            Grayscale image, shape ``(H, W)``, values in [0, 255].

        Returns
        -------
        numpy.ndarray
            Boolean mask of foreground pixels, shape ``(H, W)``.
        """
        frame = np.asarray(frame, dtype=np.float32)
        if frame.ndim != 2:
            raise ValueError(f"expected a grayscale (H, W) frame, got {frame.shape}")
        if not self.is_initialised:
            self._initialise(frame)
            self.frames_seen = 1
            return np.zeros(frame.shape, dtype=bool)

        weights = self._weights
        means = self._means
        variances = self._variances
        assert weights is not None and means is not None and variances is not None
        buf = self._buffers
        sigma = buf["sigma"]
        diff = buf["diff"]
        work = buf["work"]
        rank = buf["rank"]
        matches = buf["matches"]
        bool_work = buf["bool_work"]
        is_best = buf["is_best"]
        best = buf["best"]
        any_match = buf["any_match"]
        no_match = buf["no_match"]
        k_index = buf["k_index"]
        frame_k = frame[None, :, :]

        np.sqrt(variances, out=sigma)
        np.subtract(frame_k, means, out=diff)
        np.abs(diff, out=work)  # |frame - mean|
        np.multiply(sigma, self.match_threshold, out=rank)  # rank as scratch
        np.less_equal(work, rank, out=matches)  # (K, H, W)

        # Only the best-matching (highest weight/sigma among matching)
        # component is updated, per the original formulation.
        np.maximum(sigma, 1e-6, out=sigma)
        np.divide(weights, sigma, out=rank)
        np.logical_not(matches, out=bool_work)
        np.copyto(rank, -np.inf, where=bool_work)
        np.argmax(rank, axis=0, out=best)  # (H, W)
        np.any(matches, axis=0, out=any_match)

        np.equal(k_index, best[None, :, :], out=is_best)
        np.logical_and(is_best, any_match[None, :, :], out=is_best)

        alpha = self.learning_rate
        # Weight update: w <- (1 - alpha) w + alpha * ownership.
        weights *= 1.0 - alpha
        np.add(weights, alpha, out=weights, where=is_best)

        # Mean / variance update for the owning component.
        rho = alpha  # The standard simplification rho = alpha.
        np.multiply(diff, rho, out=work)
        np.add(means, work, out=means, where=is_best)
        np.multiply(diff, diff, out=work)
        np.subtract(work, variances, out=work)
        np.multiply(work, rho, out=work)
        np.add(variances, work, out=variances, where=is_best)
        np.maximum(variances, self.min_variance, out=variances)

        # Replace the weakest component where nothing matched.
        np.logical_not(any_match, out=no_match)
        if np.any(no_match):
            weakest = buf["weakest"]
            np.argmin(weights, axis=0, out=weakest)
            replace = is_best  # is_best is dead from here on; reuse it
            np.equal(k_index, weakest[None, :, :], out=replace)
            np.logical_and(replace, no_match[None, :, :], out=replace)
            np.copyto(means, frame_k, where=replace)
            np.copyto(variances, self.initial_variance, where=replace)
            np.copyto(weights, 0.05, where=replace)

        # Renormalise weights.
        weight_sum = buf["weight_sum"]
        np.sum(weights, axis=0, out=weight_sum)
        np.maximum(weight_sum, 1e-6, out=weight_sum)
        np.divide(weights, weight_sum[None, :, :], out=weights)

        # Determine which components form the background (rank by
        # weight / sigma, descending).
        np.sqrt(variances, out=sigma)
        np.maximum(sigma, 1e-6, out=sigma)
        np.divide(weights, sigma, out=rank)
        np.negative(rank, out=rank)
        order = np.argsort(rank, axis=0)
        sorted_weights = np.take_along_axis(weights, order, axis=0)
        np.cumsum(sorted_weights, axis=0, out=work)
        # Component ranks 0..b are background where cumulative (exclusive)
        # is still below the ratio.
        background_sorted = buf["bg_sorted"]
        background_sorted[0] = True  # exclusive cumsum 0 < ratio (ratio > 0)
        np.less(work[:-1], self.background_ratio, out=background_sorted[1:])
        # Map back to original component order.
        background_flags = buf["bg_flags"]
        background_flags.fill(False)
        np.put_along_axis(background_flags, order, background_sorted, axis=0)

        matched_is_background = np.take_along_axis(
            background_flags, best[None, :, :], axis=0
        )[0]
        # foreground = no_match | (any_match & ~matched_is_background);
        # built in the freshly allocated take_along_axis result, which the
        # caller then owns.
        foreground = matched_is_background
        np.logical_not(foreground, out=foreground)
        np.logical_and(foreground, any_match, out=foreground)
        np.logical_or(foreground, no_match, out=foreground)

        self.frames_seen += 1
        return foreground


def mask_to_boxes(
    mask: np.ndarray,
    min_area: float = 4.0,
    dilation_iterations: int = 1,
    merge_touching: bool = True,
) -> List[Box]:
    """Convert a boolean foreground mask into RoI bounding boxes.

    Connected components are extracted with an 8-connected structuring
    element after an optional binary dilation (which joins fragmented
    blobs, as morphological post-processing does in real pipelines).
    Components smaller than ``min_area`` pixels are discarded as noise.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be two-dimensional")
    if dilation_iterations > 0:
        mask = ndimage.binary_dilation(
            mask, structure=_STRUCTURE_8, iterations=dilation_iterations
        )
    labels, count = ndimage.label(mask, structure=_STRUCTURE_8)
    boxes: List[Box] = []
    if count == 0:
        return boxes
    slices = ndimage.find_objects(labels)
    for slc in slices:
        if slc is None:
            continue
        rows, cols = slc
        height = rows.stop - rows.start
        width = cols.stop - cols.start
        if height * width < min_area:
            continue
        boxes.append(Box(float(cols.start), float(rows.start), float(width), float(height)))
    if merge_touching and len(boxes) > 1:
        boxes = merge_overlapping(boxes)
    return boxes
