"""Simulated Yolov8x detector: accuracy and latency models.

The reproduction cannot run the real 68.2M-parameter Yolov8x, so this
module models the two properties the evaluation depends on:

**Accuracy.**  The probability that an annotated object is detected depends
on (a) the object's contrast (scene difficulty, calibrated so full-frame AP
per scene lands near Table III), (b) the object's size *as presented to the
network* -- downsizing a 4K frame to 480P shrinks a 90-pixel pedestrian to
20 pixels and the detector misses it, which is the downsize curve of
Fig. 4(b) -- and (c) a train/inference resolution-mismatch penalty, which is
the upsize curve of Fig. 4(b).  Detections carry confidences so AP@0.5 can
be computed with the standard protocol.

**Latency.**  Function execution time grows with the total pixel area of
the batch, sub-linearly in the batch size (batching amortises kernel launch
and memory traffic), plus a fixed per-invocation overhead (input decode,
serverless runtime, result serialisation).  The constants are calibrated so
that per-batch latencies and per-scene costs land in the ranges the paper
reports (Fig. 8, Fig. 14(a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box
from repro.vision.metrics import Detection

#: Frame heights of the resolutions compared in Fig. 4(b).
RESOLUTION_HEIGHTS = {
    "4K": 2160,
    "2K": 1440,
    "1080P": 1080,
    "720P": 720,
    "480P": 480,
}


#: The share of an object's area that one region must cover for the
#: object to reach the cloud model with it.
COVERAGE_THRESHOLD = 0.5


def visible_objects(
    objects: Iterable[GroundTruthObject], regions: Sequence[Box]
) -> List[GroundTruthObject]:
    """The objects of positive area that a single region of ``regions``
    covers by at least :data:`COVERAGE_THRESHOLD` of their area, in input
    order.

    This is the one rule for what a region carries: an object cut between
    two regions is lost even when together they cover all of it, which is
    what Table III charges finer partitions for.
    """
    visible: List[GroundTruthObject] = []
    for obj in objects:
        box = obj.box
        area = box.area
        if area <= 0:
            continue
        if any(
            box.intersection_area(region) / area >= COVERAGE_THRESHOLD for region in regions
        ):
            visible.append(obj)
    return visible


@dataclass(frozen=True)
class DetectorLatencyModel:
    """Execution-time model for batched DNN inference.

    ``latency = invocation_overhead + per_canvas_overhead * batch_size
    + per_megapixel * total_megapixels ** pixel_exponent``

    with optional multiplicative log-normal jitter.  Two presets are
    provided: :meth:`serverless` (GPU function instance, includes the
    invocation overhead the billing model charges for) and :meth:`iaas`
    (a resident RTX-4090-class server process, no invocation overhead,
    faster per-pixel throughput) used for the Fig. 2(b) motivation
    experiment.
    """

    invocation_overhead: float = 0.027
    per_canvas_overhead: float = 0.005
    per_megapixel: float = 0.055
    pixel_exponent: float = 0.9
    jitter_cv: float = 0.06

    @classmethod
    def serverless(cls) -> "DetectorLatencyModel":
        """GPU serverless function instance (2 vCPU / 4 GB / 6 GB GPU)."""
        return cls()

    @classmethod
    def iaas(cls) -> "DetectorLatencyModel":
        """Resident GPU server used in the motivation study (Fig. 2(b))."""
        return cls(
            invocation_overhead=0.008,
            per_canvas_overhead=0.0003,
            per_megapixel=0.040,
            pixel_exponent=0.92,
            jitter_cv=0.08,
        )

    def mean_latency(self, batch_size: int, total_pixels: float) -> float:
        """Expected execution time in seconds (no jitter)."""
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if batch_size == 0:
            return 0.0
        megapixels = max(0.0, total_pixels) / 1e6
        return (
            self.invocation_overhead
            + self.per_canvas_overhead * batch_size
            + self.per_megapixel * megapixels**self.pixel_exponent
        )

    def sample_latency(
        self,
        batch_size: int,
        total_pixels: float,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Draw one execution time with log-normal jitter."""
        mean = self.mean_latency(batch_size, total_pixels)
        if rng is None or self.jitter_cv <= 0 or mean == 0.0:
            return mean
        sigma = math.sqrt(math.log(1.0 + self.jitter_cv**2))
        mu = -0.5 * sigma**2
        return mean * float(rng.lognormal(mean=mu, sigma=sigma))


@dataclass(frozen=True)
class DetectorAccuracyModel:
    """Parameters of the detection-probability model."""

    #: Frame height the model was trained at (2160 for the "4K" Yolov8x,
    #: 480 for the "480P" variant of Fig. 4(b)).
    train_height: int = 2160
    #: Upper bound on detection probability for an ideal object; the
    #: low-resolution model has a lower ceiling (less spatial detail to
    #: learn from).
    quality_ceiling: float = 0.97
    #: Minimum reliably detectable object height, expressed in pixels at
    #: the training resolution (anchors scale with the training data).
    min_height_at_train: float = 17.0
    #: Softness of the logistic size roll-off.
    height_softness_at_train: float = 7.5
    #: Strength of the penalty for feeding inputs whose effective scale is
    #: larger than the training scale (the "upsize" curve of Fig. 4(b)).
    upsize_penalty: float = 0.065
    #: Weight of the object's contrast attribute in detection probability.
    contrast_weight: float = 0.85
    #: Expected false positives per processed megapixel.
    false_positives_per_megapixel: float = 0.12

    @classmethod
    def yolov8x_4k(cls) -> "DetectorAccuracyModel":
        return cls(train_height=2160, quality_ceiling=0.97)

    @classmethod
    def yolov8x_480p(cls) -> "DetectorAccuracyModel":
        return cls(
            train_height=480,
            quality_ceiling=0.78,
            min_height_at_train=8.0,
            height_softness_at_train=4.0,
        )


class SimulatedDetector:
    """A stochastic stand-in for Yolov8x inference.

    Parameters
    ----------
    accuracy:
        The accuracy model (training resolution, size roll-off, mismatch
        penalty).
    latency:
        The latency model used when callers ask for execution times.
    streams:
        Random stream factory; detection sampling uses the
        ``"detector/<train_height>"`` stream.
    """

    def __init__(
        self,
        accuracy: Optional[DetectorAccuracyModel] = None,
        latency: Optional[DetectorLatencyModel] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.accuracy = accuracy or DetectorAccuracyModel.yolov8x_4k()
        self.latency = latency or DetectorLatencyModel.serverless()
        self.streams = streams or RandomStreams(0)
        self.rng = self.streams.get(f"detector/{self.accuracy.train_height}")

    # ------------------------------------------------------------ probability
    def detection_probability(
        self, obj: GroundTruthObject, input_scale: float = 1.0
    ) -> float:
        """Probability of detecting ``obj`` when the image region containing
        it is presented at ``input_scale`` times its native 4K size."""
        model = self.accuracy
        if input_scale <= 0:
            return 0.0
        effective_height = obj.box.height * input_scale
        # The size roll-off is defined at the training resolution: a model
        # trained on 480P frames has learned to find 10-pixel people.
        train_scale = model.train_height / 2160.0
        min_height = model.min_height_at_train
        softness = model.height_softness_at_train
        # Express the presented height in "training-scale pixels".
        presented = effective_height
        size_term = 1.0 / (1.0 + math.exp(-(presented - min_height) / softness))

        # Upsize mismatch: the presented scale relative to what the model
        # was trained on; only penalise inputs *larger* than training.
        relative = input_scale / train_scale
        if relative > 1.0:
            mismatch = math.exp(-model.upsize_penalty * math.log2(relative) ** 2)
        else:
            mismatch = 1.0

        contrast_term = (1.0 - model.contrast_weight) + model.contrast_weight * obj.contrast
        probability = model.quality_ceiling * size_term * mismatch * contrast_term
        return float(np.clip(probability, 0.0, 1.0))

    # ----------------------------------------------------------------- detect
    def detect_objects(
        self,
        objects: Sequence[GroundTruthObject],
        frame_id: int = 0,
        input_scale: float = 1.0,
        processed_pixels: Optional[float] = None,
        frame_bounds: Optional[Tuple[float, float]] = None,
    ) -> List[Detection]:
        """Produce detections for the objects visible in one inference input.

        Parameters
        ----------
        objects:
            Ground-truth objects contained in the processed image region.
        frame_id:
            Frame identifier stamped onto the detections for evaluation.
        input_scale:
            Scale factor applied to the region before inference (1.0 when
            patches are stitched without resizing, < 1 when a frame is
            downsized to the model's input resolution).
        processed_pixels:
            Total pixel area processed, used to draw false positives; when
            omitted, the sum of the object areas is used (i.e. effectively
            no background false positives).
        frame_bounds:
            ``(width, height)`` of the native frame, used to place false
            positives; defaults to 4K.
        """
        detections: List[Detection] = []
        for obj in objects:
            probability = self.detection_probability(obj, input_scale)
            if self.rng.random() > probability:
                continue
            jitter = 0.03
            dx = float(self.rng.normal(0.0, jitter * obj.box.width))
            dy = float(self.rng.normal(0.0, jitter * obj.box.height))
            dw = float(self.rng.normal(1.0, jitter))
            dh = float(self.rng.normal(1.0, jitter))
            box = Box(
                obj.box.x + dx,
                obj.box.y + dy,
                max(2.0, obj.box.width * abs(dw)),
                max(2.0, obj.box.height * abs(dh)),
            )
            confidence = float(
                np.clip(self.rng.normal(0.35 + 0.6 * probability, 0.08), 0.05, 0.999)
            )
            detections.append(
                Detection(
                    box=box,
                    confidence=confidence,
                    frame_id=frame_id,
                    source_object_id=obj.object_id,
                )
            )
        detections.extend(
            self._false_positives(frame_id, processed_pixels, frame_bounds)
        )
        return detections

    def _false_positives(
        self,
        frame_id: int,
        processed_pixels: Optional[float],
        frame_bounds: Optional[Tuple[float, float]],
    ) -> List[Detection]:
        if processed_pixels is None or processed_pixels <= 0:
            return []
        rate = self.accuracy.false_positives_per_megapixel * processed_pixels / 1e6
        count = int(self.rng.poisson(rate))
        if count == 0:
            return []
        width_bound, height_bound = frame_bounds or (3840.0, 2160.0)
        results: List[Detection] = []
        for _ in range(count):
            w = float(self.rng.uniform(15, 120))
            h = float(self.rng.uniform(30, 220))
            x = float(self.rng.uniform(0, max(1.0, width_bound - w)))
            y = float(self.rng.uniform(0, max(1.0, height_bound - h)))
            confidence = float(np.clip(self.rng.normal(0.28, 0.09), 0.05, 0.8))
            results.append(
                Detection(
                    box=Box(x, y, w, h),
                    confidence=confidence,
                    frame_id=frame_id,
                    source_object_id=None,
                )
            )
        return results

    # ------------------------------------------------------------- region API
    def detect_in_regions(
        self,
        frame: Frame,
        regions: Sequence[Box],
        frame_id: Optional[int] = None,
        input_scale: float = 1.0,
    ) -> List[Detection]:
        """Detect only the objects :func:`visible_objects` finds in
        ``regions``.

        Objects that the RoI extraction / partitioning step did not include
        in any transmitted region can never be detected by the cloud model;
        this is the mechanism behind the accuracy loss of RoI-based
        baselines (Fig. 2(a)) and of aggressive partitioning (Table III).
        """
        visible = visible_objects(frame.objects, regions)
        processed = sum(region.area for region in regions)
        return self.detect_objects(
            visible,
            frame_id=frame.frame_index if frame_id is None else frame_id,
            input_scale=input_scale,
            processed_pixels=processed,
            frame_bounds=(frame.width, frame.height),
        )

    def detect_full_frame(
        self, frame: Frame, input_scale: float = 1.0, frame_id: Optional[int] = None
    ) -> List[Detection]:
        """Detect over the whole frame (the Full Frame baseline)."""
        return self.detect_objects(
            list(frame.objects),
            frame_id=frame.frame_index if frame_id is None else frame_id,
            input_scale=input_scale,
            processed_pixels=frame.area * input_scale**2,
            frame_bounds=(frame.width, frame.height),
        )


def resolution_accuracy_curve(
    frames: Iterable[Frame],
    train_resolution: str = "4K",
    eval_resolutions: Optional[Sequence[str]] = None,
    streams: Optional[RandomStreams] = None,
) -> dict[str, float]:
    """Reproduce the Fig. 4(b) experiment.

    Every frame is "resized" to each evaluation resolution (which scales
    the objects presented to the detector) and scored with AP@0.5 against
    the native ground truth.  Returns ``{resolution: AP}``.
    """
    from repro.vision.metrics import average_precision

    if train_resolution not in RESOLUTION_HEIGHTS:
        raise KeyError(f"unknown resolution {train_resolution!r}")
    resolutions = list(eval_resolutions or RESOLUTION_HEIGHTS)
    accuracy = (
        DetectorAccuracyModel.yolov8x_4k()
        if RESOLUTION_HEIGHTS[train_resolution] >= 1080
        else DetectorAccuracyModel.yolov8x_480p()
    )
    frames = list(frames)
    results: dict[str, float] = {}
    for resolution in resolutions:
        if resolution not in RESOLUTION_HEIGHTS:
            raise KeyError(f"unknown resolution {resolution!r}")
        scale = RESOLUTION_HEIGHTS[resolution] / 2160.0
        detector = SimulatedDetector(
            accuracy=accuracy,
            streams=(streams or RandomStreams(11)).spawn(f"res/{train_resolution}/{resolution}"),
        )
        detections: List[Detection] = []
        ground_truth: List[Tuple[int, Box]] = []
        for frame in frames:
            detections.extend(detector.detect_full_frame(frame, input_scale=scale))
            ground_truth.extend((frame.frame_index, obj.box) for obj in frame.objects)
        results[resolution] = average_precision(detections, ground_truth)
    return results
