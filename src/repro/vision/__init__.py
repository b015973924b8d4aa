"""Vision substrates: RoI extraction, simulated DNN inference, metrics.

The paper's prototype runs OpenCV's CUDA MOG2 background subtractor on the
edge and a Yolov8x detector inside GPU serverless functions.  Neither a GPU
nor the pretrained models are available here, so this package provides:

* a from-scratch Stauffer-Grimson adaptive Gaussian-mixture background
  subtractor operating on rendered frames (:mod:`repro.vision.gmm`);
* analytic RoI extractors that emulate the recall/precision profiles of the
  four extraction methods compared in Table IV
  (:mod:`repro.vision.roi_extractors`);
* a simulated Yolov8x whose accuracy model reproduces the resolution
  mismatch penalty of Fig. 4(b) and whose latency model is calibrated to
  the paper's measured inference times (:mod:`repro.vision.detector`);
* detection metrics -- IoU matching, precision/recall, AP@0.5
  (:mod:`repro.vision.metrics`).
"""

from repro.vision.gmm import GaussianMixtureBackgroundSubtractor, mask_to_boxes
from repro.vision.roi_extractors import (
    AnalyticRoIExtractor,
    ExtractorProfile,
    EXTRACTOR_PROFILES,
    make_extractor,
)
from repro.vision.detector import (
    DetectorLatencyModel,
    SimulatedDetector,
    resolution_accuracy_curve,
)
from repro.vision.metrics import Detection, average_precision, match_detections, precision_recall

__all__ = [
    "GaussianMixtureBackgroundSubtractor",
    "mask_to_boxes",
    "AnalyticRoIExtractor",
    "ExtractorProfile",
    "EXTRACTOR_PROFILES",
    "make_extractor",
    "DetectorLatencyModel",
    "SimulatedDetector",
    "resolution_accuracy_curve",
    "Detection",
    "average_precision",
    "match_detections",
    "precision_recall",
]
