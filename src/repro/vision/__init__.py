"""Vision substrates: RoI extraction, simulated DNN inference, metrics.

The paper's prototype runs OpenCV's CUDA MOG2 background subtractor on the
edge and a Yolov8x detector inside GPU serverless functions.  Neither a GPU
nor the pretrained models are available here, so this package provides:

* analytic RoI extractors that emulate the recall/precision profiles of the
  four extraction methods compared in Table IV; the ``gmm`` profile stands
  in for MOG2, and no frame is rendered to pixels
  (:mod:`repro.vision.roi_extractors`);
* a simulated Yolov8x whose accuracy model reproduces the resolution
  mismatch penalty of Fig. 4(b) and whose latency model is calibrated to
  the paper's measured inference times (:mod:`repro.vision.detector`);
* detection metrics -- IoU matching, precision/recall, AP@0.5
  (:mod:`repro.vision.metrics`).
"""

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
