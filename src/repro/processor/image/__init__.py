"""Functional model of the paper's pattern-recognition image processor.

The test chip (Section VII, Fig. 10) "performs feature extraction and
classification by using gradient feature vectors in a windowed frame":
pixels are scanned into on-chip memory, gradient features are extracted,
formed into window vectors, and classified.  A 64x64 frame takes about
15 ms at 0.5 V.

This package implements that pipeline *functionally* -- Sobel gradients,
windowed gradient-orientation histograms, nearest-centroid
classification -- together with a cycle-accounting model, so that the
energy experiments run on cycle counts produced by real computation and
the examples have an actual application to show.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.processor.image.frames import FrameGenerator, synthetic_frame
    from repro.processor.image.features import GradientField, sobel_gradients
    from repro.processor.image.vectors import window_feature_vectors
    from repro.processor.image.classifier import NearestCentroidClassifier
    from repro.processor.image.pipeline import ImageProcessor, RecognitionResult

__all__ = [
    "FrameGenerator",
    "synthetic_frame",
    "GradientField",
    "sobel_gradients",
    "window_feature_vectors",
    "NearestCentroidClassifier",
    "ImageProcessor",
    "RecognitionResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.processor.image.frames": ("FrameGenerator", "synthetic_frame"),
        "repro.processor.image.features": ("GradientField", "sobel_gradients"),
        "repro.processor.image.vectors": ("window_feature_vectors",),
        "repro.processor.image.classifier": ("NearestCentroidClassifier",),
        "repro.processor.image.pipeline": (
            "ImageProcessor", "RecognitionResult",
        ),
    },
)
