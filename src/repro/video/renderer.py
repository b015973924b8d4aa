"""Rasterisation of annotated frames into numpy images.

The pixel-level substrate (the Stauffer-Grimson background subtractor)
needs actual image data.  The renderer draws each annotated frame at a
configurable, usually reduced, resolution: a static textured background
plus per-object rectangles whose intensity offset is controlled by the
object's ``contrast`` attribute, plus sensor noise.  That is enough signal
for background modelling to behave the way it does on real footage --
high-contrast moving objects segment well, small or low-contrast ones get
missed.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.video.geometry import Box


class FrameRenderer:
    """Render frames of one scene to grayscale ``float32`` images.

    Parameters
    ----------
    frame_width, frame_height:
        Native (4K) dimensions of the frames being rendered.
    render_width, render_height:
        Output raster size.  Vision algorithms in this reproduction run at
        reduced resolution (e.g. 480x270) to keep runtimes tractable; the
        geometric pipeline always works in native coordinates.
    noise_std:
        Standard deviation of per-pixel Gaussian sensor noise (0-255 scale).
    background_level:
        Mean background intensity.
    seed:
        Seed for the static background texture and the per-frame noise.
    """

    def __init__(
        self,
        frame_width: int = 3840,
        frame_height: int = 2160,
        render_width: int = 480,
        render_height: int = 270,
        noise_std: float = 2.0,
        background_level: float = 110.0,
        seed: int = 7,
    ) -> None:
        if render_width <= 0 or render_height <= 0:
            raise ValueError("render dimensions must be positive")
        self.frame_width = frame_width
        self.frame_height = frame_height
        self.render_width = render_width
        self.render_height = render_height
        self.noise_std = noise_std
        self.background_level = background_level
        self._streams = RandomStreams(seed)
        self._background = self._build_background()

    @property
    def scale_x(self) -> float:
        return self.render_width / self.frame_width

    @property
    def scale_y(self) -> float:
        return self.render_height / self.frame_height

    def _build_background(self) -> np.ndarray:
        """A smooth, static background texture (buildings, road, sky)."""
        rng = self._streams.get("background")
        coarse = rng.normal(
            self.background_level,
            18.0,
            size=(self.render_height // 8 + 1, self.render_width // 8 + 1),
        )
        # Upsample the coarse texture with simple repetition + smoothing to
        # get large-scale structure without any image-library dependency.
        background = np.kron(coarse, np.ones((8, 8)))[
            : self.render_height, : self.render_width
        ]
        kernel = np.ones(5) / 5.0
        background = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 1, background
        )
        background = np.apply_along_axis(
            lambda col: np.convolve(col, kernel, mode="same"), 0, background
        )
        return background.astype(np.float32)

    def scale_box(self, box: Box) -> Box:
        """Convert a native-resolution box to raster coordinates."""
        return Box(
            box.x * self.scale_x,
            box.y * self.scale_y,
            max(1.0, box.width * self.scale_x),
            max(1.0, box.height * self.scale_y),
        )

    def unscale_box(self, box: Box) -> Box:
        """Convert a raster-coordinate box back to native resolution."""
        return Box(
            box.x / self.scale_x,
            box.y / self.scale_y,
            box.width / self.scale_x,
            box.height / self.scale_y,
        )

    def render(self, frame: Frame, noise: bool = True) -> np.ndarray:
        """Rasterise ``frame`` to a ``(render_height, render_width)`` image."""
        image = self._background.copy()
        for obj in frame.objects:
            raster_box = self.scale_box(obj.box).to_int()
            x0 = int(np.clip(raster_box.x, 0, self.render_width - 1))
            y0 = int(np.clip(raster_box.y, 0, self.render_height - 1))
            x1 = int(np.clip(raster_box.x2, x0 + 1, self.render_width))
            y1 = int(np.clip(raster_box.y2, y0 + 1, self.render_height))
            # Contrast maps to an intensity offset from the background; a
            # deterministic per-object sign keeps the same object brighter
            # or darker across frames, as real clothing is.
            sign = 1.0 if obj.object_id % 2 == 0 else -1.0
            offset = sign * (20.0 + 80.0 * obj.contrast)
            image[y0:y1, x0:x1] = np.clip(
                self.background_level + offset, 0.0, 255.0
            )
        if noise and self.noise_std > 0:
            rng = self._streams.get("sensor-noise")
            image = image + rng.normal(0.0, self.noise_std, size=image.shape)
        return np.clip(image, 0.0, 255.0).astype(np.float32)
