"""Network substrate: encoding size models and bandwidth-limited links.

The paper connects Jetson edge devices to the cloud over a consumer Wi-Fi
router and dials the uplink to 20/40/80 Mbps for the end-to-end
experiments.  This package models (a) how many bytes each transmission
strategy puts on the wire -- full frames, masked frames, cropped patches --
and (b) how long those bytes take to serialise over a bandwidth-limited
link, including FIFO queueing when several patches share one uplink.
"""

from repro.network.encoding import FrameEncoder, EncodingModel
from repro.network.link import Uplink, TransmissionRecord

__all__ = [
    "FrameEncoder",
    "EncodingModel",
    "Uplink",
    "TransmissionRecord",
]
