"""Discrete-event simulation substrate used by the Tangram reproduction.

The end-to-end experiments in the paper run on a physical testbed (Jetson
edge device, Wi-Fi link, GPU cloud server, Alibaba Function Compute).  This
package provides the discrete-event engine that every substituted substrate
(network link, serverless platform, edge camera) is built on.

Public surface:

* :class:`~repro.simulation.engine.Simulator` -- the event loop.
* :class:`~repro.simulation.events.Event` -- a scheduled callback.
* :class:`~repro.simulation.resources.Resource` -- a FIFO server with a
  fixed concurrency, used to model GPU function instances and links.
* :class:`~repro.simulation.random_streams.RandomStreams` -- named,
  independently seeded random generators so experiments are reproducible.
"""

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventQueue
from repro.simulation.resources import Resource
from repro.simulation.random_streams import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "Resource",
    "RandomStreams",
]
