"""Client-side cost model (browser rendering + network communication).

Fig. 3 of the paper attributes most of the end-to-end latency to
"Communication + Rendering": the time to ship the JSON chunks to the browser
plus the time mxGraph needs to create one DOM object per node/edge.  The real
browser is unavailable in this reproduction, so the client is simulated with a
calibrated linear cost model:

* communication cost = per-request latency + bytes / bandwidth (per chunk);
* rendering cost = fixed canvas setup + per-object DOM creation cost.

The default constants are calibrated so that a ~400-object window (the largest
windows in Fig. 3) lands in the couple-of-seconds range, matching the paper's
reported magnitudes; what matters for reproduction is that the cost is linear
in the number of objects and dominates the DB time, which the model guarantees
by construction — mirroring the real system's behaviour rather than measuring a
browser we do not have.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.streaming import PayloadChunk

__all__ = ["ClientCostModel", "RenderedFrame"]


@dataclass(frozen=True)
class ClientCostModel:
    """Linear cost model for the simulated browser client.

    Attributes
    ----------
    request_latency_s:
        Fixed round-trip latency charged once per streamed chunk.
    bandwidth_bytes_per_s:
        Network bandwidth used to convert chunk sizes into transfer time.
    per_object_render_s:
        DOM-object creation cost charged per node and per edge.
    frame_setup_s:
        Fixed cost per window refresh (canvas clearing, layout of the DOM tree).
    """

    request_latency_s: float = 0.010
    bandwidth_bytes_per_s: float = 2_000_000.0
    per_object_render_s: float = 0.004
    frame_setup_s: float = 0.020

    def communication_seconds(self, chunks: list[PayloadChunk]) -> float:
        """Time to stream all chunks to the client.

        Chunk sizes come from :attr:`PayloadChunk.byte_size`, the same count
        a window answer reports as ``meta.total_bytes``.
        """
        if not chunks:
            return self.request_latency_s
        total_bytes = sum(chunk.byte_size for chunk in chunks)
        return len(chunks) * self.request_latency_s + total_bytes / self.bandwidth_bytes_per_s

    def rendering_seconds(self, num_objects: int) -> float:
        """Time for the browser to render ``num_objects`` visual objects."""
        return self.frame_setup_s + num_objects * self.per_object_render_s

    def total_seconds(self, chunks: list[PayloadChunk], num_objects: int) -> float:
        """Combined communication + rendering time (the Fig. 3 series)."""
        return self.communication_seconds(chunks) + self.rendering_seconds(num_objects)


@dataclass(frozen=True)
class RenderedFrame:
    """The outcome of rendering one window on the simulated canvas."""

    num_nodes: int
    num_edges: int
    num_chunks: int
    bytes_received: int
    communication_seconds: float
    rendering_seconds: float

    @property
    def num_objects(self) -> int:
        """Total rendered objects."""
        return self.num_nodes + self.num_edges

    @property
    def client_seconds(self) -> float:
        """Communication plus rendering time."""
        return self.communication_seconds + self.rendering_seconds
