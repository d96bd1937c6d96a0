"""Client simulator: replays user interactions and measures end-to-end latency.

This is the piece that turns :class:`~repro.core.query_manager.WindowQueryResult`
objects (server-side timings) into the full Fig. 3 breakdown by adding the
simulated Communication + Rendering component of :class:`ClientCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.query_manager import QueryManager, WindowQueryResult
from ..core.session import ExplorationSession
from ..spatial.geometry import Rect
from .canvas import ClientCostModel, RenderedFrame

__all__ = ["InteractionTiming", "ClientSimulator"]


@dataclass(frozen=True)
class InteractionTiming:
    """The Fig. 3 latency breakdown for one window query.

    All times are in seconds; ``num_objects`` is the secondary axis
    ("Nodes + Edges") of the figure.
    """

    db_query_seconds: float
    json_build_seconds: float
    communication_rendering_seconds: float
    num_objects: int
    num_nodes: int
    num_edges: int
    bytes_transferred: int
    filter_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end time (the "Total Time" series of Fig. 3)."""
        return (
            self.db_query_seconds
            + self.filter_seconds
            + self.json_build_seconds
            + self.communication_rendering_seconds
        )

    def as_dict(self) -> dict[str, float | int]:
        """Return the breakdown as a flat dictionary (used by the bench reporters)."""
        return {
            "db_query_seconds": self.db_query_seconds,
            "filter_seconds": self.filter_seconds,
            "json_build_seconds": self.json_build_seconds,
            "communication_rendering_seconds": self.communication_rendering_seconds,
            "total_seconds": self.total_seconds,
            "num_objects": self.num_objects,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "bytes_transferred": self.bytes_transferred,
        }


class ClientSimulator:
    """Wraps a query manager (or session) with the client cost model."""

    def __init__(
        self,
        query_manager: QueryManager,
        cost_model: ClientCostModel | None = None,
    ) -> None:
        self.query_manager = query_manager
        self.cost_model = cost_model or ClientCostModel()

    # ------------------------------------------------------------ single query

    def execute_window(self, window: Rect, layer: int = 0) -> InteractionTiming:
        """Run one window query and return the full latency breakdown."""
        result = self.query_manager.window_query(window, layer=layer)
        return self.account(result)

    def account(self, result: WindowQueryResult) -> InteractionTiming:
        """Attach client-side costs to an existing server-side result."""
        frame = self.render(result)
        return InteractionTiming(
            db_query_seconds=result.db_query_seconds,
            filter_seconds=result.filter_seconds,
            json_build_seconds=result.json_build_seconds,
            communication_rendering_seconds=frame.client_seconds,
            num_objects=result.num_objects,
            num_nodes=len(result.payload.nodes),
            num_edges=len(result.payload.edges),
            bytes_transferred=frame.bytes_received,
        )

    def render(self, result: WindowQueryResult) -> RenderedFrame:
        """Simulate streaming + rendering of one window-query result."""
        chunks = result.chunks
        communication = self.cost_model.communication_seconds(chunks)
        rendering = self.cost_model.rendering_seconds(result.num_objects)
        return RenderedFrame(
            num_nodes=len(result.payload.nodes),
            num_edges=len(result.payload.edges),
            num_chunks=len(chunks),
            bytes_received=result.total_bytes,
            communication_seconds=communication,
            rendering_seconds=rendering,
        )

    # -------------------------------------------------------------- trace replay

    def replay_session_trace(
        self, session: ExplorationSession, trace: list[dict[str, object]]
    ) -> list[InteractionTiming]:
        """Replay a list of interactions against a session and time each one.

        Each trace entry is a dictionary with an ``op`` key: ``"pan"`` (dx, dy),
        ``"zoom"`` (factor), ``"layer"`` (layer), ``"focus"`` (node_id) or
        ``"refresh"``.  Unknown operations raise ``ValueError`` so broken traces
        fail loudly.
        """
        timings: list[InteractionTiming] = []
        for entry in trace:
            operation = str(entry.get("op", ""))
            if operation == "pan":
                result = session.pan(float(entry["dx"]), float(entry["dy"]))
            elif operation == "zoom":
                result = session.zoom(float(entry["factor"]))
            elif operation == "layer":
                result = session.change_layer(int(entry["layer"]))
            elif operation == "focus":
                result = session.focus_on(int(entry["node_id"]))
            elif operation == "refresh":
                result = session.refresh()
            else:
                raise ValueError(f"unknown trace operation {operation!r}")
            timings.append(self.account(result))
        return timings
