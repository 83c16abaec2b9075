"""Episodic-memory reranking for temporal video localization candidates.

The pipeline refines the top-k segments of a base grounding model: each
candidate is cut into clips, narrated by a pluggable multimodal backend
into an episodic memory, and the best-matching candidate is promoted.
Ordered step queries additionally pass through an exact dynamic program
enforcing a non-decreasing start-time prior. Everything is scored with
recall@k at IoU thresholds.
"""

__version__ = "0.1.0"
