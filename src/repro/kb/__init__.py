"""Knowledge-base substrate: labelled graph, schema, the compiled read view,
durable store and compiled-plane checkpoints."""

from repro.kb.checkpoint import checkpoint_info, load_checkpoint, save_checkpoint
from repro.kb.compiled import CompiledKB, compile_kb
from repro.kb.graph import Edge, KnowledgeBase, NeighborEntry
from repro.kb.schema import EntityType, RelationType, Schema, default_entertainment_schema
from repro.kb.store import KnowledgeBaseStore

__all__ = [
    "CompiledKB",
    "compile_kb",
    "Edge",
    "KnowledgeBase",
    "NeighborEntry",
    "EntityType",
    "RelationType",
    "Schema",
    "default_entertainment_schema",
    "KnowledgeBaseStore",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_info",
]
