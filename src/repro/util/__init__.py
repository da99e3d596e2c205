"""Small shared utilities: id generation.

These helpers are deliberately dependency-free so every other subpackage can
use them without import cycles.
"""

from repro.util.ids import IdGenerator, fresh_id

__all__ = ["IdGenerator", "fresh_id"]
