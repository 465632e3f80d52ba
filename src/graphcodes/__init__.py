"""Johnson/Hamming graph codes, layered regenerating codes, and a storage simulator."""

from graphcodes.field import FieldSpec, field_make

__all__ = ["FieldSpec", "field_make"]
