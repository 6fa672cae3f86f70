from .encode_stage import EncodeShard, add_salt_column, row_fingerprints

__all__ = ["EncodeShard", "add_salt_column", "row_fingerprints"]
