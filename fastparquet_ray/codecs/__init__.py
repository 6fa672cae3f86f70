"""Lightweight columnar codec kernels (numpy-vectorized, no Cython).

Int codecs (intcodec, ids 0-9): PLAIN / FOR+bit-pack / RLE hybrid /
  DICT / DELTA / PFOR / DICT2 (decode-only) / FOR64 / ZRANK / ZRANKS
  (ZRANK over a plan-shared rank table)
String codecs (strcodec, ids 16-18): PLAIN / DICT / FSST
Primitives: varint, zigzag, Parquet-spec bit-pack, RLE/bit-pack hybrid.

Reference semantics: /root/reference/fastparquet/cencoding.pyx (RLE,
bit-pack, varint, delta), writer.py (dict pages), encoding.py (PLAIN).
"""

from .bitpack import bit_width, pack_bits, unpack_bits
from .rle import rle_decode, rle_encode
from .varint import decode_uvarint, encode_uvarint, zigzag_decode, zigzag_encode

__all__ = [
    "bit_width",
    "pack_bits",
    "unpack_bits",
    "rle_encode",
    "rle_decode",
    "encode_uvarint",
    "decode_uvarint",
    "zigzag_encode",
    "zigzag_decode",
]
