"""Encoder stability for the frame-of-reference and rank-code codecs.

FOR_BP, FOR64, PFOR and DELTA share one miniblock pack/unpack, and
ZRANK and ZRANKS one framed code stream. Shards written by any earlier
version must stay byte-identical, so these tests pin the sha256 of each
codec's blob on seeded inputs that reach every branch of the shared
kernels (every dtype id, empty, a partial last miniblock, zero-width,
one-width and mixed-width blocks, blocks wider than 32 bits, PFOR
patches, wide DELTA bodies, shared-table extras, u16 and u32 code
streams of several frames), and round-trip every blob with and without
``take=``. The one-frame code stream of ids 8 and 9 is decode-only: its
blobs are rebuilt here from the same ranks and pinned too.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from fastparquet_ray.codecs import intcodec as ic
from fastparquet_ray.codecs.varint import decode_uvarint, encode_uvarint


def _cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261019)
    cases = {}
    for dt in ("<i4", "<i8", "<u4", "<u8", "<i2", "<u2", "<i1", "<u1"):
        info = np.iinfo(dt)
        lo, hi = max(int(info.min), -(2**20)), min(int(info.max), 2**20)
        cases[f"dtype-{np.dtype(dt).name}"] = rng.integers(
            lo, hi, 2500, endpoint=True
        ).astype(dt)
    cases["int32-full-range"] = rng.integers(
        -(2**31), 2**31 - 1, 3000, endpoint=True
    ).astype(np.int32)
    cases["empty"] = np.array([], np.int32)
    cases["single"] = np.array([-7], np.int64)
    cases["one-block"] = rng.integers(0, 300, 1024).astype(np.int32)
    cases["partial-tail"] = rng.integers(-50, 50, 1025).astype(np.int64)
    cases["zero-width"] = np.full(3000, -9, np.int64)
    cases["one-width"] = rng.integers(512, 1024, 4096).astype(np.int32)
    cases["mixed-widths"] = np.concatenate(
        [
            rng.integers(0, 4, 2048),
            rng.integers(0, 2**20, 2048),
            np.full(1024, 5),
            rng.integers(0, 2**12, 300),
        ]
    ).astype(np.int32)
    cases["wider-than-32"] = np.concatenate(
        [
            rng.integers(-(2**62), 2**62, 2048),
            rng.integers(0, 100, 2048),
            np.full(1024, -5),
            rng.integers(-(2**40), 2**40, 100),
        ]
    ).astype(np.int64)
    cases["timestamps"] = (
        1_700_000_000_000_000 + rng.integers(0, 30 * 86_400_000_000, 5000)
    ).astype(np.int64)
    pf = rng.integers(0, 16, 6000)
    pf[rng.random(6000) < 0.01] = rng.integers(2**16, 2**20, 1)
    cases["pfor-exceptions"] = pf.astype(np.int32)
    cases["delta-sorted"] = np.cumsum(rng.integers(0, 1000, 4000)).astype(np.int64)
    cases["delta-wide"] = np.cumsum(
        rng.integers(-(2**40), 2**40, 4000)
    ).astype(np.int64)
    cases["zipf-tokens"] = rng.zipf(1.3, 40_000).clip(1, 5000).astype(np.int32)
    cases["wide-vocab"] = rng.permutation(70_000).astype(np.int64)
    cases["long-tokens"] = rng.zipf(1.3, 300_000).clip(1, 20_000).astype(np.int32)
    return cases


CASES = _cases()


def _shared_table(v: np.ndarray):
    """A rank table trained on the first quarter of ``v``, so the rest
    of ``v`` carries extras."""
    rt = ic.RankTable(ic.train_rank_table(v[: v.size // 4]))
    h = rt.table_hash()
    return rt, h, {h: rt.serialize()}


def _codes_at(blob: bytes) -> int:
    """Offset of a ZRANK/ZRANKS blob's code stream."""
    n, pos = decode_uvarint(blob, 2)
    if blob[0] in (9, 11):
        pos += 16  # shared table's md5
    tsize, pos = decode_uvarint(blob, pos)
    return pos + tsize * ic._DTYPES[blob[1]].itemsize


def legacy_blob(blob: bytes) -> bytes:
    """The id-8/9 blob of a ZRANK/ZRANKS (id 10/11) blob: the same
    header, table and codes, the codes interleaved in one zstd frame,
    [width u8][varint zlen][zstd codes], as earlier versions wrote."""
    n, _ = decode_uvarint(blob, 2)
    v1 = bytes([blob[0] - 2]) + blob[1:]
    if n == 0:
        return v1
    pos = _codes_at(blob)
    width = blob[pos]
    codes = ic._read_codes(blob, pos, n).astype(f"<u{width}").tobytes()
    z = pa.Codec("zstd", compression_level=3).compress(codes, asbytes=True)
    return v1[:pos] + bytes([width]) + encode_uvarint(len(z)) + z


def _encode(codec: str, v: np.ndarray) -> tuple[bytes, dict | None]:
    if codec.endswith("_v1"):
        blob, tables = _encode(codec[:-3], v)
        return legacy_blob(blob), tables
    if codec == "zranks":
        rt, h, tables = _shared_table(v)
        return ic.encode_zrank_shared(v, rt, h), tables
    return ic.INT_ENCODERS[codec](v), None


CODECS = (
    "for_bp", "for64", "pfor", "delta", "zrank", "zranks", "zrank_v1",
    "zranks_v1",
)

# sha256 of each blob: the bytes existing shards hold, which no
# refactor may change; "ValueError" marks an input the codec refuses.
# zrank_v1/zranks_v1 are the id-8/9 bytes of shards written before the
# code stream was framed.
DIGESTS = {
    "for_bp/delta-sorted": "de3190ef61e5eee76a66fcf4f84cd01d9a6420a3dac52deefead4335cb1a0c03",
    "for_bp/delta-wide": "ValueError",
    "for_bp/dtype-int16": "2b00fc8b4c4a97995577609662187ede833705abb38b727dba822b345662a805",
    "for_bp/dtype-int32": "51de6cfac51050ea861475bc8f4402bc6b8f87a6dd60af3a355270b1dafcc1be",
    "for_bp/dtype-int64": "b3acade5456af75acfe72f8c81adbf9e8db68b5f8b1d5e94c0eb6383c9d5c949",
    "for_bp/dtype-int8": "d3fb2fd4cb4c191fd47b662525090b6e1b0864f6e6eb14f7e2c67192e6f3cbcc",
    "for_bp/dtype-uint16": "2ca4ea2223e23360b42be944705c8ece9cf95ad95ab0a052ee1444272ddcfe50",
    "for_bp/dtype-uint32": "2a5327186ff9ad69ba52a4ac37e90b5b058a1f1ca2393f0c406d5b841b556d85",
    "for_bp/dtype-uint64": "ValueError",
    "for_bp/dtype-uint8": "2ca6351b8f95733cb4a2eae8097afe65cfbc2a62d85bdb1c7038907b75699ce8",
    "for_bp/empty": "9f44ac6acb8a37b00b615dc89259d306035be82dee7db2b472e4c48326195440",
    "for_bp/int32-full-range": "274b87a414c63c06cd6dd7ecf51fa68a194ffb9dc429a23c0948b3191791941b",
    "for_bp/long-tokens": "3a7d9ee78013ec8f3fcc3cce60e7e5953674a53bf631460c81fb119298931857",
    "for_bp/mixed-widths": "f94ca5776f567d32d700293d93a181a1b7cc5ff7eac756e4fd54758e64239f8a",
    "for_bp/one-block": "cdd746569eb56b56f57633630372c566a2d113f73297c7d2f22bb4a27d3763df",
    "for_bp/one-width": "4d1db8100eedb06bb386168275f16f555d5dcd35adf11c4148170a84abcb54c9",
    "for_bp/partial-tail": "d19870566dee170539e0b84a9caa3d6dfaa77ca2d68168f829001b2c81aa8a39",
    "for_bp/pfor-exceptions": "5a4370d454363bff0caaa7b0a0e99298a1def3b1c69b974b17b89ab038636761",
    "for_bp/single": "3bb54d1e1e3b75378a282e047bc56f96764130bad8fdee4d44c1eb20426fe490",
    "for_bp/timestamps": "ValueError",
    "for_bp/wide-vocab": "6cebd88d5cb1821058125ccf59de7dddc45e93d6909d88d6cb20717f8088996f",
    "for_bp/wider-than-32": "ValueError",
    "for_bp/zero-width": "36348cd70d2047ab4331a96507e69d6f58eaf9cc126b662aa684e87e03ccd838",
    "for_bp/zipf-tokens": "689ac2ead326e3279c438bb94cc681a2fa02d73be53bc9ffb066343706f0b349",
    "for64/delta-sorted": "b23278a309ff0583f40bd8b72ea69e95b6202dc9d8d5864014b1efb52f7e3728",
    "for64/delta-wide": "f62c8ef24f0e25cba4386f7b445ae56508a66b57f62526b8c562fcb6818f5c2d",
    "for64/dtype-int16": "84a68277fa0a8305a724a5e9781235eb916db78f2d4d3e0a842174bc479ceeca",
    "for64/dtype-int32": "c46f85266e865013cdd0612b87ac7449eceafbbf8275e26623092eeb53a1d0d2",
    "for64/dtype-int64": "1f63857d896667902a6ca3523985110445f183166bac942045a16e56a5ab8b43",
    "for64/dtype-int8": "334d425890ff1d2f405cbce05432b5b3814ed4fd59e60c20d97324a465d94017",
    "for64/dtype-uint16": "92c8fa31380f0549a7f659619c2ea5c498a0cc4a20fc3f76bf28990fb8e218d9",
    "for64/dtype-uint32": "8a1f549eaf983c3b7d2b4578df8a1f30de732dba45774eef154d7f91e655b8d8",
    "for64/dtype-uint64": "ValueError",
    "for64/dtype-uint8": "2b802cb82714b04a501891b1b452bd6c6e91a8e9ab960cb0ac6bc920265c3551",
    "for64/empty": "5f03650ec3578a2e318a11cc2bc83d4af2529893529822eb90e678c64c523efd",
    "for64/int32-full-range": "1584932153c0c96089479a3e540b21fafc8bd5f06bbc2d00bd9175b498ca6d5f",
    "for64/long-tokens": "1f052544d6a22c28199bca22ea99f5168d22d75633791910309cbf583daa3756",
    "for64/mixed-widths": "34a907c17072c5fb1b7f9ded00c11dfec9b8fec2a26f75439e1db38dced75218",
    "for64/one-block": "620530205dccab4b4d3191d757a44c139a7f48246a0c4ad2e5e83b4a292440b6",
    "for64/one-width": "1c460be9c42709459f0fa85036448f441f3b3d3f68ccd284164912484c639c6b",
    "for64/partial-tail": "595a8f665861e96669296ef78360a0edec147459f151856fb01c8290c8d50976",
    "for64/pfor-exceptions": "fd670fbb82ce011091ede038b04a4606efd256f8cb97c8760006f1f391f9c326",
    "for64/single": "b1d6b79bc2b12cb2bce2206c00894d72bb48815769ae1335b11203e5855b0ab3",
    "for64/timestamps": "87b0107fff405ea2ba3eda39cde7029a9a4e255824c07ec864fd1f38a0aa9164",
    "for64/wide-vocab": "a125b9ee542f8dc5ecc322980323cbc0b2ff5dd89e3c16123b59cdea0c502364",
    "for64/wider-than-32": "1a0e32b5d92b61183e5d7c0293f310630b72b1a4e3aacc9eb3744db5b1ac3817",
    "for64/zero-width": "ffe7d3336c074d0e08cd07198d0c8474dc3f2e58301b47d1addc7d9d1c674292",
    "for64/zipf-tokens": "02a165dde88b6d47255f14ab2892aa9d9837603976d1dd560f4b08b4c9640b04",
    "pfor/delta-sorted": "7f17fbfe8ecdb0411e61a93d75530107c77590953dcef174a6123e93b13dec17",
    "pfor/delta-wide": "ValueError",
    "pfor/dtype-int16": "4d461ae264d74657fce961e57af8282d7dbf3b1693dc69493124b2b316d9e58c",
    "pfor/dtype-int32": "4f54ee24d266755c9a8596d9b6ae026d26c26b13270c63c0c0e4f3783473d6d9",
    "pfor/dtype-int64": "fcdefff72e364c0a2cf599d6a9dfabaf6a0e69979a2aef66fcdb0c6101e0d4d1",
    "pfor/dtype-int8": "65bdbf895c60482ea5b75a1a931f5899be0cc536e4b05e9bbd0ffabcb19271eb",
    "pfor/dtype-uint16": "00a41ea5ebb3b617c3f84a33c50aacd461f3827d50530df2e853c64279ad7d71",
    "pfor/dtype-uint32": "be55f0338020689358e8cf58f195bc27f6d532f85e6d123cbe7467c892d51a63",
    "pfor/dtype-uint64": "ValueError",
    "pfor/dtype-uint8": "a5ab3909d528f2e6c904d2462cab66527cd9930b78688b2ab7d0e82b9cd2b521",
    "pfor/empty": "da075e9d699084fc189cdd233081c49f74df331a5eb414438cb3cfa9f19aedd9",
    "pfor/int32-full-range": "c1f142098f9245a5687ff0bfac2e20044bea338fd75bcd0ce0a970ec213c7d62",
    "pfor/long-tokens": "056e988080c1ebf5987a67d0dc6647853900f6450790f4c4d2dc020abab6f8a7",
    "pfor/mixed-widths": "5a8a757cb89810b7f799612094460b34181b28f5775f870f40921d57fd80c5cc",
    "pfor/one-block": "33c18aaf5cebb1c66be56e9628aa428b7dfceca40b1517178fd4645f8bf86054",
    "pfor/one-width": "5bc6b533639bce5247abfb2a61fa7c17618c77864afeb86f72fcd9bca9f7b1d0",
    "pfor/partial-tail": "aa08045fb47160ef05066073a74ae11229fb5d799f97aec69f1f1a88633e9cb3",
    "pfor/pfor-exceptions": "905e2ffcbd9f8740a21ed9b61fb9e1d5738d473c668ddd0f63b6d8716975c2e7",
    "pfor/single": "dd148881c9b6d932ce38989b334181cf0bb57b25c32a73ee05b419c6f55fca7f",
    "pfor/timestamps": "ValueError",
    "pfor/wide-vocab": "7d52860037b9c5a3754a0ac343238b744e7413c7f9cee2649454631f323a4433",
    "pfor/wider-than-32": "ValueError",
    "pfor/zero-width": "3add3bd175371d5e05a513ad2dee237b466571ff5304de24f47a834b0b5cc3f0",
    "pfor/zipf-tokens": "bd23980171f0bada651f6207c1c3f4e5b50953fdb574eba6da42875084f0217c",
    "delta/delta-sorted": "727e7c645cdd7ca2f3e2de3dbbcb6917cbac9f770b822cd1f693e1cd90777eef",
    "delta/delta-wide": "cbc5dbd847f53a9e163ae8593c492d0c8631ee82d95fecbafe9669d9bd862a57",
    "delta/dtype-int16": "9b9bf16f048db87b81db78578e810f1ff637249b6ecf6e1978df36d0fd96a615",
    "delta/dtype-int32": "8ee5e5a5ab958d2613a871ca0845887fe0aa74ad467cf407ccc3d97aa600f023",
    "delta/dtype-int64": "c8d63f9afd9d5fc7056df5f3aa95830c644a052bc9e51872845d5c726a812d8c",
    "delta/dtype-int8": "09363f3c464f99918e89d29b6e4bbac4dd5ec2dd6fb9a6b2d5c999c64e05c792",
    "delta/dtype-uint16": "e3b0d4d1d254158992fcb6ea9f3d5b06ce6d19e9fc3d24de7b91b54078049eaa",
    "delta/dtype-uint32": "125d3ba302dd0701ec3785c9c82d5c90212d3000bb55699941bf239e83757150",
    "delta/dtype-uint64": "ValueError",
    "delta/dtype-uint8": "fe9dde05082fad8e319ebe0d08e58b57c5c101a573a16f8142d013e3a60d3878",
    "delta/empty": "2161e03fd85f605a173a26727b20d33e3159462e7fd969c5c95c1a57a986e45b",
    "delta/int32-full-range": "bf9ba1165b59760d36d71066ecd15a6fb07de4b74bbe729cc5aa9b137c0cc613",
    "delta/long-tokens": "71e1d1345f38d65b7daf33f56f2fa736e120d1665fdc6a50f57ad6e25deeada5",
    "delta/mixed-widths": "766977a97282dc3b990d01fa2eb7f7870637f0e441595a95a38074320f62b920",
    "delta/one-block": "ec79f9f1bb55a10d9ff293fdfc99ce9aabe50af4a11bb691a790a784e9ea3c03",
    "delta/one-width": "b5d0f12606b5c72afbc310a13fc0cfddeb3ca9d600b38a73ca8ec92aa5d02803",
    "delta/partial-tail": "48ba7870b50b90014922e47beb6ab6cce6d70f9fee51aa562e1b9f49480c07e9",
    "delta/pfor-exceptions": "a9be7ad89fe1fcb2ce70b5c9617c7bb7ae12b71d684490f88b1d5261a5f6e942",
    "delta/single": "2c5c98ee4da44d77975874ab8d0b17835d3c2fd9188248a529ce04a26d57f306",
    "delta/timestamps": "e3f8fa173fd259ae13013af093b70ccc17c25739d3cff0a646ff5017641993ca",
    "delta/wide-vocab": "aed360ebc3606220fcf557bfcef72feee5bb30b9dc17c737e6dd9c2e734048b1",
    "delta/wider-than-32": "587503794ffe87d967234c841e62554a0be30580ddd3e2f6bc52742a4cf611a0",
    "delta/zero-width": "174b67a19e790201ed36477716d1b9146237914ef5a938ffbea71b3e505af564",
    "delta/zipf-tokens": "9a363d3da320fd78dcd4fe2a44b4420f6b8f7bb984d4429b3dd2b559b618ba72",
    "zrank/delta-sorted": "183e748355070a7855c8d78d3bc1b4722d90a73f3ba007aedef6fa8159a45f9a",
    "zrank/delta-wide": "bd13cd70b18b4c2017095f52bb6c6f15b826586c6665b86e1d406230c8d1e60a",
    "zrank/dtype-int16": "1133c48246856e5b9ad44bc3792e44f9a94b2536df87d0bb3fbd906bad581a50",
    "zrank/dtype-int32": "2963d2620066219c939e8f38c7271cd250c96eeba599efdda70c050ce1987770",
    "zrank/dtype-int64": "57f2849697c4a1dfe7191cf0b124b8dc73d40afacf7373673a314e7f910ed2fc",
    "zrank/dtype-int8": "9571a18c5809773452396d19e8aee8dd5e0f0715c9c8e9d91499b1df6ad62503",
    "zrank/dtype-uint16": "6e33ed5f072d13bdaf4908b47de9cb643c671a73c3edd246f9291edc807b320c",
    "zrank/dtype-uint32": "27366c9f95e0f1a55848d6bbfa865dacebcac6ac34a732423edac2e4f463128c",
    "zrank/dtype-uint64": "c046220aa84633d08114ad2af08c3188552337cfec5f1e39c798e729ad9e1cb7",
    "zrank/dtype-uint8": "dd6ae8b66854ad3fe2bd0881b89c0d25e9b2b318d0ec9a253d8f58cd413b4afb",
    "zrank/empty": "9707028ef5b742d1f316f185622f8cd9397c332e9511c5ce72e50fc79f341d00",
    "zrank/int32-full-range": "2cda4926785b96efd9931c6484e8b64a1197d7ede6f1c13322da48c7df40fd6e",
    "zrank/long-tokens": "2b983dd0e3976c8ac935e6ed5e1b1aab91db16c3815da397969da365960ec08b",
    "zrank/mixed-widths": "91ec502afe11cc0dd0449a3a5067691b083beeb214f243a5e27c8274a443485f",
    "zrank/one-block": "109afcf463599dfc4933dacc81f43d63b824ff33ebdfb6f0c7993da1971d1bfb",
    "zrank/one-width": "5ce4741417e9a769db5d76fb1f141c70d53d9617911a62bac9e996c0382e1a54",
    "zrank/partial-tail": "6477b8e198d2db41988fcdc56cab2ef22adcb2e5518c1d491c06ccd726ca337a",
    "zrank/pfor-exceptions": "fe397033ea4eec4bc7424e68ab6e703b1ea9c0e13295bc6aed2aa39f974de696",
    "zrank/single": "f0d4c949c5430d773c22e778c99433afb0bc7a830c498aea289f1808085ed75b",
    "zrank/timestamps": "13e70b312be67f5c423b26be310139b65a84c94c21b28604440d26c10310fc2f",
    "zrank/wide-vocab": "9c87b469e9e3f25bede235d1fa0a1c830dade58ab787ddf43ac8cdd74213c4a2",
    "zrank/wider-than-32": "fd22b3cdb8ef46f936a73317b916d0fe3b3e3275ad6809f89b12cea8473168d8",
    "zrank/zero-width": "07488eb6d2f2692b43d2afbe5d1f5fd1816e4a29fe4fc6788a8dc217d13e8268",
    "zrank/zipf-tokens": "1a5518737321e2b6e1325089567107fd009614fe0ea393c7555ddbef9fd97d0a",
    "zranks/delta-sorted": "1c755ae8f04c8aae157e7d5b56b6f3f4bd026e2759b8a9909d455cc466ba9cea",
    "zranks/delta-wide": "bf1bc5d55b956d3b11150cc1af3fc621fc083c6b32171bcfe32ceb7eb0ec1cda",
    "zranks/dtype-int16": "63b4e16fa325a6acbf50fb607435eef369cd5c06198032b0ae7a0895ed94a488",
    "zranks/dtype-int32": "334ca3507f831e3d9690d72960edd99c883666eb5e02782fb3cb6141d79291c1",
    "zranks/dtype-int64": "bed6827f5f9f80ebfed388830384c21a100758fb12742abb83c4f177af4b60eb",
    "zranks/dtype-int8": "cb77ede92f5f11335cdc940eed51f740a4e94200f1cab6f3aafa1abdaf369d40",
    "zranks/dtype-uint16": "35e46a116307fd7f1d616075d5153f69ea561573cdb10e40f445288615919f5f",
    "zranks/dtype-uint32": "6b24c9ffefdeed289529f7227919bb58a0d207bf3a9386592f550c1de8ced6a4",
    "zranks/dtype-uint64": "517fc1f9af66636f7f699593eb3d62339c5519828aa8701844e2bfbcb06c6d6d",
    "zranks/dtype-uint8": "2cbe713385eaeec88ada6ec1c8de9da2f06fa4c886191fa28ee986d0271e997f",
    "zranks/empty": "b7ffce8c41917a9a42c829acb78f41b8e7ab48819469ef55fbc75399ed8944e2",
    "zranks/int32-full-range": "3916fccb97474c6a6c77d5d265b742d42ea3c7c0d9f0853a827f55bca53e9c47",
    "zranks/long-tokens": "77c871239e073ad30cef75c479052bc988f5c2b00c621287e7e306616bb4d570",
    "zranks/mixed-widths": "438d930245111871ae9d19b1c8280038da6f9d8e2913cc1e7241bee1f9dcafc0",
    "zranks/one-block": "af27c636184efae4cf639517a5e341b7911d2a7e856bf2c531c8f311dd8fdff5",
    "zranks/one-width": "f68ef91ea0c73e180efce30415fbbc6f1ce6fa1104db5efb814a24914ff974f9",
    "zranks/partial-tail": "13b586945c16c6df4ee55cbd80b197b87e3366e362de849c70e8bf6de11956e5",
    "zranks/pfor-exceptions": "5f1f5663d4cb5fc5dc81eedc81979e95090d7d798ce3075de139d76cafc0467f",
    "zranks/single": "6ad9724377c188a21195603e1274405d919f04d389fb0c75f5fab9f179f9a800",
    "zranks/timestamps": "0e6e7ea8c99cfa917261d2132613a01e017b23c83e1973740d72b6a790fa90a6",
    "zranks/wide-vocab": "257f97b745bf8a00ada120c7e8c9fa52f63e3e3522bc338c7b8e12598b9e9c3a",
    "zranks/wider-than-32": "41943b951f46857839c272e269897c0808fe735df29031ab14b60249d99d789d",
    "zranks/zero-width": "5faeec539fdcc9be030c71f45f9e581be9aa162f01ac3259052ca5c61bac2ee8",
    "zranks/zipf-tokens": "0a5c35fd8b56c4787984fa7c6f27fd2e54aaaaecbff5c9ec21964b215cb9bbfe",
    "zrank_v1/delta-sorted": "7cbb22ab3cb092e0a07adf13a3a7811e948c043898246f5c3c38b9aa2eb289ca",
    "zrank_v1/delta-wide": "975b6a53b53bd7d1f5ea06f3b16eaa8815e506ff030b8ebeb8fecc5a18973ab5",
    "zrank_v1/dtype-int16": "2ba29002a88f420137b455f9a302444dac7b727da4c8ed645a54d7a1fe56f7a1",
    "zrank_v1/dtype-int32": "7308a94d2aca40f7083bae43e99fffc67995a6792dbeeba3a277374f71794347",
    "zrank_v1/dtype-int64": "b6bac4c4e5c1a6c52aeb2f57f0012019f95e345793bec8a446bc1884967a8ea9",
    "zrank_v1/dtype-int8": "38c189a7345a6951181206ce49b88aa2d2cfba72ff21c5bb0f9f18a8cc281889",
    "zrank_v1/dtype-uint16": "0e8084d16ce087be6b844796e9f69a14ef480fc52cf1cea88f25b6615272d0d8",
    "zrank_v1/dtype-uint32": "80e31dbc014a7b490b05f98b0cdbe43bcd1ab61e434debb34dcc910dad7a7f90",
    "zrank_v1/dtype-uint64": "605ca220a44737fd4621e38b32a18a7703c3519d3b653b22c930ea3c41315eff",
    "zrank_v1/dtype-uint8": "3c8cc01ce051d4d3ac6dac965eeec904b0378789fd1e336eb192f95c06e4d82a",
    "zrank_v1/empty": "9dc27716310d8e7b99af8e9e4fd17dde3e15969631022500d4de2c4f4106ad2e",
    "zrank_v1/int32-full-range": "139f361a41a1be766c7b4e38b84e788f87c86f0c181d315d6358e1bef12640f4",
    "zrank_v1/long-tokens": "17910e072fbb0da0bddb014eed24da639ca1ac1d1c6d587843a38d3816145fae",
    "zrank_v1/mixed-widths": "a024eb7c18329c79ad1e31f0c6280e5f435cf5b4d2bf60921533e480dc333473",
    "zrank_v1/one-block": "7932e1ec378acfeeb1e47cc769255b46bf7854f2af09d8900297283aa51a5526",
    "zrank_v1/one-width": "5e874621ab33eb352e0bdb5b22e7796a876a0cfb2c8424535e01d4948ab733bf",
    "zrank_v1/partial-tail": "12c65b9f78dcd1147077e85768f0e3971a7c88adba6b6ca90da2fe0da738cd52",
    "zrank_v1/pfor-exceptions": "6731df5d390d50ad39880fff48b6e0505d1ea2d27c9f4c7193a929bafa5220e5",
    "zrank_v1/single": "94f5314a0235a8d5e5f154876c5e4577a4b9a213e7420d0ba491471e34eb7325",
    "zrank_v1/timestamps": "08e39539133bb4d79e0b0a35d011c80f7b0c4feff7d942e408cde23776db4803",
    "zrank_v1/wide-vocab": "9cc6b18a6f91256f5c7a2bce447f57ab6b01015d4fd30362c8726d1e950cce81",
    "zrank_v1/wider-than-32": "57e496521d470c7b2c9424c9b29427af14660a58347165e22921936f4cf0ac98",
    "zrank_v1/zero-width": "37348b1985c2ff51f98988ee678a57d52c87537e7f80a23d73a88f9419df663d",
    "zrank_v1/zipf-tokens": "cbaf460f12de0163a8fe4799bb5b8a12c78b0a4d53c7c9b6fb5db316b6d7e795",
    "zranks_v1/delta-sorted": "170d901beca632d7bf40f867fa13d1bf49978b211cda3db47b93c0ee0c6688c8",
    "zranks_v1/delta-wide": "d270b81982e9ea8ef16499cbddfa7bfa3823ef5003f42996cc0228801dbdbcbd",
    "zranks_v1/dtype-int16": "6aebffd920a395d6a8a397078cfce16ee36f2ea4d2151a30c4e995278223fb47",
    "zranks_v1/dtype-int32": "abead25cc31571cdf67e1ff8c41a6fcebad1867da83b41ef1ecba8f6f2f35aae",
    "zranks_v1/dtype-int64": "8de6237b40103666daca2ef7d0f2d3a831a3ae758c70c563f3638b45143a081b",
    "zranks_v1/dtype-int8": "cd8069b65df7ab3547111d312a51d26751d55440a7345b62fb7e858d13537427",
    "zranks_v1/dtype-uint16": "fa03fa9fd6e9808fe5df16c08a1fe01bf085a23d3cdfbe595cb9696dd16b93fd",
    "zranks_v1/dtype-uint32": "3c32087e4c468d30ae18bd70ca74664025f487203b18f08cbea76b03b6381f06",
    "zranks_v1/dtype-uint64": "c2ca86d5bd1725d759b3c8147ea944cff923eb57ed82b95a575561b5e803862e",
    "zranks_v1/dtype-uint8": "1db05b70b6352e7e87e8d4744b41c28822ca526781bbce1e03caca6fc6217506",
    "zranks_v1/empty": "9a11b8500d230ff15fcc83cf115bac733be92be1f0cd98b6ccf6578c47265b15",
    "zranks_v1/int32-full-range": "a7eced1c6ea3f91bb15fc561cb9e84fb7d079467424ed6545cd551b65bb1cd06",
    "zranks_v1/long-tokens": "79c2afe9fb09b5daf85db2ef4bd4cc8617874567cdbc5fc598e3269090e3436d",
    "zranks_v1/mixed-widths": "e21ca38c15dfee48d31ed32b9a4ae6de92c7256267c6665bbd6a6fb48b8be08e",
    "zranks_v1/one-block": "5d95401ba63c6b4a522f365c3c2dcb3597b9a5f77ace0dab1a27b2c7d0ac9574",
    "zranks_v1/one-width": "6a652dda38e8a63869e7ee1faf45c0e6a3552c1a8fa31b59cc04a55e35d57f01",
    "zranks_v1/partial-tail": "fbdc46cec40f26e41519cc72fa0d6d3dd0e159feffb33cc3f171ea0e10f322b7",
    "zranks_v1/pfor-exceptions": "9a263047930ee1d65e039a3930935f8fc6270362abebe218cd33849fc32b4323",
    "zranks_v1/single": "cc11c883ae471b7f9414cce1f5bf9da0a3459dbedb7bcdf318aaa9f08a6aca78",
    "zranks_v1/timestamps": "441c53ea0281818a8c3e3fc92b8cddf943b48eb0596760c53759f301ac270c78",
    "zranks_v1/wide-vocab": "d27fea19b7ecb95a7a1e89cb063782f458fbd42a0823c048a355ddf2293fa4e8",
    "zranks_v1/wider-than-32": "d66910627cdc54fb9c871dd777fe1177cd06eae6f96ec1150f8cd68b5346f579",
    "zranks_v1/zero-width": "d6122561a12e892aa1e9598bb58a2739f5c62b4d439cef1b38e5848d4a7aa0fa",
    "zranks_v1/zipf-tokens": "4564c1b7b62ed4639194cf656ad6b2629bc5af4ff8f676c3790f6d8d6485355c",
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("codec", CODECS)
def test_blob_digest_and_roundtrip(codec, case):
    v = CASES[case]
    key = f"{codec}/{case}"
    try:
        blob, tables = _encode(codec, v)
    except ValueError:
        assert DIGESTS[key] == "ValueError"
        return
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[key]
    got = ic.decode_any_int(blob, tables)
    assert got.dtype == v.dtype and np.array_equal(got, v)
    take = np.concatenate([np.arange(0, v.size, 7), np.arange(v.size)[-1:]])
    part = ic.decode_any_int(blob, tables, take=take)
    assert part.dtype == v.dtype and np.array_equal(part, v[take])


def test_for_bp_and_for64_share_one_block_layout():
    """Wherever FOR_BP succeeds its body equals FOR64's: the two differ
    only in the codec byte."""
    for case, v in CASES.items():
        try:
            a = ic.encode_for_bp(v)
        except ValueError:
            continue
        b = ic.encode_for_bp64(v)
        assert a[1:] == b[1:], case


def _stream(blob: bytes) -> tuple[int, list[int]]:
    """(width, per-frame compressed lengths) of a ZRANK/ZRANKS blob."""
    pos = _codes_at(blob)
    width = blob[pos]
    nf, pos = decode_uvarint(blob, pos + 1)
    zlens = []
    for _ in range(nf):
        z, pos = decode_uvarint(blob, pos)
        zlens.append(z)
    return width, zlens


@pytest.mark.parametrize("codec", ["zrank", "zranks"])
@pytest.mark.parametrize("vocab", [60_000, 90_000], ids=["u16", "u32"])
def test_frames_at_edges(codec, vocab):
    """Streams of several frames, the last one partial, round-trip
    whole and under ``take=`` on both sides of each frame edge; a take
    decompresses only the frames it falls in."""
    rng = np.random.default_rng(vocab)
    width = 2 if vocab <= 65536 else 4
    k = ic.FRAME_BYTES // width
    n = 2 * k + k // 2
    v = np.concatenate(
        [rng.permutation(vocab), rng.zipf(1.2, n - vocab).clip(1, vocab - 1)]
    ).astype(np.int32)
    blob, tables = _encode(codec, v)
    got_width, zlens = _stream(blob)
    assert got_width == width and len(zlens) == 3
    np.testing.assert_array_equal(ic.decode_any_int(blob, tables), v)
    frame_bytes = [k * width, k * width, (n - 2 * k) * width]
    for take, frames in [
        ([k - 1], [0]),
        ([k], [1]),
        ([k - 1, k], [0, 1]),
        ([2 * k - 1, 2 * k], [1, 2]),
        ([2 * k + 5, n - 1], [2]),
        ([n - 1, 0, k + 3, 3], [0, 1, 2]),
    ]:
        take = np.array(take, np.int64)
        stats = {}
        got = ic.decode_any_int(blob, tables, take=take, stats=stats)
        assert got.dtype == v.dtype
        np.testing.assert_array_equal(got, v[take])
        decompressed = sum(frame_bytes[f] for f in frames)
        assert stats["codes"] == (decompressed, n * width, sum(zlens))


def test_legacy_zranks_blob_of_many_codes_decodes():
    """A hand-built id-9 blob, its more than 2**17 codes in one zstd
    frame, decodes whole and under ``take=``, and counts the whole
    stream as decompressed."""
    rng = np.random.default_rng(9)
    rt = ic.RankTable(np.arange(1000, 0, -1, dtype=np.int32))
    h = rt.table_hash()
    extras = np.array([5000, 6000], "<i4")
    n = (1 << 17) + 5000
    codes = rng.integers(0, 1002, n).astype("<u2")
    z = pa.Codec("zstd", compression_level=3).compress(codes.tobytes(), asbytes=True)
    blob = (
        bytes([9, 1]) + encode_uvarint(n) + bytes.fromhex(h)
        + encode_uvarint(extras.size) + extras.tobytes()
        + bytes([2]) + encode_uvarint(len(z)) + z
    )
    tables = {h: rt.serialize()}
    want = np.concatenate([rt.table, extras])[codes]
    got = ic.decode_any_int(blob, tables)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    take = np.array([n - 1, 0, 1 << 17], np.int64)
    stats = {}
    np.testing.assert_array_equal(
        ic.decode_any_int(blob, tables, take=take, stats=stats), want[take]
    )
    assert stats["codes"] == (2 * n, 2 * n, len(z))
    assert ic.zranks_extras_count(blob) == extras.size
