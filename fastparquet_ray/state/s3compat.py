"""Minimal fsspec filesystem over the S3 wire API via boto3 — for
S3-compatible endpoints (minio, moto, ceph-rgw) when s3fs isn't
installed. Reference analog: fastparquet reaches S3 through fsspec's
s3fs (/root/reference/fastparquet/api.py:95-103 open_with threading);
this provides the same AbstractFileSystem surface the engine's
state.fs layer consumes, built only on boto3 + the public fsspec spec.

Only the operations the engine uses are implemented: streaming-ish
reads, one-shot and MULTIPART writes (real UploadPart calls above the
part threshold — the publish-on-complete atomicity atomic_write relies
on for object stores), prefix listing (find/glob), head, delete.

Instances are picklable (the boto3 client is rebuilt lazily per
process), so they can ride into Ray tasks/actors via
encode_pipeline(filesystem=...) / decode_dataset(filesystem=...).
"""

from __future__ import annotations

import io
from typing import Any

from botocore.exceptions import ClientError
from fsspec.spec import AbstractFileSystem

MULTIPART_THRESHOLD = 8 * 1024 * 1024  # bytes; >= this -> UploadPart
PART_SIZE = 5 * 1024 * 1024  # S3 minimum part size
# error codes meaning "no such key/bucket"; any other error (auth,
# network) raises rather than reading as a missing file
MISSING = ("404", "NoSuchKey", "NoSuchBucket")


class S3CompatFileSystem(AbstractFileSystem):
    protocol = "s3compat"

    def __init__(
        self,
        endpoint_url: str,
        access_key: str = "test",
        secret_key: str = "test",
        region: str = "us-east-1",
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self.endpoint_url = endpoint_url
        self.access_key = access_key
        self.secret_key = secret_key
        self.region = region
        self._client = None

    # boto3 clients hold sockets — rebuild lazily after pickling
    def __getstate__(self):
        d = dict(self.__dict__)
        d["_client"] = None
        return d

    @property
    def client(self):
        if self._client is None:
            import boto3

            self._client = boto3.client(
                "s3",
                endpoint_url=self.endpoint_url,
                aws_access_key_id=self.access_key,
                aws_secret_access_key=self.secret_key,
                region_name=self.region,
            )
        return self._client

    # ----- path helpers -----

    @staticmethod
    def _split(path: str) -> tuple[str, str]:
        path = path.lstrip("/")
        bucket, _, key = path.partition("/")
        return bucket, key

    # ----- metadata -----

    def info(self, path: str, **kwargs) -> dict:
        path = self._strip_protocol(path)
        bucket, key = self._split(path)
        if key:
            try:
                h = self.client.head_object(Bucket=bucket, Key=key)
                return {"name": path, "size": h["ContentLength"], "type": "file"}
            except ClientError as e:
                if e.response.get("Error", {}).get("Code") not in MISSING:
                    raise
            # directory if any key lives under the prefix
            r = self.client.list_objects_v2(
                Bucket=bucket, Prefix=key.rstrip("/") + "/", MaxKeys=1
            )
            if r.get("KeyCount", 0):
                return {"name": path, "size": 0, "type": "directory"}
            raise FileNotFoundError(path)
        return {"name": path, "size": 0, "type": "directory"}

    def exists(self, path: str, **kwargs) -> bool:
        try:
            self.info(path)
            return True
        except FileNotFoundError:
            return False

    def isdir(self, path: str) -> bool:
        try:
            return self.info(path)["type"] == "directory"
        except FileNotFoundError:
            return False

    def size(self, path: str) -> int:
        return self.info(path)["size"]

    def find(self, path: str, maxdepth=None, withdirs=False, detail=False, **kwargs):
        path = self._strip_protocol(path)
        bucket, key = self._split(path)
        prefix = key.rstrip("/")
        if prefix:
            prefix += "/"
        out = {}
        token = None
        while True:
            kw = {"Bucket": bucket, "Prefix": prefix}
            if token:
                kw["ContinuationToken"] = token
            r = self.client.list_objects_v2(**kw)
            for obj in r.get("Contents", []):
                p = f"{bucket}/{obj['Key']}"
                out[p] = {"name": p, "size": obj["Size"], "type": "file"}
            if not r.get("IsTruncated"):
                break
            token = r.get("NextContinuationToken")
        return out if detail else sorted(out)

    def ls(self, path: str, detail: bool = False, **kwargs):
        entries = self.find(path, detail=True)
        return list(entries.values()) if detail else sorted(entries)

    # ----- data -----

    def makedirs(self, path: str, exist_ok: bool = False) -> None:
        # object stores have no directories; ensure the bucket exists
        bucket, _ = self._split(self._strip_protocol(path))
        try:
            self.client.head_bucket(Bucket=bucket)
        except ClientError as e:
            if e.response.get("Error", {}).get("Code") not in MISSING:
                raise
            self.client.create_bucket(Bucket=bucket)

    def mkdirs(self, path: str, exist_ok: bool = False) -> None:
        self.makedirs(path, exist_ok)

    def rm(self, path: str, recursive: bool = False, **kwargs) -> None:
        path = self._strip_protocol(path)
        bucket, key = self._split(path)
        if recursive and self.isdir(path):
            for p in self.find(path):
                b, k = self._split(p)
                self.client.delete_object(Bucket=b, Key=k)
            return
        self.client.delete_object(Bucket=bucket, Key=key)

    def _open(self, path: str, mode: str = "rb", **kwargs):
        path = self._strip_protocol(path)
        bucket, key = self._split(path)
        if mode in ("rb", "r"):
            try:
                obj = self.client.get_object(Bucket=bucket, Key=key)
            except self.client.exceptions.NoSuchKey as e:
                raise FileNotFoundError(path) from e
            return io.BytesIO(obj["Body"].read())
        if mode in ("wb", "w"):
            return _S3WriteBuffer(self, bucket, key)
        raise NotImplementedError(f"mode {mode}")


class _S3WriteBuffer(io.BytesIO):
    """Buffers locally; publishes on close — one-shot PutObject below
    the threshold, real multipart (CreateMultipartUpload / UploadPart /
    CompleteMultipartUpload) above it. Either way the key appears only
    when the upload COMPLETES, which is the atomicity
    state.fs.atomic_write relies on for object stores."""

    def __init__(self, fs: S3CompatFileSystem, bucket: str, key: str):
        super().__init__()
        self._fs = fs
        self._bucket = bucket
        self._key = key
        self._published = False

    def close(self) -> None:
        if self._published or self.closed:
            return
        data = self.getvalue()
        c = self._fs.client
        if len(data) < MULTIPART_THRESHOLD:
            c.put_object(Bucket=self._bucket, Key=self._key, Body=data)
        else:
            mp = c.create_multipart_upload(Bucket=self._bucket, Key=self._key)
            uid = mp["UploadId"]
            parts = []
            try:
                for i in range(0, len(data), PART_SIZE):
                    pn = i // PART_SIZE + 1
                    r = c.upload_part(
                        Bucket=self._bucket,
                        Key=self._key,
                        UploadId=uid,
                        PartNumber=pn,
                        Body=data[i : i + PART_SIZE],
                    )
                    parts.append({"ETag": r["ETag"], "PartNumber": pn})
                c.complete_multipart_upload(
                    Bucket=self._bucket,
                    Key=self._key,
                    UploadId=uid,
                    MultipartUpload={"Parts": parts},
                )
            except Exception:
                c.abort_multipart_upload(
                    Bucket=self._bucket, Key=self._key, UploadId=uid
                )
                raise
        self._published = True
        super().close()
